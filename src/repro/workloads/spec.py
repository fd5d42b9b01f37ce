"""SPEC CPU2017 intrate *proxies* (substitution documented in DESIGN.md).

SPEC sources and inputs are proprietary, so each benchmark is replaced by
a synthetic kernel engineered to exercise the same dominant bottleneck
the paper (and the wider literature) reports for it on an OoO core:

==================  =====================================================
505.mcf_r           cold pointer chasing -> ~80% Backend, Memory Bound
523.xalancbmk_r     hash-bucket record probes -> ~80% Backend, Memory
541.leela_r         pseudo-random playout branches -> Bad Spec + Core
525.x264_r          unrolled SAD/abs compute -> high Retiring, notable
                    Bad Speculation from data-dependent selections
548.exchange2_r     recursive permutation search -> high Retiring, Core
500.perlbench_r     indirect-dispatch interpreter with a >32 KiB hot
                    code footprint -> Bad Spec + visible Frontend
502.gcc_r           tree-walk with per-node opcode switch -> mixed
520.omnetpp_r       binary-heap event queue -> Memory + Bad Spec mix
531.deepsjeng_r     24 KiB transposition table probes -> L1D-size
                    sensitive (Rocket CS1 uses 16 vs 32 KiB)
557.xz_r            byte-wise match loops -> mixed Memory + Bad Spec
==================  =====================================================

Every proxy has a Python twin that computes the expected exit checksum,
so functional correctness of the assembly is verified on every build.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from .data import Lcg, dwords, ring_permutation
from .registry import Workload, register

_MASK64 = (1 << 64) - 1

#: A proxy's inputs are built once for the scale last asked for: its
#: source builder and its exit-checksum twin (checked on every
#: ``build_trace``) both read them.  They are tuples, so no caller can
#: change what the other sees.
_per_scale = lru_cache(maxsize=1)


# ---------------------------------------------------------------------------
# 505.mcf_r — cold pointer chase
# ---------------------------------------------------------------------------

@_per_scale
def _mcf_params(scale: float) -> Tuple[int, int, Tuple[int, ...]]:
    nodes = max(4096, int(32768 * scale))
    hops = max(300, int(1100 * scale))
    return nodes, hops, tuple(ring_permutation(nodes, seed=7))


# Per-hop "arc cost" computation: real mcf does integer arithmetic on
# every visited node, which is what keeps its Backend share near (not
# at) 100%.  Two chains are chased in parallel for realistic MLP.
_MCF_COST_BLOCK = """
    add a4, t0, s4
    slli a5, a4, 3
    sub a5, a5, t0
    xor a6, a5, a4
    andi a6, a6, 2047
    add s1, s1, a6
    add a4, s4, t0
    srli a5, a4, 2
    add a5, a5, a4
    xori a5, a5, 0x2A
    andi a5, a5, 1023
    add s1, s1, a5
"""


def _mcf_source(scale: float) -> str:
    nodes, hops, ring = _mcf_params(scale)
    half = nodes // 2
    return f"""
.data
{dwords("ring", ring)}
.text
_start:
    la a0, ring
    li s0, {hops}
    li t0, 0                  # chain A: current node
    li s4, {half}             # chain B: current node
    li s1, 0                  # accumulator
    li t1, 0                  # hop count
chase_loop:
    bge t1, s0, chase_done
{_MCF_COST_BLOCK}
    slli t2, t0, 3
    add t2, a0, t2
    ld t0, 0(t2)              # chain A pointer load
    slli t3, s4, 3
    add t3, a0, t3
    ld s4, 0(t3)              # chain B pointer load
    addi t1, t1, 1
    j chase_loop
chase_done:
    li t0, 4096
    remu a0, s1, t0
    li a7, 93
    ecall
"""


def _mcf_exit(scale: float) -> int:
    nodes, hops, ring = _mcf_params(scale)
    a = 0
    b = nodes // 2
    acc = 0
    for _ in range(hops):
        v1 = ((((a + b) << 3) - a) ^ (a + b)) & 2047
        acc += v1
        t = a + b
        v2 = (((t >> 2) + t) ^ 0x2A) & 1023
        acc += v2
        a = ring[a]
        b = ring[b]
    return acc % 4096


# ---------------------------------------------------------------------------
# 523.xalancbmk_r — hash-bucket record probes
# ---------------------------------------------------------------------------

@_per_scale
def _xalanc_params(scale: float):
    buckets = 4096
    probes = max(150, int(650 * scale))
    rng = Lcg(101)
    bucket_rec = tuple(rng.below(buckets) for _ in range(buckets))
    # Each record is 8 dwords (one 64 B cache block).
    records = tuple(rng.below(1000) for _ in range(buckets * 8))
    probe_seq = tuple(rng.below(buckets) for _ in range(probes))
    return buckets, probes, bucket_rec, records, probe_seq


def _xalanc_source(scale: float) -> str:
    buckets, probes, bucket_rec, records, probe_seq = _xalanc_params(scale)
    return f"""
.data
{dwords("bucket_rec", bucket_rec)}
{dwords("records", records)}
{dwords("probe_seq", probe_seq)}
.text
_start:
    la a0, bucket_rec
    la a1, records
    la a2, probe_seq
    li s0, {probes}
    li s1, 0                  # checksum
    li s2, 4095               # hash mask (too wide for an andi imm)
    li t0, 0                  # probe index
probe_loop:
    bge t0, s0, probe_done
    slli t1, t0, 3
    add t1, a2, t1
    ld t2, 0(t1)              # bucket number
    slli t3, t2, 3
    add t3, a0, t3
    ld t4, 0(t3)              # record index (cold load #1)
    slli t5, t4, 6            # record offset (8 dwords)
    add t5, a1, t5
    ld t6, 0(t5)              # record key word 0 (cold load #2)
    ld a3, 8(t5)              # key word 1 (same block)
    add a4, t6, a3
    # string-hash style mixing on the fetched key (keeps Retiring > 0)
    slli a5, a4, 5
    add a5, a5, a4
    xor a5, a5, t6
    srli a6, a5, 3
    add a5, a5, a6
    and a5, a5, s2
    slli a6, a3, 2
    xor a6, a6, a5
    andi a6, a6, 2047
    add s1, s1, a4
    add s1, s1, a6
    addi t0, t0, 1
    j probe_loop
probe_done:
    li t0, 4096
    remu a0, s1, t0
    li a7, 93
    ecall
"""


def _xalanc_exit(scale: float) -> int:
    buckets, probes, bucket_rec, records, probe_seq = _xalanc_params(scale)
    checksum = 0
    for i in range(probes):
        rec = bucket_rec[probe_seq[i]]
        key0 = records[rec * 8]
        key1 = records[rec * 8 + 1]
        a4 = key0 + key1
        a5 = ((a4 << 5) + a4) ^ key0
        a5 = (a5 + (a5 >> 3)) & 4095
        a6 = ((key1 << 2) ^ a5) & 2047
        checksum += a4 + a6
    return checksum % 4096


# ---------------------------------------------------------------------------
# 541.leela_r — pseudo-random playout branches
# ---------------------------------------------------------------------------

@_per_scale
def _leela_params(scale: float):
    iterations = max(600, int(3000 * scale))
    board = tuple(Lcg(113).values(512, 64))
    return iterations, board


def _leela_source(scale: float) -> str:
    iterations, board = _leela_params(scale)
    return f"""
.data
{dwords("board", board)}
.text
_start:
    la a0, board
    li s0, {iterations}
    li s1, 0                  # checksum
    li s2, 0x9E3779B9         # LFSR-ish state seed
    li s3, 0                  # board cursor
    li t0, 0
play_loop:
    bge t0, s0, play_done
    # xorshift PRNG step
    slli t1, s2, 13
    xor s2, s2, t1
    srli t1, s2, 7
    xor s2, s2, t1
    slli t1, s2, 17
    xor s2, s2, t1
    # data-dependent decision branch (~75/25, partially learnable)
    andi t2, s2, 3
    bnez t2, play_pass
    # "move": read a board cell and fold it in
    slli t3, s3, 3
    add t3, a0, t3
    ld t4, 0(t3)
    add s1, s1, t4
    j play_next
play_pass:
    # "pass": update the cell instead
    slli t3, s3, 3
    add t3, a0, t3
    ld t4, 0(t3)
    addi t4, t4, 1
    sd t4, 0(t3)
play_next:
    # advance cursor with a small stride
    slli t5, s3, 2
    add t5, t5, s3
    addi t5, t5, 1
    andi s3, t5, 511
    addi t0, t0, 1
    j play_loop
play_done:
    li t0, 4096
    remu a0, s1, t0
    li a7, 93
    ecall
"""


def _leela_exit(scale: float) -> int:
    iterations, board = _leela_params(scale)
    board = list(board)
    state = 0x9E3779B9
    checksum = 0
    cursor = 0
    for _ in range(iterations):
        state = (state ^ (state << 13)) & _MASK64
        state = (state ^ (state >> 7)) & _MASK64
        state = (state ^ (state << 17)) & _MASK64
        if not state & 3:
            checksum += board[cursor]
        else:
            board[cursor] += 1
        cursor = (cursor * 5 + 1) & 511
    return checksum % 4096


# ---------------------------------------------------------------------------
# 525.x264_r — unrolled SAD compute with data-dependent selection
# ---------------------------------------------------------------------------

@_per_scale
def _x264_params(scale: float):
    blocks = max(120, int(600 * scale))
    ref = tuple(Lcg(127).values(512, 256))
    cur = tuple(Lcg(131).values(512, 256))
    return blocks, ref, cur


def _x264_source(scale: float) -> str:
    blocks, ref, cur = _x264_params(scale)
    # 8-wide unrolled absolute-difference row (branchless abs), then a
    # data-dependent best-block selection branch.
    unrolled = []
    for k in range(8):
        unrolled.append(f"""
    ld t1, {8 * k}(a3)
    ld t2, {8 * k}(a4)
    sub t3, t1, t2
    srai t4, t3, 63
    xor t3, t3, t4
    sub t3, t3, t4            # |ref - cur|
    add s4, s4, t3""")
    body = "".join(unrolled)
    return f"""
.data
{dwords("ref_px", ref)}
{dwords("cur_px", cur)}
.text
_start:
    la a0, ref_px
    la a1, cur_px
    li s0, {blocks}
    li s1, 0                  # checksum
    li s2, 0                  # previous block's SAD
    li s3, 2463534242         # row-picker xorshift state
    li t0, 0                  # block index
sad_loop:
    bge t0, s0, sad_done
    slli t5, s3, 13
    xor s3, s3, t5
    srli t5, s3, 7
    xor s3, s3, t5
    slli t5, s3, 17
    xor s3, s3, t5
    andi t5, s3, 63
    slli t5, t5, 6            # row offset: aperiodic row * 8 dwords
    add a3, a0, t5
    add a4, a1, t5
    li s4, 0                  # SAD accumulator
{body}
    add s1, s1, s4
    # data-dependent selections (the Bad-Speculation source the paper
    # flags for x264): best-block compare and a cost-parity path
    bge s4, s2, sad_second
    addi s1, s1, 13
sad_second:
    andi t6, s4, 1
    beqz t6, sad_next
    addi s1, s1, 7
sad_next:
    mv s2, s4
    addi t0, t0, 1
    j sad_loop
sad_done:
    li t0, 4096
    remu a0, s1, t0
    li a7, 93
    ecall
"""


def _x264_exit(scale: float) -> int:
    blocks, ref, cur = _x264_params(scale)
    checksum = 0
    previous = 0
    state = 2463534242
    for block in range(blocks):
        state = (state ^ (state << 13)) & _MASK64
        state = (state ^ (state >> 7)) & _MASK64
        state = (state ^ (state << 17)) & _MASK64
        base = (state & 63) * 8
        sad = sum(abs(ref[base + k] - cur[base + k]) for k in range(8))
        checksum += sad
        if sad < previous:
            checksum += 13
        if sad & 1:
            checksum += 7
        previous = sad
    return checksum % 4096


# ---------------------------------------------------------------------------
# 548.exchange2_r — recursive permutation search (Heap's algorithm)
# ---------------------------------------------------------------------------

def _exchange2_source(scale: float) -> str:
    n = 6 if scale >= 0.75 else 5
    return f"""
.data
digits: .dword 3, 1, 4, 1, 5, 9, 2, 6
.text
_start:
    la s2, digits
    li s1, 0                  # checksum
    li a0, {n}
    call permute
    li t0, 4096
    remu a0, s1, t0
    li a7, 93
    ecall

permute:
    addi sp, sp, -24
    sd ra, 0(sp)
    sd a0, 8(sp)
    sd s3, 16(sp)
    li t0, 1
    bgt a0, t0, perm_recurse
    # leaf: fold the first digits into the checksum
    ld t1, 0(s2)
    ld t2, 8(s2)
    slli t3, t1, 3
    add t3, t3, t2
    add s1, s1, t3
    j perm_done
perm_recurse:
    li s3, 0                  # i
perm_loop:
    ld a0, 8(sp)
    bge s3, a0, perm_done
    addi a0, a0, -1
    call permute
    ld a0, 8(sp)
    andi t0, a0, 1
    beqz t0, perm_even
    # odd n: swap digits[0] and digits[n-1]
    ld t1, 0(s2)
    addi t2, a0, -1
    slli t2, t2, 3
    add t2, s2, t2
    ld t3, 0(t2)
    sd t3, 0(s2)
    sd t1, 0(t2)
    j perm_advance
perm_even:
    # even n: swap digits[i] and digits[n-1]
    slli t1, s3, 3
    add t1, s2, t1
    ld t3, 0(t1)
    addi t2, a0, -1
    slli t2, t2, 3
    add t2, s2, t2
    ld t4, 0(t2)
    sd t4, 0(t1)
    sd t3, 0(t2)
perm_advance:
    addi s3, s3, 1
    j perm_loop
perm_done:
    ld ra, 0(sp)
    ld s3, 16(sp)
    addi sp, sp, 24
    ret
"""


def _exchange2_exit(scale: float) -> int:
    n = 6 if scale >= 0.75 else 5
    digits = [3, 1, 4, 1, 5, 9, 2, 6]
    checksum = 0

    def permute(k: int) -> None:
        nonlocal checksum
        if k <= 1:
            checksum += (digits[0] << 3) + digits[1]
            return
        for i in range(k):
            permute(k - 1)
            if k & 1:
                digits[0], digits[k - 1] = digits[k - 1], digits[0]
            else:
                digits[i], digits[k - 1] = digits[k - 1], digits[i]

    permute(n)
    return checksum % 4096


# ---------------------------------------------------------------------------
# 500.perlbench_r — indirect-dispatch interpreter, large code footprint
# ---------------------------------------------------------------------------

_PERL_HANDLERS = 192
_PERL_EXEC_INSTRS = 22        # executed instructions per handler
_PERL_PAD_INSTRS = 20         # never-executed padding (code footprint)


@_per_scale
def _perl_params(scale: float):
    steps = max(200, int(800 * scale))
    # Real interpreters show opcode locality: runs of the same handler
    # keep the BTB's indirect target correct for a while, so only run
    # boundaries mispredict (~1/run_length of dispatches).
    rng = Lcg(139)
    opcodes = []
    while len(opcodes) < steps:
        opcode = rng.below(_PERL_HANDLERS)
        run = 6 + rng.below(10)
        opcodes.extend([opcode] * run)
    return steps, tuple(opcodes[:steps])


def _perl_source(scale: float) -> str:
    steps, opcodes = _perl_params(scale)
    handlers = []
    table_init = []
    for h in range(_PERL_HANDLERS):
        table_init.append(f"""
    la t1, handler_{h}
    sd t1, {8 * h}(t0)""")
        const = (h * 2654435761) & 0xFFF
        body = [f"handler_{h}:"]
        body.append(f"    li t2, {const}")
        body.append("    add s1, s1, t2")
        body.append(f"    xori t3, s1, {h & 0x7FF}")
        body.append("    andi t3, t3, 2047")
        body.append("    add s1, s1, t3")
        # Straight-line filler to reach the executed-instruction budget.
        for k in range(_PERL_EXEC_INSTRS - 7):
            body.append(f"    addi t4, t2, {k + 1}")
        body.append("    add s1, s1, t4")
        body.append("    ret")
        for _ in range(_PERL_PAD_INSTRS):
            body.append("    nop")  # padding: grows the code footprint
        handlers.append("\n".join(body))
    return f"""
.data
{dwords("op_seq", opcodes)}
htab: .space {8 * _PERL_HANDLERS}
.text
_start:
    # build the handler-address table (once)
    la t0, htab
{"".join(table_init)}
    la a0, op_seq
    la a1, htab
    li s0, {steps}
    li s1, 0                  # checksum
    li s2, 0                  # step
dispatch_loop:
    bge s2, s0, dispatch_done
    slli t0, s2, 3
    add t0, a0, t0
    ld t1, 0(t0)              # opcode
    slli t1, t1, 3
    add t1, a1, t1
    ld t2, 0(t1)              # handler address
    jalr ra, t2, 0            # indirect dispatch (mostly mispredicted)
    addi s2, s2, 1
    j dispatch_loop
dispatch_done:
    li t0, 4096
    remu a0, s1, t0
    li a7, 93
    ecall

{chr(10).join(handlers)}
"""


def _perl_exit(scale: float) -> int:
    steps, opcodes = _perl_params(scale)
    checksum = 0
    for op in opcodes:
        const = (op * 2654435761) & 0xFFF
        checksum = (checksum + const) & _MASK64
        t3 = (checksum ^ (op & 0x7FF)) & 2047
        checksum = (checksum + t3) & _MASK64
        t4 = (const + (_PERL_EXEC_INSTRS - 7)) & _MASK64
        checksum = (checksum + t4) & _MASK64
    return checksum % 4096


# ---------------------------------------------------------------------------
# 502.gcc_r — tree walk with per-node opcode switch
# ---------------------------------------------------------------------------

@_per_scale
def _gcc_params(scale: float):
    nodes = max(512, int(4096 * scale))
    visits = max(400, int(1800 * scale))
    rng = Lcg(149)
    ops = tuple(rng.below(4) for _ in range(nodes))
    left = tuple(rng.below(nodes) for _ in range(nodes))
    right = tuple(rng.below(nodes) for _ in range(nodes))
    return nodes, visits, ops, left, right


def _gcc_source(scale: float) -> str:
    nodes, visits, ops, left, right = _gcc_params(scale)
    return f"""
.data
{dwords("node_op", ops)}
{dwords("node_left", left)}
{dwords("node_right", right)}
.text
_start:
    la a0, node_op
    la a1, node_left
    la a2, node_right
    li s0, {visits}
    li s1, 0                  # checksum
    li s2, 0                  # current node
    li t0, 0                  # visit count
walk_loop:
    bge t0, s0, walk_done
    slli t1, s2, 3
    add t2, a0, t1
    ld t3, 0(t2)              # op (0..3)
    beqz t3, op_const
    li t4, 1
    beq t3, t4, op_add
    li t4, 2
    beq t3, t4, op_mul
    # op 3: xor fold
    xori t5, s2, 0x155
    add s1, s1, t5
    add t6, a2, t1
    ld s2, 0(t6)              # go right
    j walk_next
op_const:
    addi s1, s1, 17
    add t6, a1, t1
    ld s2, 0(t6)              # go left
    j walk_next
op_add:
    add s1, s1, s2
    add t6, a1, t1
    ld s2, 0(t6)
    j walk_next
op_mul:
    slli t5, s2, 1
    add s1, s1, t5
    add t6, a2, t1
    ld s2, 0(t6)
walk_next:
    addi t0, t0, 1
    j walk_loop
walk_done:
    li t0, 4096
    remu a0, s1, t0
    li a7, 93
    ecall
"""


def _gcc_exit(scale: float) -> int:
    nodes, visits, ops, left, right = _gcc_params(scale)
    checksum = 0
    node = 0
    for _ in range(visits):
        op = ops[node]
        if op == 0:
            checksum += 17
            node = left[node]
        elif op == 1:
            checksum += node
            node = left[node]
        elif op == 2:
            checksum += node << 1
            node = right[node]
        else:
            checksum += node ^ 0x155
            node = right[node]
    return checksum % 4096


# ---------------------------------------------------------------------------
# 520.omnetpp_r — binary-heap event queue
# ---------------------------------------------------------------------------

@_per_scale
def _omnetpp_params(scale: float):
    heap_size = 4096
    events = max(80, int(260 * scale))
    keys = tuple(Lcg(151).values(heap_size, 1 << 20))
    replacements = tuple(Lcg(157).values(events, 1 << 20))
    return heap_size, events, keys, replacements


def _heapify(keys: Sequence[int]) -> List[int]:
    heap = list(keys)
    n = len(heap)
    for start in range(n // 2 - 1, -1, -1):
        _sift_down(heap, start, n)
    return heap


def _sift_down(heap: List[int], pos: int, n: int) -> None:
    while True:
        child = 2 * pos + 1
        if child >= n:
            return
        if child + 1 < n and heap[child + 1] < heap[child]:
            child += 1
        if heap[child] >= heap[pos]:
            return
        heap[pos], heap[child] = heap[child], heap[pos]
        pos = child


def _omnetpp_source(scale: float) -> str:
    heap_size, events, keys, replacements = _omnetpp_params(scale)
    heap = _heapify(keys)
    return f"""
.data
{dwords("heap", heap)}
{dwords("repl", replacements)}
.text
_start:
    la a0, heap
    la a1, repl
    li s0, {events}
    li s2, {heap_size}
    li s1, 0                  # checksum
    li t0, 0                  # event count
ev_loop:
    bge t0, s0, ev_done
    # pop-min: fold root key, replace with the next arrival, sift down
    ld t1, 0(a0)
    add s1, s1, t1
    slli t2, t0, 3
    add t2, a1, t2
    ld t3, 0(t2)              # replacement key
    sd t3, 0(a0)
    li t4, 0                  # pos
sift_loop:
    slli t5, t4, 1
    addi t5, t5, 1            # child = 2*pos + 1
    bge t5, s2, sift_done
    slli t6, t5, 3
    add t6, a0, t6
    ld a2, 0(t6)              # heap[child]
    addi a3, t5, 1
    bge a3, s2, no_sibling
    ld a4, 8(t6)              # heap[child + 1]
    bge a4, a2, no_sibling
    mv a2, a4
    mv t5, a3
no_sibling:
    slli a5, t4, 3
    add a5, a0, a5
    ld a6, 0(a5)              # heap[pos]
    bge a2, a6, sift_done     # heap property restored
    # swap pos <-> child
    slli t6, t5, 3
    add t6, a0, t6
    sd a6, 0(t6)
    sd a2, 0(a5)
    mv t4, t5
    j sift_loop
sift_done:
    addi t0, t0, 1
    j ev_loop
ev_done:
    li t0, 4096
    remu a0, s1, t0
    li a7, 93
    ecall
"""


def _omnetpp_exit(scale: float) -> int:
    heap_size, events, keys, replacements = _omnetpp_params(scale)
    heap = _heapify(keys)
    checksum = 0
    for i in range(events):
        checksum += heap[0]
        heap[0] = replacements[i]
        _sift_down(heap, 0, heap_size)
    return checksum % 4096


# ---------------------------------------------------------------------------
# 531.deepsjeng_r — transposition-table probes (L1D-size sensitive)
# ---------------------------------------------------------------------------

_SJENG_TABLE_DWORDS = 3072    # 24 KiB: fits 32 KiB L1D, thrashes 16 KiB


@_per_scale
def _deepsjeng_params(scale: float):
    iterations = max(600, int(2600 * scale))
    table = tuple(Lcg(163).values(_SJENG_TABLE_DWORDS, 1 << 30))
    return iterations, table


def _deepsjeng_source(scale: float) -> str:
    iterations, table = _deepsjeng_params(scale)
    return f"""
.data
{dwords("ttable", table)}
.text
_start:
    la a0, ttable
    li s0, {iterations}
    li s1, 0                  # checksum
    li s2, 88172645463325252  # hash state
    li s3, {_SJENG_TABLE_DWORDS}
    li s5, 65535
    li t0, 0
probe_loop:
    bge t0, s0, probe_done
    # xorshift64 hash step
    slli t1, s2, 13
    xor s2, s2, t1
    srli t1, s2, 7
    xor s2, s2, t1
    slli t1, s2, 17
    xor s2, s2, t1
    # index = ((state >> 16) & 0xFFFF) * size >> 16  (mul-shift range
    # reduction; chess hashes avoid division)
    srli t2, s2, 16
    and t2, t2, s5
    mul t2, t2, s3
    srli t2, t2, 16
    slli t2, t2, 3
    add t2, a0, t2
    ld t3, 0(t2)              # transposition-table probe
    # evaluation: biased cutoff branch (~25% taken, mispredicts some)
    andi t4, t3, 3
    beqz t4, probe_even
    add s1, s1, t3
    j probe_store
probe_even:
    sub s1, s1, t3
probe_store:
    # age the entry on every 4th probe
    andi t5, t0, 3
    bnez t5, probe_next
    addi t3, t3, 1
    sd t3, 0(t2)
probe_next:
    addi t0, t0, 1
    j probe_loop
probe_done:
    li t0, 4096
    # fold to a non-negative exit code
    srai t1, s1, 63
    xor s1, s1, t1
    sub s1, s1, t1
    remu a0, s1, t0
    li a7, 93
    ecall
"""


def _deepsjeng_exit(scale: float) -> int:
    iterations, table = _deepsjeng_params(scale)
    table = list(table)
    state = 88172645463325252
    checksum = 0
    for i in range(iterations):
        state = (state ^ (state << 13)) & _MASK64
        state = (state ^ (state >> 7)) & _MASK64
        state = (state ^ (state << 17)) & _MASK64
        index = (((state >> 16) & 0xFFFF) * _SJENG_TABLE_DWORDS) >> 16
        entry = table[index]
        if entry & 3:
            checksum += entry
        else:
            checksum -= entry
        if i & 3 == 0:
            table[index] = entry + 1
    return (abs(checksum)) % 4096


# ---------------------------------------------------------------------------
# 557.xz_r — byte-wise match loops over a dictionary window
# ---------------------------------------------------------------------------

@_per_scale
def _xz_params(scale: float):
    window_bytes = 49152     # 48 KiB
    matches = max(250, int(1100 * scale))
    rng = Lcg(167)
    window = tuple(rng.below(8) for _ in range(window_bytes))  # alphabet 8
    positions = tuple(rng.below(window_bytes - 64)
                      for _ in range(2 * matches))
    return window_bytes, matches, window, positions


def _xz_source(scale: float) -> str:
    window_bytes, matches, window, positions = _xz_params(scale)
    window_data = "window:\n" + "\n".join(
        "    .byte " + ", ".join(str(b) for b in window[i:i + 16])
        for i in range(0, window_bytes, 16))
    return f"""
.data
{window_data}
{dwords("positions", positions)}
.text
_start:
    la a0, window
    la a1, positions
    li s0, {matches}
    li s1, 0                  # checksum
    li t0, 0                  # match index
match_loop:
    bge t0, s0, match_done
    slli t1, t0, 4            # two positions per match
    add t1, a1, t1
    ld t2, 0(t1)              # pos1
    ld t3, 8(t1)              # pos2
    add t2, a0, t2
    add t3, a0, t3
    li t4, 0                  # match length
len_loop:
    li t5, 32
    bge t4, t5, len_done
    add t6, t2, t4
    lbu a2, 0(t6)
    add a3, t3, t4
    lbu a4, 0(a3)
    bne a2, a4, len_done      # data-dependent exit (~unpredictable)
    addi t4, t4, 1
    j len_loop
len_done:
    add s1, s1, t4
    addi t0, t0, 1
    j match_loop
match_done:
    li t0, 4096
    remu a0, s1, t0
    li a7, 93
    ecall
"""


def _xz_exit(scale: float) -> int:
    window_bytes, matches, window, positions = _xz_params(scale)
    checksum = 0
    for m in range(matches):
        p1, p2 = positions[2 * m], positions[2 * m + 1]
        length = 0
        while length < 32 and window[p1 + length] == window[p2 + length]:
            length += 1
        checksum += length
    return checksum % 4096


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------

SPEC_INTRATE = [
    "500.perlbench_r", "502.gcc_r", "505.mcf_r", "520.omnetpp_r",
    "523.xalancbmk_r", "525.x264_r", "531.deepsjeng_r", "541.leela_r",
    "548.exchange2_r", "557.xz_r",
]


def _register_all() -> None:
    specs = [
        ("500.perlbench_r", _perl_source, _perl_exit,
         "indirect-dispatch interpreter, >32 KiB hot code footprint"),
        ("502.gcc_r", _gcc_source, _gcc_exit,
         "tree walk with per-node opcode switch"),
        ("505.mcf_r", _mcf_source, _mcf_exit,
         "cold pointer chase (memory-bound standout)"),
        ("520.omnetpp_r", _omnetpp_source, _omnetpp_exit,
         "binary-heap event queue simulation"),
        ("523.xalancbmk_r", _xalanc_source, _xalanc_exit,
         "hash-bucket record probes"),
        ("525.x264_r", _x264_source, _x264_exit,
         "unrolled SAD compute with data-dependent selection"),
        ("531.deepsjeng_r", _deepsjeng_source, _deepsjeng_exit,
         "transposition-table probes (L1D-size sensitive)"),
        ("541.leela_r", _leela_source, _leela_exit,
         "pseudo-random playout branches"),
        ("548.exchange2_r", _exchange2_source, _exchange2_exit,
         "recursive permutation search"),
        ("557.xz_r", _xz_source, _xz_exit,
         "byte-wise match loops over a dictionary window"),
    ]
    for name, builder, exit_fn, description in specs:
        register(Workload(
            name=name, category="spec", source_builder=builder,
            description=description, expected_exit=exit_fn))


_register_all()
