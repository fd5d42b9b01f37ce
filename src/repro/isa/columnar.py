"""Columnar dynamic-trace backend: struct-of-arrays storage + byte codec.

A functional trace is extremely redundant: every dynamic instruction is
one of a few hundred *static* instructions, and almost all of a
:class:`~repro.isa.dyn_trace.DynInst`'s fields (pc, class, register
dependencies, latency, flags, mnemonic) are static properties of that
instruction.  :class:`ColumnarTrace` therefore stores

- one :class:`StaticOp` record per *static* instruction, and
- four flat :mod:`array` columns per *dynamic* instruction — the static
  index, the effective memory address, the next committed pc, and the
  branch outcome — plus a sparse ``{dynamic index: value}`` map for the
  rare CSR writes.

That is O(static + columns) allocation instead of O(dynamic) Python
objects, and it gives the trace a natural wire format: :meth:`pack`
emits a compact byte string (JSON header + raw column bytes) that
:func:`unpack` restores, so cross-process handoff ships bytes instead
of pickled ``DynInst`` lists (``__reduce__`` routes pickling through
the codec).

The object view is *lazy*: ``trace[i]`` materializes a single
``DynInst`` on demand, and ``trace.instructions`` materializes (and
caches) the full list the first time a timing model asks for it.
Materialized records are bit-identical to what the interpreted
:class:`~repro.isa.executor.FunctionalExecutor` emits — pinned by
``tests/test_trace_compiler.py``.
"""

from __future__ import annotations

import hashlib
import json
import struct
from array import array
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .dyn_trace import DynamicTrace, DynInst
from .errors import ExecutionError
from .instructions import InstrClass

#: Codec magic + version; bump when the wire layout changes.
_MAGIC = b"RTRC1"

#: Window-codec magics: the shared static-op table blob and the
#: per-window column blob (see :meth:`ColumnarTrace.pack_static`,
#: :meth:`ColumnarTrace.pack_window`, :func:`unpack_window`).
_STATIC_MAGIC = b"RTRS1"
_WINDOW_MAGIC = b"RTRW1"

#: Column typecodes: static index, mem address, next pc, taken flag.
_SIDX_TYPE = "I"
_ADDR_TYPE = "Q"
_TAKEN_TYPE = "B"


class StaticOp(NamedTuple):
    """Per-static-instruction fields shared by all its dynamic instances."""

    pc: int
    cls: InstrClass
    dest: int
    srcs: Tuple[int, ...]
    latency: int
    mnemonic: str
    mem_width: int
    is_load: bool
    is_store: bool
    is_branch: bool
    is_fence: bool
    csr: int


class ColumnarTrace:
    """Committed-path trace stored as columns with lazy ``DynInst`` views.

    Duck-type compatible with :class:`~repro.isa.dyn_trace.DynamicTrace`
    everywhere the repo consumes traces: ``len``/iteration/indexing,
    ``instructions``, the summary helpers, and the end-of-run metadata
    attributes.
    """

    __slots__ = ("static_ops", "sidx", "mem_addr", "next_pc", "taken",
                 "csr_writes", "program_name", "exit_code", "halt_reason",
                 "final_int_regs", "instret", "_materialized",
                 "_timing_tables")

    def __init__(self, static_ops: Tuple[StaticOp, ...],
                 program_name: str = "program",
                 exit_code: int = 0,
                 halt_reason: str = "ecall",
                 final_int_regs: Optional[List[int]] = None) -> None:
        self.static_ops = static_ops
        self.sidx = array(_SIDX_TYPE)
        self.mem_addr = array(_ADDR_TYPE)
        self.next_pc = array(_ADDR_TYPE)
        self.taken = array(_TAKEN_TYPE)
        self.csr_writes: Dict[int, int] = {}
        self.program_name = program_name
        self.exit_code = exit_code
        self.halt_reason = halt_reason
        self.final_int_regs: List[int] = final_int_regs or []
        self.instret = 0
        self._materialized: Optional[List[DynInst]] = None
        self._timing_tables: Dict[str, object] = {}

    @classmethod
    def from_dynamic(cls, trace: DynamicTrace) -> "ColumnarTrace":
        """Columnar copy of an object-form trace.

        Instructions sharing every static field share one
        :class:`StaticOp`; the dynamic fields and CSR writes fill the
        columns.  ``materialize_one(i)`` of the result reproduces
        ``trace[i]`` field for field, with ``index`` set to ``i``.
        """
        columnar = cls((), program_name=trace.program_name,
                       exit_code=trace.exit_code,
                       halt_reason=trace.halt_reason,
                       final_int_regs=list(trace.final_int_regs))
        ops: Dict[StaticOp, int] = {}
        sidx = columnar.sidx.append
        mem_addr = columnar.mem_addr.append
        next_pc = columnar.next_pc.append
        taken = columnar.taken.append
        for i, inst in enumerate(trace.instructions):
            op = StaticOp(inst.pc, inst.cls, inst.dest, tuple(inst.srcs),
                          inst.latency, inst.mnemonic, inst.mem_width,
                          inst.is_load, inst.is_store, inst.is_branch,
                          inst.is_fence, inst.csr)
            s = ops.get(op)
            if s is None:
                s = ops[op] = len(ops)
            sidx(s)
            mem_addr(inst.mem_addr)
            next_pc(inst.next_pc)
            taken(inst.taken)
            if inst.csr_write is not None:
                columnar.csr_writes[i] = inst.csr_write
        columnar.static_ops = tuple(ops)
        columnar.instret = trace.instret
        return columnar

    # ------------------------------------------------------------------
    # container protocol / lazy materialization
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.sidx)

    def materialize_one(self, index: int) -> DynInst:
        """Build the ``DynInst`` view of dynamic instruction *index*."""
        op = self.static_ops[self.sidx[index]]
        return DynInst(
            index, op.pc, op.cls, op.dest, op.srcs, op.latency,
            self.next_pc[index], op.mnemonic,
            mem_addr=self.mem_addr[index], mem_width=op.mem_width,
            is_load=op.is_load, is_store=op.is_store,
            is_branch=op.is_branch, taken=bool(self.taken[index]),
            is_fence=op.is_fence, csr=op.csr,
            csr_write=self.csr_writes.get(index))

    def __getitem__(
            self, index: Union[int, slice]) -> Union[DynInst, List[DynInst]]:
        if self._materialized is not None:
            return self._materialized[index]
        if isinstance(index, slice):
            # List semantics: a slice yields a list of DynInst views,
            # exactly what slicing the materialized list would return.
            return [self.materialize_one(i)
                    for i in range(*index.indices(len(self.sidx)))]
        if index < 0:
            index += len(self.sidx)
        if not 0 <= index < len(self.sidx):
            raise IndexError(index)
        return self.materialize_one(index)

    def __iter__(self) -> Iterator[DynInst]:
        if self._materialized is not None:
            return iter(self._materialized)
        return (self.materialize_one(i) for i in range(len(self.sidx)))

    def timing_table(self, kind: str, builder) -> object:
        """Per-trace cache of compiled timing-descriptor tables.

        The columnar timing engines (``cores/descriptors.py``) compile
        the ``static_ops`` tuple into flat per-static-op arrays once per
        core family; *kind* keys the family (``"rocket"``/``"boom"``)
        and *builder* receives ``static_ops`` on a miss.  Tables are
        derived data: they live only on this in-memory instance and are
        deliberately not serialized (``pack()``/``__reduce__`` ship
        columns only; the receiving side recompiles on first use).
        """
        table = self._timing_tables.get(kind)
        if table is None:
            table = builder(self.static_ops)
            self._timing_tables[kind] = table
        return table

    @property
    def instructions(self) -> List[DynInst]:
        """The full object view, materialized once and cached.

        The timing models index this list every simulated cycle, so the
        one-shot materialization cost is paid only when a core actually
        replays the trace — pure functional producers/consumers (cache
        tiers, histograms, IPC shipping) never build it.
        """
        if self._materialized is None:
            build = self.materialize_one
            self._materialized = [build(i) for i in range(len(self.sidx))]
        return self._materialized

    # ------------------------------------------------------------------
    # window views
    # ------------------------------------------------------------------

    def slice(self, start: int, stop: int) -> "ColumnarTrace":
        """A window view of dynamic instructions ``[start, stop)``.

        The view shares the ``static_ops`` tuple (and the compiled
        timing-descriptor table cache, which depends only on it) with
        the parent by reference; the four columns are array-sliced and
        the sparse CSR writes rebased to window-local indices.  End-of-
        run metadata (exit code, halt reason, final registers) is
        inherited from the parent — a window is a timing view, not an
        architectural run to completion.
        """
        n = len(self.sidx)
        if not 0 <= start <= stop <= n:
            raise ValueError(
                f"window [{start}:{stop}) out of range for trace of {n}")
        view = ColumnarTrace(
            self.static_ops,
            program_name=f"{self.program_name}[{start}:{stop}]",
            exit_code=self.exit_code,
            halt_reason=self.halt_reason,
            final_int_regs=list(self.final_int_regs))
        view.sidx = self.sidx[start:stop]
        view.mem_addr = self.mem_addr[start:stop]
        view.next_pc = self.next_pc[start:stop]
        view.taken = self.taken[start:stop]
        view.csr_writes = {i - start: v for i, v in self.csr_writes.items()
                           if start <= i < stop}
        view.instret = stop - start
        # Descriptor tables are a pure function of static_ops, shared by
        # identity above: share the cache dict too, so K windows of one
        # trace compile each core family's table at most once.
        view._timing_tables = self._timing_tables
        return view

    # ------------------------------------------------------------------
    # summary helpers (column-native: no materialization needed)
    # ------------------------------------------------------------------

    def class_histogram(self) -> Dict[InstrClass, int]:
        """Dynamic instruction counts per functional class."""
        static_counts: Dict[int, int] = {}
        for s in self.sidx:
            static_counts[s] = static_counts.get(s, 0) + 1
        histogram: Dict[InstrClass, int] = {}
        for s, count in static_counts.items():
            cls = self.static_ops[s].cls
            histogram[cls] = histogram.get(cls, 0) + count
        return histogram

    def branch_count(self) -> int:
        """Number of conditional branches in the trace."""
        ops = self.static_ops
        return sum(1 for s in self.sidx if ops[s].is_branch)

    def mispredictable_summary(self) -> Dict[str, int]:
        """Quick branch statistics used in reports."""
        ops = self.static_ops
        branches = 0
        taken = 0
        for s, t in zip(self.sidx, self.taken):
            if ops[s].is_branch:
                branches += 1
                taken += t
        return {"branches": branches, "taken": taken,
                "not_taken": branches - taken}

    # ------------------------------------------------------------------
    # byte codec
    # ------------------------------------------------------------------

    def pack(self) -> bytes:
        """Serialize to a compact byte string (see :func:`unpack`)."""
        header = {
            "name": self.program_name,
            "exit_code": self.exit_code,
            "halt_reason": self.halt_reason,
            "final_int_regs": self.final_int_regs,
            "instret": self.instret,
            "n": len(self.sidx),
            "csr_writes": sorted(self.csr_writes.items()),
            "static": [
                [op.pc, op.cls.value, op.dest, list(op.srcs), op.latency,
                 op.mnemonic, op.mem_width, int(op.is_load),
                 int(op.is_store), int(op.is_branch), int(op.is_fence),
                 op.csr]
                for op in self.static_ops
            ],
        }
        head = json.dumps(header, separators=(",", ":")).encode("utf-8")
        return b"".join((
            _MAGIC, struct.pack("<I", len(head)), head,
            self.sidx.tobytes(), self.mem_addr.tobytes(),
            self.next_pc.tobytes(), self.taken.tobytes(),
        ))

    def pack_static(self) -> bytes:
        """Serialize only the shared static-op table + run metadata.

        The window shipping path sends this blob *once* per
        (trace, worker) and one small :meth:`pack_window` blob per
        window; :func:`unpack_window` reassembles a window trace,
        caching the parsed static table by content digest so K windows
        shipped to the same worker share one ``StaticOp`` tuple.
        """
        header = {
            "name": self.program_name,
            "exit_code": self.exit_code,
            "halt_reason": self.halt_reason,
            "final_int_regs": self.final_int_regs,
            "static": [
                [op.pc, op.cls.value, op.dest, list(op.srcs), op.latency,
                 op.mnemonic, op.mem_width, int(op.is_load),
                 int(op.is_store), int(op.is_branch), int(op.is_fence),
                 op.csr]
                for op in self.static_ops
            ],
        }
        head = json.dumps(header, separators=(",", ":")).encode("utf-8")
        return b"".join((_STATIC_MAGIC, struct.pack("<I", len(head)), head))

    def pack_window(self, start: int, stop: int) -> bytes:
        """Serialize the columns of window ``[start, stop)`` only.

        Pairs with :meth:`pack_static`; the blob carries the window
        bounds, the rebased CSR writes, and the raw column bytes of the
        window — O(window) bytes, independent of trace length.
        """
        n = len(self.sidx)
        if not 0 <= start <= stop <= n:
            raise ValueError(
                f"window [{start}:{stop}) out of range for trace of {n}")
        header = {
            "start": start,
            "stop": stop,
            "csr_writes": sorted(
                (i - start, v) for i, v in self.csr_writes.items()
                if start <= i < stop),
        }
        head = json.dumps(header, separators=(",", ":")).encode("utf-8")
        return b"".join((
            _WINDOW_MAGIC, struct.pack("<I", len(head)), head,
            self.sidx[start:stop].tobytes(),
            self.mem_addr[start:stop].tobytes(),
            self.next_pc[start:stop].tobytes(),
            self.taken[start:stop].tobytes(),
        ))

    def __reduce__(self):
        # Pickling ships the packed byte codec, never per-DynInst
        # object graphs: a trace crossing a process boundary costs
        # O(columns) bytes no matter how it is transported.
        return (unpack, (self.pack(),))


def as_columnar(trace: Union[ColumnarTrace, DynamicTrace]) -> ColumnarTrace:
    """*trace* itself when columnar, else its :meth:`from_dynamic` copy."""
    if isinstance(trace, ColumnarTrace):
        return trace
    return ColumnarTrace.from_dynamic(trace)


def unpack(data: bytes) -> ColumnarTrace:
    """Restore a :class:`ColumnarTrace` from :meth:`ColumnarTrace.pack`.

    Raises :class:`~repro.isa.errors.ExecutionError` on a damaged or
    truncated buffer, so cache tiers can treat corruption as a miss.
    """
    try:
        if data[:len(_MAGIC)] != _MAGIC:
            raise ValueError("bad magic")
        offset = len(_MAGIC)
        (head_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        header = json.loads(data[offset:offset + head_len].decode("utf-8"))
        offset += head_len
        static_ops = tuple(
            StaticOp(pc, InstrClass(cls), dest, tuple(srcs), latency,
                     mnemonic, mem_width, bool(il), bool(st), bool(br),
                     bool(fe), csr)
            for pc, cls, dest, srcs, latency, mnemonic, mem_width,
            il, st, br, fe, csr in header["static"])
        trace = ColumnarTrace(
            static_ops, program_name=header["name"],
            exit_code=header["exit_code"],
            halt_reason=header["halt_reason"],
            final_int_regs=list(header["final_int_regs"]))
        n = header["n"]
        for column, typecode in (
                (trace.sidx, _SIDX_TYPE), (trace.mem_addr, _ADDR_TYPE),
                (trace.next_pc, _ADDR_TYPE), (trace.taken, _TAKEN_TYPE)):
            width = array(typecode).itemsize * n
            column.frombytes(data[offset:offset + width])
            offset += width
        if any(len(c) != n for c in (trace.sidx, trace.mem_addr,
                                     trace.next_pc, trace.taken)):
            raise ValueError("truncated columns")
        trace.csr_writes = {int(i): int(v) for i, v in header["csr_writes"]}
        trace.instret = header["instret"]
        return trace
    except ExecutionError:
        raise
    except Exception as exc:  # noqa: BLE001 - any damage is one error class
        raise ExecutionError(
            f"cannot unpack columnar trace: {type(exc).__name__}: {exc}"
        ) from exc


#: Worker-side cache of parsed static blobs, keyed by content digest:
#: ``digest -> (static_ops, metadata header, shared timing-table dict)``.
#: Every window of one trace unpacked in the same process shares one
#: ``StaticOp`` tuple *and* one compiled descriptor-table cache.
_STATIC_CACHE: Dict[str, Tuple[Tuple[StaticOp, ...], Dict[str, object],
                               Dict[str, object]]] = {}


def _parse_static(static_blob: bytes):
    digest = hashlib.sha256(static_blob).hexdigest()
    hit = _STATIC_CACHE.get(digest)
    if hit is not None:
        return hit
    if static_blob[:len(_STATIC_MAGIC)] != _STATIC_MAGIC:
        raise ValueError("bad static-blob magic")
    offset = len(_STATIC_MAGIC)
    (head_len,) = struct.unpack_from("<I", static_blob, offset)
    offset += 4
    header = json.loads(
        static_blob[offset:offset + head_len].decode("utf-8"))
    static_ops = tuple(
        StaticOp(pc, InstrClass(cls), dest, tuple(srcs), latency,
                 mnemonic, mem_width, bool(il), bool(st), bool(br),
                 bool(fe), csr)
        for pc, cls, dest, srcs, latency, mnemonic, mem_width,
        il, st, br, fe, csr in header["static"])
    hit = (static_ops, header, {})
    _STATIC_CACHE[digest] = hit
    return hit


def unpack_window(static_blob: bytes, window_blob: bytes) -> ColumnarTrace:
    """Reassemble one window trace from the two-part window codec.

    Byte-for-byte equivalent to
    ``trace.slice(start, stop)`` of the originating trace (pinned by
    ``tests/test_columnar_trace.py``): same program name, columns, CSR
    writes, and metadata.  The parsed static table is cached per blob
    digest, so windows of one trace shipped to the same worker share a
    single ``StaticOp`` tuple and compiled timing-table cache.

    Raises :class:`~repro.isa.errors.ExecutionError` on damage, like
    :func:`unpack`.
    """
    try:
        static_ops, meta, timing_tables = _parse_static(static_blob)
        if window_blob[:len(_WINDOW_MAGIC)] != _WINDOW_MAGIC:
            raise ValueError("bad window-blob magic")
        offset = len(_WINDOW_MAGIC)
        (head_len,) = struct.unpack_from("<I", window_blob, offset)
        offset += 4
        header = json.loads(
            window_blob[offset:offset + head_len].decode("utf-8"))
        offset += head_len
        start, stop = header["start"], header["stop"]
        n = stop - start
        trace = ColumnarTrace(
            static_ops,
            program_name=f"{meta['name']}[{start}:{stop}]",
            exit_code=meta["exit_code"],
            halt_reason=meta["halt_reason"],
            final_int_regs=list(meta["final_int_regs"]))
        for column, typecode in (
                (trace.sidx, _SIDX_TYPE), (trace.mem_addr, _ADDR_TYPE),
                (trace.next_pc, _ADDR_TYPE), (trace.taken, _TAKEN_TYPE)):
            width = array(typecode).itemsize * n
            column.frombytes(window_blob[offset:offset + width])
            offset += width
        if any(len(c) != n for c in (trace.sidx, trace.mem_addr,
                                     trace.next_pc, trace.taken)):
            raise ValueError("truncated window columns")
        trace.csr_writes = {int(i): int(v) for i, v in header["csr_writes"]}
        trace.instret = n
        trace._timing_tables = timing_tables
        return trace
    except ExecutionError:
        raise
    except Exception as exc:  # noqa: BLE001 - any damage is one error class
        raise ExecutionError(
            f"cannot unpack window trace: {type(exc).__name__}: {exc}"
        ) from exc
