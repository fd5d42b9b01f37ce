"""Cross-component consistency properties.

The tracer, the counter banks, and the core's own accumulator all
read the *same* recorded signal stream; these property tests
pin them together on randomly generated programs, so a packing bug in
the trace bundle or a counting bug in a bank cannot drift silently.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cores import BoomCore, LARGE_BOOM, ROCKET, RocketCore, SignalStream
from repro.isa import assemble, execute
from repro.pmu import AddWiresCounterBank, ScalarCounterBank
from repro.trace import CycleTracer, boom_tma_bundle, rocket_tma_bundle

_OPS = ["add", "sub", "and", "or", "xor", "sll", "srl"]
_REGS = ["t0", "t1", "t2", "t3", "s1", "s2", "a2", "a3"]


@st.composite
def random_program(draw):
    """A small random (but always-terminating) integer program."""
    lines = ["_start:"]
    for reg_index, reg in enumerate(_REGS):
        lines.append(f"    li {reg}, {draw(st.integers(0, 100))}")
    body_len = draw(st.integers(5, 40))
    for _ in range(body_len):
        kind = draw(st.integers(0, 3))
        if kind < 3:
            op = draw(st.sampled_from(_OPS))
            rd, r1, r2 = (draw(st.sampled_from(_REGS)) for _ in range(3))
            lines.append(f"    {op} {rd}, {r1}, {r2}")
        else:
            rd = draw(st.sampled_from(_REGS))
            imm = draw(st.integers(-100, 100))
            lines.append(f"    addi {rd}, {rd}, {imm}")
    # A short counted loop exercises branches deterministically.
    trips = draw(st.integers(1, 8))
    lines.append(f"    li s3, {trips}")
    lines.append("    li s4, 0")
    lines.append("loop:")
    lines.append("    addi s4, s4, 1")
    lines.append("    blt s4, s3, loop")
    lines.append("    li a7, 93")
    lines.append("    ecall")
    return "\n".join(lines)


@settings(max_examples=15, deadline=None)
@given(random_program())
def test_rocket_tracer_matches_core_totals(source):
    trace = execute(assemble(source))
    core = RocketCore(ROCKET)
    bundle = rocket_tma_bundle()
    tracer = CycleTracer(bundle)
    stream = SignalStream()
    result = core.run(trace, stream=stream)
    tracer.record(stream)
    for field in bundle.fields:
        traced = sum(v.bit_count() for v in tracer.signal(field.name))
        assert traced == result.event(field.name), field.name
    assert len(tracer) == result.cycles


@settings(max_examples=10, deadline=None)
@given(random_program())
def test_boom_tracer_and_banks_match_core_totals(source):
    trace = execute(assemble(source))
    core = BoomCore(LARGE_BOOM)
    bundle = boom_tma_bundle(LARGE_BOOM.decode_width,
                             LARGE_BOOM.issue_width)
    tracer = CycleTracer(bundle)
    events = ["uops_issued", "uops_retired", "fetch_bubbles",
              "recovering"]
    scalar = ScalarCounterBank("boom", events)
    adders = AddWiresCounterBank("boom", events)
    stream = SignalStream()
    result = core.run(trace, stream=stream)
    tracer.record(stream)
    scalar.count(stream)
    adders.count(stream)

    for field in bundle.fields:
        traced = sum(v.bit_count() for v in tracer.signal(field.name))
        assert traced == result.event(field.name), field.name
    for event in events:
        assert scalar.read_event(event) == result.event(event)
        assert adders.read_event(event) == result.event(event)


@settings(max_examples=10, deadline=None)
@given(random_program())
def test_boom_retires_every_instruction_exactly_once(source):
    trace = execute(assemble(source))
    result = BoomCore(LARGE_BOOM).run(trace)
    assert result.instret == len(trace)
    assert result.event("uops_retired") == len(trace)
    assert result.event("uops_issued") >= len(trace)


@settings(max_examples=10, deadline=None)
@given(random_program())
def test_rocket_and_boom_agree_on_architectural_work(source):
    trace = execute(assemble(source))
    rocket = RocketCore(ROCKET).run(trace)
    boom = BoomCore(LARGE_BOOM).run(trace)
    assert rocket.instret == boom.instret == len(trace)
    # Same committed branches on both cores.
    assert rocket.event("branch") == trace.branch_count()
