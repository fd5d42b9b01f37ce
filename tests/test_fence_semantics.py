"""Integration tests for fence accounting (the Table II fence terms).

Fences cause *intended* pipeline flushes; the paper adds the
Fence-retired counter specifically so those slots are not blamed on
speculation ("strictly speaking, we want to avoid considering slots
lost by intended pipeline flushes by fence instructions", §IV-A).
"""

import pytest

from repro.core import compute_tma
from repro.cores import BoomCore, LARGE_BOOM, ROCKET, RocketCore
from repro.isa import assemble, execute


def fence_kernel(fences: bool, iterations: int = 120):
    # The fenced and plain kernels run the same instruction count.
    payload = "fence" if fences else "add s2, s2, t1"
    source = f"""
.data
cells:
    .dword 3, 3, 3, 3, 3, 3, 3, 3
.text
_start:
    la a0, cells
    li s1, 0
    li t0, 0
work_head:
    ld t1, 0(a0)
    add s1, s1, t1
    sd s1, 8(a0)
    {payload}
    addi t0, t0, 1
    li t6, {iterations}
    blt t0, t6, work_head
    mv a0, s1
    li a7, 93
    ecall
"""
    return execute(assemble(source,
                            name="fences" if fences else "nofences"))


@pytest.fixture(scope="module")
def fence_runs():
    with_fences = fence_kernel(True)
    without = fence_kernel(False)
    return {
        "boom_fenced": BoomCore(LARGE_BOOM).run(with_fences),
        "boom_plain": BoomCore(LARGE_BOOM).run(without),
        "rocket_fenced": RocketCore(ROCKET).run(with_fences),
    }


def test_fences_cost_cycles(fence_runs):
    assert fence_runs["boom_fenced"].cycles \
        > fence_runs["boom_plain"].cycles


def test_fence_retired_counts_every_fence(fence_runs):
    assert fence_runs["boom_fenced"].event("fence_retired") == 120
    assert fence_runs["boom_plain"].event("fence_retired") == 0
    assert fence_runs["rocket_fenced"].event("fence") == 120


def test_fence_slots_not_blamed_on_branch_mispredicts(fence_runs):
    """The fence terms keep M_br_mr low: recovery after fences must not
    inflate the Branch-Mispredict subclass."""
    fenced = compute_tma(fence_runs["boom_fenced"])
    # Almost all flushes in this kernel are fences, so the non-fence
    # flush ratio keeps lost-uop attribution to branch mispredicts near
    # the plain-kernel level.
    assert fenced.metrics["m_tf"] >= 120
    assert fenced.level2["machine_clears"] < 0.01
    # Recovering slots exist (frontend restarts after each fence)...
    assert fence_runs["boom_fenced"].event("recovering") > 100
    # ...and the model books them under BadSpec's recovery bubbles, not
    # under machine clears or resteering.
    assert fenced.level2["recovery_bubbles"] \
        >= fenced.level2["resteering"]


def test_fenced_kernel_dominated_by_backend_or_badspec_not_frontend(
        fence_runs):
    fenced = compute_tma(fence_runs["boom_fenced"])
    assert fenced.level1["frontend"] < 0.25
    assert fenced.top_level_sum() == pytest.approx(1.0)
