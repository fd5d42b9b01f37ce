"""Simulated results must match the committed golden digests bit for bit.

``tests/golden_digests.json`` pins the full ``CoreResult`` surface and
TMA level 1/2 of every registry workload on Rocket and three BOOM
sizes, the per-cycle signal streams recorded runs expand to, and every
registry workload's functional trace; the per-core loop tests and
``tests/test_trace_compiler.py`` check those.  Checked here: a run
under a releasing stall hook, PMU read-backs under every counter
architecture with and without injected faults, cycle tracer and
AutoCounter output, and every multicore scenario through the lockstep
path.  ``tests/make_golden_digests.py`` builds each document; see its
docstring before regenerating anything.
"""

import pytest

from tests.make_golden_digests import (STREAM_WORKLOADS, digest, entries,
                                       load_golden)

GOLDEN = load_golden()
ENTRIES = dict(entries())
CHECKED_ELSEWHERE = {f"signals/{workload}" for workload in STREAM_WORKLOADS}


def checked_here(key):
    family, rest = key.split("/", 1)
    return family not in ("core", "trace") and \
        f"{family}/{rest.split('/')[0]}" not in CHECKED_ELSEWHERE


def test_golden_file_covers_every_entry():
    assert sorted(GOLDEN) == sorted(ENTRIES)


@pytest.mark.parametrize("key", sorted(k for k in ENTRIES if checked_here(k)))
def test_matches_golden_digest(key):
    assert digest(ENTRIES[key]()) == GOLDEN[key], key
