"""The paper's claims (:mod:`repro.tools.claims`) as tier-1 cases.

One case per claim id, so a failure names its figure.  A claim a
tier-1 test already asserts points at that test, and its case checks
the test is still there.  Every measurement shares one session's
results, so each (workload, config, scale) point runs once.  The last
test fails when EXPERIMENTS.md quotes a measured value other than the
one the table renders.
"""

import importlib
from pathlib import Path

import pytest

from repro.tools.claims import CLAIMS, Results

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
CLAIMS_BY_ID = {claim.id: claim for claim in CLAIMS}


@pytest.fixture(scope="session")
def results():
    return Results()


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim, results):
    if claim.test is not None:
        path, name = claim.test.split("::")
        module = importlib.import_module(path[:-3].replace("/", "."))
        assert callable(getattr(module, name, None)), \
            f"{claim.id} points at {claim.test}, which is gone"
        return
    assert claim.holds(results.value(claim)), (
        f"{claim.figure}: {claim.claim} (paper: {claim.paper}); "
        f"measured {claim.measured(results)}")


def quoted_claims():
    """(claim id, measured cell) of every claim row in EXPERIMENTS.md.

    A claim row is a table row whose first cell is a backticked claim
    id: ``| `id` | claim | paper | measured | status |``.
    """
    rows = []
    for line in EXPERIMENTS.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("| ").split(" | ")]
            rows.append((cells[0].strip("`"), cells[3]))
    return rows


def test_experiments_quotes_each_claim_as_measured(results):
    quoted = quoted_claims()
    assert sorted(claim_id for claim_id, _ in quoted) == sorted(CLAIMS_BY_ID)
    drifted = [f"{claim_id}: quoted {text!r}, measured {measured!r}"
               for claim_id, text in quoted
               for measured in [CLAIMS_BY_ID[claim_id].measured(results)]
               if text != measured]
    assert drifted == []
