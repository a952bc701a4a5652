"""The paper-shape contract: every claim of :mod:`repro.bench.claims`.

Each claim runs on the full dataset grid, writes its table to
``benchmarks/out/<out>.txt`` and to its EXPERIMENTS.md block, and fails
listing every shape check that fails.  ``git diff --exit-code
benchmarks/out EXPERIMENTS.md`` afterwards shows whether any simulated
number moved.
"""

import pytest

from repro.bench import write_result
from repro.bench.claims import CLAIMS, describe_failures, write_claim_block


@pytest.mark.parametrize("claim", list(CLAIMS.values()), ids=list(CLAIMS))
def test_claim(claim):
    text, failed = claim.evaluate()
    write_result(claim.out, text)
    write_claim_block(claim.id, text)
    assert not failed, describe_failures(claim.id, failed)
