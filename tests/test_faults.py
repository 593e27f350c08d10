"""A fault catalogue: seeded faults that a statement's sweep must catch.

Each fault is a ``mock.patch`` of one kernel where the sweep looks it up.
With the fault in place the sweep must record failures; without it the
same sweep, at the same grid, must pass.
"""

from unittest import mock

import pytest

from jshadow import symbols
from jshadow.sweeps import SWEEPS

_walk = symbols.zolotarev_sign
_jacobi = symbols._jacobi


def _one_cycle_too_many(a: int, p: int) -> int:
    # one more cycle flips the parity of (p - 1) - cycles, so the sign
    return -_walk(a, p)


def _minus_one_flipped_at_7_mod_8(a: int, n: int) -> int:
    value = _jacobi(a, n)
    return -value if n % 8 == 7 and a % n == n - 1 else value


# (sweep, grid, patched name, fault, failures it records).  The zolotarev
# sweep at p_max=50 catches both of its faults: the walk fault fails every
# check, and the flipped (-1|p) fails a = p - 1 at p = 7, 23, 31 and 47.
ZOLOTAREV_GRID = {"p_max": 50}
FAULTS = [
    ("zolotarev", ZOLOTAREV_GRID, "jshadow.sweeps.zolotarev_sign", _one_cycle_too_many, 312),
    ("zolotarev", ZOLOTAREV_GRID, "jshadow.symbols._jacobi", _minus_one_flipped_at_7_mod_8, 4),
]


@pytest.mark.parametrize(
    "sweep, grid, target, fault, failures", FAULTS, ids=[f"{f[0]}-{f[3].__name__}" for f in FAULTS]
)
def test_the_sweep_records_the_fault(sweep, grid, target, fault, failures):
    with mock.patch(target, fault):
        result = SWEEPS[sweep](**grid)
    assert result.verdict == "fail"
    assert result.failures == failures


@pytest.mark.parametrize("sweep, grid", [("zolotarev", ZOLOTAREV_GRID)])
def test_the_unpatched_sweep_passes(sweep, grid):
    result = SWEEPS[sweep](**grid)
    assert result.verdict == "pass" and result.failures == 0
