"""A fault catalogue: seeded faults that a statement's sweep must catch.

Each fault is a ``mock.patch`` of one kernel where the sweep looks it up.
With the fault in place the sweep must record failures; without it the
same sweep, at the same grid, must pass.
"""

from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from jshadow import imj, jmaps, padic, sweeps, symbols
from jshadow._integers import factorint
from jshadow.padic import PadicNumber
from jshadow.sweeps import SWEEPS

_walk = symbols._permutation_sign
_jacobi = symbols._jacobi
_at_odd_prime = symbols._symbol_at_odd_prime
_at_two = symbols._symbol_at_two
_teichmuller = padic.teichmuller
_mul = PadicNumber.__mul__
_pow = PadicNumber.__pow__
_valuation = imj._vl_power_minus_one
_k_finite_field = imj.k_finite_field
_j_tame_pi1 = jmaps.j_tame_pi1
_vsc = imj.von_staudt_clausen_denominator
_bernoulli = imj.bernoulli
_hilbert = symbols.hilbert_symbol
_product = symbols.local_symbol_product


def _one_cycle_too_many(a: int, p: int) -> int:
    # one more cycle flips the parity of (p - 1) - cycles, so the sign
    return -_walk(a, p)


def _minus_one_flipped_at_7_mod_8(a: int, n: int) -> int:
    value = _jacobi(a, n)
    return -value if n % 8 == 7 and a % n == n - 1 else value


def _odd_symbol_without_its_sign(alpha: int, u: int, beta: int, w: int, p: int, legendre_of) -> int:
    # drops (-1)^(alpha beta (p-1)/2)
    sign = _at_odd_prime(alpha, u, beta, w, p, legendre_of)
    return -sign if alpha * beta * (p - 1) // 2 % 2 else sign


def _symbol_at_two_without_beta_omega_u(alpha: int, u: int, beta: int, w: int) -> int:
    sign = _at_two(alpha, u, beta, w)
    return -sign if beta * (u * u - 1) // 8 % 2 else sign


def _teichmuller_to_half_its_digits(a: int, prime: int, precision: int = 64) -> PadicNumber:
    lift = _teichmuller(a, prime, max(1, precision // 2))
    return PadicNumber._make(prime, 0, lift.unit_digits, precision)


def _rezk_log_without_dividing_by_l(x: PadicNumber) -> PadicNumber:
    return padic.padic_log(x ** (x.prime - 1))


def _top_digit_of_a_product_shifted(self: PadicNumber, other) -> PadicNumber:
    product = _mul(self, other)
    if product.is_zero:
        return product
    p, n = product.prime, product.precision
    return PadicNumber._make(p, product.valuation, (product.unit_digits + p ** (n - 1)) % p**n, n)


def _difference_as_a_sum(self: PadicNumber, other) -> PadicNumber:
    return self + other


def _top_digit_of_a_power_lost(self: PadicNumber, exponent: int) -> PadicNumber:
    power = _pow(self, exponent)
    if power.is_zero or power.precision < 2:
        return power
    p, n = power.prime, power.precision
    return PadicNumber._make(p, power.valuation, power.unit_digits % p ** (n - 1), n)


def _valuation_plus_one(u: int, k: int, ell: int) -> int:
    return _valuation(u, k, ell) + 1


def _valuation_plus_one_at_3(u: int, k: int, ell: int) -> int:
    return _valuation(u, k, ell) + (ell == 3)


def _largest_prime_dropped(n: int) -> dict[int, int]:
    # of a number with two or more primes
    factors = factorint(n)
    if len(factors) > 1:
        del factors[max(factors)]
    return factors


def _k4j_given_the_order_of_k4j_minus_1(n: int, q: int) -> imj.GroupOrderReport:
    return _k_finite_field(n - 1 if n > 0 and n % 4 == 0 else n, q)


def _tame_off_by_p_when_p_squared_divides(x, p: int) -> Fraction:
    value = _j_tame_pi1(x, p)
    return value * p if Fraction(x).numerator % (p * p) == 0 else value


def _exponent_of_3_set_to_1(n: int) -> dict[int, int]:
    return {p: 1 if p == 3 else e for p, e in factorint(n).items()}


def _vsc_doubled_at_0_mod_10(n: int) -> int:
    return _vsc(n) * (2 if n % 10 == 0 else 1)


def _bernoulli_negated(n: int) -> Fraction:
    return -_bernoulli(n)


def _plus_one_at_7_mod_8(a, b, place: symbols.Place) -> int:
    return 1 if place.is_finite and place.prime % 8 == 7 else _hilbert(a, b, place)


def _plus_one_at_2(a, b, place: symbols.Place) -> int:
    return 1 if place.prime == 2 else _hilbert(a, b, place)


def _primes_of_b_alone_dropped(A: int, local_A: dict, B: int, local_B: dict, legendre_of) -> int:
    # the walk skips the odd primes that divide B but not A
    kept = {p: data for p, data in local_B.items() if p == 2 or p in local_A}
    return _product(A, local_A, B, kept, legendre_of)


# (sweep, grid, patched name, fault, failures it records).  The zolotarev
# sweep at p_max=50 catches both of its faults, each patched where the sweep
# looks up its unchecked kernel: the walk fault fails every check, and the
# flipped (-1|p) fails a = p - 1 at p = 7, 23, 31 and 47.
# rezk-log and norm-identity run at their default grids (26 and 480
# checks).  A half-digit Teichmuller lift is still killed only at a = 1,
# whose lift is exactly 1; the undivided log leaves 1+l at valuation 1, one
# failure per l.  A wrong top digit of every product, or of every power,
# breaks the geometric-sum identity at 436 and 34 grid points, and a
# difference taken as a sum at all 480, so the difference's own code path
# is caught by a sweep and not only by unit tests.  The
# oracle-agreement rows patch the closed forms where symbols._local_sign,
# which the sweep and hilbert_symbol call, looks them up, at a grid of 2,900
# checks (365 and 629 failures at the default).
# The reciprocity rows patch the same closed forms, which local_symbol_product
# calls, at a grid of 1,800 checks.  Its Legendre symbols come from chi
# tables that the sweep fills through jshadow.sweeps._jacobi, so the flipped
# (-1|p) is patched there: patched at jshadow.symbols._jacobi it records 0.
# imj-consistency, quillen and low-degree-j run at their default grids (720,
# 483 and 11,602 checks; low-degree-j takes about 0.15 s a run).  Giving K_4j
# the order of K_4j-1 fails the triviality check at even i, 5 per prime
# power.  The tame fault fails the tame-pi1 bucket, and the exponent of 3
# the norm-product bucket, whose factorint is jmaps' own.  bernoulli and
# pi2-nontriviality run at their default grids (31 and 25 checks).  A
# doubled von Staudt-Clausen product at n = 10, 20, ..., 60 fails 6
# denominators; a negated B_n keeps every denominator and fails only the
# B_12 spot check.  A symbol forced to +1 leaves no witness at each of the
# 6 primes p = 7 mod 8 below 100, or at 2.  The last row patches the
# reciprocity walk itself where the sweep looks it up: skipping the primes
# of b alone fails 519 of the 1,800 checks.
ZOLOTAREV_GRID = {"p_max": 50}
ORACLE_GRID = {"prime_max": 13, "coeff_bound": 10, "rational_samples": 100}
RECIPROCITY_GRID = {"bound": 20, "rational_samples": 200}
FAULTS = [
    ("zolotarev", ZOLOTAREV_GRID, "jshadow.sweeps._permutation_sign", _one_cycle_too_many, 312),
    ("zolotarev", ZOLOTAREV_GRID, "jshadow.sweeps._jacobi", _minus_one_flipped_at_7_mod_8, 4),
    ("rezk-log", {}, "jshadow.sweeps.teichmuller", _teichmuller_to_half_its_digits, 18),
    ("rezk-log", {}, "jshadow.sweeps.rezk_log_pi0", _rezk_log_without_dividing_by_l, 4),
    ("norm-identity", {}, "jshadow.padic.PadicNumber.__mul__", _top_digit_of_a_product_shifted, 436),
    ("norm-identity", {}, "jshadow.padic.PadicNumber.__pow__", _top_digit_of_a_power_lost, 34),
    ("norm-identity", {}, "jshadow.padic.PadicNumber.__sub__", _difference_as_a_sum, 480),
    ("oracle-agreement", ORACLE_GRID, "jshadow.symbols._symbol_at_odd_prime", _odd_symbol_without_its_sign, 22),
    ("oracle-agreement", ORACLE_GRID, "jshadow.symbols._symbol_at_two", _symbol_at_two_without_beta_omega_u, 68),
    ("reciprocity", RECIPROCITY_GRID, "jshadow.symbols._symbol_at_odd_prime", _odd_symbol_without_its_sign, 122),
    ("reciprocity", RECIPROCITY_GRID, "jshadow.symbols._symbol_at_two", _symbol_at_two_without_beta_omega_u, 269),
    ("reciprocity", RECIPROCITY_GRID, "jshadow.sweeps._jacobi", _minus_one_flipped_at_7_mod_8, 62),
    ("imj-consistency", {}, "jshadow.imj._vl_power_minus_one", _valuation_plus_one, 720),
    ("imj-consistency", {}, "jshadow.imj._vl_power_minus_one", _valuation_plus_one_at_3, 30),
    ("quillen", {}, "jshadow.imj.factorint", _largest_prime_dropped, 217),
    ("quillen", {}, "jshadow.sweeps.k_finite_field", _k4j_given_the_order_of_k4j_minus_1, 115),
    ("low-degree-j", {}, "jshadow.sweeps.j_tame_pi1", _tame_off_by_p_when_p_squared_divides, 318),
    ("low-degree-j", {}, "jshadow.jmaps.factorint", _exponent_of_3_set_to_1, 37),
    ("bernoulli", {}, "jshadow.sweeps.von_staudt_clausen_denominator", _vsc_doubled_at_0_mod_10, 6),
    ("bernoulli", {}, "jshadow.sweeps.bernoulli", _bernoulli_negated, 1),
    ("pi2-nontriviality", {}, "jshadow.sweeps.hilbert_symbol", _plus_one_at_7_mod_8, 6),
    ("pi2-nontriviality", {}, "jshadow.sweeps.hilbert_symbol", _plus_one_at_2, 1),
    ("reciprocity", RECIPROCITY_GRID, "jshadow.sweeps.local_symbol_product", _primes_of_b_alone_dropped, 519),
]


@pytest.mark.parametrize(
    "sweep, grid, target, fault, failures", FAULTS, ids=[f"{f[0]}-{f[3].__name__}" for f in FAULTS]
)
def test_the_sweep_records_the_fault(sweep, grid, target, fault, failures):
    with mock.patch(target, fault):
        result = SWEEPS[sweep](**grid)
    assert result.verdict == "fail"
    assert result.failures == failures


# Each sweep of FAULTS at its grid, in the order of its first row.
UNPATCHED = list({sweep: grid for sweep, grid, *_ in FAULTS}.items())


@pytest.mark.parametrize("sweep, grid", UNPATCHED)
def test_the_unpatched_sweep_passes(sweep, grid):
    result = SWEEPS[sweep](**grid)
    assert result.verdict == "pass" and result.failures == 0


class _Built(Exception):
    pass


def test_the_statements_with_fewer_than_two_faults_are_pinned(monkeypatch):
    # A ratchet: rows for one of these statements shrink the set, and a
    # sweep added with fewer than two rows grows it and fails here.
    def build(name, statement_id, params):
        raise _Built(statement_id)  # before the grid runs

    monkeypatch.setattr(sweeps, "SweepResult", build)
    rows = Counter(sweep for sweep, *_ in FAULTS)
    cited = {}  # statement -> its sweeps with fewer than two rows
    for name, fn in SWEEPS.items():
        if rows[name] < 2:
            with pytest.raises(_Built) as built:
                fn()
            cited.setdefault(built.value.args[0], []).append(name)
    assert set(cited) == {"k-theory-order-domination", "three-adic-geometric-series"}, cited
