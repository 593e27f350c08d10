"""Tests for Bernoulli machinery, group orders, and the consistency checks."""

import hashlib
import json
import math
import random
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import isqrt

import pytest

from jshadow import imj
from jshadow._integers import factorint, primes_up_to, vp_int
from jshadow.cli import run
from jshadow.imj import (
    BERNOULLI_CAP,
    GroupOrderReport,
    _vl_power_minus_one,
    bernoulli,
    imj_consistency_check,
    imj_order,
    k1_sphere_order,
    k_finite_field,
    norm_identity_check,
    surjectivity_check,
    von_staudt_clausen_denominator,
)
from jshadow.padic import is_topological_generator, smallest_topological_generator

ODD_PRIMES_97 = [p for p in primes_up_to(97) if p != 2]


# -- independent Bernoulli oracle ----------------------------------------


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """B_n by the Akiyama-Tanigawa triangle (yields B_1 = +1/2; flip it)."""
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    for m in range(1, n + 1):
        for j in range(n + 1 - m):
            row[j] = (j + 1) * (row[j] - row[j + 1])
    value = row[0]
    return -value if n == 1 else value


def bernoulli_recurrence(n_max: int) -> list[Fraction]:
    """B_0..B_n_max by sum_{j<=n} C(n+1, j) B_j = 0 with B_0 = 1, in Fractions."""
    values = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = sum((math.comb(m + 1, j) * bj for j, bj in enumerate(values) if bj), Fraction(0))
        values.append(-acc / (m + 1))
    return values


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_against_akiyama_tanigawa():
    for n in range(0, 40):
        assert bernoulli(n) == bernoulli_akiyama_tanigawa(n), n


def test_bernoulli_against_binomial_recurrence():
    for n, expected in enumerate(bernoulli_recurrence(300)):
        assert bernoulli(n) == expected, n


def test_bernoulli_against_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(2, 701, 2):
        expected = sympy.bernoulli(n)
        assert bernoulli(n) == Fraction(int(expected.p), int(expected.q)), n


def test_b2_against_sum_of_squares():
    # sum_{i<m} i^2 = m^3/3 - m^2/2 + B_2 * m, pinning B_2 = 1/6
    b2 = bernoulli(2)
    for m in (1, 2, 10, 101):
        lhs = sum(i * i for i in range(m))
        assert lhs == Fraction(m**3, 3) - Fraction(m**2, 2) + b2 * m


def test_bernoulli_odd_vanishing_and_squarefree_denominators():
    for n in range(3, 61, 2):
        assert bernoulli(n) == 0
    denominators = {n: bernoulli(n).denominator for n in range(2, 61, 2)}
    # a square factor q^2 of den has q <= isqrt(den): one sieve covers every n
    primes = primes_up_to(isqrt(max(denominators.values())))
    for n, den in denominators.items():
        for p in primes:
            if p > isqrt(den):
                break
            assert den % (p * p) != 0, (n, p)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_refuses_out_of_range_n_without_growing_the_cache():
    # The cache-hit test reads 0 <= n, so a negative n is not taken for an index from the end.
    bernoulli(101)
    cached = len(imj._bernoulli_cache)
    for n in (-1, -101):
        with pytest.raises(ValueError, match=f"^n must be >= 0, got {n}$"):
            bernoulli(n)
    with pytest.raises(ValueError, match=f"^n must be <= {BERNOULLI_CAP}, got {BERNOULLI_CAP + 1}$"):
        bernoulli(BERNOULLI_CAP + 1)
    assert len(imj._bernoulli_cache) == cached


def test_bernoulli_cap():
    # B_2100's numerator is past the interpreter's 4,300-digit limit on int-to-str conversion;
    # every index up to the cap prints.
    assert len(str(bernoulli(BERNOULLI_CAP))) > 4266
    cached = len(imj._bernoulli_cache)
    with pytest.raises(ValueError, match=f"^n must be <= {BERNOULLI_CAP}, got {BERNOULLI_CAP + 2}$"):
        bernoulli(BERNOULLI_CAP + 2)
    assert len(imj._bernoulli_cache) == cached
    assert imj_order(BERNOULLI_CAP // 2).order > 1
    with pytest.raises(ValueError, match=f"^k must be <= {BERNOULLI_CAP // 2}, got {BERNOULLI_CAP // 2 + 1}$"):
        imj_order(BERNOULLI_CAP // 2 + 1)


@pytest.fixture(scope="module")
def reference_400():
    return bernoulli_recurrence(400)


@pytest.fixture
def cold_cache(monkeypatch):
    """A fresh Bernoulli cache and tangent column in place of the process's warm ones."""
    monkeypatch.setattr(imj, "_bernoulli_cache", [Fraction(1), Fraction(-1, 2)])
    monkeypatch.setattr(imj, "_tangent_column", [1])


def test_a_cold_cache_grows_the_same_way_from_any_state(cold_cache, reference_400):
    rng = random.Random(31)
    ns = rng.sample(range(401), 40) + [400, 399, 7, 7]
    rng.shuffle(ns)
    assert ns.index(400) < len(ns) - 1  # a request below the cache's length follows B_400
    for n in ns:
        assert bernoulli(n) == reference_400[n], n


def test_a_cold_cache_grows_every_number_up_to_the_cap_exactly(cold_cache):
    # The sha256 of repr(B_0 .. B_2048), recorded from the unscaled tangent-number column.
    values = repr([bernoulli(n) for n in range(BERNOULLI_CAP + 1)])
    assert hashlib.sha256(values.encode()).hexdigest() == (
        "9f637f094dc6bea63bc96c6a7d96b09e38fb80015034d74a4e78c11cc1f301ab"
    )


class _InterruptedColumn(list):
    """A tangent column whose 500th item assignment raises KeyboardInterrupt, once."""

    assignments = 0

    def __setitem__(self, index, value):
        self.assignments += 1
        if self.assignments == 500:
            raise KeyboardInterrupt
        super().__setitem__(index, value)


def test_an_interrupted_growth_step_leaves_no_wrong_numbers(monkeypatch, cold_cache, reference_400):
    monkeypatch.setattr(imj, "_tangent_column", _InterruptedColumn([1]))
    with pytest.raises(KeyboardInterrupt):
        bernoulli(300)
    assert [bernoulli(n) for n in range(401)] == reference_400


def test_growth_holds_one_column(cold_cache):
    # A step that built its next column beside the last would hold both at once, about 1.6x what it keeps.
    tracemalloc.start()
    try:
        bernoulli(500)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * retained, (peak, retained)


def test_von_staudt_clausen_examples():
    assert von_staudt_clausen_denominator(2) == 6
    assert von_staudt_clausen_denominator(4) == 30
    assert von_staudt_clausen_denominator(12) == 2730
    with pytest.raises(ValueError):
        von_staudt_clausen_denominator(3)
    with pytest.raises(ValueError):
        von_staudt_clausen_denominator(0)


def test_von_staudt_clausen_against_sieve_definition():
    primes = primes_up_to(2001)
    for n in range(2, 2001, 2):
        expected = math.prod(q for q in primes if n % (q - 1) == 0)
        assert von_staudt_clausen_denominator(n) == expected, n


def test_denominators_match_von_staudt_clausen():
    for n in range(2, 61, 2):
        assert bernoulli(n).denominator == von_staudt_clausen_denominator(n)


# -- image-of-J orders -----------------------------------------------------


def odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def test_imj_order_examples():
    assert imj_order(1).order == 24 and odd_part(24) == 3
    assert imj_order(2).order == 240 and odd_part(240) == 15
    assert imj_order(3).order == 504 and odd_part(504) == 63
    with pytest.raises(ValueError):
        imj_order(0)


def test_cached_orders_equal_their_uncached_originals():
    for k in range(1, 151):
        assert imj_order(k) == imj_order.__wrapped__(k)
    for n in range(2, 2001, 2):
        assert von_staudt_clausen_denominator(n) == von_staudt_clausen_denominator.__wrapped__(n)
    for cached in (imj_order, von_staudt_clausen_denominator):
        assert cached.cache_info().maxsize is not None


def test_a_cached_order_report_is_frozen():
    with pytest.raises(FrozenInstanceError):
        imj_order(3).order = 1


def test_imj_order_factorization_multiplies_back():
    for k in range(1, 25):
        report = imj_order(k)
        product = 1
        for p, e in report.factors:
            product *= p**e
        assert product == report.order


def test_imj_order_odd_part_agrees_with_b2k_over_k():
    for k in range(1, 31):
        assert odd_part(imj_order(k).order) == odd_part(
            (bernoulli(2 * k) / k).denominator
        )


def test_group_order_report_helpers():
    report = GroupOrderReport(24)
    assert report.part(2) == 8 and report.part(3) == 3 and report.part(5) == 1
    assert report.describe() == "Z/24"
    assert GroupOrderReport(None).describe() == "Z"
    assert GroupOrderReport(1).describe() == "0"



def test_a_part_agrees_with_the_factorization():
    # part reads the order's valuation; the report's factors are the oracle.
    primes = primes_up_to(60)
    for n in range(1, 5001):
        report = GroupOrderReport(n)
        factors = dict(report.factors)
        for p in primes:
            assert report.part(p) == p ** factors.get(p, 0)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_a_part_below_two_is_refused(p):
    with pytest.raises(ValueError, match="has no p-part"):
        GroupOrderReport(24).part(p)

@pytest.mark.parametrize("order", [0, -3])
def test_a_group_order_below_one_is_refused(order):
    with pytest.raises(ValueError, match="order must be >= 1"):
        GroupOrderReport(order)


def test_a_report_factors_its_order_on_first_use_and_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return factorint(n)

    monkeypatch.setattr(imj, "factorint", counting)
    report = GroupOrderReport(24)
    assert calls == []
    assert report.part(2) == 8 and report.part(3) == 3
    assert report.factors == ((2, 3), (3, 1))
    assert calls == [24]
    assert GroupOrderReport(1).factors == GroupOrderReport(None).factors == ()
    assert calls == [24]


@pytest.mark.parametrize("n, q", [(2001, 3), (9999, 7)])
def test_kff_reports_never_factor_the_order(monkeypatch, capsys, n, q):
    # the orders 3^1001 - 1 and 7^5000 - 1 once hung in Pollard-Brent
    def refuse(m):
        raise AssertionError(f"factorint({m}) called")

    monkeypatch.setattr(imj, "factorint", refuse)
    assert run(["--json", "kff", f"--n={n}", f"--q={q}"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert report["rows"] == [
        {"n": n, "q": q, "group": f"Z/{q ** ((n + 1) // 2) - 1}", "order": q ** ((n + 1) // 2) - 1}
    ]


# -- K(1)-local sphere orders ----------------------------------------------


def test_k1_sphere_order_examples():
    assert k1_sphere_order(3, 1, 2).order == 1
    assert k1_sphere_order(3, 2, 2).order == 3
    assert k1_sphere_order(5, 4, 2).order == 5


def test_k1_sphere_order_rejects_bad_input():
    with pytest.raises(ValueError):
        k1_sphere_order(3, 0)
    with pytest.raises(ValueError):
        k1_sphere_order(2, 1)
    with pytest.raises(ValueError):
        k1_sphere_order(5, 1, generator=7)  # not a topological generator


@pytest.mark.parametrize("ell", [2, 4, 1, -3])
def test_an_ell_that_is_not_an_odd_prime_is_refused_on_every_call(ell):
    # k1_sphere_order and surjectivity_check leave l to the generator search,
    # whose cache never holds a refused l, so the second call raises too.
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{ell} is not an odd prime$"):
            k1_sphere_order(ell, 1)
        with pytest.raises(ValueError, match=f"^{ell} is not an odd prime$"):
            k1_sphere_order(ell, 1, generator=3)
        with pytest.raises(ValueError, match=f"^{ell} is not an odd prime$"):
            surjectivity_check(ell, 7, 1)


def first_generators(ell: int, count: int = 3) -> list[int]:
    out = []
    u = 2
    while len(out) < count:
        if u % ell and is_topological_generator(u, ell):
            out.append(u)
        u += 1
    return out


def test_k1_sphere_order_independent_of_generator():
    for ell in ODD_PRIMES_97:
        for k in list(range(1, 21)) + [ell - 1, 2 * (ell - 1), 60]:
            orders = {
                k1_sphere_order(ell, k, u).order for u in first_generators(ell)
            }
            assert len(orders) == 1, (ell, k)


def test_k1_sphere_order_even_in_k():
    for ell in (3, 5, 7, 11, 13):
        for k in range(1, 61):
            assert k1_sphere_order(ell, k).order == k1_sphere_order(ell, -k).order


def test_k1_sphere_order_closed_form():
    for ell in (3, 5, 7, 11):
        for k in range(1, 61):
            result = k1_sphere_order(ell, k)
            if k % (ell - 1) == 0:
                assert result.order == ell ** (1 + vp_int(k, ell))
            else:
                assert result.order == 1


def test_k1_sphere_order_trivial_in_odd_degrees():
    # (l-1) is even, so odd k never hits the congruence: order 1
    for ell in ODD_PRIMES_97:
        for m in range(1, 40, 2):
            assert k1_sphere_order(ell, m).order == 1


def test_k1_sphere_order_large_k_falls_back_to_modular_path():
    ell = 5
    k = 5000  # above the exact-power threshold
    assert k1_sphere_order(ell, k).order == ell ** (1 + vp_int(k, ell))


# -- Quillen K-groups --------------------------------------------------------


def test_k_finite_field_examples():
    assert k_finite_field(1, 5).order == 4
    assert k_finite_field(3, 2).order == 3
    assert k_finite_field(4, 9).is_trivial
    assert k_finite_field(0, 8).order is None
    with pytest.raises(ValueError):
        k_finite_field(1, 6)
    with pytest.raises(ValueError):
        k_finite_field(-1, 5)


def test_k_finite_field_orders_prime_to_q():
    from math import gcd

    for q in (2, 3, 4, 5, 7, 8, 9, 25, 27, 49):
        for i in range(1, 11):
            report = k_finite_field(2 * i - 1, q)
            assert report.order == q**i - 1
            assert gcd(report.order, q) == 1
            assert k_finite_field(2 * i, q).is_trivial


@pytest.mark.parametrize("q", [2, 3, 4, 49, 10007, 2**61 - 1, 3**50])
def test_k_finite_field_refuses_exactly_the_orders_str_cannot_print(q):
    # the largest accepted degree 2i - 1, by bisection: its order prints and the next does
    # not, by the interpreter's own 4,300-digit limit on int-to-str conversion
    def accepted(i: int) -> bool:
        try:
            k_finite_field(2 * i - 1, q)
        except ValueError as refusal:
            assert str(refusal).startswith("n must ") and str(refusal).endswith(f"got {2 * i - 1}")
            return False
        return True

    low, high = 1, 14286  # 2^14286 > 10^4300: refused without building q^i
    assert accepted(low) and not accepted(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if accepted(mid) else (low, mid)
    assert str(k_finite_field(2 * low - 1, q).order) == str(q**low - 1)
    with pytest.raises(ValueError, match="4300"):
        str(q**high - 1)


# -- consistency checks -------------------------------------------------------


def test_imj_consistency_examples():
    assert imj_consistency_check(3, 1)  # 3-part of 24 is 3 = 3^v_3(u^2-1)
    assert imj_consistency_check(5, 2)
    assert imj_consistency_check(7, 1)  # 7 does not divide 24, (l-1) = 6 does not divide 2


def test_imj_consistency_grid():
    for ell in ODD_PRIMES_97:
        for k in range(1, 31):
            assert imj_consistency_check(ell, k), (ell, k)


@pytest.mark.parametrize(
    "shift, scale, failures",
    [(0, 1, 0), (1, 1, 30), (0, 3, 30), (1, 3, 30)],
    ids=["exact", "sphere-order-shifted", "image-of-j-scaled", "closed-form-alone"],
)
def test_the_consistency_check_agrees_with_the_reports_it_skips(monkeypatch, shift, scale, failures):
    # imj_consistency_check builds no K1SphereOrder; on the default grid it
    # must read what the reports read.  At l = 3 the faults shift the sphere
    # order, or scale the image-of-J order by 3 (its other parts stay), or
    # both, so that each of the three sides disagrees alone.
    def shifted(u, k, ell):
        return _vl_power_minus_one(u, k, ell) + shift * (ell == 3)

    orders = {k: GroupOrderReport(imj_order(k).order * scale) for k in range(1, 31)}
    monkeypatch.setattr(imj, "_vl_power_minus_one", shifted)
    monkeypatch.setattr(imj, "imj_order", orders.__getitem__)
    verdicts = []
    for ell in ODD_PRIMES_97:
        for k in range(1, 31):
            sphere = k1_sphere_order(ell, 2 * k)
            expected = orders[k].part(ell) == sphere.order == sphere.closed_form
            verdicts.append(imj_consistency_check(ell, k))
            assert verdicts[-1] == expected, (ell, k)
    assert verdicts.count(False) == failures


def test_surjectivity_examples():
    assert surjectivity_check(3, 2, 2)
    assert surjectivity_check(5, 2, 4)
    assert surjectivity_check(3, 7, 1)
    with pytest.raises(ValueError):
        surjectivity_check(3, 3, 1)
    with pytest.raises(ValueError, match="^9 is not prime$"):
        surjectivity_check(5, 9, 1)


def test_norm_identity_examples():
    assert norm_identity_check(3, 2, 1, 5, 20)  # d = 1: both sides u^m - 1
    assert norm_identity_check(3, 2, 2, 3, 20)  # 2^6 - 1 = 63 = (2^3-1)(1+2^3)
    assert norm_identity_check(5, 2, 4, 2, 20)
    with pytest.raises(ValueError):
        norm_identity_check(5, 7, 2, 2, 20)  # 7 is not a generator mod 5


# (check, arguments, the refusal's class and message).  Each public check
# refuses its arguments before it calls its unchecked kernel, in the order
# the checks ran when they had no kernel: imj_consistency_check refuses k
# before l, as imj_order did first.
REFUSALS = [
    ('imj_consistency_check', (3, 0), 'ValueError: k must be >= 1, got 0'),
    ('imj_consistency_check', (4, 0), 'ValueError: k must be >= 1, got 0'),
    ('imj_consistency_check', (3, 1025), 'ValueError: k must be <= 1024, got 1025'),
    ('imj_consistency_check', (4, 1), 'PadicError: 4 is not an odd prime'),
    ('imj_consistency_check', (2, 1), 'PadicError: 2 is not an odd prime'),
    ('imj_consistency_check', (9, 2000), 'ValueError: k must be <= 1024, got 2000'),
    ('surjectivity_check', (4, 5, 1), 'PadicError: 4 is not an odd prime'),
    ('surjectivity_check', (3, 3, 1), 'ValueError: p must differ from l'),
    ('surjectivity_check', (3, 4, 0), 'ValueError: 4 is not prime'),
    ('surjectivity_check', (4, 5, 0), 'ValueError: k must be >= 1, got 0'),
    ('surjectivity_check', (2, 5, 1), 'PadicError: 2 is not an odd prime'),
    ('norm_identity_check', (4, 2, 0, 0, 0), 'PadicError: 4 is not an odd prime'),
    ('norm_identity_check', (3, 4, 0, 1, 8), 'ValueError: 4 does not topologically generate Z_3^x'),
    ('norm_identity_check', (3, 2, 0, 0, 0), 'ValueError: d must be >= 1, got 0'),
    ('norm_identity_check', (3, 2, 1, 0, 0), 'ValueError: m must be >= 1, got 0'),
    ('norm_identity_check', (3, 2, 1, 1, 0), 'PrecisionError: precision must be >= 1, got 0'),
    ('norm_identity_check', (3, 2, 1, 1, 5000), 'PrecisionError: precision must be <= 4096, got 5000'),
    ('norm_identity_check', (3, 3, 1, 1, 8), 'ZeroOperandError: u must be prime to l'),
    ('norm_identity_check', (2, 3, 1, 1, 8), 'PadicError: 2 is not an odd prime'),
]


@pytest.mark.parametrize("name, args, refusal", REFUSALS)
def test_the_public_checks_keep_their_refusals(name, args, refusal):
    with pytest.raises(ValueError) as raised:
        getattr(imj, name)(*args)
    assert f"{type(raised.value).__name__}: {raised.value}" == refusal


def test_smallest_generator_recorded():
    for ell in (3, 5, 7, 11):
        result = k1_sphere_order(ell, 2)
        assert result.generator == smallest_topological_generator(ell)


def test_vl_power_minus_one_against_exact_valuation():
    # Units that are not topological generators exercise every order
    # ord_l(u) and every v_l(u**(l-1) - 1), not just the generic ones.
    for ell in ODD_PRIMES_97[:6]:
        units = [u for u in range(2, 31) if u % ell and not is_topological_generator(u, ell)]
        assert units
        for u in units:
            for k in [*range(1, 61), 4097, 4098]:
                assert _vl_power_minus_one(u, k, ell) == vp_int(u**k - 1, ell), (u, k, ell)
                assert _vl_power_minus_one(u, -k, ell) == vp_int(u**k - 1, ell), (u, -k, ell)


def test_vl_power_minus_one_rejects_zero_valuations():
    with pytest.raises(ValueError):
        _vl_power_minus_one(5, 0, 3)
    with pytest.raises(ValueError):
        _vl_power_minus_one(1, 4, 3)


def test_surjectivity_past_the_old_exact_power_limit():
    # Past k = 4096 the valuation used to be read modulo 3**10, and
    # v_3(5314411**4098 - 1) = 13 (5314411 = 10 * 3**12 + 1) raised ArithmeticError.
    assert surjectivity_check(3, 5314411, 4098) is True
