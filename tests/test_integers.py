"""Tests for primality, factorization and the argument checks; sympy is the oracle."""

import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jshadow import imj, jmaps, padic, symbols
from jshadow._integers import (
    _PSI,
    _PSI_13,
    _is_strong_lucas_probable_prime,
    _pollard_brent,
    check_prime,
    check_range,
    check_rational,
    factorint,
    is_prime,
    prime_power_base,
    primes_up_to,
    split_unit,
    vp_int,
)

# Least strong pseudoprimes to the prime bases 2..37 and 2..41 (Sorenson-Webster 2017).
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_psi_12_is_composite():
    # Bases 2..37 alone call it prime; base 41 shows it composite.
    assert not is_prime(PSI_12)
    assert factorint(PSI_12) == {399165290221: 1, 798330580441: 1}


def test_psi_13_is_composite():
    # Bases 2..41 all call it prime; the strong Lucas test shows it composite.
    assert not is_prime(PSI_13)
    assert factorint(PSI_13) == {1287836182261: 1, 2575672364521: 1}


def test_strong_lucas_pseudoprimes_are_caught_by_the_bases():
    # The least strong Lucas pseudoprimes with Selfridge's parameters
    # (OEIS A217255): the Lucas step passes them, Miller-Rabin does not.
    for n in (5459, 5777, 10877, 16109, 18971):
        assert _is_strong_lucas_probable_prime(n)
        assert not is_prime(n)


def test_is_prime_and_factorint_agree_with_sympy_near_psi_12_and_2_64():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1213)
    for centre in (PSI_12, 2**64):
        near = [centre + d for d in range(-200, 201)]
        spread = [rng.randrange(centre // 2, 2 * centre) for _ in range(200)]
        for n in near + spread:
            assert is_prime(n) == sympy.isprime(n), n
    for _ in range(6):
        n = rng.randrange(2**63, 2**65)
        assert factorint(n) == sympy.factorint(n), n


def test_is_prime_agrees_with_sympy_at_and_above_psi_13():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1313)
    near = [PSI_13 + d for d in range(-300, 301)]
    spread = [rng.randrange(PSI_13, 2**128) for _ in range(300)]
    # Products of two primes near the square root are the hard composites.
    def prime_near(lo: int, hi: int) -> int:
        return sympy.nextprime(rng.randrange(lo, hi))

    semiprimes = [prime_near(2**40, 2**64) * prime_near(2**40, 2**64) for _ in range(40)]
    squares = [prime_near(2**41, 2**64) ** 2 for _ in range(10)]
    for n in near + spread + semiprimes + squares:
        assert is_prime(n) == sympy.isprime(n), n


# -- the fewest Miller-Rabin bases ------------------------------------------------

FIRST_PRIMES = primes_up_to(41)  # the thirteen bases


def _strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes the strong test to base a: a^d = 1 or
    a^(d 2^r) = -1 mod n for some r < s, where n - 1 = d 2^s with d odd."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))


def test_each_psi_k_fools_its_first_k_bases():
    # The table is tight: at psi_k the first k bases call a composite prime,
    # so is_prime must use one more base from psi_k on.
    sympy = pytest.importorskip("sympy")
    assert len(_PSI) == 12 and list(_PSI) == sorted(_PSI) and _PSI_13 > _PSI[-1]
    for k, psi in enumerate((*_PSI, _PSI_13), start=1):
        assert not sympy.isprime(psi), psi
        assert all(_strong_probable_prime(psi, a) for a in FIRST_PRIMES[:k]), psi
        assert not is_prime(psi), psi


def test_is_prime_agrees_with_sympy_around_each_psi_k():
    sympy = pytest.importorskip("sympy")
    for psi in sorted({*_PSI, _PSI_13}):
        for n in range(psi - 2000, psi + 2001):
            assert is_prime(n) == sympy.isprime(n), n


def test_the_prime_check_returns_a_prime_and_raises_the_given_class():
    assert check_prime(13) == 13 and check_prime(2) == 2 and check_prime(13, odd=True) == 13
    with pytest.raises(ValueError, match="^21 is not prime$"):
        check_prime(21)

    class Refused(ValueError):
        pass

    with pytest.raises(Refused, match="^2 is not an odd prime$"):
        check_prime(2, Refused, odd=True)
    with pytest.raises(Refused, match="^1 is not an odd prime$"):
        check_prime(1, Refused, odd=True)


def test_the_range_check_returns_the_value_and_raises_the_given_class():
    for value in (-(10**30), -1, 0, 1, 10**30):
        assert check_range("x", value) == value
    assert check_range("x", 5, 5, 5) == 5 and check_range("x", 5, None, 5) == 5 and check_range("x", 5, 5) == 5
    with pytest.raises(ValueError, match="^x must be >= 0, got -1$"):
        check_range("x", -1, 0)

    class Refused(ValueError):
        pass

    with pytest.raises(Refused, match="^x must be <= 4, got 5$"):
        check_range("x", 5, 0, 4, Refused)
    with pytest.raises(Refused, match="^x must be >= 2, got 1$"):
        check_range("x", 1, 2, None, Refused)


# Every bounded int argument of the library: (the call one step past the bound,
# its exception class, its message, the call at the bound or None where that is slow).
BOUNDED_ARGUMENTS = {
    # 131073 = 3 * 43691 is composite: the cap's message shows the cap is checked before primality
    "zolotarev_sign p above the cap": (
        lambda: symbols.zolotarev_sign(2, symbols.ORACLE_PRIME_CAP + 1),
        symbols.SymbolError,
        "p must be <= 131072, got 131073",
        lambda: symbols.zolotarev_sign(2, 131071),
    ),
    "hilbert_oracle p above the cap": (
        lambda: symbols.hilbert_oracle(3, 5, symbols.Place(131101)),
        symbols.SymbolError,
        "p must be <= 131072, got 131101",
        lambda: symbols.hilbert_oracle(3, 5, symbols.Place(131071)),
    ),
    "from_unit precision 0": (
        lambda: padic.PadicNumber.from_unit(5, 0, 1, 0),
        padic.PrecisionError,
        "precision must be >= 1, got 0",
        lambda: padic.PadicNumber.from_unit(5, 0, 1, 1),
    ),
    "from_unit precision above the cap": (
        lambda: padic.PadicNumber.from_unit(5, 0, 1, padic.MAX_PRECISION + 1),
        padic.PrecisionError,
        "precision must be <= 4096, got 4097",
        lambda: padic.PadicNumber.from_unit(5, 0, 1, 4096),
    ),
    "embed precision 0": (
        lambda: padic.embed(Fraction(5, 9), 7, 0),
        padic.PrecisionError,
        "precision must be >= 1, got 0",
        lambda: padic.embed(Fraction(5, 9), 7, 1),
    ),
    "embed precision above the cap": (
        lambda: padic.embed(Fraction(5, 9), 7, padic.MAX_PRECISION + 1),
        padic.PrecisionError,
        "precision must be <= 4096, got 4097",
        lambda: padic.embed(Fraction(5, 9), 7, 4096),
    ),
    "teichmuller precision 0": (
        lambda: padic.teichmuller(2, 7, 0),
        padic.PrecisionError,
        "precision must be >= 1, got 0",
        lambda: padic.teichmuller(2, 7, 1),
    ),
    "teichmuller precision above the cap": (
        lambda: padic.teichmuller(2, 7, padic.MAX_PRECISION + 1),
        padic.PrecisionError,
        "precision must be <= 4096, got 4097",
        lambda: padic.teichmuller(2, 7, 4096),
    ),
    "geometric_series_witness depth 0": (
        lambda: padic.geometric_series_witness(3, 0),
        ValueError,
        "depth must be >= 1, got 0",
        lambda: padic.geometric_series_witness(3, 1),
    ),
    "bernoulli n -1": (lambda: imj.bernoulli(-1), ValueError, "n must be >= 0, got -1", lambda: imj.bernoulli(0)),
    "bernoulli n above the cap": (
        lambda: imj.bernoulli(imj.BERNOULLI_CAP + 1),
        ValueError,
        "n must be <= 2048, got 2049",
        None,
    ),
    "imj_order k 0": (lambda: imj.imj_order(0), ValueError, "k must be >= 1, got 0", lambda: imj.imj_order(1)),
    "imj_order k above the cap": (
        lambda: imj.imj_order(imj.BERNOULLI_CAP // 2 + 1),
        ValueError,
        "k must be <= 1024, got 1025",
        None,
    ),
    "k_finite_field n -1": (
        lambda: imj.k_finite_field(-1, 4),
        ValueError,
        "n must be >= 0, got -1",
        lambda: imj.k_finite_field(0, 4),
    ),
    "surjectivity_check k 0": (
        lambda: imj.surjectivity_check(3, 5, 0),
        ValueError,
        "k must be >= 1, got 0",
        lambda: imj.surjectivity_check(3, 5, 1),
    ),
    "norm_identity_check d 0": (
        lambda: imj.norm_identity_check(3, 2, 0, 1, 8),
        ValueError,
        "d must be >= 1, got 0",
        lambda: imj.norm_identity_check(3, 2, 1, 1, 8),
    ),
    "norm_identity_check m 0": (
        lambda: imj.norm_identity_check(3, 2, 1, 0, 8),
        ValueError,
        "m must be >= 1, got 0",
        lambda: imj.norm_identity_check(3, 2, 1, 1, 8),
    ),
    "GroupOrderReport order 0": (
        lambda: imj.GroupOrderReport(0),
        ValueError,
        "order must be >= 1, got 0",
        lambda: imj.GroupOrderReport(1),
    ),
    "j_fp_pi0 k -1": (
        lambda: jmaps.j_fp_pi0(-1, 3),
        ValueError,
        "k must be >= 0, got -1",
        lambda: jmaps.j_fp_pi0(0, 3),
    ),
    "factorint n 0": (lambda: factorint(0), ValueError, "n must be >= 1, got 0", lambda: factorint(1)),
}


@pytest.mark.parametrize("refused, error, message, accepted", BOUNDED_ARGUMENTS.values(), ids=BOUNDED_ARGUMENTS)
def test_each_bounded_argument_is_refused_one_step_past_its_bound(refused, error, message, accepted):
    with pytest.raises(error, match=f"^{message}$") as caught:
        refused()
    assert type(caught.value) is error
    if accepted is not None:
        accepted()


# Refusals and edge values of the library that no other test reaches: (the call,
# the exception it raises, class and message, or the value it returns).
EDGE_CASES = {
    "jacobi of an even modulus": (
        lambda: symbols.jacobi(3, 4),
        symbols.SymbolError("Jacobi symbol needs odd n >= 1"),
    ),
    "jacobi modulo 0": (lambda: symbols.jacobi(3, 0), symbols.SymbolError("Jacobi symbol needs odd n >= 1")),
    "reciprocity at a = 0": (
        lambda: symbols.hilbert_reciprocity_check(0, 2),
        symbols.SymbolError("inputs must be nonzero"),
    ),
    "p-part of an infinite group": (
        lambda: imj.GroupOrderReport(None).part(3),
        ValueError("infinite group has no p-part"),
    ),
    "zero to no digit": (
        lambda: padic.PadicNumber.zero(3, 0),
        padic.PrecisionError("zero must be known modulo at least one digit"),
    ),
    "unit digits of zero": (
        lambda: padic.PadicNumber.zero(3, 2).unit_digits,
        padic.ZeroOperandError("the zero element has no unit part"),
    ),
    "log of zero": (
        lambda: padic.padic_log(padic.PadicNumber.zero(3, 5)),
        padic.ZeroOperandError("log of the zero element"),
    ),
    "a float exponent": (
        lambda: padic.embed(2, 3) ** 1.5,
        TypeError("unsupported operand type(s) for ** or pow(): 'PadicNumber' and 'float'"),
    ),
    "primes up to 1": (lambda: primes_up_to(1), []),
    "primes up to -3": (lambda: primes_up_to(-3), []),
    "the Lucas test of a square": (lambda: _is_strong_lucas_probable_prime(1009**2), False),
    "the Lucas test where D = 5 shares a factor": (lambda: _is_strong_lucas_probable_prime(35), False),
}


@pytest.mark.parametrize("call, outcome", EDGE_CASES.values(), ids=EDGE_CASES)
def test_each_edge_case_raises_or_returns_as_stated(call, outcome):
    if isinstance(outcome, Exception):
        with pytest.raises(type(outcome), match=f"^{re.escape(str(outcome))}$") as caught:
            call()
        assert type(caught.value) is type(outcome)
    else:
        value = call()
        assert (type(value), value) == (type(outcome), outcome)


def test_pollard_brent_moves_its_start_and_constant_when_a_cycle_fails():
    # From x0 = 2, c = 1 the cycle closes on the whole of 143 = 11 * 13 once and of
    # 217 = 7 * 31 twice before a proper factor shows.
    assert _pollard_brent(143) == 13
    assert _pollard_brent(217) == 7


# Each public function that takes a rational, called on x in the position of a rational.
RATIONAL_ENTRY_POINTS = {
    "vp": lambda x: padic.vp(x, 5),
    "padic_norm": lambda x: padic.padic_norm(x, 5),
    "embed": lambda x: padic.embed(x, 5, 8),
    "hilbert_symbol": lambda x: symbols.hilbert_symbol(x, 3, symbols.Place(5)),
    "hilbert_oracle": lambda x: symbols.hilbert_oracle(3, x, symbols.Place(5)),
    "tame_symbol": lambda x: symbols.tame_symbol(x, 3, 5),
    "hilbert_reciprocity_check": lambda x: symbols.hilbert_reciprocity_check(3, x),
    "j_tame_pi1": lambda x: jmaps.j_tame_pi1(x, 5),
    "adelic_norm_product": jmaps.adelic_norm_product,
}


@pytest.mark.parametrize("entry", RATIONAL_ENTRY_POINTS.values(), ids=RATIONAL_ENTRY_POINTS)
def test_floats_and_strings_are_refused_as_rationals(entry):
    # Fraction(0.1) is 3602879701896397/2**55, whose v_5 is 0, not v_5(1/10) = -1:
    # vp(0.1, 5) used to return 0, and hilbert_symbol(0.1, 3, Place(5)) +1 for -1.
    entry(Fraction(1, 10))
    for x in (0.1, "1/10", 1.0):
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            entry(x)


def test_a_tenth_is_read_exactly():
    assert padic.vp(Fraction(1, 10), 5) == -1
    assert symbols.hilbert_symbol(Fraction(1, 10), 3, symbols.Place(5)) == -1
    assert check_rational(7) == 7 and check_rational(Fraction(1, 10)) == Fraction(1, 10)


# -- prime powers -----------------------------------------------------------


def _prime_power_by_factoring(q: int) -> tuple[int, int] | None:
    factors = factorint(q) if q >= 2 else {}
    return next(iter(factors.items())) if len(factors) == 1 else None


def test_prime_power_base_agrees_with_factoring():
    for q in range(-5, 10**4):
        assert prime_power_base(q) == _prime_power_by_factoring(q), q
    for p, e in ((1009, 7), (2**61 - 1, 3), (2**89 - 1, 2), (2**127 - 1, 1), (1000003, 12)):
        assert prime_power_base(p**e) == (p, e) and prime_power_base(p ** (e + 1)) == (p, e + 1)
        assert prime_power_base(p**e * 1013) is None  # two primes


def test_prime_power_base_decides_a_product_of_two_large_primes_without_factoring():
    # 2**128 + 1 = 59649589127497217 * 5704689200685129054721: factoring it takes
    # Pollard-Brent past 20 s, but a prime power's root is found in microseconds.
    with mock.patch("jshadow._integers._pollard_brent", side_effect=AssertionError("factored")):
        assert prime_power_base(2**128 + 1) is None
        assert prime_power_base(59649589127497217 * 5704689200685129054721**2) is None


# -- the split n = p**alpha * u -------------------------------------------------

SPLIT_PRIMES = primes_up_to(100) + [2**64 + 13]  # and the least prime above 2**64


def test_split_unit_examples():
    assert split_unit(-12, 2) == (2, -3)  # the sign stays in the unit
    assert split_unit(7, 3) == (0, 7)
    assert split_unit(-1, 5) == (0, -1)


@settings(max_examples=300)
@given(data=st.data(), p=st.sampled_from(SPLIT_PRIMES))
def test_split_unit_recomposes_n(data, p):
    # Any |n| <= 10**30, or m * p**k with |m| <= 10**6 and p**k <= 10**24,
    # so that high valuations are drawn as well.
    k_max = int(math.log(10**24, p))
    n = data.draw(
        st.integers(-(10**30), 10**30)
        | st.builds(lambda m, k: m * p**k, st.integers(-(10**6), 10**6), st.integers(0, k_max))
    )
    with pytest.raises(ValueError):
        split_unit(0, p)
    if n:
        alpha, u = split_unit(n, p)
        assert p**alpha * u == n and u % p
        assert vp_int(n, p) == alpha
