"""Tests for the low-degree J-map shadows and the two product formulas."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jshadow._integers import primes_up_to
from jshadow.jmaps import (
    adelic_norm_product,
    j_fp_pi0,
    j_real_pi0,
    j_tame_pi1,
    j_wild_pi0,
    j_wild_pi1,
)
from jshadow.padic import PadicError, ZeroOperandError, embed, vp
from jshadow.symbols import INFINITY, Place, hilbert_reciprocity_check, hilbert_symbol, legendre


def test_j_real_pi0_is_identity():
    assert j_real_pi0(0) == 0
    assert j_real_pi0(1) == 1
    assert j_real_pi0(-5) == -5


def test_j_fp_pi0_is_cardinality_degree():
    assert j_fp_pi0(0, 7) == 1
    assert j_fp_pi0(1, 2) == 2
    assert j_fp_pi0(3, 5) == 125
    with pytest.raises(ValueError):
        j_fp_pi0(2, 6)
    with pytest.raises(ValueError):
        j_fp_pi0(-1, 5)


def test_j_tame_pi1_examples():
    for u in (1, 2, Fraction(4, 7)):
        assert j_tame_pi1(u, 3) == 1
    assert j_tame_pi1(3, 3) == 3
    assert j_tame_pi1(Fraction(4, 3), 3) == Fraction(1, 3)


_PRIMES_50 = primes_up_to(50)


def _outcome(call):
    """(type, value) of what ``call()`` returns, or (class, message) of the
    ValueError it raises."""
    try:
        value = call()
    except ValueError as error:
        return type(error), str(error)
    return type(value), value


@settings(max_examples=400, deadline=None)
@given(
    p=st.sampled_from(_PRIMES_50 + [-3, 0, 1, 4, 9, 15, 91]),
    base=st.sampled_from(_PRIMES_50),
    k=st.integers(-6, 6),
    m=st.integers(-1000, 1000),
    n=st.integers(1, 1000),
    as_int=st.booleans(),
)
@example(p=3, base=3, k=2, m=1, n=1, as_int=True)  # an int of valuation 2
@example(p=5, base=5, k=0, m=7, n=1, as_int=True)  # an int of valuation 0
@example(p=2, base=2, k=-3, m=3, n=5, as_int=False)  # a Fraction of valuation -3
@example(p=7, base=7, k=1, m=0, n=1, as_int=True)  # zero
@example(p=9, base=3, k=1, m=2, n=1, as_int=False)  # a composite p
def test_j_tame_pi1_is_p_to_the_valuation_as_a_fraction(p, base, k, m, n, as_int):
    # x = m/n * base^k with base = p at a prime p, an int or a Fraction, its
    # valuation at p of any sign; against Fraction(p) ** vp(x, p)
    if p in _PRIMES_50:
        base = p
    x = Fraction(m * base ** max(k, 0), n * base ** max(-k, 0))
    if as_int:
        x = x.numerator
    expected = _outcome(lambda: Fraction(p) ** vp(x, p))
    assert _outcome(lambda: j_tame_pi1(x, p)) == expected
    if p not in _PRIMES_50:
        assert expected[0] is PadicError
    elif x == 0:
        assert expected[0] is ZeroOperandError
    else:
        assert expected[0] is Fraction


def test_j_wild_pi0_is_negation():
    assert j_wild_pi0(0) == 0
    assert j_wild_pi0(1) == -1
    assert j_wild_pi0(7) == -7


def test_j_wild_pi1_examples():
    one = embed(1, 7, 20)
    assert j_wild_pi1(one) == one
    minus_one = embed(-1, 7, 20)
    assert j_wild_pi1(minus_one) == minus_one
    assert j_wild_pi1(embed(2, 7, 20)) == embed(Fraction(1, 2), 7, 20)
    with pytest.raises(ZeroOperandError):
        j_wild_pi1(embed(7, 7, 20))


def test_pi2_value_is_the_hilbert_symbol():
    assert hilbert_symbol(1, 17, INFINITY) == 1
    assert hilbert_symbol(-1, -1, INFINITY) == -1
    assert hilbert_symbol(2, 5, Place(5)) == -1


def test_multiplicativity_sweeps():
    rng = random.Random(41)
    primes = primes_up_to(50)
    for _ in range(300):
        p = rng.choice(primes)
        x = Fraction(rng.choice([-1, 1]) * rng.randint(1, 500), rng.randint(1, 500))
        y = Fraction(rng.choice([-1, 1]) * rng.randint(1, 500), rng.randint(1, 500))
        assert j_tame_pi1(x * y, p) == j_tame_pi1(x, p) * j_tame_pi1(y, p)
    for _ in range(100):
        p = rng.choice(primes)
        d1 = rng.randrange(1, p**16)
        d2 = rng.randrange(1, p**16)
        if d1 % p == 0 or d2 % p == 0:
            continue
        from jshadow.padic import PadicNumber

        x = PadicNumber.from_unit(p, 0, d1, 16)
        y = PadicNumber.from_unit(p, 0, d2, 16)
        assert j_wild_pi1(x * y) == j_wild_pi1(x) * j_wild_pi1(y)


def test_tame_factors_through_degree_map():
    rng = random.Random(43)
    primes = primes_up_to(50)
    for _ in range(500):
        p = rng.choice(primes)
        x = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**6))
        v = vp(x, p)
        assert j_tame_pi1(x, p) == Fraction(
            j_fp_pi0(max(v, 0), p), j_fp_pi0(max(-v, 0), p)
        )


# -- product formulas ------------------------------------------------------


def test_product_formula_example_minus_one():
    result = hilbert_reciprocity_check(-1, -1)
    assert {str(v) for v, s in result.local_symbols if s == -1} == {"2", "inf"}
    assert result.product == 1


def test_product_formula_second_supplement():
    # (2, p) at p: contributes only when p = +-3 mod 8
    for p in primes_up_to(200):
        if p == 2 or p % 8 not in (1, 7):
            continue
        result = hilbert_reciprocity_check(2, p)
        assert Place(p) not in {v for v, s in result.local_symbols if s == -1}


def test_product_formula_reproduces_quadratic_reciprocity():
    odd_primes = [p for p in primes_up_to(50) if p != 2]
    for q in odd_primes:
        for r in odd_primes:
            if q == r:
                continue
            result = hilbert_reciprocity_check(q, r)
            assert result.product == 1
            table = {str(v): s for v, s in result.local_symbols}
            # the pair of finite odd places carries legendre(r,q)*legendre(q,r)
            sign = table[str(q)] * table[str(r)]
            expected = -1 if ((q - 1) // 2) * ((r - 1) // 2) % 2 else 1
            assert sign == expected
            assert legendre(r, q) * legendre(q, r) == expected


def test_adelic_norm_product_examples():
    assert adelic_norm_product(1) == 1
    assert adelic_norm_product(-6) == 1  # 6 * 1/2 * 1/3
    assert adelic_norm_product(Fraction(20, 9)) == 1
    with pytest.raises(ZeroOperandError):
        adelic_norm_product(0)


def test_adelic_norm_product_random_sample():
    rng = random.Random(47)
    for _ in range(10000):
        x = Fraction(
            rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**6)
        )
        assert adelic_norm_product(x) == 1
