"""Tests for quadratic symbols, with independent brute-force oracles."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jshadow import symbols
from jshadow._integers import primes_up_to, split_unit
from jshadow.cli import UsageError, parse_place
from jshadow.padic import vp
from jshadow.symbols import (
    INFINITY,
    Place,
    SymbolError,
    hilbert_oracle,
    hilbert_reciprocity_check,
    hilbert_symbol,
    jacobi,
    legendre,
    tame_symbol,
    zolotarev_sign,
)

ODD_PRIMES_100 = [p for p in primes_up_to(100) if p != 2]
PLACES_20 = [Place(p) for p in primes_up_to(20)] + [INFINITY]


# -- independent oracles -------------------------------------------------


def euler_criterion(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion: a^((p-1)/2) mod p."""
    r = pow(a, (p - 1) // 2, p)
    return r - p if r == p - 1 else r


def squares_mod(p: int) -> set[int]:
    return {x * x % p for x in range(1, p)}


# -- Place ----------------------------------------------------------------


def test_place_parse_and_order():
    assert parse_place("inf") == INFINITY
    assert parse_place("7") == Place(7)
    with pytest.raises(SymbolError, match="6 is not prime"):
        parse_place("6")
    with pytest.raises(UsageError):
        parse_place("x")


# -- Legendre / Jacobi ----------------------------------------------------


def test_legendre_examples():
    for p in ODD_PRIMES_100:
        assert legendre(1, p) == 1
    assert squares_mod(7) == {1, 2, 4}
    assert legendre(2, 7) == 1
    assert legendre(3, 7) == -1
    assert legendre(14, 7) == 0


def test_legendre_rejects_non_odd_primes():
    with pytest.raises(SymbolError):
        legendre(3, 2)
    with pytest.raises(SymbolError):
        legendre(3, 15)


def test_legendre_against_euler_criterion():
    for p in ODD_PRIMES_100:
        for a in range(1, p):
            assert legendre(a, p) == euler_criterion(a, p)


def test_legendre_against_square_sets():
    for p in ODD_PRIMES_100[:10]:
        squares = squares_mod(p)
        for a in range(1, p):
            assert (legendre(a, p) == 1) == (a in squares)


@settings(max_examples=300)
@given(
    a=st.integers(min_value=-(10**6), max_value=10**6),
    b=st.integers(min_value=-(10**6), max_value=10**6),
    p=st.sampled_from(ODD_PRIMES_100),
)
def test_legendre_is_multiplicative(a, b, p):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_jacobi_reduces_to_legendre():
    for p in ODD_PRIMES_100[:8]:
        for a in range(2 * p):
            assert jacobi(a, p) == legendre(a, p)


# -- Zolotarev ------------------------------------------------------------


def brute_permutation_sign(a: int, p: int) -> int:
    """Sign by counting inversions; independent of the cycle walk."""
    perm = [a * x % p for x in range(p)]
    inversions = sum(
        1 for i in range(p) for j in range(i + 1, p) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def test_zolotarev_examples():
    for p in (3, 5, 7, 11):
        assert zolotarev_sign(1, p) == 1
    assert zolotarev_sign(2, 7) == 1  # (1 2 4)(3 6 5): two 3-cycles, even
    assert zolotarev_sign(3, 5) == -1  # (1 3 4 2): a 4-cycle, odd


def test_zolotarev_against_inversion_count():
    for p in primes_up_to(60)[1:]:  # odd primes
        for a in range(1, p):
            sign = brute_permutation_sign(a, p)
            assert zolotarev_sign(a, p) == sign, (a, p)
            assert zolotarev_sign(a + 3 * p, p) == zolotarev_sign(a - 2 * p, p) == sign, (a, p)


def test_zolotarev_equals_legendre_small():
    for p in ODD_PRIMES_100:
        for a in range(1, p):
            assert zolotarev_sign(a, p) == legendre(a, p)


def test_jacobi_at_odd_moduli_is_the_permutation_sign():
    # Zolotarev-Frobenius: for odd n and gcd(a, n) = 1, (a|n) is the sign of x -> ax on Z/n
    checked = 0
    for n in range(3, 46, 2):
        for a in range(1, n):
            expected = brute_permutation_sign(a, n) if math.gcd(a, n) == 1 else 0
            assert jacobi(a, n) == expected, (a, n)
            checked += 1
    assert checked == 506


def test_zolotarev_rejects_multiples_of_p():
    with pytest.raises(SymbolError):
        zolotarev_sign(10, 5)
    with pytest.raises(SymbolError, match="prime to p"):
        zolotarev_sign(-21, 7)


@pytest.mark.parametrize("p", [2, 1, 9, 15, 91])
def test_zolotarev_rejects_p_not_an_odd_prime(p):
    with pytest.raises(SymbolError, match="not an odd prime"):
        zolotarev_sign(1, p)


# -- the unchecked kernels behind the public symbols ----------------------


def test_the_permutation_walk_is_zolotarev_sign_at_odd_primes():
    for p in primes_up_to(200)[1:]:
        for a in range(1, p):
            assert symbols._permutation_sign(a, p) == zolotarev_sign(a, p), (a, p)


def test_the_permutation_walk_at_odd_composite_moduli_is_the_inversion_sign():
    # Frobenius: x -> ax permutes Z/n for every a prime to n, prime or not
    checked = 0
    for n in range(9, 46, 2):
        if n in ODD_PRIMES_100:
            continue
        for a in range(1, n):
            if math.gcd(a, n) == 1:
                assert symbols._permutation_sign(a, n) == brute_permutation_sign(a, n), (a, n)
                checked += 1
    assert checked == 156  # phi(n) over n = 9, 15, 21, 25, 27, 33, 35, 39, 45


def test_the_symbol_kernels_on_split_data_are_the_public_symbols():
    nonzero = [n for n in range(-30, 31) if n]
    for p in primes_up_to(50):
        place = Place(p)
        for a in nonzero:
            for b in nonzero:
                split = *split_unit(a, p), *split_unit(b, p), p
                assert symbols._local_sign(*split) == hilbert_symbol(a, b, place), (a, b, p)
                assert symbols._oracle_sign(*split) == hilbert_oracle(a, b, place), (a, b, p)


@pytest.mark.parametrize(
    "symbol, args, message",
    [
        (zolotarev_sign, (2, 9), "9 is not an odd prime"),
        (zolotarev_sign, (2, 91), "91 is not an odd prime"),
        (zolotarev_sign, (3, 2), "2 is not an odd prime"),
        (zolotarev_sign, (-21, 7), "a must be prime to p"),
        (zolotarev_sign, (0, 3), "a must be prime to p"),
        (zolotarev_sign, (2, 131101), f"p must be <= {symbols.ORACLE_PRIME_CAP}, got 131101"),
        (hilbert_oracle, (2, 3, Place(131101)), f"p must be <= {symbols.ORACLE_PRIME_CAP}, got 131101"),
        (hilbert_symbol, (0, 3, Place(3)), "a must be nonzero"),
        (hilbert_symbol, (3, Fraction(0), Place(2)), "b must be nonzero"),
        (hilbert_oracle, (0, 3, Place(3)), "a must be nonzero"),
        (hilbert_oracle, (3, 0, INFINITY), "b must be nonzero"),
        (Place, (9,), "9 is not prime"),
        (Place, (2**17,), "131072 is not prime"),
    ],
)
def test_the_public_symbols_keep_their_refusals(symbol, args, message):
    # the kernels check nothing, so each refusal is the public function's own
    with pytest.raises(SymbolError) as refused:
        symbol(*args)
    assert str(refused.value) == message


# -- Hilbert symbol -------------------------------------------------------


def test_hilbert_examples():
    for v in PLACES_20:
        for b in (2, -3, Fraction(5, 7)):
            assert hilbert_symbol(1, b, v) == 1
    assert hilbert_symbol(-1, -1, INFINITY) == -1
    assert hilbert_symbol(2, 5, Place(5)) == -1


def test_hilbert_rejects_zero():
    with pytest.raises(SymbolError):
        hilbert_symbol(0, 1, INFINITY)
    with pytest.raises(SymbolError):
        hilbert_oracle(1, 0, INFINITY)


def test_oracle_examples():
    assert hilbert_oracle(1, 1, Place(3)) == 1
    assert hilbert_oracle(3, 5, Place(3)) == -1
    assert legendre(5, 3) == -1  # the closed-form reason


def test_oracle_steinberg_relation():
    for v in PLACES_20:
        for a in (-5, -2, 2, 3, Fraction(1, 2), Fraction(7, 3)):
            assert hilbert_oracle(a, 1 - Fraction(a), v) == 1


def test_oracle_agreement_small_grid():
    for v in PLACES_20:
        for a in range(-10, 11):
            if not a:
                continue
            for b in range(-10, 11):
                if not b:
                    continue
                assert hilbert_symbol(a, b, v) == hilbert_oracle(a, b, v), (a, b, str(v))


def test_oracle_modulus_exponent_bound():
    v = Place(3)
    assert hilbert_oracle(3, 3, v) == hilbert_symbol(3, 3, v)


def test_oracle_on_high_powers_of_the_place():
    # The oracle divides out p**2, which keeps each square class, so it still
    # agrees with the closed form while its search modulus stops growing with v_p.
    for p in (3, 17):
        v = Place(p)
        for e in range(9):
            for a in (2 * p**e, 3 * p**e, -(p**e), Fraction(5, p**e)):
                for b in (5, p, -7 * p**3):
                    assert hilbert_oracle(a, b, v) == hilbert_symbol(a, b, v), (a, b, p)


def test_oracle_walk_reaches_its_rare_branches(monkeypatch):
    # Seeded pairs a, b = +-p^i u, i <= 4, u a small unit, against the closed
    # form.  The counters show that the sample takes the (pu, pw) -> (-uw, pw)
    # descent, reaches a node with g_z = 0 mod p and residual 0 (its dz is
    # free, so it has children), and finds a verdict only in the second chart.
    # The walk goes no deeper than the module docstring's M <= 5 (M <= 9 at
    # p = 2), which needs the descent: (pu, pw) itself would take M = 7 (11).
    search, lifts = symbols._search_primitive_solution, symbols._lifts
    reached = {"descent": 0, "free dz": 0, "second chart": 0}
    free = []  # per open node of the walk: whether its g_z is 0 mod p
    deepest = dict.fromkeys((2, 3, 5, 7), 0)  # p -> the deepest level walked

    def counted_search(C, D, p, levels, ts):
        found = search(C, D, p, levels, ts)
        reached["second chart"] += found and ts == (0,)
        return found

    def counted_lifts(C, D, p, levels, t, z, j):
        reached["free dz"] += bool(free and free[-1])
        deepest[p] = max(deepest[p], j)
        free.append(2 * z % p == 0)
        try:
            return lifts(C, D, p, levels, t, z, j)
        finally:
            free.pop()

    monkeypatch.setattr(symbols, "_search_primitive_solution", counted_search)
    monkeypatch.setattr(symbols, "_lifts", counted_lifts)
    rng = random.Random(2023)
    for p in (2, 3, 5, 7):
        units = [u for u in range(1, 16) if u % p]
        for _ in range(500):
            i, j = rng.randint(0, 4), rng.randint(0, 4)
            a = rng.choice((-1, 1)) * rng.choice(units) * p**i
            b = rng.choice((-1, 1)) * rng.choice(units) * p**j
            reached["descent"] += i & j & 1
            assert hilbert_oracle(a, b, Place(p)) == hilbert_symbol(a, b, Place(p)), (a, b, p)
    assert all(reached.values()), reached
    assert deepest == {2: 9, 3: 5, 5: 5, 7: 5}


def test_oracle_decides_every_square_class_at_a_large_prime():
    # The two-chart walk is linear in p; the box search it replaced took
    # hours on a symbol of -1 at this p.  (2p, p) takes the descent step.
    p = 100003
    v = Place(p)
    n = next(k for k in range(2, p) if euler_criterion(k, p) == -1)
    classes = (1, n, p, n * p)
    for a in classes:
        for b in classes:
            assert hilbert_oracle(a, b, v) == hilbert_symbol(a, b, v), (a, b)
    assert hilbert_oracle(2 * p, p, v) == hilbert_symbol(2 * p, p, v)


def test_oracle_refuses_primes_past_its_cap():
    p = 131101  # the least prime above 2**17
    assert p > symbols.ORACLE_PRIME_CAP
    with mock.patch("jshadow.symbols._sqrt_table", side_effect=AssertionError("table built")):
        with pytest.raises(SymbolError, match=f"{symbols.ORACLE_PRIME_CAP}, got {p}"):
            hilbert_oracle(2, 3, Place(p))
    assert hilbert_symbol(2, 3, Place(p)) == 1
    # the Zolotarev walk takes the same cap: bytearray(p) at 10^15 + 37 was a MemoryError
    with mock.patch("jshadow.symbols.bytearray", side_effect=AssertionError("table built"), create=True):
        with pytest.raises(SymbolError, match=f"^p must be <= {symbols.ORACLE_PRIME_CAP}, got "):
            zolotarev_sign(2, 1000000000000037)
    assert zolotarev_sign(3, 131071) == legendre(3, 131071)  # the largest prime either takes


def test_square_root_tables_are_kept_up_to_a_total_of_roots(monkeypatch):
    # a table mod p holds p roots; a count of tables alone let 64 tables near
    # the oracle's cap hold about 0.75 GiB
    monkeypatch.setattr(symbols, "_SQRT_TABLE_ENTRIES", 100)
    monkeypatch.setattr(symbols, "_sqrt_tables", {})
    for p in (31, 37, 41, 5):  # 41 pushes out 31, the oldest
        symbols._sqrt_table(p)
        assert sum(symbols._sqrt_tables) <= 100
    assert list(symbols._sqrt_tables) == [37, 41, 5]
    assert symbols._sqrt_table(37) is symbols._sqrt_tables[37]
    assert symbols._sqrt_table(7) == {0: (0,), 1: (1, 6), 2: (3, 4), 4: (2, 5)}
    # a bound that evicts on almost every place leaves the answers as they were
    for v in (Place(p) for p in primes_up_to(60)):
        for a, b in ((2, 3), (-1, 5), (6, 7), (3 * 59, 59)):
            assert hilbert_oracle(a, b, v) == hilbert_symbol(a, b, v), (a, b, v)
        assert sum(symbols._sqrt_tables) <= 100


def test_hilbert_bilinear_and_symmetric():
    rng = random.Random(23)
    pool = [n for n in range(-30, 31) if n]
    for _ in range(300):
        v = rng.choice(PLACES_20)
        a, a2, b = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * a2, b, v) == hilbert_symbol(a, b, v) * hilbert_symbol(
            a2, b, v
        )


def test_hilbert_steinberg_relation():
    for v in PLACES_20:
        for a in range(-20, 21):
            if a in (0, 1):
                continue
            assert hilbert_symbol(a, 1 - a, v) == 1


def test_hilbert_square_invariance():
    rng = random.Random(29)
    pool = [n for n in range(-30, 31) if n]
    for _ in range(300):
        v = rng.choice(PLACES_20)
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert hilbert_symbol(a * c * c, b, v) == hilbert_symbol(a, b, v)
        assert hilbert_symbol(Fraction(a, c * c), b, v) == hilbert_symbol(a, b, v)


# -- tame symbol ----------------------------------------------------------


def test_tame_examples():
    for p in (3, 5, 7):
        for u, w in ((1, 2), (2, 1), (p + 1, p - 1)):
            assert tame_symbol(u, w, p) == 1
        assert tame_symbol(p, p, p) == p - 1
    assert tame_symbol(3, 5, 3) == 2  # 5 * 2 = 1 mod 3


def tame_by_fractions(a: Fraction, b: Fraction, p: int) -> int:
    """The tame symbol as Fraction powers: (-1)^(v(a)v(b)) a^v(b) / b^v(a) mod p."""
    alpha, beta = vp(a, p), vp(b, p)
    r = Fraction(-1 if alpha * beta % 2 else 1) * a**beta / b**alpha
    return r.numerator * pow(r.denominator, -1, p) % p


def test_tame_in_ints_agrees_with_fraction_powers():
    rng = random.Random(41)
    primes = primes_up_to(50)
    for _ in range(2000):
        p = rng.choice(primes)
        a, b = (
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**12), rng.randint(1, 10**12))
            * Fraction(p) ** rng.randint(-2, 2)
            for _ in range(2)
        )
        assert tame_symbol(a, b, p) == tame_by_fractions(a, b, p), (a, b, p)
    for alpha in range(-2, 3):
        for beta in range(-2, 3):
            for p in (2, 3, 7):
                a = Fraction(5, 11) * Fraction(p) ** alpha
                b = Fraction(-13, 17) * Fraction(p) ** beta
                assert tame_symbol(a, b, p) == tame_by_fractions(a, b, p)
                n = 5 * p ** max(alpha, 0)  # a plain int argument
                assert tame_symbol(n, b, p) == tame_by_fractions(Fraction(n), b, p)


def test_tame_rejects_zero():
    with pytest.raises(SymbolError):
        tame_symbol(0, 1, 3)


def test_tame_hilbert_compatibility():
    rng = random.Random(31)
    pool = [n for n in range(-40, 41) if n]
    for _ in range(500):
        p = rng.choice(ODD_PRIMES_100[:12])
        a = Fraction(rng.choice(pool), rng.randint(1, 40))
        b = Fraction(rng.choice(pool), rng.randint(1, 40))
        assert legendre(tame_symbol(a, b, p), p) == hilbert_symbol(a, b, Place(p))


# -- reciprocity ----------------------------------------------------------


def test_reciprocity_examples():
    for b in (3, -7, Fraction(9, 10)):
        result = hilbert_reciprocity_check(1, b)
        assert all(s == 1 for _, s in result.local_symbols)
        assert result.product == 1

    result = hilbert_reciprocity_check(-1, -1)
    table = {str(v): s for v, s in result.local_symbols}
    assert table == {"2": -1, "inf": -1}
    assert result.product == 1

    result = hilbert_reciprocity_check(3, 5)
    table = {str(v): s for v, s in result.local_symbols}
    assert table == {"2": 1, "3": -1, "5": -1, "inf": 1}
    assert result.product == 1


def test_reciprocity_random_rationals():
    rng = random.Random(37)
    for _ in range(500):
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 200), rng.randint(1, 200))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 200), rng.randint(1, 200))
        assert hilbert_reciprocity_check(a, b).product == 1


def _odd_primes_by_trial_division(n: int) -> set[int]:
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    primes, d = set(), 3
    while d * d <= n:
        if n % d == 0:
            primes.add(d)
            while n % d == 0:
                n //= d
        d += 2
    return primes | {n} if n > 1 else primes


def _random_part(rng: random.Random) -> int:
    """Up to 10**12: uniform, or 2**e * s**2 * r with a squared factor."""
    if rng.random() < 0.3:
        return rng.randint(1, 10**12)
    return 2 ** rng.randint(0, 3) * rng.randint(1, 1000) ** 2 * rng.randint(1, 10**5)


def test_reciprocity_places_and_symbols_differential():
    rng = random.Random(2024)
    pairs = [(-12, 18), (50, -98), (1, 1)]
    for _ in range(120):
        a, b = (
            Fraction(rng.choice([-1, 1]) * _random_part(rng), _random_part(rng))
            for _ in range(2)
        )
        pairs.append((a, b))
    for a, b in pairs:
        result = hilbert_reciprocity_check(a, b)
        assert type(result.a) is Fraction and result.a == a and result.b == b
        places = [v for v, _ in result.local_symbols]
        assert result.local_symbols == tuple((v, hilbert_symbol(a, b, v)) for v in places)
        a, b = Fraction(a), Fraction(b)
        odd = set().union(
            *map(_odd_primes_by_trial_division, (a.numerator, a.denominator, b.numerator, b.denominator))
        )
        assert places == [Place(p) for p in [2, *sorted(odd)]] + [INFINITY]
        for v, s in result.local_symbols:
            if v.is_finite and v.prime <= 50:
                # The same square classes with v_p cut to 0 or 1, which keeps
                # the oracle's search modulus small.
                cut_a, cut_b = (x / Fraction(v.prime) ** (vp(x, v.prime) // 2 * 2) for x in (a, b))
                assert s == hilbert_oracle(cut_a, cut_b, v), (a, b, v)
        assert result.product == 1


def test_pi2_nontriviality_at_every_place():
    # at every p <= 100 some pair pairs to -1
    for p in primes_up_to(100):
        place = Place(p)
        found = any(
            hilbert_symbol(a, b, place) == -1
            for b in (p, -1, 2, 3, 5)
            for a in (-1, 2, 3, 5, 6, 7, 10, 11, 13, 17)
        )
        assert found, p
