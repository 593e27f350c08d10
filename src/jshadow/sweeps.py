"""Named verification sweeps.

Each sweep runs one numerically checkable statement over its full grid
and returns a :class:`SweepResult` with per-bucket rows, the number of
cases checked, and the failures (none expected).  The CLI ``sweep``
subcommand and the acceptance test suite both run these functions with
their default bounds, so the command line and the test gate are the same
code path.

A sweep is one function decorated with ``@_sweep(name, statement_id)``.
Its body takes a fresh :class:`SweepResult` and then its parameters, each
with a default, and states only what it checks: ``result.check(ok) or
result.fail(**what)`` counts every check and writes a failure row, whose
values are evaluated only for a failure (``result.check_bits`` counts a
row of checks whose failures are the set bits of an int), and ``with
result.bucket(**row):`` appends ``row`` with the failures recorded inside
the block.  The decorator registers it in :data:`SWEEPS`, where ``jshadow
sweep <name>`` and ``jshadow sweep all`` find it (each keyword is a flag of
``sweep <name>``, read by its annotation), records the parameters used in
``params``, and rejects a grid on which nothing was checked.  It
refuses a parameter outside the :class:`Range` its annotation declares
before the body builds anything: a bound or largest prime past
:data:`GRID_CAP`, a Bernoulli index past ``imj.BERNOULLI_CAP``.  A sweep
with a randomized component has a ``seed`` parameter defaulting to
:data:`DEFAULT_SEED`; the CLI passes ``--seed`` to exactly those sweeps,
and reports are byte-for-byte deterministic for a given seed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod
from typing import Annotated, get_args

from . import imj
from ._integers import _jacobi, check_range, prime_power_base, primes_up_to, split_unit
from .imj import (
    BERNOULLI_CAP,
    _embed_unit,
    _imj_consistent,
    _norm_identity,
    _surjects,
    bernoulli,
    k_finite_field,
    von_staudt_clausen_denominator,
)
from .jmaps import adelic_norm_product, j_fp_pi0, j_real_pi0, j_tame_pi1, j_wild_pi0, j_wild_pi1
from .padic import (
    MAX_PRECISION,
    PadicNumber,
    embed,
    geometric_series_witness,
    rezk_log_pi0,
    smallest_topological_generator,
    teichmuller,
)
from .symbols import (
    INFINITY,
    Place,
    _local_sign,
    _oracle_sign,
    _permutation_sign,
    hilbert_oracle,
    hilbert_symbol,
    local_symbol_product,
    symbol_product_masks,
)

DEFAULT_SEED = 1729
_MAX_FAILURE_ROWS = 32
GRID_CAP = 4096  # the largest bound, coefficient or prime of a grid: sieves and tables are O(cap)

# One entry per verified statement; sweeps and single-shot CLI commands
# share these so every report quotes the same anchor text.
STATEMENTS = {
    "hilbert-reciprocity": (
        "For all nonzero rationals a, b the product of the local Hilbert "
        "symbols (a,b)_v over every place v of Q equals +1."
    ),
    "hilbert-symbol-solvability": (
        "(a,b)_v = +1 exactly when z^2 = a*x^2 + b*y^2 has a nontrivial "
        "solution over the completion of Q at v."
    ),
    "zolotarev-lemma": (
        "The sign of the permutation x -> a*x of Z/p equals the Legendre "
        "symbol (a|p)."
    ),
    "image-of-j-order": (
        "For odd primes l the l-part of the denominator of B_{2k}/4k equals "
        "l**v_l(u^{2k} - 1) for a topological generator u of Z_l^x, which is "
        "l**(1 + v_l(2k)) when (l-1) | 2k and 1 otherwise."
    ),
    "von-staudt-clausen": (
        "The denominator of B_n for even n is the product of the primes q "
        "with (q-1) | n."
    ),
    "degree-zero-logarithm": (
        "x -> log(x^(l-1))/l maps Z_l^x onto Z_l, sends 1+l to a unit, and "
        "vanishes exactly on the Teichmuller roots of unity."
    ),
    "k-theory-order-domination": (
        "v_l(p^k - 1) >= v_l(u^k - 1) for every prime p != l and every "
        "topological generator u of Z_l^x."
    ),
    "geometric-sum-identity": (
        "(u^d)^m - 1 = (u^m - 1)(1 + u^m + ... + (u^m)^(d-1)) in Z_l for a "
        "topological generator u."
    ),
    "k-groups-finite-field": (
        "K_0(F_q) = Z, K_{2i-1}(F_q) is cyclic of order q^i - 1, and "
        "K_{2i}(F_q) = 0 for i > 0; all the finite orders are prime to q."
    ),
    "local-symbol-nontriviality": (
        "At every place p of Q there is a pair of nonzero rationals with "
        "Hilbert symbol (a,b)_p = -1."
    ),
    "three-adic-geometric-series": (
        "The partial sums s_k of 1 + 3 + 3^2 + ... satisfy 2*s_k + 1 = 3^k, "
        "so the series converges 3-adically to -1/2, which is not an integer."
    ),
    "low-degree-j-values": (
        "Degree tables of the local J maps: identity on Z over R; k -> p^k "
        "over F_p; x -> p^v_p(x) (tame); k -> -k and x -> x^(-1) (wild)."
    ),
    "tame-hilbert-compatibility": (
        "For odd p and nonzero rationals a, b, the Legendre symbol of the "
        "tame symbol of (a, b) at p equals the Hilbert symbol (a,b)_p."
    ),
    "adelic-norm-product": (
        "For every nonzero rational x the product of |x| with all the p-adic "
        "norms of x equals 1."
    ),
}


@dataclass
class SweepResult:
    name: str
    statement_id: str
    params: dict
    rows: list[dict] = field(default_factory=list)
    checked: int = 0
    failures: int = 0

    @property
    def verdict(self) -> str:
        return "pass" if self.failures == 0 else "fail"

    def check(self, ok: bool) -> bool:
        """Count one check, and a failure when ``ok`` is false; return ``ok``."""
        self.checked += 1
        if not ok:
            self.failures += 1
        return ok

    def fail(self, **what) -> None:
        """Write the row of the failure just counted, while at most
        ``_MAX_FAILURE_ROWS`` failures are counted, values other than ints as strings."""
        if self.failures <= _MAX_FAILURE_ROWS:
            row = {k: v if isinstance(v, int) else str(v) for k, v in what.items()}
            self.rows.append({"failure": True} | row)

    def check_bits(self, count: int, failed: int, row) -> None:
        """Count ``count`` checks, the i-th failing when bit i of ``failed`` is
        set, and write ``row(i)`` for each failure, lowest bit first, as
        :meth:`fail` would."""
        self.checked += count
        while failed and self.failures < _MAX_FAILURE_ROWS:
            low = failed & -failed
            failed ^= low
            self.failures += 1
            self.fail(**row(low.bit_length() - 1))
        self.failures += failed.bit_count()

    @contextlib.contextmanager
    def bucket(self, key: str = "failures", **row):
        """Append ``row`` with ``key`` set to the failures recorded in the block."""
        before = self.failures
        yield
        self.rows.append(row | {key: self.failures - before})


SWEEPS: dict[str, object] = {}


@dataclass(frozen=True)
class Range:
    """The values a sweep parameter may take, ``None`` meaning no bound."""

    low: int | None
    high: int | None


Size = Annotated[int, Range(1, GRID_CAP)]  # a bound or coefficient of a grid
LargestPrime = Annotated[int, Range(2, GRID_CAP)]  # below 2, a grid holds no prime
Samples = Annotated[int, Range(0, None)]
Precision = Annotated[int, Range(1, MAX_PRECISION)]


def _sweep(name: str, statement_id: str):
    """Register the body as sweep ``name`` of ``statement_id``.  The registered
    function takes the parameters only, checks their ranges, records them (defaults
    included, tuples as lists) and raises ``ValueError`` on an empty grid."""

    def register(body):
        signature = inspect.signature(body, eval_str=True)  # types, as the CLI reads them
        signature = signature.replace(parameters=list(signature.parameters.values())[1:])
        notes = {key: get_args(param.annotation)[1:] for key, param in signature.parameters.items()}
        ranges = [(key, r.low, r.high) for key in notes for r in notes[key] if isinstance(r, Range)]

        @functools.wraps(body)
        def run(*args, **kwargs) -> SweepResult:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            values = bound.arguments
            for key, low, high in ranges:  # before the body builds anything of a value's size
                check_range(key, values[key], low, high)
            params = {k: list(v) if isinstance(v, (tuple, list)) else v for k, v in values.items()}
            result = SweepResult(name, statement_id, params)
            body(result, **values)
            if not result.checked:
                raise ValueError(f"sweep {name} checked nothing: empty grid {params}")
            return result

        run.__signature__ = signature
        SWEEPS[name] = run
        return run

    return register


def _sieve_tables(bound: int):
    """Tables for the integers 0 < |n| <= bound, built once per sweep call:
    ``local``, keyed by the grid -bound..bound without 0 in order, maps n to its
    local data p -> (alpha, u) (n = p^alpha u, u prime to p), in ascending p,
    written by ``split_unit`` in one pass over the primes p <= bound and their
    multiples; ``legendre_of(x, p)``, the Legendre symbol (x|p) read from a
    table chi_p[x mod p] for each odd p <= bound, filled by the Jacobi ladder."""
    primes = primes_up_to(bound)
    local = {n: {} for n in range(-bound, bound + 1) if n}
    for p in primes:
        for n in range(p, bound + 1, p):
            alpha, u = split_unit(n, p)
            local[n][p], local[-n][p] = (alpha, u), (alpha, -u)
    chi = {p: [_jacobi(r, p) for r in range(p)] for p in primes[1:]}

    def legendre_of(x: int, p: int) -> int:
        return chi[p][x % p]

    return local, legendre_of


def _cleared_local_data(local: dict, num: int, den: int) -> tuple[int, dict]:
    """(X, local data of X) for X = num*den, num/den in lowest terms with den >= 1,
    merged from the sieve's local data ``local[num]`` and ``local[den]``: a prime
    divides only one of them, and its unit takes the other one's whole value."""
    data = {}
    for p, (alpha, u) in local[num].items():
        data[p] = alpha, u * den
    for p, (alpha, u) in local[den].items():
        data[p] = alpha, num * u
    return num * den, data


@_sweep("reciprocity", "hilbert-reciprocity")
def sweep_reciprocity(
    result: SweepResult, bound: Size = 200, rational_samples: Samples = 20000, seed: int = DEFAULT_SEED
) -> None:
    """Hilbert reciprocity: the product of (a,b)_v over all places is +1,
    exhaustively for integer pairs with |a|, |b| <= bound and for a seeded
    sample of rational pairs with numerator and denominator <= bound.  The
    local symbols come from sieve tables built once per call; the integer
    grid is decided a row of b at a time, as bitmasks of the failing b."""
    local, legendre_of = _sieve_tables(bound)
    nonzero = list(local)
    size = len(nonzero)
    with result.bucket(kind="integer-grid", pairs=size**2):
        for a, failed in zip(nonzero, symbol_product_masks(local, legendre_of)):
            result.check_bits(size, failed, lambda i: {"a": a, "b": nonzero[i]})
    rng = random.Random(seed)
    choice, randrange, top = rng.choice, rng.randrange, bound + 1  # randrange(1, top) is randint
    with result.bucket(kind="rational-sample", pairs=rational_samples):
        for _ in range(rational_samples):  # a = m/d and b = n/e, each reduced by one gcd
            m, d, n, e = choice(nonzero), randrange(1, top), choice(nonzero), randrange(1, top)
            g, h = gcd(m, d), gcd(n, e)
            m, d, n, e = m // g, d // g, n // h, e // h
            cleared = *_cleared_local_data(local, m, d), *_cleared_local_data(local, n, e)
            ok = local_symbol_product(*cleared, legendre_of) == 1
            result.check(ok) or result.fail(a=Fraction(m, d), b=Fraction(n, e))


@_sweep("oracle-agreement", "hilbert-symbol-solvability")
def sweep_oracle_agreement(
    result: SweepResult,
    prime_max: LargestPrime = 50,  # the infinite place alone is no grid
    coeff_bound: Size = 30,
    rational_samples: Samples = 2000,
    seed: int = DEFAULT_SEED,
) -> None:
    """Closed-form Hilbert symbol versus the solvability oracle, for every
    place p <= prime_max plus infinity and all integers |a|, |b| <= bound,
    plus a seeded sample of rational pairs.  At a finite place of the
    integer grid each coefficient is split once and the two kernels compare
    the splits; infinity and the samples go through the public functions."""
    places = [Place(p) for p in primes_up_to(prime_max)] + [INFINITY]
    nonzero = [n for n in range(-coeff_bound, coeff_bound + 1) if n]
    pairs = len(nonzero) ** 2
    for place in places[:-1]:
        p = place.prime
        local = [split_unit(n, p) for n in nonzero]
        with result.bucket("mismatches", place=str(place), pairs=pairs):
            for a, (alpha, u) in zip(nonzero, local):
                for b, (beta, w) in zip(nonzero, local):
                    ok = _local_sign(alpha, u, beta, w, p) == _oracle_sign(alpha, u, beta, w, p)
                    result.check(ok) or result.fail(place=place, a=a, b=b)
    with result.bucket("mismatches", place=str(INFINITY), pairs=pairs):
        for a in nonzero:
            for b in nonzero:
                ok = hilbert_symbol(a, b, INFINITY) == hilbert_oracle(a, b, INFINITY)
                result.check(ok) or result.fail(place=INFINITY, a=a, b=b)
    rng = random.Random(seed)
    with result.bucket("mismatches", place="rational-sample", pairs=rational_samples):
        for _ in range(rational_samples):
            a = Fraction(rng.choice(nonzero), rng.randint(1, coeff_bound))
            b = Fraction(rng.choice(nonzero), rng.randint(1, coeff_bound))
            place = rng.choice(places)
            ok = hilbert_symbol(a, b, place) == hilbert_oracle(a, b, place)
            result.check(ok) or result.fail(place=place, a=a, b=b)


@_sweep("zolotarev", "zolotarev-lemma")
def sweep_zolotarev(result: SweepResult, p_max: LargestPrime = 500) -> None:
    """Permutation sign of multiplication by a on Z/p equals the Legendre
    symbol, for every odd prime p <= p_max and every 1 <= a < p.  The sieve
    proves each p, so the walk and the Jacobi ladder run unchecked."""
    for p in primes_up_to(p_max)[1:]:  # odd primes
        with result.bucket("mismatches", p=p, pairs=p - 1):
            for a in range(1, p):
                result.check(_permutation_sign(a, p) == _jacobi(a, p)) or result.fail(p=p, a=a)


@_sweep("imj-consistency", "image-of-j-order")
def sweep_imj_consistency(
    result: SweepResult, ell_max: LargestPrime = 97,
    k_max: Annotated[int, Range(None, BERNOULLI_CAP // 2)] = 30,  # k_max <= 0 is an empty grid
) -> None:
    """The l-part of den(B_{2k}/4k) equals l**v_l(u^{2k} - 1) for the
    canonical topological generator u, and its closed form l**(1 + v_l(2k))
    when (l-1) | 2k (else 1), for every odd l <= ell_max and 1 <= k <= k_max.
    The sieve proves l and the declared range bounds k, so the comparison
    kernel runs unchecked with the generator read once per l."""
    for ell in primes_up_to(ell_max)[1:]:  # odd primes
        u = smallest_topological_generator(ell)
        with result.bucket(ell=ell, k_max=k_max, generator=u):
            for k in range(1, k_max + 1):
                result.check(_imj_consistent(ell, k, u)) or result.fail(ell=ell, k=k)


@_sweep("bernoulli", "von-staudt-clausen")
def sweep_bernoulli(result: SweepResult, n_max: Annotated[int, Range(2, BERNOULLI_CAP)] = 60) -> None:
    """Recurrence denominators equal the von Staudt-Clausen product for all
    even n <= n_max, and B_12 has its known value (which alone is no grid)."""
    for n in range(2, n_max + 1, 2):
        den = bernoulli(n).denominator
        expected = von_staudt_clausen_denominator(n)
        result.check(den == expected) or result.fail(n=n, denominator=den, expected=expected)
        result.rows.append({"n": n, "denominator": den, "vsc_product": expected})
    b12 = bernoulli(12)
    result.check(b12 == Fraction(-691, 2730)) or result.fail(n=12, value=b12, expected="-691/2730")
    result.rows.append({"n": 12, "value": str(b12), "expected": "-691/2730"})


@_sweep("rezk-log", "degree-zero-logarithm")
def sweep_rezk_log(
    result: SweepResult, ells: tuple[int, ...] = (3, 5, 7, 11), precision: Precision = 64
) -> None:
    """The degree-zero logarithm sends 1+l to an l-adic unit (so it is onto
    Z_l) and kills every Teichmuller representative."""
    for ell in ells:
        value = rezk_log_pi0(embed(1 + ell, ell, precision))
        unit_ok = (not value.is_zero) and value.valuation == 0
        result.check(unit_ok) or result.fail(ell=ell, kind="1+l not a unit image")
        killed = 0
        for a in range(1, ell):
            is_killed = rezk_log_pi0(teichmuller(a, ell, precision)).is_zero
            result.check(is_killed) or result.fail(ell=ell, kind="teichmuller not killed", residue=a)
            killed += is_killed
        result.rows.append(
            {
                "ell": ell,
                "log_1_plus_l_is_unit": unit_ok,
                "teichmuller_killed": killed,
                "teichmuller_total": ell - 1,
            }
        )


@_sweep("surjectivity", "k-theory-order-domination")
def sweep_surjectivity(
    result: SweepResult, ell_max: LargestPrime = 50, p_max: LargestPrime = 50, k_max: Size = 40
) -> None:
    """v_l(p^k - 1) >= v_l(u^k - 1) for all odd l <= ell_max, primes
    p <= p_max with p != l, and 1 <= k <= k_max.  The generator's side
    v_l(u^k - 1) is computed once per (l, k), through imj's own name."""
    primes = primes_up_to(p_max)
    ks = range(1, k_max + 1)
    for ell in primes_up_to(ell_max)[1:]:  # odd primes
        u = smallest_topological_generator(ell)
        floors = [imj._vl_power_minus_one(u, k, ell) for k in ks]
        with result.bucket(ell=ell):
            for p in primes:  # p and l proven by the sieve, k counted from 1
                if p == ell:
                    continue
                for k, floor in zip(ks, floors):
                    result.check(_surjects(ell, p, k, floor)) or result.fail(ell=ell, p=p, k=k)


@_sweep("norm-identity", "geometric-sum-identity")
def sweep_norm_identity(
    result: SweepResult, ell_max: LargestPrime = 23, d_max: Size = 6, m_max: Size = 10, precision: Precision = 20
) -> None:
    """(u^d)^m - 1 = (u^m - 1)(1 + u^m + ... + (u^m)^(d-1)) in Z_l at the
    given precision, over the full (l, d, m) grid.  u is embedded once per
    l, unchecked (the sieve proved l prime and the search made u a unit),
    and raised to each d and each m once; the identity kernel runs on
    those powers unchecked."""
    for ell in primes_up_to(ell_max)[1:]:  # odd primes
        u = smallest_topological_generator(ell)
        x = _embed_unit(ell, u, precision)
        powers_d = [x**d for d in range(1, d_max + 1)]
        powers_m = [x**m for m in range(1, m_max + 1)]
        with result.bucket(ell=ell, generator=u):
            for d, xd in enumerate(powers_d, 1):
                for m, xm in enumerate(powers_m, 1):
                    result.check(_norm_identity(xd, xm, d, m)) or result.fail(ell=ell, d=d, m=m)


@_sweep("quillen", "k-groups-finite-field")
def sweep_quillen(
    result: SweepResult, q_max: LargestPrime = 49, i_max: Annotated[int, Range(1, None)] = 10
) -> None:
    """|K_{2i-1}(F_q)| = q^i - 1 and K_{2i}(F_q) = 0 for prime powers
    q <= q_max and 1 <= i <= i_max, every order prime to q (K_0 alone is no grid)."""
    for q in filter(prime_power_base, range(2, q_max + 1)):
        with result.bucket(q=q, i_max=i_max):
            result.check(k_finite_field(0, q).order is None) or result.fail(q=q, degree=0)
            for i in range(1, i_max + 1):
                odd = k_finite_field(2 * i - 1, q)
                factored = prod(prime**exponent for prime, exponent in odd.factors)
                ok = odd.order == q**i - 1 == factored and gcd(odd.order, q) == 1
                result.check(ok) or result.fail(q=q, degree=2 * i - 1)
                result.check(k_finite_field(2 * i, q).is_trivial) or result.fail(q=q, degree=2 * i)


@_sweep("pi2-nontriviality", "local-symbol-nontriviality")
def sweep_pi2_nontriviality(result: SweepResult, p_max: LargestPrime = 100) -> None:
    """For every prime p <= p_max, exhibit a pair (a, b) with (a,b)_p = -1."""
    pool = [-1, 2, 3, 5, 6, 7, 10, 11, 13, 17]
    for p in primes_up_to(p_max):
        place = Place(p)
        pairs = ((a, b) for b in [p] + pool for a in pool)
        witness = next(((a, b) for a, b in pairs if hilbert_symbol(a, b, place) == -1), None)
        result.check(witness is not None) or result.fail(p=p)
        if witness is not None:
            result.rows.append({"p": p, "a": witness[0], "b": witness[1]})


@_sweep("geometric-series", "three-adic-geometric-series")
def sweep_geometric_series(result: SweepResult, depth: int = 64) -> None:
    """Partial sums s_k of 1 + 3 + 3^2 + ... satisfy 2 s_k + 1 = 3^k for all
    k <= depth, certifying the 3-adic limit -1/2."""
    result.check(geometric_series_witness(3, depth)) or result.fail(depth=depth)
    s5 = sum(3**i for i in range(5))
    result.check(2 * s5 + 1 == 3**5) or result.fail(k=5, partial_sum=s5)
    result.rows.append({"ell": 3, "depth": depth, "spot_check_s5": s5})


@_sweep("low-degree-j", "low-degree-j-values")
def sweep_low_degree_j(
    result: SweepResult,
    inversion_samples: Samples = 1000,
    tame_samples: Samples = 10000,
    precision: Precision = 64,
    seed: int = DEFAULT_SEED,
) -> None:
    """The low-degree J tables: identity on pi_0 over R, negation and
    inversion for the wild map, p**v_p(x) (multiplicatively) for the tame
    map, and the tame/degree factorization."""
    rng = random.Random(seed)
    with result.bucket(check="pi0-tables", samples=402):
        for k in range(-100, 101):
            result.check(j_real_pi0(k) == k) or result.fail(check="real-pi0", k=k)
            result.check(j_wild_pi0(k) == -k) or result.fail(check="wild-pi0", k=k)

    primes = primes_up_to(50)
    with result.bucket(check="wild-pi1-inversion", samples=inversion_samples):
        for _ in range(inversion_samples):
            p = rng.choice(primes)
            digits = rng.randrange(1, p**precision)
            while digits % p == 0:
                digits = rng.randrange(1, p**precision)
            x = PadicNumber.from_unit(p, 0, digits, precision)
            ok = x * j_wild_pi1(x) == embed(1, p, precision)
            result.check(ok) or result.fail(check="wild-pi1", p=p)

    with result.bucket(check="tame-pi1", samples=tame_samples):
        for _ in range(tame_samples):
            p = rng.choice(primes)
            num = rng.choice([-1, 1]) * rng.randint(1, 10**6)
            den = rng.randint(1, 10**6)
            x = Fraction(num, den)
            # brute valuation: strip factors of p from numerator and denominator
            v = 0
            n = abs(x.numerator)
            while n % p == 0:
                n //= p
                v += 1
            d = x.denominator
            while d % p == 0:
                d //= p
                v -= 1
            num, den = (p**v, 1) if v >= 0 else (1, p**-v)  # the expected p**v in lowest terms
            value = j_tame_pi1(x, p)
            ok = value.numerator == num and value.denominator == den
            # factorization through the residue-field degree map
            ok = ok and j_fp_pi0(max(v, 0), p) * den == num * j_fp_pi0(max(-v, 0), p)
            # multiplicativity against a second sample
            y = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
            ok = ok and j_tame_pi1(x * y, p) == value * j_tame_pi1(y, p)
            result.check(ok) or result.fail(check="tame-pi1", p=p, x=x)

    with result.bucket(check="adelic-norm-product", samples=200):
        for _ in range(200):
            num = rng.choice([-1, 1]) * rng.randint(1, 10**6)
            den = rng.randint(1, 10**6)
            ok = adelic_norm_product(Fraction(num, den)) == 1
            result.check(ok) or result.fail(check="norm-product", x=f"{num}/{den}")
