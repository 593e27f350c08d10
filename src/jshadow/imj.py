"""Image-of-J group orders and their independent cross-checks.

Exact Bernoulli numbers, von Staudt-Clausen denominators, orders of the
odd homotopy of the K(1)-local sphere (Z_l/(u^k - 1) for a topological
generator u), Quillen's K-groups of finite fields, and the consistency
statements tying them together:

* the l-part of den(B_{2k}/4k) equals l**v_l(u^{2k} - 1);
* v_l(p^k - 1) >= v_l(u^k - 1) for every prime p != l, so the K-theory
  of residue fields has enough room to surject onto the local sphere;
* (u^d)^m - 1 = (u^m - 1)(1 + u^m + ... + (u^m)^(d-1)) in Z_l.

All arithmetic is exact rational or certified-precision p-adic; no
floating point.  The denominator den(B_{2k}/4k) is the classically
correct image-of-J order; its odd part agrees with the odd part of
den(B_{2k}/k), and only odd parts enter the consistency checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from ._integers import check_prime, check_range, factorint, is_prime, prime_power_base, vp_int
from .padic import (
    MAX_PRECISION, PadicNumber, PrecisionError, _modulus, is_topological_generator, smallest_topological_generator
)

BERNOULLI_CAP = 2048  # B_2048's numerator has 4,266 digits, under str()'s 4,300; a cold B_2048 takes ~0.9 s
ORDER_CAP = 10**4300 - 1  # the largest K-group order of F_q: str() prints at most 4,300 digits

_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_tangent_column: list[int] = [1]  # column k of the tangent-number recurrence; it ends in T_k


def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n, exactly (convention B_1 = -1/2).

    B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), reduced, for the tangent
    number T_k (Brent-Harvey, arXiv:1108.0286, TangentNumbers run one column
    at a time).  Entry p of column j is T_j after pass p + 1 of the recurrence
    T_j <- (j-i) T_{j-1} + (j-i+2) T_j, so its last entry is T_j itself; column
    j+1 is column j updated in place, j - 1 multiply-adds and one entry more.
    A step that raises resets the column to [1], so no half-updated column is
    read later.  An n above BERNOULLI_CAP raises ValueError before the cache grows.
    """
    check_range("n", n, 0, BERNOULLI_CAP)
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        if m % 2:
            _bernoulli_cache.append(Fraction(0))
            continue
        col = _tangent_column
        try:
            for j in range(len(col), m // 2):
                prev = col[0] = col[0] * j
                for i in range(1, j):
                    prev = col[i] = (j - i) * col[i] + (j - i + 2) * prev
                col.append(2 * prev)
        except BaseException:
            col[:] = [1]
            raise
        four_k = 4 ** (m // 2)
        sign = 1 if m % 4 else -1
        _bernoulli_cache.append(Fraction(sign * m * col[-1], four_k * (four_k - 1)))
    return _bernoulli_cache[n]


@lru_cache(maxsize=1024, typed=True)
def von_staudt_clausen_denominator(n: int) -> int:
    """The denominator of B_n for even n >= 2: the product of primes q
    with (q-1) | n, found among d + 1 for the divisors d of n.  An
    independent route that never touches the Bernoulli numbers."""
    if n < 2 or n % 2:
        raise ValueError("defined for even n >= 2")
    divisors = [1]
    for q, e in factorint(n).items():
        divisors = [d * q**i for d in divisors for i in range(e + 1)]
    return math.prod(d + 1 for d in divisors if is_prime(d + 1))


@dataclass(frozen=True)
class GroupOrderReport:
    """An abelian group order: exact natural number plus factorization.

    ``order`` is None for the infinite cyclic group, else at least 1 (a
    smaller one raises ValueError); the factorization multiplies back to
    the order (order 1 has an empty factorization).  It is computed on first use and kept, so a report
    whose factors nobody reads never factors its order; ``part`` reads the order's valuation instead.
    """

    order: int | None

    def __post_init__(self) -> None:
        if self.order is not None:
            check_range("order", self.order, 1)

    @cached_property
    def factors(self) -> tuple[tuple[int, int], ...]:
        return tuple(factorint(self.order).items()) if self.order not in (None, 1) else ()

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def part(self, p: int) -> int:
        """The p-part p**v_p(order) of the order (1 if p does not divide it),
        for a prime p; for any p >= 2, the largest power of p dividing it."""
        if self.order is None:
            raise ValueError("infinite group has no p-part")
        if p < 2:
            raise ValueError(f"{p} has no p-part")
        return p ** vp_int(self.order, p)

    def describe(self) -> str:
        if self.order is None:
            return "Z"
        if self.order == 1:
            return "0"
        return f"Z/{self.order}"


@lru_cache(maxsize=1024, typed=True)
def imj_order(k: int) -> GroupOrderReport:
    """The order of the image of J in stable stem 4k-1: den(B_{2k}/4k), for
    1 <= k <= BERNOULLI_CAP / 2.  Cached per k; the frozen report is shared."""
    check_range("k", k, 1, BERNOULLI_CAP // 2)
    return GroupOrderReport((bernoulli(2 * k) / (4 * k)).denominator)


def _vl_power_minus_one(u: int, k: int, ell: int) -> int:
    """v_l(u**|k| - 1) for an odd prime l and u != +-1, exactly, by lifting the
    exponent: 0 unless u**k = 1 mod l (ord_l(u) | k), else v_l(u**(l-1) - 1)
    + v_l(k), the first term read mod l**e for e = 2, 4, 8, ... until not 1."""
    k = abs(k)
    if k == 0:
        raise ValueError("k must be nonzero")
    if pow(u, k, ell) != 1:
        return 0
    if abs(u) == 1:
        raise ValueError("valuation of 0 is undefined")
    e = 2
    while (residue := pow(u, ell - 1, ell**e)) == 1:
        e *= 2
    return vp_int(residue - 1, ell) + vp_int(k, ell)


@dataclass(frozen=True)
class K1SphereOrder:
    """Order of pi_{2k-1} of the K(1)-local sphere at an odd prime l.

    The group is Z_l/(u^k - 1) for a topological generator u; the report
    records which generator was used and the closed-form order
    l**(1 + v_l(k)) when (l-1) | k, else 1, which should agree with it.
    """

    ell: int
    k: int
    generator: int
    order: int
    closed_form: int


def k1_sphere_order(ell: int, k: int, generator: int | None = None) -> K1SphereOrder:
    """|Z_l/(u^k - 1)| = l**v_l(u^k - 1) for a topological generator u.

    ``generator`` defaults to the smallest one; a supplied value is
    validated.  Defined for all nonzero k (the order is even in k).  Both
    generator functions refuse an l that is not an odd prime.
    """
    if k == 0:
        raise ValueError("k must be nonzero (pi_{-1} is infinite cyclic)")
    if generator is None:
        generator = smallest_topological_generator(ell)
    elif not is_topological_generator(generator, ell):
        raise ValueError(f"{generator} does not topologically generate Z_{ell}^x")
    order, closed = _k1_order(ell, k, generator)
    return K1SphereOrder(ell=ell, k=k, generator=generator, order=order, closed_form=closed)


def _k1_order(ell: int, k: int, generator: int) -> tuple[int, int]:
    """The order l**v_l(u^k - 1) of K1SphereOrder and its closed form, unchecked."""
    closed = ell ** (1 + vp_int(k, ell)) if abs(k) % (ell - 1) == 0 else 1
    return ell ** _vl_power_minus_one(generator, k, ell), closed


def k_finite_field(n: int, q: int) -> GroupOrderReport:
    """Quillen's K-groups of F_q: Z in degree 0, cyclic of order q^i - 1
    in degree 2i-1, trivial in positive even degrees.  An order above
    ORDER_CAP raises ValueError, one far above it before q^i is built."""
    check_range("n", n, 0)
    if prime_power_base(q) is None:
        raise ValueError(f"{q} is not a prime power")
    if n == 0:
        return GroupOrderReport(None)
    if n % 2 == 0:
        return GroupOrderReport(1)
    i = (n + 1) // 2  # q^i >= 2^(i * (q.bit_length() - 1)): the first test builds no power
    if i * (q.bit_length() - 1) >= ORDER_CAP.bit_length() or (order := q**i - 1) > ORDER_CAP:
        raise ValueError(f"n must make the order q^((n+1)/2) - 1 at most 4300 digits, got {n}")
    return GroupOrderReport(order)


def imj_consistency_check(ell: int, k: int) -> bool:
    """Whether the l-part of the image-of-J order in stem 4k-1 equals both
    the order of pi_{4k-1} of the K(1)-local sphere (= pi_{2m-1}, m = 2k)
    and that order's closed form."""
    check_range("k", k, 1, BERNOULLI_CAP // 2)  # imj_order's refusal, before the generator's
    return _imj_consistent(ell, k, smallest_topological_generator(ell))


def _imj_consistent(ell: int, k: int, generator: int) -> bool:
    """imj_consistency_check's comparison for the generator u, unchecked."""
    order, closed = _k1_order(ell, 2 * k, generator)
    return imj_order(k).part(ell) == order == closed


def surjectivity_check(ell: int, p: int, k: int) -> bool:
    """Whether v_l(p^k - 1) >= v_l(u^k - 1): the l-part of K_{2k-1}(F_p)
    dominates the order of pi_{2k-1} of the K(1)-local sphere.
    ``smallest_topological_generator`` refuses an l that is not an odd prime."""
    check_prime(p)
    if p == ell:
        raise ValueError("p must differ from l")
    check_range("k", k, 1)
    return _surjects(ell, p, k, _vl_power_minus_one(smallest_topological_generator(ell), k, ell))


def _surjects(ell: int, p: int, k: int, floor: int) -> bool:
    """v_l(p^k - 1) >= floor, the generator's v_l(u^k - 1): surjectivity_check's comparison, unchecked."""
    return _vl_power_minus_one(p, k, ell) >= floor


def norm_identity_check(ell: int, u: int, d: int, m: int, precision: int) -> bool:
    """Verify (u^d)^m - 1 = (u^m - 1) * sum_{i<d} (u^m)^i in Z_l to the
    given precision, using tracked-precision p-adic arithmetic."""
    if not is_topological_generator(u, ell):
        raise ValueError(f"{u} does not topologically generate Z_{ell}^x")
    check_range("d", d, 1)
    check_range("m", m, 1)
    # The generator test proved l an odd prime and u a unit: embed's other checks hold.
    check_range("precision", precision, 1, MAX_PRECISION, PrecisionError)
    x = PadicNumber._make(ell, 0, u % _modulus(ell, precision), precision)
    return _norm_identity(x**d, x**m, d, m)


def _norm_identity(xd: PadicNumber, xm: PadicNumber, d: int, m: int) -> bool:
    """norm_identity_check's identity for x = u embedded, from its powers x^d and x^m, unchecked."""
    precision = xm.precision
    lhs = xd**m - 1
    total = power = PadicNumber._make(xm.prime, 0, 1, precision)  # exact 1
    for _ in range(1, d):
        power = power * xm
        total = total + power
    rhs = (xm - 1) * total
    diff = lhs - rhs
    return diff.is_zero and diff.abs_precision >= precision
