"""Low-degree shadows of the local J-homomorphisms.

Each map here is the effect of a local J-homomorphism on pi_0, pi_1, or
pi_2, realized as elementary arithmetic:

* real, pi_0: the identity on Z (a vector space goes to a sphere of the
  same dimension);
* residue field, pi_0: k -> p**k (an F_p-vector space acts on the sphere
  with degree its cardinality);
* tame local, pi_1: x -> p**v_p(x), the reciprocal p-adic norm;
* wild local, pi_0: k -> -k, and pi_1: inversion on Z_p units;
* local, pi_2: the Hilbert symbol pairing into {+1, -1}.

The two product formulas at the bottom are the global statements these
local maps satisfy: Hilbert reciprocity for the pi_2 level, and the
product formula for the absolute values of Q at the norm level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from ._integers import factorint, is_prime, vp_int
from .padic import PadicNumber, ZeroOperandError, vp
from .symbols import (
    Place,
    ReciprocityResult,
    Sign,
    hilbert_reciprocity_check,
    hilbert_symbol,
)

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class JValue:
    """A J-map value tagged with its homotopy level and place.

    The variant must match the level: an integer in degree 0, a rational
    power of p (tame) or a p-adic unit (wild) in degree 1, a sign in
    degree 2.
    """

    level: str  # "pi0" | "pi1" | "pi2"
    place: Place
    value: object

    def __post_init__(self) -> None:
        if self.level == "pi0":
            if not isinstance(self.value, int):
                raise TypeError("pi0 values are integers")
        elif self.level == "pi1":
            if isinstance(self.value, Fraction):
                if not self.place.is_finite or not _is_power_of(self.value, self.place.prime):
                    raise ValueError("tame pi1 values are integer powers of p")
            elif isinstance(self.value, PadicNumber):
                if self.value.is_zero or self.value.valuation != 0:
                    raise ValueError("wild pi1 values are units of Z_p")
            else:
                raise TypeError("pi1 values are rationals or p-adic units")
        elif self.level == "pi2":
            if self.value not in (1, -1):
                raise ValueError("pi2 values are signs")
        else:
            raise ValueError(f"unknown level {self.level!r}")


def _is_power_of(x: Fraction, p: int) -> bool:
    if x <= 0:
        return False
    num, den = x.numerator, x.denominator
    if den == 1:
        while num % p == 0:
            num //= p
        return num == 1
    if num == 1:
        while den % p == 0:
            den //= p
        return den == 1
    return False


def j_real_pi0(k: int) -> int:
    """Degree-zero real J value: the identity Z -> Z."""
    return k


def j_fp_pi0(k: int, p: int) -> int:
    """Degree of the sphere self-map attached to a k-dimensional F_p-space: p**k."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    return p**k


def j_tame_pi1(x: Rational, p: int) -> Fraction:
    """The tame pi_1 value p**v_p(x), the inverse of the p-adic norm of x."""
    v = vp(x, p)
    return Fraction(p**v) if v >= 0 else Fraction(1, p ** (-v))


def j_wild_pi0(k: int) -> int:
    """Degree-zero wild J value: negation on Z."""
    return -k


def j_wild_pi1(x: PadicNumber) -> PadicNumber:
    """The wild pi_1 value: inversion on units of Z_p, at the same precision."""
    if x.is_zero or x.valuation != 0:
        raise ZeroOperandError("argument must be a unit of Z_p")
    return x.inv()


def j_padic_pi2(a: Rational, b: Rational, place: Place) -> Sign:
    """The pi_2 value of the local J map: the Hilbert symbol (a,b)_v."""
    return hilbert_symbol(a, b, place)


@dataclass(frozen=True)
class ProductFormulaResult:
    """Reciprocity at the pi_2 level, with the places that contributed -1."""

    reciprocity: ReciprocityResult
    contributing_places: tuple[Place, ...]

    @property
    def product(self) -> Sign:
        return self.reciprocity.product

    @property
    def passes(self) -> bool:
        return self.reciprocity.passes


def product_formula_pi2(a: Rational, b: Rational) -> ProductFormulaResult:
    """Check that the product of (a,b)_v over all places equals +1."""
    result = hilbert_reciprocity_check(a, b)
    return ProductFormulaResult(
        reciprocity=result, contributing_places=result.contributing_places
    )


def adelic_norm_product(x: Rational) -> Fraction:
    """|x| times the product of all p-adic norms of x; always exactly 1."""
    x = Fraction(x)
    if x == 0:
        raise ZeroOperandError("norm product of 0 is undefined")
    num, den = abs(x.numerator), x.denominator
    product_num, product_den = num, den  # |x|
    for p in set(factorint(num)) | set(factorint(den)):
        v = vp_int(num, p) - vp_int(den, p)
        if v >= 0:
            product_den *= p**v
        else:
            product_num *= p**-v
    return Fraction(product_num, product_den)
