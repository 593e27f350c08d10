"""Low-degree shadows of the local J-homomorphisms.

Each map here is the effect of a local J-homomorphism on pi_0, pi_1, or
pi_2, realized as elementary arithmetic:

* real, pi_0: the identity on Z (a vector space goes to a sphere of the
  same dimension);
* residue field, pi_0: k -> p**k (an F_p-vector space acts on the sphere
  with degree its cardinality);
* tame local, pi_1: x -> p**v_p(x), the reciprocal p-adic norm;
* wild local, pi_0: k -> -k, and pi_1: inversion on Z_p units.

The local pi_2 map is the Hilbert symbol pairing into {+1, -1}, and its
product formula is Hilbert reciprocity: call
:func:`jshadow.symbols.hilbert_symbol` and
:func:`jshadow.symbols.hilbert_reciprocity_check` for those.  The product
formula for the absolute values of Q at the norm level is
:func:`adelic_norm_product` at the bottom.
"""

from __future__ import annotations

from fractions import Fraction

from ._integers import Rational, check_prime, check_range, check_rational, factorint
from .padic import PadicNumber, ZeroOperandError, vp


def j_real_pi0(k: int) -> int:
    """Degree-zero real J value: the identity Z -> Z."""
    return k


def j_fp_pi0(k: int, p: int) -> int:
    """Degree of the sphere self-map attached to a k-dimensional F_p-space: p**k."""
    check_prime(p)
    check_range("k", k, 0)
    return p**k


def j_tame_pi1(x: Rational, p: int) -> Fraction:
    """The tame pi_1 value p**v_p(x), the inverse of the p-adic norm of x."""
    v = vp(x, p)
    return Fraction(p**v) if v >= 0 else Fraction(1, p**-v)


def j_wild_pi0(k: int) -> int:
    """Degree-zero wild J value: negation on Z."""
    return -k


def j_wild_pi1(x: PadicNumber) -> PadicNumber:
    """The wild pi_1 value: inversion on units of Z_p, at the same precision."""
    if x.is_zero or x.valuation != 0:
        raise ZeroOperandError("argument must be a unit of Z_p")
    return x.inv()


def adelic_norm_product(x: Rational) -> Fraction:
    """|x| times the product of all p-adic norms of x; always exactly 1."""
    if check_rational(x) == 0:
        raise ZeroOperandError("norm product of 0 is undefined")
    num, den = abs(x.numerator), x.denominator
    product_num, product_den = num, den  # |x|
    for p, e in factorint(num).items():  # v_p(x) = e: |x|_p = p**-e
        product_den *= p**e
    for p, e in factorint(den).items():  # v_p(x) = -e: |x|_p = p**e
        product_num *= p**e
    return Fraction(product_num, product_den)
