"""Exact p-adic arithmetic with explicit precision tracking.

Every element is stored as ``p**valuation * unit`` where the unit part
is known modulo ``p**precision``; the absolute precision is
``valuation + precision``.  A nonzero element has an exact valuation and
a unit part in ``[1, p**precision)`` coprime to ``p``.

Precision propagation follows the usual interval model:

* mul / div / inv / pow keep the minimum unit precision of the operands;
* addition works at the minimum absolute precision, so mixing different
  valuations costs digits (the valuation gap is paid for explicitly);
* a sum that cancels below the tracked precision yields the flagged
  zero element ``O(p**A)`` rather than a fabricated nonzero value.

The flagged zero ``O(p**A)`` is the degenerate case: valuation ``A``, no
unit digits and precision 0, so the general formulas of negation, sum,
product and power give its results.  Reading its valuation or unit part
raises.  Operations that need a genuine unit (inversion, logarithms,
symbols) reject it.

The logarithm and Teichmuller machinery is restricted to odd primes:
``Z_2^x`` is not procyclic and the 2-adic log needs valuation >= 2, so
none of the identities verified here apply at 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from ._integers import Rational, check_prime, check_range, check_rational, factorint, split_unit, vp_int

DEFAULT_PRECISION = 64
MAX_PRECISION = 4096


class PadicError(ValueError):
    """Base class for p-adic domain errors."""


class PrecisionError(PadicError):
    """A result would be known to fewer than one digit."""


class ZeroOperandError(PadicError):
    """An operation received (or would have to invert) a zero."""


def vp(x: Rational, p: int) -> int:
    """The exact p-adic valuation of a nonzero rational.

    Additive: vp(x*y) = vp(x) + vp(y).
    """
    check_prime(p, PadicError)
    if check_rational(x) == 0:
        raise ZeroOperandError("valuation of 0 is undefined")
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def padic_norm(x: Rational, p: int) -> Fraction:
    """The p-adic norm p**(-vp(x)), exactly, as a rational."""
    return Fraction(p) ** -vp(x, p)


@dataclass(frozen=True, slots=True, repr=False)
class PadicNumber:
    """An element of Q_p known to finite precision.

    Instances are immutable; equality and hashing come from the four
    fields, which are canonical.  Use :func:`embed`, :func:`teichmuller`,
    or the classmethods :meth:`from_unit` / :meth:`zero` to construct values.
    """

    prime: int
    _valuation: int
    _unit_digits: int
    precision: int

    def __init__(self) -> None:
        raise TypeError("use PadicNumber.from_unit, PadicNumber.zero, or embed()")

    @classmethod
    def _make(cls, prime: int, valuation: int, unit_digits: int, precision: int) -> "PadicNumber":
        """The number of four canonical fields, unchecked; each slot set by its descriptor."""
        self = object.__new__(cls)
        _set_prime(self, prime)
        _set_valuation(self, valuation)
        _set_unit_digits(self, unit_digits)
        _set_precision(self, precision)
        return self

    @classmethod
    def from_unit(cls, prime: int, valuation: int, unit_digits: int, precision: int) -> "PadicNumber":
        check_prime(prime, PadicError)
        check_range("precision", precision, 1, MAX_PRECISION, PrecisionError)
        unit_digits %= _modulus(prime, precision)
        if unit_digits % prime == 0:
            raise PadicError("unit part must be coprime to the prime")
        return cls._make(prime, valuation, unit_digits, precision)

    @classmethod
    def zero(cls, prime: int, abs_precision: int) -> "PadicNumber":
        """The flagged zero: a value known only to satisfy x = O(p**abs_precision)."""
        check_prime(prime, PadicError)
        if abs_precision < 1:
            raise PrecisionError("zero must be known modulo at least one digit")
        return cls._make(prime, abs_precision, 0, 0)

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._unit_digits == 0

    @property
    def valuation(self) -> int:
        if self.is_zero:
            raise ZeroOperandError("the zero element has no valuation")
        return self._valuation

    @property
    def unit_digits(self) -> int:
        if self.is_zero:
            raise ZeroOperandError("the zero element has no unit part")
        return self._unit_digits

    @property
    def abs_precision(self) -> int:
        """The element is known modulo prime**abs_precision."""
        return self._valuation + self.precision

    def __repr__(self) -> str:
        if self.is_zero:
            return f"PadicNumber.zero({self.prime}, {self._valuation})"
        return (
            f"PadicNumber.from_unit({self.prime}, {self._valuation}, "
            f"{_digits(self._unit_digits)}, {self.precision})"
        )

    def __str__(self) -> str:
        p = self.prime
        if self.is_zero:
            return f"O({p}^{self._valuation})"
        head = f"{p}^{self._valuation} * " if self._valuation else ""
        return f"{head}{_digits(self._unit_digits)} + O({p}^{self.abs_precision})"

    # -- arithmetic -----------------------------------------------------

    def _operand(self, other: Rational) -> "tuple[int, int, int] | None":
        """The (valuation, unit digits, precision) of a rational operand, building nothing;
        None for a type other than int and Fraction.  A PadicNumber operand is read in place."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroOperandError("cannot coerce exact 0; use PadicNumber.zero")
            # An exact rational is known to unlimited precision; give it
            # enough digits that it never limits the result: self's own for
            # a product, self's absolute precision for a sum, and at least
            # one.  The cap binds only when v(other) < v(self), where a sum
            # needs more than MAX_PRECISION digits anyway.  Self's prime was
            # checked when self was built; one split gives valuation and unit.
            p = self.prime
            (vn, num), (vd, den) = split_unit(other.numerator, p), split_unit(other.denominator, p)
            digits = min(MAX_PRECISION, max(self.precision, self._valuation + self.precision - vn + vd, 1))
            return vn - vd, _unit_mod(p, num, den, digits), digits
        return None

    def __neg__(self) -> "PadicNumber":
        m = _modulus(self.prime, self.precision)
        return PadicNumber._make(self.prime, self._valuation, -self._unit_digits % m, self.precision)

    def _sum(self, other: "PadicNumber | Rational", sign: int, other_sign: int) -> "PadicNumber":
        """sign * self + other_sign * other, each sign +-1 applied to unit digits inside the reduction."""
        p = self.prime
        if isinstance(other, PadicNumber):
            if other.prime != p:
                raise PadicError("mixed primes")
            hv, high, hn = other._valuation, other._unit_digits, other.precision
        elif isinstance(other, (int, Fraction)) and other == 0:
            return self if sign == 1 else -self
        elif (read := self._operand(other)) is None:
            return NotImplemented
        else:
            hv, high, hn = read
        v, low, n, high = self._valuation, sign * self._unit_digits, self.precision, other_sign * high
        if hv < v:  # low is the operand of lower valuation
            v, low, n, hv, high, hn = hv, high, hn, v, low, n
        # 0 when a flagged zero's O(p^A) swallows every digit
        width = min(n, hv + hn - v)
        m = _modulus(p, width)
        # Only high is scaled, and only across a gap.  A gap >= width vanishes
        # mod m: the cap builds no p^A for a zero.
        s = (low + (high if hv == v else high * _modulus(p, min(hv - v, width)))) % m
        if s % p:  # a unit: nothing to split
            return PadicNumber._make(p, v, s, width)
        if s == 0:  # a zero is O(p^(v + width))
            if v + width < 1:
                raise PrecisionError("zero must be known modulo at least one digit")
            return PadicNumber._make(p, v + width, 0, 0)
        w, unit = split_unit(s, p)
        return PadicNumber._make(p, v + w, unit, width - w)

    def __add__(self, other: "PadicNumber | Rational") -> "PadicNumber":
        return self._sum(other, 1, 1)

    __radd__ = __add__

    def __sub__(self, other: "PadicNumber | Rational") -> "PadicNumber":
        return self._sum(other, 1, -1)

    def __rsub__(self, other: Rational) -> "PadicNumber":
        return self._sum(other, -1, 1)

    def __mul__(self, other: "PadicNumber | Rational") -> "PadicNumber":
        return self._product(other, False)

    __rmul__ = __mul__

    def inv(self) -> "PadicNumber":
        if self.is_zero:
            raise ZeroOperandError("cannot invert the zero element")
        digits = _inverse_mod_power(self._unit_digits, self.prime, self.precision)
        return PadicNumber._make(self.prime, -self._valuation, digits, self.precision)

    def __truediv__(self, other: "PadicNumber | Rational") -> "PadicNumber":
        return self._product(other, True)

    def _product(self, other: "PadicNumber | Rational", invert: bool) -> "PadicNumber":
        """self * other, or self / other with ``invert``: other's unit digits inverted, no inverse built."""
        p = self.prime
        if isinstance(other, PadicNumber):
            if other.prime != p:
                raise PadicError("mixed primes")
            v, unit, n = other._valuation, other._unit_digits, other.precision
        elif (read := self._operand(other)) is None:
            return NotImplemented
        else:
            v, unit, n = read
        if invert:
            if not unit:
                raise ZeroOperandError("cannot invert the zero element")
            v, unit = -v, _inverse_mod_power(unit, p, n)
        # A zero factor (precision 0) gives O(p^v), v = A + v(x), which needs v >= 1.
        n = min(self.precision, n)
        digits = self._unit_digits * unit % _modulus(p, n)
        v += self._valuation
        if not digits and v < 1:
            raise PrecisionError("zero must be known modulo at least one digit")
        return PadicNumber._make(p, v, digits, n)

    def __rtruediv__(self, other: Rational) -> "PadicNumber":
        return self.inv().__mul__(other)

    def __pow__(self, exponent: int) -> "PadicNumber":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent <= 0 and self.is_zero:
            raise ZeroOperandError("zero element cannot be raised to a nonpositive power")
        if exponent == 0:
            return PadicNumber._make(self.prime, 0, 1, self.precision)
        base = self if exponent > 0 else self.inv()
        e = abs(exponent)
        digits = pow(base._unit_digits, e, _modulus(base.prime, base.precision))
        return PadicNumber._make(base.prime, base._valuation * e, digits, base.precision)


# The slots' own setters, which the frozen class's __setattr__ does not guard.
_set_prime, _set_valuation, _set_unit_digits, _set_precision = (
    PadicNumber.__dict__[name].__set__ for name in ("prime", "_valuation", "_unit_digits", "precision")
)


def _digits(n: int) -> str:
    """str(n), also past the interpreter's limit on int-to-str digits."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # prints any length; imported only when needed
        return str(Decimal(n))


@lru_cache(maxsize=512)
def _modulus(p: int, n: int) -> int:
    """p**n, computed once per (p, n) while it stays among the 512 most
    recent: the moduli of a computation repeat a few precisions."""
    return p**n


def _inverse_mod_power(u: int, p: int, n: int) -> int:
    """u^-1 mod p**n for u prime to p.  Newton's iteration x -> x (2 - u x)
    from x = u^-1 mod p doubles the digits known each step, at p = 2 too."""
    x, k = pow(u, -1, p), 1
    while k < n:
        k = min(2 * k, n)
        m = _modulus(p, k)
        x = x * (2 - u % m * x) % m
    return x


def embed(x: Rational, prime: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
    """Embed a nonzero rational into Q_p, the unit part known mod p**precision.

    Checks the prime, the precision and x once, then splits x at the prime;
    ``_unit_mod`` inverts the denominator's unit by Newton's iteration.
    """
    check_prime(prime, PadicError)
    check_range("precision", precision, 1, MAX_PRECISION, PrecisionError)
    if check_rational(x) == 0:
        raise ZeroOperandError("cannot embed 0; use PadicNumber.zero")
    (vn, num), (vd, den) = split_unit(x.numerator, prime), split_unit(x.denominator, prime)
    return PadicNumber._make(prime, vn - vd, _unit_mod(prime, num, den, precision), precision)


def _unit_mod(prime: int, num: int, den: int, precision: int) -> int:
    """num / den mod p**precision, num and den prime to p: the unit digits of embed and of a scalar."""
    if den != 1:  # an int has nothing to invert
        num *= _inverse_mod_power(den, prime, precision)
    return num % _modulus(prime, precision)


def teichmuller(a: int, prime: int, precision: int = DEFAULT_PRECISION) -> "PadicNumber":
    """The Teichmuller representative: the (p-1)-st root of unity congruent to a mod p.

    Newton's iteration x -> x (p - x**(p-1)) / (p-1) from x = a mod p doubles
    the digits known each step.  Requires an odd prime and a nonzero residue.
    """
    check_prime(prime, PadicError, odd=True)
    check_range("precision", precision, 1, MAX_PRECISION, PrecisionError)
    if a % prime == 0:
        raise ZeroOperandError("residue must be nonzero mod p")
    x, n = a % prime, 1
    while n < precision:
        n = min(2 * n, precision)
        m = _modulus(prime, n)
        x = x * (prime - pow(x, prime - 1, m)) * pow(prime - 1, -1, m) % m
    return PadicNumber._make(prime, 0, x, precision)


def _ilog(n: int, p: int) -> int:
    """floor(log_p(n)) for n >= 1."""
    e = 0
    while p**(e + 1) <= n:
        e += 1
    return e


def padic_log(u: PadicNumber) -> "PadicNumber":
    """The p-adic logarithm of a 1-unit, for odd p.

    Reduces the argument first: with N the tracked absolute precision and
    r = isqrt(N), log u = log(u^(p^r)) / p^r, and u mod p^N fixes u^(p^r)
    mod p^(N+r), so the division by p^r is exact and leaves N digits.  Then
    sums log(1+t) = t - t^2/2 + t^3/3 - ... for t = u^(p^r) - 1 until the
    term valuation passes N + r: about N/(m+r) terms for m = vp(u - 1),
    where the series of u itself runs about N/m.  Termination: with
    m' = vp(t) = m + r >= 1 and p odd, vp(t^k / k) >= k*m' - log_p(k),
    which is strictly increasing in k, so only finitely many terms contribute.
    """
    p = u.prime
    if p == 2:
        raise PadicError("the logarithm is restricted to odd primes here")
    if u.is_zero:
        raise ZeroOperandError("log of the zero element")
    if u.valuation != 0 or u.unit_digits % p != 1:
        raise PadicError("log requires u = 1 mod p")
    target = u.abs_precision  # = unit precision, since valuation is 0
    t = u.unit_digits - 1
    if t % _modulus(p, target) == 0:
        return PadicNumber._make(p, target, 0, 0)
    r = isqrt(target)
    m = vp_int(t, p) + r  # vp(u^(p^r) - 1), p odd
    wide = target + r
    # Last term index: first k with k*m - floor(log_p k) >= wide.
    kmax = 1
    while kmax * m - _ilog(kmax, p) < wide:
        kmax += 1
    guard = _ilog(kmax, p) + 1
    mod = _modulus(p, wide + guard)
    t = pow(u.unit_digits, _modulus(p, r), mod) - 1
    total = 0
    power = 1
    for k in range(1, kmax + 1):
        power = power * t % mod
        e, unit = split_unit(k, p)
        term = power // _modulus(p, e) * pow(unit, -1, mod) % mod
        total = (total - term if k % 2 == 0 else total + term) % mod
    total = total % _modulus(p, wide) // _modulus(p, r)
    w, unit = split_unit(total, p) if total else (target, 0)  # a zero is O(p^target)
    return PadicNumber._make(p, w, unit, target - w)


def rezk_log_pi0(x: PadicNumber) -> "PadicNumber":
    """The degree-zero logarithm Z_l^x -> Z_l:  x -> log(x**(l-1)) / l.

    Defined for units at odd primes; the result always has valuation >= 0
    and vanishes exactly on the Teichmuller roots of unity.
    """
    ell = x.prime
    if x.is_zero:
        raise ZeroOperandError("argument must be a unit")
    if x.valuation != 0:
        raise PadicError("argument must be a unit of Z_l")
    lg = padic_log(x ** (ell - 1))
    # A nonzero log has valuation >= 1 and a digit, so only a zero can fall short.
    if lg.abs_precision < 2:
        raise PrecisionError("not enough digits to divide by the prime")
    return PadicNumber._make(ell, lg._valuation - 1, lg._unit_digits, lg.precision)


def is_topological_generator(u: int, ell: int) -> bool:
    """Whether the integer u topologically generates Z_l^x (l odd).

    Holds iff u generates the multiplicative group mod l and
    v_l(u**(l-1) - 1) = 1; consequently it depends only on u mod l**2.
    """
    check_prime(ell, PadicError, odd=True)
    if u % ell == 0:
        raise ZeroOperandError("u must be prime to l")
    if any(pow(u, (ell - 1) // q, ell) == 1 for q in factorint(ell - 1)):
        return False  # u does not generate (Z/l)^x
    return pow(u, ell - 1, ell * ell) != 1


@lru_cache(maxsize=1024)
def smallest_topological_generator(ell: int) -> int:
    """The least integer u >= 2 that topologically generates Z_l^x."""
    u = 2
    while not is_topological_generator(u, ell):
        u += 1
    return u


def geometric_series_witness(ell: int = 3, depth: int = 64) -> bool:
    """Certify that 1 + l + l^2 + ... converges l-adically to -1/(l-1).

    Checks, for every k <= depth, that the partial sum s_k of the first k
    powers satisfies (l-1)*s_k + 1 = l**k, i.e. s_k = -1/(l-1) mod l**k.
    For l = 3 this is the statement 2*s_k + 1 = 3**k, exhibiting a
    sequence of integers converging 3-adically to the non-integer -1/2.
    """
    check_prime(ell, PadicError)
    check_range("depth", depth, 1)
    s = 0
    power = 1
    for k in range(1, depth + 1):
        s += power
        power *= ell
        if (ell - 1) * s + 1 != power:
            return False
    return True
