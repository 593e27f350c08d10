"""Shared integer utilities: primality, sieves, exact factorization, the
split n = p**alpha * u of an integer at a prime, and the one check of a
prime argument, of a rational one and of a bounded int.

Everything here is deterministic.  Miller-Rabin with the first k prime
bases is a proof of primality below psi_k, the least strong pseudoprime to
all of them (Jaeschke 1993; Jiang-Deng 2014; Sorenson-Webster 2017).  The
first thirteen prove it below psi_13 = 3317044064679887385961981, so
factorizations of numbers below psi_13 are certified.  At or above it a
strong Lucas test follows the bases (BPSW), and a prime factor is a BPSW
probable prime: none is known to be composite.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

Rational = int | Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_1 .. psi_12 (OEIS A014233): the first k bases prove primality below psi_k.
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461,
)

# Least strong pseudoprime to the bases 2..41: from here on the bases alone prove nothing.
_PSI_13 = 3317044064679887385961981

_SMALL_PRIME_LIMIT = 1000


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, by sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, n + 1, p)))
    return [i for i in range(n + 1) if sieve[i]]


_SMALL_PRIMES = primes_up_to(_SMALL_PRIME_LIMIT)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_TRIAL_PRIMES = _SMALL_PRIMES[:25]  # the primes below 100, tried before Miller-Rabin


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin with the first k bases, the fewest that
    prove it for n < psi_k, and all thirteen (2..41) from psi_12 on:
    deterministic for n < psi_13.  At or above psi_13 a strong Lucas test
    follows, which makes it BPSW: True there means a BPSW probable prime."""
    if n < 2:
        return False
    if n <= _SMALL_PRIME_LIMIT:
        return n in _SMALL_PRIME_SET
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2**s exactly divides n - 1
    d = (n - 1) >> s
    for a in _MR_BASES[: bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _is_strong_lucas_probable_prime(n)


def check_prime(p: int, error: type[ValueError] = ValueError, odd: bool = False) -> int:
    """p, if it is prime (and odd, with ``odd``); else ``error`` naming it.
    The one check that refuses a non-prime argument."""
    if odd and p == 2 or not is_prime(p):
        raise error(f"{p} is not an odd prime" if odd else f"{p} is not prime")
    return p


def check_rational(x: Rational) -> Rational:
    """x, if it is an int or a Fraction; else TypeError.  No float or string
    is read as a rational: Fraction(0.1) is not 1/10."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__} {x!r}")


def check_range(
    name: str, value: int, low: int | None = None, high: int | None = None, error: type[ValueError] = ValueError
) -> int:
    """value, if low <= value <= high (None: no bound); else ``error`` naming name and the bound."""
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise error(f"{name} must be <= {high}, got {value}")
    return value


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a|n) for odd n >= 1 (unchecked), by the reciprocity ladder."""
    a %= n
    result = 1
    while a:
        e = (a & -a).bit_length() - 1  # 2**e exactly divides a
        a >>= e
        if e & 1 and n % 8 in (3, 5):
            result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of odd n > 1, Selfridge's parameters: D first of
    5, -7, 9, -11, ... with (D|n) = -1, P = 1, Q = (1-D)/4.  With n + 1 =
    d 2^s, d odd, n passes iff U_d = 0 or some V_(d 2^r) = 0, r < s, mod n."""
    if math.isqrt(n) ** 2 == n:  # no D has (D|n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    U, V, Qk = 1, 1, Q  # U_1, V_1, Q^1 with P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V  # twice U_(k+1) and V_(k+1)
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    x0, c, m = 2, 1, 128
    while True:
        y, r, q = x0, 1, 1
        g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        x0 += 1
        c += 1


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}; factors >= psi_13 are BPSW probable primes."""
    check_range("n", n, 1)
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            if n > 1:  # no prime factor below p, and p * p > n: n is prime
                factors[n] = 1
            return factors
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(factors.items()))


def split_unit(n: int, p: int) -> tuple[int, int]:
    """(alpha, u) with n = p**alpha * u and u prime to p, the sign kept in u.
    Four places write unit parts without it: ``factorint`` divides by its own trial
    primes; ``sweeps._cleared_local_data`` multiplies split unit parts by the other
    side's whole value, one product where a split costs a loop; ``is_prime``, the
    strong Lucas test and ``_jacobi`` split off 2**e by the lowest set bit; and the
    brute valuation of ``sweeps.sweep_low_degree_j`` is an independent oracle."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    alpha = 0
    while n % p == 0:
        n //= p
        alpha += 1
    return alpha, n


def vp_int(n: int, p: int) -> int:
    """Exponent of p in n (n != 0)."""
    return split_unit(n, p)[0]


def _iroot(n: int, e: int) -> int:
    """floor(n ** (1/e)) for n >= 1, by Newton's iteration on ints from above."""
    x = 1 << -(-n.bit_length() // e)
    while (y := ((e - 1) * x + n // x ** (e - 1)) // e) < x:
        x = y
    return x


def prime_power_base(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q = p**e if q is a prime power, else None.

    No factoring: a prime below 1000 that divides q must be p.  Otherwise
    p > 1000 > 2**9, so e <= q.bit_length() // 9, and p is the e-th root of
    q that is prime."""
    if q < 2:
        return None
    for p in _SMALL_PRIMES:
        if q % p == 0:
            e, rest = split_unit(q, p)
            return (p, e) if rest == 1 else None
    for e in range(1, q.bit_length() // 9 + 1):
        p = _iroot(q, e)
        if p**e == q and is_prime(p):
            return p, e
    return None

