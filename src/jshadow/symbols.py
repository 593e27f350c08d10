"""Quadratic symbols at every place of Q.

Legendre/Jacobi symbols, Zolotarev permutation signs, Hilbert symbols
(closed form and solvability oracle), and tame symbols.  Sign values are
plain ints in {+1, -1}.

Conventions:

* ``legendre`` runs the Jacobi reciprocity ladder; Euler's criterion is
  kept out of the library so tests can use it as an independent oracle.
* ``zolotarev_sign`` always walks the cycle decomposition and never
  consults Legendre symbols, so its agreement with ``legendre`` is a
  theorem being tested, not a tautology.
* ``hilbert_oracle`` decides solvability of z^2 = a x^2 + b y^2 directly
  by searching for a primitive solution modulo p^M, M = 2*v_p(4ab) + 3.
  Soundness of that modulus: a primitive approximate solution has a unit
  coordinate, so some partial derivative of f = z^2 - a x^2 - b y^2 has
  valuation m <= t := v_p(4ab); then v_p(f) >= 2t + 3 > 2m lets Newton's
  iteration lift the solution to Z_p.  Conversely a Z_p-solution scales
  to a primitive one and reduces mod p^M.  Scaling by the inverse of the
  first unit coordinate makes it 1, and that is x or y (x = y = 0 mod p
  forces p | z), so two charts, linear in p, suffice: z^2 = a + b y^2, and
  z^2 = b + a x^2 with p | x.  If a = pu and b = pw, every node is
  degenerate, but p | z and z = pz' gives (wy)^2 = -uw x^2 + pw z'^2,
  primitive both ways: (-uw, pw) is searched, so M <= 5 (M <= 9 at p = 2)
  bounds the depth of the walk, which recurses once per level.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import prod
from operator import getitem, xor

from ._integers import (
    Rational,
    _jacobi,
    check_prime,
    check_range,
    check_rational,
    factorint,
    primes_up_to,
    split_unit,
    vp_int,
)

Sign = int  # always +1 or -1


class SymbolError(ValueError):
    """Invalid input to a symbol computation."""


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime or the archimedean place."""

    prime: int | None  # None encodes the infinite place

    def __post_init__(self) -> None:
        if self.prime is not None:
            check_prime(self.prime, SymbolError)

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


INFINITY = Place(None)


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a|n) for odd n >= 1, by the reciprocity ladder."""
    if n <= 0 or n % 2 == 0:
        raise SymbolError("Jacobi symbol needs odd n >= 1")
    return _jacobi(a, n)


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a|p) in {-1, 0, +1} for odd prime p."""
    return _jacobi(a, check_prime(p, SymbolError, odd=True))


def zolotarev_sign(a: int, p: int) -> Sign:
    """The sign of the permutation x -> a*x of Z/p, by cycle decomposition
    (see :func:`_permutation_sign`).  A prime above ORACLE_PRIME_CAP raises
    SymbolError before the walk's table is built."""
    check_range("p", p, None, ORACLE_PRIME_CAP, SymbolError)
    check_prime(p, SymbolError, odd=True)
    a %= p
    if a == 0:
        raise SymbolError("a must be prime to p")
    return _permutation_sign(a, p)


def _permutation_sign(a: int, n: int) -> Sign:
    """The sign of x -> a*x on Z/n for a prime to n, unchecked.

    A permutation of m points with c cycles has sign (-1)^(m - c).  The walk
    visits each of the m = n - 1 nonzero residues once, counting cycles; a
    cycle closes when it returns to its start, and the next start is the
    first unvisited residue, found by ``bytearray.find``.
    """
    visited = bytearray(n)
    visited[0] = 1  # 0 is a fixed point
    cycles = 0
    start = 1
    while start > 0:  # find returns -1 once every residue is visited
        cycles += 1
        visited[start] = 1
        j = a * start % n
        while j != start:
            visited[j] = 1
            j = a * j % n
        start = visited.find(0, start)
    return -1 if (n - 1 - cycles) % 2 else 1


def _cleared_int(x: Rational, what: str) -> int:
    """Replace x by the integer x * den(x)^2 (same square class); an int
    is returned as it is."""
    if not isinstance(x, int):
        x = check_rational(x)
        x = x.numerator * x.denominator
    if x == 0:
        raise SymbolError(f"{what} must be nonzero")
    return x


def hilbert_symbol(a: Rational, b: Rational, place: Place) -> Sign:
    """The Hilbert symbol (a,b)_v: +1 iff z^2 = a x^2 + b y^2 has a
    nontrivial solution over the completion at v.

    Closed forms: at the infinite place, -1 iff a < 0 and b < 0.  At an
    odd prime p, with a = p^alpha u and b = p^beta w,
    (-1)^(alpha beta (p-1)/2) (u|p)^beta (w|p)^alpha.  At 2, with odd
    unit parts u, w, (-1)^(eps(u)eps(w) + alpha omega(w) + beta omega(u))
    where eps(x) = (x-1)/2 and omega(x) = (x^2-1)/8 mod 2.
    """
    A = _cleared_int(a, "a")
    B = _cleared_int(b, "b")
    if not place.is_finite:
        return -1 if A < 0 and B < 0 else 1
    p = place.prime
    return _local_sign(*split_unit(A, p), *split_unit(B, p), p)


def _local_sign(alpha: int, u: int, beta: int, w: int, p: int, legendre_of=None) -> Sign:
    """(A,B)_p for A = p^alpha u and B = p^beta w with u, w prime to p, by
    the closed form at 2 or at an odd prime, where ``legendre_of(x, p)`` gives
    (x|p), the Jacobi ladder by default."""
    if p == 2:
        return _symbol_at_two(alpha, u, beta, w)
    return _symbol_at_odd_prime(alpha, u, beta, w, p, legendre_of or _jacobi)


def _symbol_at_two(alpha: int, u: int, beta: int, w: int) -> Sign:
    """(A,B)_2 for A = 2^alpha u and B = 2^beta w with u, w odd: the parity
    of eps(u)eps(w) + alpha omega(w) + beta omega(u), summed bitwise, where
    eps(x) = (x-1)/2 = x >> 1 and omega(x) = (x^2-1)/8 = (x^2-1) >> 3."""
    e = u >> 1 & w >> 1 ^ alpha & (w * w - 1) >> 3 ^ beta & (u * u - 1) >> 3
    return -1 if e & 1 else 1


def _symbol_at_odd_prime(alpha: int, u: int, beta: int, w: int, p: int, legendre_of) -> Sign:
    """(A,B)_p for A = p^alpha u and B = p^beta w with u, w prime to the odd
    prime p; ``legendre_of(x, p)`` gives the Legendre symbol (x|p)."""
    sign = -1 if alpha & beta & p >> 1 & 1 else 1  # the parity of alpha beta (p-1)/2
    if beta & 1:
        sign *= legendre_of(u, p)
    if alpha & 1:
        sign *= legendre_of(w, p)
    return sign


def local_symbol_product(A: int, local_A: dict, B: int, local_B: dict, legendre_of) -> Sign:
    """The product of (A,B)_v over 2, the odd primes of ``local_A``, those of
    ``local_B`` not in it, and infinity: the reciprocity sweep's kernel.

    ``local_A`` is the local data of the nonzero integer A: p -> (alpha, u)
    with A = p^alpha u, u prime to p, for every prime p dividing A (a prime
    missing from it has alpha = 0, u = A); likewise ``local_B``.
    ``legendre_of(x, p)`` gives the Legendre symbol (x|p) at odd primes.
    """
    sign = _symbol_at_two(*local_A.get(2, (0, A)), *local_B.get(2, (0, B)))
    for p, (alpha, u) in local_A.items():
        if p != 2:
            beta, w = local_B.get(p, (0, B))
            sign *= _symbol_at_odd_prime(alpha, u, beta, w, p, legendre_of)
    for p, (beta, w) in local_B.items():
        if p != 2 and p not in local_A:
            sign *= _symbol_at_odd_prime(0, A, beta, w, p, legendre_of)
    return -sign if A < 0 and B < 0 else sign


# For each class c, the table that translates the byte c to b"1" and any other to b"0".
_CLASS_DIGITS = [bytes(48 + (i == c) for i in range(256)) for c in range(8)]


def symbol_product_masks(local: dict, legendre_of) -> Iterator[int]:
    """For each a of the grid 0 < |n| <= bound, in order (-bound first), the
    set of b in the grid whose product of (a,b)_v over all places is -1, as a
    bitmask whose bit i stands for the grid's i-th member: the reciprocity
    sweep's integer-grid kernel.

    ``local`` maps each grid member, in grid order, to its local data at every
    prime dividing it, and ``legendre_of(x, p)`` gives (x|p), as
    :func:`local_symbol_product` reads them.  The closed forms read only a class
    of each argument at a place (see :func:`_class_at`) and, at infinity, its
    sign.  So at 2 and at each odd prime p <= bound each member gets one byte,
    its class, the closed form is called once per pair of classes present, on
    the local data of one member of each, and each class of a gets the mask of
    the b with (a,b)_p = -1: the members of the classes of b whose call gave
    -1.  The call reads of each member only what its class fixes, so it is the
    symbol of every pair it stands for.  The mask of a is the XOR of its
    classes' masks over the primes, and of the b < 0 when a < 0.
    """
    grid = list(local)
    size = len(grid)
    bound = size // 2
    columns = bytearray()  # the class of each member at each prime, prime by prime
    minus = []  # per prime, class of a -> the b with (a,b)_p = -1
    for p in primes_up_to(max(bound, 2)):  # 2 is a place of every pair
        # a member n prime to p has data (0, n), whose class is periodic in n; the multiples of p are set after
        period = 8 if p == 2 else p
        pattern = bytes(_class_at(p, 0, r, legendre_of) for r in range(period)) * (size // period + 2)
        start = -bound % period
        classes = bytearray(pattern[start : start + size + 1])
        del classes[bound]  # n = 0
        for n in range(p, bound + 1, p):
            classes[bound - 1 + n] = _class_at(p, *local[n][p], legendre_of)
            classes[bound - n] = _class_at(p, *local[-n][p], legendre_of)
        present = []  # (class, the mask of its members, the local data of one)
        for c in range(8):
            i = classes.find(c)
            if i >= 0:
                mask = int(classes.translate(_CLASS_DIGITS[c])[::-1], 2)  # bit k: the k-th member
                present.append((c, mask, local[grid[i]].get(p, (0, grid[i]))))
        masks = [0] * 8
        for c, _, data in present:
            masks[c] = sum(mask for _, mask, other in present if _local_sign(*data, *other, p, legendre_of) < 0)
        columns += classes
        minus.append(masks)
    negative = (1 << bound) - 1  # the b < 0, listed first
    for i in range(size):
        yield reduce(xor, map(getitem, minus, columns[i::size]), negative if i < bound else 0)


def _class_at(p: int, alpha: int, u: int, legendre_of) -> int:
    """The class of p^alpha u that the closed form at p reads, as an index below
    8: (alpha mod 2, u mod 8) at 2 and (alpha mod 2, (u|p)) at an odd p."""
    if p == 2:
        return (alpha & 1) << 2 | (u & 7) >> 1
    return (alpha & 1) << 1 | (legendre_of(u, p) < 0)


ORACLE_PRIME_CAP = 2**17  # the Zolotarev walk and the oracle's square-root table are O(p)


_SQRT_TABLE_ENTRIES = 2**19  # roots kept over all tables: four tables at ORACLE_PRIME_CAP
_sqrt_tables: dict[int, dict[int, tuple[int, ...]]] = {}  # p -> its table, oldest first


def _sqrt_table(p: int) -> dict[int, tuple[int, ...]]:
    """s -> all z in [0, p) with z^2 = s mod p.  The tables kept hold at most
    _SQRT_TABLE_ENTRIES roots in all (a table mod p holds p); the oldest go first."""
    table = _sqrt_tables.get(p)
    if table is None:
        table = {}
        for z in range(p):
            s = z * z % p
            table[s] = table.get(s, ()) + (z,)
        while _sqrt_tables and sum(_sqrt_tables) + p > _SQRT_TABLE_ENTRIES:
            del _sqrt_tables[next(iter(_sqrt_tables))]
        _sqrt_tables[p] = table
    return table


def _search_primitive_solution(C: int, D: int, p: int, levels: int, ts) -> bool:
    """Whether z^2 = C + D t^2 has a solution mod p**levels with t mod p in
    ``ts``, by a depth-first walk from each solution mod p in turn."""
    roots = _sqrt_table(p)
    for t in ts:
        for z in roots.get((C + D * t * t) % p, ()):
            if _lifts(C, D, p, levels, t, z, 1):
                return True
    return False


def _lifts(C: int, D: int, p: int, levels: int, t: int, z: int, j: int) -> bool:
    """Whether the solution (t, z) mod p^j lifts to one mod p**levels, by
    recursion on its children (t + dt p^j, z + dz p^j), in increasing dt:
    c + g_t dt + g_z dz = 0 mod p with c = (z^2 - C - D t^2) / p^j,
    g_t = -2Dt, g_z = 2z, so dz is solved when g_z is a unit, free when
    g_z = 0 mod p and the residual is 0, and absent otherwise."""
    if j == levels:
        return True
    pj = p**j
    c, g_t, g_z = (z * z - C - D * t * t) // pj, -2 * D * t % p, 2 * z % p
    inverse = pow(g_z, -1, p) if g_z else 0
    for dt in range(p):
        r = (c + g_t * dt) % p
        for dz in (-r * inverse % p,) if g_z else range(p) if r == 0 else ():
            if _lifts(C, D, p, levels, t + dt * pj, z + dz * pj, j + 1):
                return True
    return False


def hilbert_oracle(a: Rational, b: Rational, place: Place) -> Sign:
    """Decide (a,b)_v by direct solvability of z^2 = a x^2 + b y^2.

    At the infinite place this is sign inspection.  At a finite prime
    p <= ORACLE_PRIME_CAP (a larger one raises SymbolError) the equation is
    cleared to integers A = p^alpha u and B = p^beta w, reduced to their
    square classes u p^(alpha mod 2) and w p^(beta mod 2), (pu, pw) descends
    to (-uw, pw), and both charts are searched modulo p**M with
    M = 2*v_p(4AB) + 3 (see the module docstring for why that suffices).
    """
    A = _cleared_int(a, "a")
    B = _cleared_int(b, "b")
    if not place.is_finite:
        return -1 if A < 0 and B < 0 else 1
    p = check_range("p", place.prime, None, ORACLE_PRIME_CAP, SymbolError)
    return _oracle_sign(*split_unit(A, p), *split_unit(B, p), p)


def _oracle_sign(alpha: int, u: int, beta: int, w: int, p: int) -> Sign:
    """(A,B)_p for A = p^alpha u and B = p^beta w with u, w prime to the prime
    p <= ORACLE_PRIME_CAP, unchecked, by the search of :func:`hilbert_oracle`."""
    A, B = (-u * w, p * w) if alpha & beta & 1 else (u * p ** (alpha & 1), w * p ** (beta & 1))
    levels = 2 * vp_int(4 * A * B, p) + 3
    found = _search_primitive_solution(A, B, p, levels, range(p))
    return 1 if found or _search_primitive_solution(B, A, p, levels, (0,)) else -1


def tame_symbol(a: Rational, b: Rational, p: int) -> int:
    """The tame symbol at p: (-1)^(v(a)v(b)) a^v(b) / b^v(a) reduced mod p.

    With a = p^alpha u and b = p^beta w that is (-1)^(alpha beta) u^beta
    w^(-alpha), computed mod p from the p-free parts of each numerator and
    denominator.  Returns the least positive residue, a unit of Z/p.
    """
    check_prime(p, SymbolError)
    if check_rational(a) == 0 or check_rational(b) == 0:
        raise SymbolError("tame symbol inputs must be nonzero")
    alpha, u = _unit_mod_p(a, p)
    beta, w = _unit_mod_p(b, p)
    sign = -1 if alpha * beta % 2 else 1
    return sign * pow(u, beta, p) * pow(w, -alpha, p) % p


def _unit_mod_p(x: Rational, p: int) -> tuple[int, int]:
    """(v_p(x), u mod p) for nonzero x = p^v_p(x) u."""
    (alpha, num), (delta, den) = split_unit(x.numerator, p), split_unit(x.denominator, p)
    return alpha - delta, num * pow(den, -1, p) % p


@dataclass(frozen=True)
class ReciprocityResult:
    """Per-place Hilbert symbols of a pair, with their product.

    ``local_symbols`` lists every place in the support set (the infinite
    place, 2, and the odd primes dividing numerator or denominator of
    either argument).  Every omitted place v = p has alpha = beta = 0 in
    the odd-p closed form, hence symbol +1, so the product over the
    support set is the full product over all places.
    """

    a: Fraction
    b: Fraction
    local_symbols: tuple[tuple[Place, Sign], ...]
    product: Sign

    @property
    def passes(self) -> bool:
        return self.product == 1


def hilbert_reciprocity_check(a: Rational, b: Rational) -> ReciprocityResult:
    """Evaluate (a,b)_v on the finite support set and multiply.

    The support is 2, the primes ``factorint`` finds in each numerator and
    denominator (each factored once, never their product), and infinity.
    Each row is :func:`hilbert_symbol` of the cleared ints A and B (num*den
    of a and of b, in their square classes), listed at 2, the odd primes
    ascending, then infinity, and the product is that of the rows."""
    a = Fraction(check_rational(a))
    b = Fraction(check_rational(b))
    if a == 0 or b == 0:
        raise SymbolError("inputs must be nonzero")
    A, B = a.numerator * a.denominator, b.numerator * b.denominator
    parts = a.numerator, a.denominator, b.numerator, b.denominator
    primes = {2}.union(*(factorint(abs(n)) for n in parts))
    places = [Place(p) for p in sorted(primes)] + [INFINITY]
    symbols = tuple((v, hilbert_symbol(A, B, v)) for v in places)
    return ReciprocityResult(a=a, b=b, local_symbols=symbols, product=prod(s for _, s in symbols))
