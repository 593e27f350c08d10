"""Hilbert symbols at every place of Q, and their product formula.

(a,b)_v is +1 when z^2 = a x^2 + b y^2 has a nontrivial solution over
the completion at v, else -1.  Multiplying over all places always gives
+1; for a pair of odd primes that is quadratic reciprocity.
"""

from jshadow import (
    INFINITY,
    Place,
    hilbert_oracle,
    hilbert_reciprocity_check,
    hilbert_symbol,
    legendre,
)

# The symbol has a closed form at each place...
print("(2, 5)_5  =", hilbert_symbol(2, 5, Place(5)))      # -1: 2 is not a square mod 5
print("(-1,-1)_R =", hilbert_symbol(-1, -1, INFINITY))  # -1: sums of squares are positive

# ...and an oracle that ignores the closed form entirely: it searches for
# solutions of the conic modulo a power of p high enough that Hensel's
# lemma promotes them to honest p-adic points.
print("oracle agrees:", hilbert_oracle(2, 5, Place(5)) == -1)

# The reciprocity report lists every place that can possibly contribute;
# all omitted places have unit coefficients and symbol +1.
for a, b in [(-1, -1), (3, 5), (30, -42)]:
    result = hilbert_reciprocity_check(a, b)
    table = ", ".join(f"{v}:{s:+d}" for v, s in result.local_symbols)
    print(f"({a},{b}): {table}  product {result.product:+d}")

# Specializing to two odd primes recovers quadratic reciprocity: the
# symbols at q and r are the two Legendre symbols, and their product is
# forced by the contributions at 2 and infinity.
q, r = 13, 17
result = hilbert_reciprocity_check(q, r)
print(f"legendre({q},{r}) * legendre({r},{q}) =", legendre(q, r) * legendre(r, q))
print("matches the place table:", {str(v): s for v, s in result.local_symbols})
