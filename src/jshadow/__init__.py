"""jshadow: exact verification of the arithmetic shadow of local J-homomorphisms.

The library computes, with exact rational or certified-precision p-adic
arithmetic, the number-theoretic data underlying the local J maps:
Hilbert/tame/Legendre symbols and their reciprocity, Zolotarev
permutation signs, Bernoulli denominators and image-of-J group orders,
Quillen K-groups of finite fields, K(1)-local sphere homotopy orders,
and the degree-zero p-adic logarithm.  Every statement is backed by an
independent brute-force oracle in the test suite.  The public API is the
names imported below.
"""

__version__ = "0.1.0"

from .imj import (
    GroupOrderReport,
    K1SphereOrder,
    bernoulli,
    imj_consistency_check,
    imj_order,
    k1_sphere_order,
    k_finite_field,
    norm_identity_check,
    surjectivity_check,
    von_staudt_clausen_denominator,
)
from .jmaps import (
    adelic_norm_product,
    j_fp_pi0,
    j_real_pi0,
    j_tame_pi1,
    j_wild_pi0,
    j_wild_pi1,
)
from .padic import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    PadicError,
    PadicNumber,
    PrecisionError,
    ZeroOperandError,
    embed,
    geometric_series_witness,
    is_topological_generator,
    padic_log,
    padic_norm,
    rezk_log_pi0,
    smallest_topological_generator,
    teichmuller,
    vp,
)
from .symbols import (
    INFINITY,
    Place,
    ReciprocityResult,
    SymbolError,
    hilbert_oracle,
    hilbert_reciprocity_check,
    hilbert_symbol,
    jacobi,
    legendre,
    tame_symbol,
    zolotarev_sign,
)
