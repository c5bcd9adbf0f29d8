"""avgrank: average analytic-rank experiments for elliptic curve families.

Explicit-formula rank bounds averaged over short-Weierstrass boxes,
moment-based density estimates for high-rank curves, quadratic-twist
root-number experiments, and the brute-force oracles that keep all of it
honest.
"""

from .arith import (
    PrimeTable,
    gauss_sum,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    legendre,
    moebius,
    ramanujan_sum,
    sieve_primes,
)
from .cache import ApCache, CorruptCacheError, cache_build, cache_load, cache_save
from .curves import (
    Curve,
    NumericalDriftError,
    TraceData,
    ap,
    c_pk,
    conductor_surrogate,
    discriminant,
    is_minimal,
    sigma_p,
    sigma_p_batch,
    sigma_p_charsum,
    star_map,
)
from .families import (
    CAVEAT,
    FamilyParams,
    RankBoundReport,
    S_T,
    U1,
    U2,
    average_rank_experiment,
    box_grid,
    enumerate_C,
    enumerate_D,
    prime_terms,
    rank_bound,
    rank_bound_terms,
    weight_wT,
)
from .moments import (
    CensusRow,
    MomentReport,
    TermType,
    V,
    V_family,
    classify_type,
    density_bound,
    high_rank_census,
    moment_2k,
    multinomial_C,
    optimal_k,
    reference_decay,
    type1_S,
)
from .oracles import (
    GcdSumResult,
    dirichlet_tail_check,
    floor_inequality,
    gcd_sum_S,
    ramanujan_exponential_oracle,
)
from .twists import (
    IdentityViolatedError,
    TwistBatch,
    TwistFamily,
    TwistReport,
    class_decompose,
    enumerate_T_pm,
    fundamental_discriminants,
    poisson_twist_check,
    root_number,
    sieve_indicator_X,
    theorem4_proportions,
    twist_average_experiment,
    twist_batch,
    twist_curve,
    twisted_pnt_sum,
)
from .weights import (
    QuadratureError,
    SmoothWeight,
    bump,
    even_bump,
    fourier_numeric,
    h,
    h_X,
    h_hat,
    kernel_k,
    kernel_k_hat,
    plateau_bump,
    triangular_weight,
)

__version__ = "0.1.0"
