"""avgrank: average analytic-rank experiments for elliptic curve families.

Explicit-formula rank bounds averaged over short-Weierstrass boxes,
moment-based density estimates for high-rank curves, quadratic-twist
root-number experiments, and the brute-force oracles that keep all of it
honest.

The package is lazy (PEP 562): ``import avgrank`` loads no submodule and
no numpy, and each public name imports its module on first access, so a
CLI process pays only for the modules its subcommand runs.
"""

import sys

_EXPORTS = {
    "arith": (
        "gauss_sum",
        "is_fundamental_discriminant",
        "is_prime",
        "kronecker",
        "legendre",
        "moebius",
        "ramanujan_sum",
        "sieve_primes",
    ),
    "cache": ("ApCache", "CorruptCacheError", "cache_build", "cache_check", "cache_load", "cache_save"),
    "curves": (
        "Curve",
        "NumericalDriftError",
        "TraceData",
        "ap",
        "c_pk",
        "conductor_surrogate",
        "discriminant",
        "is_minimal",
        "sigma_p",
        "sigma_p_batch",
        "sigma_p_charsum",
        "star_map",
    ),
    "families": (
        "CAVEAT",
        "RankBoundReport",
        "S_T",
        "U1",
        "U2",
        "average_rank_experiment",
        "enumerate_C",
        "enumerate_D",
        "prime_sums",
        "rank_bound",
        "rank_bound_terms",
        "weight_wT",
    ),
    "moments": (
        "CensusRow",
        "MomentReport",
        "V",
        "V_family",
        "density_bound",
        "high_rank_census",
        "moment_2k",
        "optimal_k",
        "reference_decay",
        "type1_S",
    ),
    "oracles": (
        "GcdSumResult",
        "floor_inequality",
        "gcd_sum_S",
        "ramanujan_exponential_oracle",
    ),
    "twists": (
        "IdentityViolatedError",
        "TwistBatch",
        "TwistReport",
        "class_decompose",
        "fundamental_discriminants",
        "poisson_twist_check",
        "root_number",
        "sieve_indicator_X",
        "theorem4_proportions",
        "twist_average_experiment",
        "twist_batch",
        "twist_curve",
    ),
    "weights": (
        "QuadratureError",
        "SmoothWeight",
        "bump",
        "even_bump",
        "fourier_numeric",
        "h",
        "h_X",
        "h_hat",
        "kernel_k",
        "kernel_k_hat",
        "plateau_bump",
        "triangular_weight",
    ),
}
# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached in the package, so a name rebound in its module (as a
    # tracer does) is always read from there
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, unlike importlib.import_module,
    # reports the load to python -X importtime
    __import__(f"{__name__}.{module}")
    mod = sys.modules[f"{__name__}.{module}"]
    return mod if module == name else getattr(mod, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
