"""Moment method for the density of high-rank curves.

V(E, X) is the weighted trace sum over primes 100 < p <= X.  Summing
|V|^(2k) over the box family and applying Markov's inequality bounds the
proportion of curves whose explicit-formula bound can exceed a rank
threshold R; the reference decay curve (3R/2)^(-R/12) is reported
alongside for comparison.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .arith import _check_memory, sieve_primes
from .curves import Curve, sigma_p
from .families import _box, int_root, prime_sums, rank_bound_terms
from .weights import h_X

__all__ = [
    "MomentReport",
    "CensusRow",
    "V",
    "V_family",
    "moment_2k",
    "density_bound",
    "type1_S",
    "optimal_k",
    "reference_decay",
    "high_rank_census",
]

# peak bytes per census row of a density process: the CensusRow, its Python
# ints and floats, and the CLI's four columns (peak RSS at T = 100, X = 10:
# 218 MiB at R_max = 10^6 and 406 MiB at 2 10^6, 196 bytes a row)
_CENSUS_ROW_BYTES = 200


def V(curve: Curve, X: float, primes: list[int]) -> float:
    """sum_{100 < p <= X} (log p / p) h_X(log p) sigma_p(E), in increasing p; primes must reach X."""
    if curve.singular:
        raise ValueError("V requires Delta != 0")
    total = 0.0
    for p in primes:
        if 101 <= p <= X:
            total += (math.log(p) / p) * h_X(math.log(p), X) * sigma_p(curve.r, curve.s, p)
    return total


def V_family(T: float, X: float) -> np.ndarray:
    """V(E, X) for every curve of D(T), in row-major (r, s) order: 0.0 minus the U1 sums of
    prime_sums over 100 < p <= X, which is V bit for bit (0.0 - u, unlike -u, keeps a zero +0.0)."""
    grid = _box(T, minimal_only=False)
    return 0.0 - prime_sums(grid.rv[:, None], grid.sv, X, lo=101)[0][grid.keep]


def moment_2k(T: float, X: float, k: int) -> float:
    """sum_{E in D(T)} V(E, X)^(2k), summed in a fixed order.

    math.fsum gives correctly rounded accumulation, which covers the
    wide dynamic range of the V^(2k) terms.
    """
    if k < 1:
        raise ValueError("moment_2k requires k >= 1")
    if T < 1:
        raise ValueError("moment_2k requires T >= 1")
    if X < 101:  # (100, X] holds no prime, so every V is 0
        return 0.0
    vals = V_family(T, X)
    return math.fsum((vals ** (2 * k)).tolist())


def density_bound(T: float, X: float, k: int, R: float) -> float:
    """Markov bound moment_2k / ((log T / 2)^(2k) * #C(T)) for rank >= R.

    Only meaningful when R >= 3 + 2 log T / log X, the regime where the
    explicit formula forces |V| >= (log T) / 2.  That is tested as
    X >= T^(2 / (R - 3)), without the float quotient, which overshoots
    3 + 12k at X = T^(1 / (6k)); so a row is admitted exactly when
    high_rank_census admits it.
    """
    try:
        admissible = T > 1 and R > 3 and X >= T ** (2 / (R - 3))
    except OverflowError:  # T^(2 / (R - 3)) is beyond every float X
        admissible = False
    if not admissible:
        raise ValueError("density_bound requires T > 1 and R >= 3 + 2 log T / log X")
    return _markov(moment_2k(T, X, k), T, k, len(_box(T)))


def _markov(m: float, T: float, k: int, n_C: int) -> float:
    return m / ((0.5 * math.log(T)) ** (2 * k) * n_C)


def type1_S(X: float) -> float:
    """S = sum_{100 < p <= X} (2 h_X(log p) log p)^2 / p; tends to (log^2 X)/3."""
    if X <= 100:
        return 0.0
    p = np.asarray(sieve_primes(int(X), 101), dtype=np.int64)
    lp = np.log(p.astype(np.float64))
    terms = (2.0 * h_X(lp, X) * lp) ** 2 / p
    return math.fsum(terms.tolist())


def reference_decay(R: int) -> float:
    """(3R/2)^(-R/12); the faster-than-exponential reference curve."""
    if R == 0:
        return 1.0
    return (1.5 * R) ** (-R / 12.0)


def optimal_k(R: int) -> int:
    """k = floor((R - 3) / 12), clamped to at least 1."""
    return max(1, (R - 3) // 12)


class CensusRow(NamedTuple):
    """census counts the curves in C(T) whose rank_bound proxy is >= R;
    markov_bound is the Markov density bound at the optimal k, or None
    where it is not admissible."""

    R: int
    census: int
    markov_bound: float | None
    reference: float


class MomentReport(NamedTuple):
    """The census rows of one (T, X, C0); rank_cutoff is 11 log T / log log T."""

    T: float
    X: float
    C0: float
    rows: tuple[CensusRow, ...]
    rank_cutoff: float
    n_C: int
    n_D: int


def high_rank_census(T: float, X: float, C0: float = 0.0, R_max: int = 8) -> MomentReport:
    """Proxy census of high rank-bound curves plus Markov density bounds.

    The census thresholds the explicit-formula rank bound (true analytic
    ranks are out of reach), evaluated for all of C(T) by the batch route
    of average_rank_experiment; the Markov column uses the |V| moment
    mechanism with k and X chosen as in the density analysis.  The moment
    depends on R only through k, so it is computed once per k.  n_D is
    the box minus its singular cells (-3t^2, 2t^3), counted without a grid.
    """
    if X <= 1 or T <= math.e:
        raise ValueError("high_rank_census requires X > 1 and T > e")
    _check_memory(_CENSUS_ROW_BYTES * (R_max + 1), f"the census to R_max = {R_max}")
    grid = _box(T)
    bounds = rank_bound_terms(grid, X, C0)[3]
    n_C = len(grid)
    rmax, smax = int_root(T, 3), int_root(T, 2)
    t = min(math.isqrt(rmax // 3), int_root(smax // 2, 3))
    n_D = (2 * rmax + 1) * (2 * smax + 1) - (2 * t + 1)
    rows = []
    moments = {}  # k -> moment_2k(T, XR, k)
    for R in range(0, R_max + 1):
        census = int((bounds >= R).sum())
        k = optimal_k(R)
        XR = T ** (1.0 / (6 * k))
        markov = None
        # 3 + 2 log T / log XR is 3 + 12k exactly; the float quotient overshoots
        if XR >= 2 and R >= 3 + 12 * k:
            if k not in moments:
                moments[k] = moment_2k(T, XR, k)
            markov = _markov(moments[k], T, k, n_C)
        rows.append(CensusRow(R=R, census=census, markov_bound=markov, reference=reference_decay(R)))
    cutoff = 11 * math.log(T) / math.log(math.log(T))
    return MomentReport(T=T, X=X, C0=C0, rows=tuple(rows), rank_cutoff=cutoff, n_C=n_C, n_D=n_D)
