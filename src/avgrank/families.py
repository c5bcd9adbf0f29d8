"""Curve families, weighted counts and explicit-formula rank bounds.

The box family D(T) is all integer pairs |r| <= T^(1/3), |s| <= T^(1/2)
with nonzero discriminant; C(T) additionally demands minimality.  The
rank bound for one curve is

    rank <= log(N) / log X + (2 / log X) (U1 + U2) + C0 / log X,

with U1, U2 the weighted prime sums of the explicit formula.  The
unquantified O(1/log X) constant is exposed as C0 (default 0) and every
report carries a caveat line saying so.

Box families are held as product grids (BoxGrid): row values rv, column
values sv and a boolean keep mask over rv x sv for the singularity,
minimality and weight-support filters; cells() gives the same family as
flat row-major arrays.  prime_sums, the one per-prime route of U1, U2
and the moments' V, sieves its own primes up to X, needs only the int64
coefficients and reads p | Delta off their residues.  They broadcast
like those of curves.sigma_p_batch, the one trace gather: flat pairs, or
rv[:, None], sv for a grid, where rank_bound_terms takes the prime sums
on the whole rectangle, cuts to the kept cells once at the end and forms
the rank bound.  The gather folds the row sign into its table
(chi(k) = chi(r) for k = r^3 s^-2), so a grid cell costs one gather and
one multiply.  _add_terms holds the term formula of one prime; the
twists call it too, on their own traces.  Each curve's prime terms are
added with += from 0.0 in increasing p for every family, and the scalar
oracles U1, U2 and moments.V add theirs the same way, so each engine row
equals its oracle bit for bit (the error of such a sum: N. J. Higham,
SIAM J. Sci. Comput. 14 (1993)).  Sums over curves (S_T, the weighted
averages, lemma2_lhs) use math.fsum.  Both orders are fixed, so repeated
runs are bit-identical.

The conductor surrogate of a grid comes from a root sieve (the line
sieve of C. Pomerance, "The quadratic sieve factoring algorithm",
EUROCRYPT 1984): for p >= 5, p | Delta exactly when
-4 r^3 = 27 s^2 (mod p), so sorting the column residues 27 s^2 and
searching the row residues -4 r^3 in them finds every cell p divides,
and only those are divided.  Primes run in ascending order, and the
trial-division oracle _conductor_batch charges each prime through the
same helper, _charge, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .arith import _check_memory, sieve_primes
from .curves import (
    Curve,
    ap,
    c_pk,
    conductor_surrogate,
    discriminant,
    is_minimal,
    sigma_p_batch,
)
from .weights import even_bump, h_X

__all__ = [
    "RankBoundReport",
    "CAVEAT",
    "int_root",
    "enumerate_D",
    "enumerate_C",
    "weight_wT",
    "S_T",
    "U1",
    "U2",
    "rank_bound",
    "prime_sums",
    "rank_bound_terms",
    "average_rank_experiment",
    "lemma2_lhs",
]

CAVEAT = (
    "rank bounds omit an unquantified O(1/log X) constant; "
    "C0 is a configurable stand-in (default 0)"
)

# the weight of both box axes: w(r / T^(1/3)) w(s / T^(1/2))
_BOX_WEIGHT = even_bump()


def int_root(x: float, k: int) -> int:
    """floor(x^(1/k)) computed exactly for x >= 0: Newton's iteration in
    integers on floor(x), from above the root, in O(log log x) steps."""
    if x < 0:
        raise ValueError("int_root requires x >= 0")
    m = int(x)
    if m < 2:
        return m
    n = 1 << -(-m.bit_length() // k)  # 2^ceil(bits/k) > m^(1/k)
    while True:
        nxt = ((k - 1) * n + m // n ** (k - 1)) // k
        if nxt >= n:
            return n
        n = nxt


def enumerate_D(T: float) -> Iterator[Curve]:
    """All curves in the box with Delta != 0, row-major in (r, s)."""
    if T < 1:
        raise ValueError("enumerate_D requires T >= 1")
    rmax, smax = int_root(T, 3), int_root(T, 2)
    for r in range(-rmax, rmax + 1):
        for s in range(-smax, smax + 1):
            if 4 * r**3 + 27 * s**2 != 0:
                yield Curve(r, s)


def enumerate_C(T: float) -> Iterator[Curve]:
    """enumerate_D(T) restricted to minimal models."""
    for cur in enumerate_D(T):
        if is_minimal(cur.r, cur.s):
            yield cur


def weight_wT(curve: Curve, T: float) -> float:
    """w(r / T^(1/3)) * w(s / T^(1/2)), with w = even_bump()."""
    return float(_BOX_WEIGHT(curve.r * T ** (-1 / 3))) * float(_BOX_WEIGHT(curve.s * T ** (-1 / 2)))


# ---------------------------------------------------------------------------
# product grids (the batch workhorse)


class BoxGrid:
    """A filtered product family: the curve (rv[i], sv[j]) belongs iff keep[i, j].

    keep is bool of shape (len(rv), len(sv)); cells() lists the members
    row-major in (r, s) as flat arrays.
    """

    __slots__ = ("rv", "sv", "keep")

    def __init__(self, rv: np.ndarray, sv: np.ndarray, keep: np.ndarray):
        self.rv = rv
        self.sv = sv
        self.keep = keep

    def __len__(self) -> int:
        return int(np.count_nonzero(self.keep))

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        i, j = np.nonzero(self.keep)
        return self.rv[i], self.sv[j]


def _product_grid(rv: np.ndarray, sv: np.ndarray, minimal_only: bool) -> BoxGrid:
    """The nonsingular cells of the product rv x sv; with minimal_only, only
    the minimal models among them.

    A nonsingular model is non-minimal when some prime has p^4 | r and
    p^6 | s; such a p satisfies p^4 <= |r| or p^6 <= |s|.
    """
    keep = np.add.outer(4 * rv**3, 27 * sv**2) != 0
    if minimal_only and keep.size:
        rtop, stop = int(np.abs(rv).max()), int(np.abs(sv).max())
        for p in sieve_primes(max(int_root(rtop, 4), int_root(stop, 6))):
            keep &= (rv % p**4 != 0)[:, None] | (sv % p**6 != 0)
    return BoxGrid(rv, sv, keep)


def _box_axes(T: float) -> tuple[np.ndarray, np.ndarray]:
    """The r and s values of the box as int64 arrays.  A T is rejected first
    when it is below 1, when the discriminants -16 (4 r^3 + 27 s^2) overflow
    int64, or when the box has more cells than 8 bytes each (the int64 outer
    sum of the singular filter) fit in the machine's physical memory."""
    if T < 1:
        raise ValueError("the box family requires T >= 1")
    rmax, smax = int_root(T, 3), int_root(T, 2)
    if 16 * (4 * rmax**3 + 27 * smax**2) >= 2**63:
        raise ValueError(f"T = {T:g} is too large: the box's discriminants exceed int64")
    _check_memory(8 * (2 * rmax + 1) * (2 * smax + 1), f"T = {T:g} is too large: the box")
    return np.arange(-rmax, rmax + 1, dtype=np.int64), np.arange(-smax, smax + 1, dtype=np.int64)


def _box(T: float, minimal_only: bool = True) -> BoxGrid:
    """The unweighted nonsingular box family as a grid; the default gives
    C(T), minimal_only=False gives D(T)."""
    return _product_grid(*_box_axes(T), minimal_only)


def _weighted_axes(T: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rv, sv, wr, ws): the box's r and s values of positive weight, and
    those weights."""
    rv, sv = _box_axes(T)
    wr = np.asarray(_BOX_WEIGHT(rv * T ** (-1 / 3)), dtype=np.float64)
    ws = np.asarray(_BOX_WEIGHT(sv * T ** (-1 / 2)), dtype=np.float64)
    rin, sin = wr > 0, ws > 0
    return rv[rin], sv[sin], wr[rin], ws[sin]


def _weighted_grid(T: float) -> tuple[BoxGrid, np.ndarray]:
    """The minimal family inside the weight support, and each member's weight.

    Rows and columns of zero weight are dropped before the filters run.
    """
    rv, sv, wr, ws = _weighted_axes(T)
    grid = _product_grid(rv, sv, True)
    return grid, np.multiply.outer(wr, ws)[grid.keep]


def S_T(T: float) -> float:
    """Weighted count sum_{E in C} w_T(E)."""
    return math.fsum(_weighted_grid(T)[1].tolist())


# ---------------------------------------------------------------------------
# explicit-formula prime sums


def U1(curve: Curve, X: float, primes: list[int]) -> float:
    """-sum_{5 <= p <= X} (log p / p) h_X(log p) a_p(E), in increasing p; primes must reach X."""
    total = 0.0
    for p in primes:
        if 5 <= p <= X:
            total += -(math.log(p) / p) * h_X(math.log(p), X) * ap(curve, p).ap
    return total


def U2(curve: Curve, X: float, primes: list[int]) -> float:
    """sum_{p >= 5, p^2 <= X} c_{p^2}(E) 2 log p h_X(2 log p), in increasing p; primes must reach sqrt(X)."""
    total = 0.0
    for p in primes:
        if p >= 5 and p * p <= X:
            total += c_pk(ap(curve, p), 2) * 2 * math.log(p) * h_X(2 * math.log(p), X)
    return total


def rank_bound(curve: Curve, X: float, C0: float = 0.0) -> float:
    """log(N_surrogate)/log X + (2/log X) U1 + (2/log X) U2 + C0/log X."""
    primes = sieve_primes(int(X))
    logX = math.log(X)
    n = conductor_surrogate(curve)
    u1, u2 = U1(curve, X, primes), U2(curve, X, primes)
    return math.log(n) / logX + (2.0 / logX) * u1 + (2.0 / logX) * u2 + C0 / logX


def _add_terms(u1: np.ndarray, u2: np.ndarray, sig: np.ndarray, p: int, X: float, bad) -> None:
    """Add one prime's explicit-formula terms of the int64 traces sig to u1 and u2.

    The U1 term is -(log p / p) h_X(log p) a_p; the U2 term, only while
    p^2 <= X, is c_{p^2} (2 log p) h_X(2 log p), whose good / bad case
    comes from bad(), the cells with p | Delta, asked for only then.
    Each term equals the one the scalar U1 / U2 add for that curve, bit
    for bit.
    """
    lp = math.log(p)
    u1 += -(lp / p) * h_X(lp, X) * sig
    if p * p <= X:
        c = np.where(bad(), -(sig * sig) / (2.0 * p * p), -(sig * sig - 2.0 * p) / (2.0 * p * p))
        u2 += c * 2.0 * lp * h_X(2.0 * lp, X)


def prime_sums(R: np.ndarray, S: np.ndarray, X: float, lo: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """(U1, U2) arrays of the broadcast shape of R and S, from one sieve of
    the primes lo <= p <= X (lo >= 5).

    R and S are int64 coefficients of (minimal) models and broadcast like
    the arguments of sigma_p_batch: flat arrays, or rv[:, None], sv for a
    grid.  Each prime's terms are added with += from 0.0 in increasing p,
    so memory is O(curves) and each element equals the scalar U1 / U2
    (lo = 5) bit for bit.  The bad primes of c_{p^2} are read off the
    residues, since p | Delta depends only on r and s mod p.
    """
    u1 = np.zeros(np.broadcast_shapes(np.shape(R), np.shape(S)))
    u2 = np.zeros(u1.shape)
    for p in sieve_primes(int(X), lo):
        rm, sm = R % p, S % p
        # bound until the next prime's traces exist, so the heap keeps their
        # size: the box's next arrays reuse it instead of faulting in new pages
        sig = sigma_p_batch(rm, sm, p)
        # |discriminant(rm, sm)| < 64 p^3 + 432 p^2 fits int64 for X < 2.5e11
        _add_terms(u1, u2, sig, p, X, lambda: discriminant(rm, sm) % p == 0)
    return u1, u2


def rank_bound_terms(
    grid: BoxGrid, X: float, C0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(log N_surrogate / log X, U1, U2, bound) arrays over grid.cells(),
    with bound = log N / log X + (2 / log X) U1 + (2 / log X) U2 + C0 / log X.

    The prime sums run on the whole rectangle and are cut to the kept
    cells once at the end.
    """
    u1, u2 = prime_sums(grid.rv[:, None], grid.sv, X)
    u1, u2 = u1[grid.keep], u2[grid.keep]
    logn_term = _conductor_grid(grid) / math.log(X)
    return logn_term, u1, u2, _bound(logn_term, u1, u2, X, C0)


def _bound(logn_term: np.ndarray, u1: np.ndarray, u2: np.ndarray, X: float, C0: float) -> np.ndarray:
    """The rank bound of every family: logn_term + (2 / log X) U1 + (2 / log X) U2 + C0 / log X."""
    logX = math.log(X)
    return logn_term + (2.0 / logX) * u1 + (2.0 / logX) * u2 + C0 / logX


def _strip_2_3(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|delta| without its factors 2 and 3, and log of the 2^8 3^5 part of N.

    Every delta must be nonzero and below 2^63 in absolute value, so the
    lowest set bit of |delta| is its whole power of 2.
    """
    if not delta.all():
        raise ValueError("the conductor surrogate needs a nonzero discriminant")
    rem = np.abs(delta)
    rem //= rem & -rem
    logn = np.full(len(delta), 8 * math.log(2))
    logn[delta % 3 == 0] += 5 * math.log(3)
    while (m := rem % 3 == 0).any():
        rem[m] //= 3
    return rem, logn


def _charge(R: np.ndarray, rem: np.ndarray, logn: np.ndarray, m: np.ndarray, p: int) -> None:
    """Charge p at the cells m, the indices of the cells p divides: add
    f_p log p to logn (f_p = 2 when p | r, else 1), then divide p out of rem."""
    if not len(m):
        return  # most primes divide no cell; numpy ops on empty arrays still cost
    logn[m] += np.where(R[m] % p != 0, 1.0, 2.0) * math.log(p)
    while len(m):
        rem[m] //= p
        m = m[rem[m] % p == 0]


def _add_leftover(R: np.ndarray, rem: np.ndarray, logn: np.ndarray) -> np.ndarray:
    """Add the cofactor left after trial division, a prime, with its exponent."""
    left = rem > 1
    if left.any():
        exp = np.where(R[left] % rem[left] != 0, 1.0, 2.0)
        logn[left] += exp * np.log(rem[left].astype(np.float64))
    return logn


def _conductor_batch(R: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """log of the conductor surrogate, vectorized over a family (the oracle)."""
    rem, logn = _strip_2_3(delta)
    top = int(rem.max()) if len(rem) else 1
    for p in sieve_primes(math.isqrt(top), 5):
        _charge(R, rem, logn, np.flatnonzero(rem % p == 0), p)
    return _add_leftover(R, rem, logn)


def _conductor_grid(grid: BoxGrid) -> np.ndarray:
    """_conductor_batch over grid.cells(), bit for bit, by root sieving.

    For p >= 5, p | Delta exactly when -4 r^3 = 27 s^2 (mod p).  Per prime
    the column residues are sorted and the row residues searched in them,
    so only the hit cells are divided, in ascending p with the same
    operands as _conductor_batch.  The residues are taken of -4 r^3 and
    27 s^2 themselves, which discriminant() already forms in int64, so no
    product of residues can overflow at large T.
    """
    R, S = grid.cells()
    rem, logn = _strip_2_3(discriminant(R, S))
    top = int(rem.max()) if len(rem) else 1
    r_term, s_term = -4 * grid.rv**3, 27 * grid.sv**2
    nr, ns = grid.keep.shape
    row = np.full(grid.keep.size, -1, dtype=np.int64)  # cell -> index into R
    row[grid.keep.ravel()] = np.arange(len(R))
    singular = np.count_nonzero(np.equal.outer(r_term, s_term))  # roots at every p
    for p in sieve_primes(math.isqrt(top), 5):
        a, b = r_term % p, s_term % p
        order = np.argsort(b)
        keys = b[order]
        lo = np.searchsorted(keys, a, "left")
        cnt = np.searchsorted(keys, a, "right") - lo
        hits = int(cnt.sum())
        if hits == singular:
            continue
        # the cells (i, order[lo[i] + t]) for t < cnt[i]
        i = np.repeat(np.arange(nr), cnt)
        j = order[np.arange(hits) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)]
        m = row[i * ns + j]
        m = m[m >= 0]  # singular and filtered-out cells are not members
        _charge(R, rem, logn, m[rem[m] % p == 0], p)  # exact roots always pass; keeps rem > 0
    return _add_leftover(R, rem, logn)


class RankBoundReport(NamedTuple):
    """Per-curve rank-bound terms plus weighted family aggregates.

    u1_over_logX and u2_over_logX are the weighted averages of raw U1 and
    U2 divided by log X (U2's is near 1/4 in the limit).
    """

    T: float
    X: float
    C0: float
    r: np.ndarray
    s: np.ndarray
    weight: np.ndarray
    logN_term: np.ndarray
    U1_term: np.ndarray
    U2_term: np.ndarray
    bound: np.ndarray
    S_T: float
    avg_logN_term: float
    avg_U1_term: float
    avg_U2_term: float
    avg_bound: float
    u1_over_logX: float
    u2_over_logX: float
    caveat: str = CAVEAT


def _wavg(w: np.ndarray, x: np.ndarray, wsum: float) -> float:
    return math.fsum((w * x).tolist()) / wsum if wsum else math.nan


def average_rank_experiment(T: float, X: float, C0: float = 0.0) -> RankBoundReport:
    """Weighted averages of every rank-bound term over the minimal family of
    the weighted box."""
    if T < 1:  # before T^(5/6), which is complex for a negative T
        raise ValueError("the box family requires T >= 1")
    if not 1 < X <= T ** (5 / 6):
        raise ValueError("average_rank_experiment requires 1 < X <= T^(5/6)")
    grid, W = _weighted_grid(T)
    if len(W) == 0:
        raise ValueError("empty family: weight support contains no lattice points")
    R, S = grid.cells()
    logX = math.log(X)
    logn_term, u1, u2, bound = rank_bound_terms(grid, X, C0)
    u1_term = (2.0 / logX) * u1
    u2_term = (2.0 / logX) * u2
    wsum = math.fsum(W.tolist())
    return RankBoundReport(
        T=T,
        X=X,
        C0=C0,
        r=R,
        s=S,
        weight=W,
        logN_term=logn_term,
        U1_term=u1_term,
        U2_term=u2_term,
        bound=bound,
        S_T=wsum,
        avg_logN_term=_wavg(W, logn_term, wsum),
        avg_U1_term=_wavg(W, u1_term, wsum),
        avg_U2_term=_wavg(W, u2_term, wsum),
        avg_bound=_wavg(W, bound, wsum),
        u1_over_logX=_wavg(W, u1, wsum) / logX,
        u2_over_logX=_wavg(W, u2, wsum) / logX,
    )


def lemma2_lhs(T: float, P: float) -> float:
    """sum_{P < p <= 2P} | sum_{E in D} w_T(E) sigma_p(E) |.

    The inner sum runs over every cell of positive weight, non-minimal
    models included.  No singular cell (-3 t^2, 2 t^3) has positive
    weight: there |s| <= 2 (T^(1/3) / 3)^(3/2) = 0.385 sqrt(T), and the
    weight of s / sqrt(T) vanishes below 1/2.
    """
    if P < 5:
        raise ValueError("lemma2_lhs requires P >= 5")
    rv, sv, wr, ws = _weighted_axes(T)
    W = np.multiply.outer(wr, ws)
    total = []
    for p in sieve_primes(int(2 * P), P + 1):
        sig = sigma_p_batch(rv[:, None], sv, p)
        total.append(abs(math.fsum((W * sig).ravel().tolist())))
    return math.fsum(total)
