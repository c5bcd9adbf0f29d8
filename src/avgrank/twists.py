"""Quadratic twist families D y^2 = x^3 + r x + s.

Root numbers propagate from the base curve by w_D = w * sign(D) * chi_D(N);
the twist set splits by (k, delta, e): residue mod 8 of the odd squarefree
part, sign of D, and 2-adic valuation.  twist_batch takes the fundamental
discriminants of one weight support as one int64 array and computes their
weights and root-number signs in array passes.  The average-rank
experiment takes the rows of nonzero weight from every support of a
command and reduces all of them to their minimal models in one array
pass, with d and the conductor surrogate read off the one factorisation
of the base discriminant and the residues of D.  Their prime sums use
a_p(E_D) = chi_D(p) a_p(E): the minimal twist is (u^2 r, u^3 s) mod p
with u = D / d^2, and the substitution of the curves module gives
sigma_p(u^2 r, u^3 s) = chi(u) sigma_p(r, s) = chi_D(p) sigma_p(r, s),
both sides 0 when p | D.  The one exception is p | d, where star_map
divides p out of the twist; d has only primes of Delta_E, so at each
prime p >= 5 off Delta_E the traces of all rows are one scalar sigma_p
of the base times one gather of the Legendre table at D mod p, and only
the few primes of Delta_E read the minimal models' own residues.  Each
curve's U1 and U2 equal the scalar U1 / U2 of its minimal twist bit for
bit, and memory stays O(rows).  Each root-number class is a mask of the
rows, summed once, and the class triples are read off the kept D.  The
scalar root_number, class_decompose, star_map and conductor_surrogate
are the oracles of these array steps.

poisson_twist_check verifies the Poisson / Gauss-sum dual-sum identity
used to average character sums over twists, by computing both sides
numerically.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .arith import (
    factorize,
    is_fundamental_discriminant,
    kronecker,
    legendre,
    moebius,
    residue_table,
    sieve_primes,
)
from .curves import Curve, _valuation, discriminant, sigma_p, sigma_p_batch
from .families import _add_terms, _bound, _wavg
from .weights import QuadratureError, SmoothWeight, fourier_numeric

__all__ = [
    "TwistReport",
    "TwistBatch",
    "IdentityViolatedError",
    "twist_curve",
    "root_number",
    "fundamental_discriminants",
    "twist_batch",
    "class_decompose",
    "sieve_indicator_X",
    "twist_average_experiment",
    "twisted_pnt_sum",
    "poisson_twist_check",
    "theorem4_proportions",
]

# poisson_twist_check raises at a residual this large; its dual-sum floor scales with it
_POISSON_TOL = 1e-6


class IdentityViolatedError(RuntimeError):
    """Both sides of the dual-sum identity disagree beyond tolerance."""


def twist_curve(base: Curve, D: int) -> Curve:
    """Short-Weierstrass model of the twist: (r D^2, s D^3)."""
    if D == 0:
        raise ValueError("twist by 0 is undefined")
    return Curve(base.r * D * D, base.s * D**3)


def root_number(w: int, D: int, N: int) -> int:
    """w_D = w * (D / |D|) * chi_D(N), for gcd(D, N) = 1."""
    if math.gcd(D, N) != 1:
        raise ValueError(f"root_number requires gcd(D, N) = 1, got D={D}, N={N}")
    return w * (1 if D > 0 else -1) * kronecker(D, N)


def fundamental_discriminants(lo: int, hi: int) -> Iterator[int]:
    """Fundamental discriminants D with lo <= D <= hi, ascending."""
    yield from _fundamental_array(lo, hi).tolist()


def _fundamental_array(lo: float, hi: float) -> np.ndarray:
    """The fundamental discriminants in [lo, hi] as one ascending int64 array.

    D = 1 mod 4 squarefree, or D = 4m with m = 2, 3 mod 4 squarefree; both
    squarefree tests are slice sieves by p^2, over [lo, hi] and over the
    range of m, with one list of primes.
    """
    lo, hi = int(math.ceil(lo)), int(math.floor(hi))
    if hi < lo:
        return np.array([], dtype=np.int64)
    ps = sieve_primes(math.isqrt(max(abs(lo), abs(hi), 1)))
    vals = np.arange(lo, hi + 1, dtype=np.int64)
    keep = (vals % 4 == 1) & _squarefree_flags(lo, hi, ps)
    mlo, mhi = -(-lo // 4), hi // 4
    if mlo <= mhi:
        m = np.arange(mlo, mhi + 1, dtype=np.int64)
        m = m[(m % 4 >= 2) & _squarefree_flags(mlo, mhi, ps)]
        keep[4 * m - lo] = True
    return vals[keep]


def _squarefree_flags(lo: int, hi: int, ps: list[int]) -> np.ndarray:
    """Squarefree flags of lo..hi (0 -> False); ps holds every p with p^2 <= max |n|."""
    sf = np.ones(hi - lo + 1, dtype=bool)
    for p in ps:
        p2 = p * p
        sf[(-lo) % p2 :: p2] = False
    if lo <= 0 <= hi:
        sf[-lo] = False
    return sf


class TwistBatch(NamedTuple):
    """The fundamental discriminants of one weight support coprime to N.

    Arrays over D ascending: the weights w(D / T), zeros included, and the
    twist sign sign(D) chi_D(N), so that w_D = w * twist_sign.  A batch
    serves both root-number classes of its (N, weight, T).
    """

    D: np.ndarray
    weights: np.ndarray
    twist_sign: np.ndarray


def twist_batch(N: int, weight: SmoothWeight, T: float) -> TwistBatch:
    """One array pass over the fundamental D in T * weight.support with gcd(D, N) = 1.

    chi_D is a character mod |D|, so chi_D(N) = chi_D(n) and
    gcd(D, N) = gcd(|D|, n) for the n = N mod |D| in [1, |D|].  After that
    one reduction, taken in Python ints so that N may exceed int64, every
    step runs on int64 arrays bounded by |D|.
    """
    if T < 1:
        raise ValueError("twist_batch requires T >= 1")
    lo, hi = weight.support
    if max(-lo, hi) * T >= 2**63:
        raise ValueError(f"T = {T:g} is too large: the discriminants exceed int64")
    D = _fundamental_array(lo * T, hi * T)
    absD = np.abs(D)
    n = ((N - 1) % absD.astype(object)).astype(np.int64) + 1
    keep = np.gcd(absD, n) == 1
    D, n = D[keep], n[keep]
    return TwistBatch(
        D=D,
        weights=np.asarray(weight(D / T), dtype=np.float64),
        twist_sign=np.sign(D) * _kronecker_array(D, n),
    )


def _two_adic(D: np.ndarray) -> np.ndarray:
    """The 2-adic valuation e in {0, 2, 3} of each fundamental discriminant."""
    return np.where(D % 4 == 0, np.where(D % 8 == 0, 3, 2), 0)


def _kronecker_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker symbol (a / b) elementwise, for int64 arrays with b > 0.

    The reciprocity algorithm of kronecker (Cohen, Alg. 1.4.10), one
    array pass per step; every value stays within max(|a|, b).
    """
    k = np.where((a % 2 == 0) & (b % 2 == 0), 0, 1)
    a, b = a.copy(), b.copy()
    sign_2 = (a % 8 == 3) | (a % 8 == 5)  # (a / 2) = -1
    while (m := b % 2 == 0).any():
        k[m & sign_2] *= -1
        b[m] //= 2
    a %= b
    while (live := a != 0).any():
        while (m := live & (a % 2 == 0)).any():
            k[m & ((b % 8 == 3) | (b % 8 == 5))] *= -1
            a[m] //= 2
        k[live & (a % 4 == 3) & (b % 4 == 3)] *= -1
        a[live], b[live] = b[live] % a[live], a[live]
    return np.where(b == 1, k, 0)


def _minimal_twists(
    base: Curve, D: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(R, S, Delta, N) of the minimal twists of base by the fundamental D.

    R, S and Delta are Python-int arrays equal to star_map of (r D^2, s D^3)
    and its discriminant D^6 Delta_E / d^12.  The scale d has only primes
    of Delta_E: an odd p | d needs p^2 | r and p^3 | s (or r = 0, s = 0),
    and 2 | d for every even D.  So d, and the primes of Delta, come from
    the factorisation of Delta_E and the residues of D.  N is the
    Python-int array of what conductor_surrogate returns: 2^8, 3^5 when
    3 | Delta, and p^{f_p} for p >= 5, where a prime of D outside Delta_E
    always gives p^2 (p^6 || Delta and p | R).  d and N stay Python ints:
    a prime of Delta_E may pass 2^31.5.
    """
    if base.singular:
        raise ValueError(f"base curve ({base.r}, {base.s}) is singular")
    r, s = base.r, base.s
    base_primes = sorted(factorize(abs(base.delta)))
    absD, e2 = np.abs(D), _two_adic(D)
    d = np.ones(len(D), dtype=object)
    for p in base_primes:
        if p > 2 and not ((r == 0 or r % p**2 == 0) and (s == 0 or s % p**3 == 0)):
            continue
        vD = e2 if p == 2 else (D % p == 0).astype(np.int64)
        ex = [(_valuation(c, p) + j * vD) // (2 * j) for c, j in ((r, 2), (s, 3)) if c]
        d *= np.power(p, np.minimum.reduce(ex), dtype=object)
    Do = D.astype(object)
    R = r * Do**2 // d**4
    S = s * Do**3 // d**6
    disc = discriminant(R, S)
    m = absD >> e2  # odd part of |D|; below, without 3 and the primes of Delta_E
    top = int(absD.max(initial=1))
    for p in sorted({3, *base_primes}):
        if 2 < p <= top:
            m = np.where(m % p == 0, m // p, m)
    three = (disc % 3 == 0).astype(bool)
    cond = m.astype(object) ** 2 * np.where(three, 2**8 * 3**5, 2**8).astype(object)
    for p in base_primes:
        if p >= 5:
            bad = (disc % p == 0).astype(bool)
            cond[bad] *= p
            cond[bad & (R % p == 0).astype(bool)] *= p
    return R, S, disc, cond


def class_decompose(D: int) -> tuple[int, int, int, int]:
    """D = delta * 2^e * nhat with nhat odd squarefree; returns (k, delta, e, nhat)
    where k = nhat mod 8."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    delta = 1 if D > 0 else -1
    f = factorize(abs(D))
    e = f.pop(2, 0)
    nhat = math.prod(f)
    return nhat % 8, delta, e, nhat


def sieve_indicator_X(n: int, T: float, N: int) -> int:
    """X(n) = sum_{d | P, d^2 | n} mu(d), P = prod of odd primes <= log log T
    coprime to N.  Equals 1 unless some such prime has p^2 | n."""
    if n < 1 or n % 2 == 0:
        raise ValueError("sieve_indicator_X requires odd positive n")
    if T < 16:
        raise ValueError("sieve_indicator_X requires T >= 16")
    cut = math.log(math.log(T))
    ps = [p for p in sieve_primes(int(cut), 3) if N % p != 0]
    divisors = [1]
    for p in ps:
        divisors += [d * p for d in divisors]
    return sum(moebius(d) for d in divisors if n % (d * d) == 0)


class TwistReport(NamedTuple):
    """Per-discriminant rank-bound terms of a twist family and the
    aggregates of its two root-number classes.

    The rows are the fundamental D coprime to N of nonzero weight in any
    of the weight supports, in ascending D, with the root number w_D as
    sign and the weight of their support.  W and avg_bound map each sign
    +1, -1 to the total weight and the weighted average bound of its
    class, NaN for an empty class; W_unsigned is the total weight of every
    admissible D, zeros included.  class_sign_map maps each class triple
    (k, delta, e) of the rows to the signs its rows take, ascending.
    """

    D: np.ndarray
    sign: np.ndarray
    weight: np.ndarray
    logN_term: np.ndarray
    U1_raw: np.ndarray
    U2_raw: np.ndarray
    bound: np.ndarray
    W_unsigned: float
    W: dict
    avg_bound: dict
    class_sign_map: dict


def twist_average_experiment(
    base: Curve,
    N: int,
    w: int,
    weights: Sequence[SmoothWeight],
    T: float,
    X: float,
    C0: float = 0.0,
) -> TwistReport:
    """Explicit-formula bounds over the twists of base in every weight support.

    N is the conductor of the base curve (supplied or surrogate) and w its
    root number.  One twist_batch per support gives the admissible D; the
    rows of nonzero weight from all supports are reduced to their minimal
    models in one array pass, one factorisation of Delta_E, and their prime
    sums taken all twists at once per prime, from chi_D(p) a_p(E) off
    Delta_E and from the minimal models at the primes of Delta_E.  The
    conductor surrogate takes the known prime divisors of D and of Delta_E.

    Each D has one sign, so each root-number class is a mask of the rows:
    W[sign] is the fsum of its weights and avg_bound[sign] the fsum of
    weight times bound over W[sign], each correctly rounded, whichever
    supports the rows come from.  The class triples of class_sign_map are
    read off the kept D.  W_unsigned is the plain left-to-right sum of
    every batch's weights, zeros included, in the order of weights.
    """
    if w not in (-1, 1):
        raise ValueError("w and sign must be +-1")
    if N < 1:
        raise ValueError("N must be positive")
    for weight in weights:
        lo, hi = weight.support
        if not (hi <= 0 or lo >= 0):
            raise ValueError("twist weight support must avoid 0")
    if not 1 < X <= T * T:
        raise ValueError("twist_average_experiment requires 1 < X <= T^2")
    batches = [twist_batch(N, weight, T) for weight in weights]
    # every batch's rows, support after support
    rows = TwistBatch(*(np.concatenate(col) for col in zip(*batches)))
    W_unsigned = 0.0
    for wv in rows.weights.tolist():
        W_unsigned += wv
    keep = np.flatnonzero(rows.weights != 0.0)
    keep = keep[np.argsort(rows.D[keep], kind="stable")]
    D, wt = rows.D[keep], rows.weights[keep]
    sign = w * rows.twist_sign[keep]
    # Python ints: a twisted discriminant D^6 Delta_E / d^12 overflows int64
    R, S, _, cond = _minimal_twists(base, D)
    u1a, u2a = np.zeros(len(D)), np.zeros(len(D))
    for p in sieve_primes(int(X), 5) if len(D) else ():
        if base.delta % p:  # a_p(E_D) = chi_D(p) a_p(E), and p | Delta exactly when p | D
            Dm = D % p
            # int64 before the product: from p = 4099 on, |a_p(E)| may pass the int8 range of the table
            sig = residue_table(p)[Dm].astype(np.int64) * sigma_p(base.r, base.s, p)
            _add_terms(u1a, u2a, sig, p, X, lambda: Dm == 0)
        else:  # p may divide d: the minimal models' own residues
            rm, sm = (np.asarray(c % p, dtype=np.int64) for c in (R, S))
            _add_terms(u1a, u2a, sigma_p_batch(rm, sm, p), p, X, lambda: discriminant(rm, sm) % p == 0)
    lt = np.array([math.log(n) for n in cond.tolist()]) / math.log(X)
    bound = _bound(lt, u1a, u2a, X, C0)
    W, avg_bound = {}, {}
    for s in (1, -1):
        m = sign == s
        W[s] = math.fsum(wt[m].tolist())
        avg_bound[s] = _wavg(wt[m], bound[m], W[s])
    e = _two_adic(D)
    classes = zip(((np.abs(D) >> e) % 8).tolist(), np.sign(D).tolist(), e.tolist(), sign.tolist())
    class_sign_map = {}
    for *triple, s in sorted(set(classes)):
        class_sign_map.setdefault(tuple(triple), []).append(s)
    return TwistReport(
        D=D, sign=sign, weight=wt,
        logN_term=lt, U1_raw=u1a, U2_raw=u2a, bound=bound,
        W_unsigned=W_unsigned, W=W, avg_bound=avg_bound,
        class_sign_map=class_sign_map,
    )


def twisted_pnt_sum(base: Curve, D: int, x: float) -> float:
    """sum_{5 <= p <= x} (a_p(E) / p) chi_D(p) log p.

    Primes 2 and 3 are excluded throughout, matching the p >= 5 convention
    of every other prime sum here.
    """
    if D != 1 and not is_fundamental_discriminant(D):
        raise ValueError("D must be 1 or a fundamental discriminant")
    terms = []
    for p in sieve_primes(int(x), 5):
        chi = kronecker(D, p) if D != 1 else 1
        if chi == 0:
            continue
        terms.append(sigma_p(base.r, base.s, p) / p * chi * math.log(p))
    return math.fsum(terms)


def _psi(b: int, n: int) -> int:
    """Real primitive character of conductor b (b = 1 means trivial)."""
    if b == 1:
        return 1
    return kronecker(b if b % 4 != 3 else -b, n)


def poisson_twist_check(W: SmoothWeight, b: int, p: int, T: float) -> float:
    """Both sides of the Poisson dual-sum identity for psi_p = psi * (./p).

    Direct side: sum_n W(n/T) psi_p(n).  Dual side: T G(p)/q times the
    psi_p-weighted sum of W_hat(Tm/q) over m != 0 (the m = 0 term vanishes
    with psi_p(0)).  Returns the absolute difference; raises if >= _POISSON_TOL.
    """
    if b % p == 0 or p < 3:
        raise ValueError("need an odd prime p not dividing b")
    q = b * p
    lo, hi = W.support
    if lo < 0:
        raise ValueError("poisson_twist_check expects a positively supported weight")

    # psi_p is periodic mod q: one table serves both sides and G
    chi = np.array([_psi(b, j) * legendre(j, p) for j in range(q)], dtype=np.float64)
    n = np.arange(int(math.ceil(lo * T)), int(math.floor(hi * T)) + 1)
    direct = math.fsum(W(n / T) * chi[n % q])

    G = complex(np.sum(chi * np.exp(2j * np.pi * np.arange(q) / q)))
    # The smooth W makes W_hat decay faster than any power, so the dual
    # sum truncates once a few consecutive terms drop below a floor that
    # keeps the neglected tail well under _POISSON_TOL.  Each term is certified to
    # that floor, so the truncation test is judged on accurate values; a
    # floor beyond the reach of the quadrature fails at once.  W is real,
    # so W_hat(-t) = conj(W_hat(t)) and only positive frequencies need
    # quadrature.
    floor = _POISSON_TOL * math.sqrt(q) / T * 1e-2
    dual = 0j
    misses = 0
    m = 1
    while misses < 4:
        if m > 5000:
            raise IdentityViolatedError(
                f"dual sum failed to converge by m={m} (b={b}, p={p}, T={T})"
            )
        try:
            wh = fourier_numeric(W, T * m / q, epsabs=floor)
        except QuadratureError as exc:
            raise IdentityViolatedError(
                f"dual-sum term m={m} cannot be certified to {floor:.3e} "
                f"(b={b}, p={p}, T={T}): {exc}"
            ) from exc
        dual += wh * chi[m % q] + wh.conjugate() * chi[-m % q]
        if abs(wh) < floor:
            misses += 1
        else:
            misses = 0
        m += 1
    dual *= T * G / q
    residual = float(abs(direct - dual))
    if residual >= _POISSON_TOL:
        raise IdentityViolatedError(
            f"Poisson dual-sum identity violated (b={b}, p={p}, T={T}): residual {residual:.3e}"
        )
    return residual


def theorem4_proportions(avg_plus: float, avg_minus: float) -> tuple[float, float]:
    """Lower bounds for the rank-0 share of the even class and the rank-1
    share of the odd class, given the two average-rank bounds."""
    if avg_plus < 0 or avg_minus < 0:
        raise ValueError("averages must be nonnegative")
    lower0 = min(1.0, max(0.0, 1.0 - avg_plus / 2.0))
    lower1 = min(1.0, max(0.0, 1.0 - (avg_minus - 1.0) / 2.0))
    return lower0, lower1
