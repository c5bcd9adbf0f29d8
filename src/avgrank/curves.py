"""The curve model y^2 = x^3 + r x + s and its Frobenius traces.

Traces a_p are computed by two independent scalar routes: a real
Legendre-symbol sum (sigma_p) and the complex double exponential sum
divided by the Gauss sum (sigma_p_charsum).  Both are valid for p >= 5
even at primes of singular reduction.  They serve as oracles.

Batch evaluation rests on the twist-class identity

    sigma_p(r, s) = chi(r s) * sigma_p(k, k),   k = r^3 s^-2 mod p,

for p >= 5 and r s != 0 (mod p), chi the Legendre symbol mod p.  Proof
sketch: with f(x) = x^3 + r x + s and d != 0 (mod p), the substitution
x -> d x gives f_{d^2 r, d^3 s}(d x) = d^3 f(x), so
sigma_p(d^2 r, d^3 s) = chi(d^3) sigma_p(r, s) = chi(d) sigma_p(r, s).
Taking d = r / s makes both coefficients r^3 / s^2 = k, and
chi(r / s) = chi(r s).  This is the quadratic-twist and isomorphism-class
argument for short Weierstrass models (H. Cohen, A Course in
Computational Algebraic Number Theory, Springer GTM 138, chapter 7).

Every trace a prime can produce therefore lies in three tables of length
p: a_p(k, k), a_p(0, s) and a_p(r, 0).  Each is one cyclic correlation
with chi (character-sum point counting, Cohen ch. 7):

    a_p(k, k) = -(chi(-1) + sum_v H(v) chi(v + k)),
        H(v) = sum_{u != 0, g(u) = v} chi(u),  g(u) = (u - 1)^3 / u,

from x = u - 1 and (u - 1)^3 + k u = u (g(u) + k), the u = 0 term
giving chi(-1);

    a_p(0, s) = -sum_c N3(c) chi(c + s),   N3(c) = #{x : x^3 = c},
    a_p(r, 0) = -sum_c Q(c) chi(c + r),    Q(c) = sum_{x^2 = c} chi(x),

from x^3 + r x = x (x^2 + r).  _class_tables computes the three
correlations with numpy.fft in O(p log p), rounds them, and raises
NumericalDriftError if any value was 0.25 or more from its integer
(certificate: the exact values are integers bounded by 2 sqrt(p) + 1,
so float64 leaves a wide margin).  sigma_p_batch is the one gather: it
takes any two coefficient arrays that broadcast, flat pairs or a product
grid rv[:, None] x sv.  For r s != 0 (mod p), chi(k) = chi(r^3 s^-2) =
chi(r), so the row sign folds into the table:
chi(r s) a_p(k, k) = (chi a_p(., .))(k) * chi(s), one gather and one
multiply per cell.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import factorize, gauss_sum, residue_table, sieve_primes

__all__ = [
    "Curve",
    "TraceData",
    "NumericalDriftError",
    "discriminant",
    "is_minimal",
    "star_map",
    "sigma_p",
    "sigma_p_batch",
    "sigma_p_charsum",
    "ap",
    "c_pk",
    "conductor_surrogate",
]

# sigma_p_charsum raises at a residual this large, in the real or imaginary part
_CHARSUM_TOL = 1e-6


class NumericalDriftError(RuntimeError):
    """A floating-point character sum or correlation drifted away from an integer."""


def discriminant(r: int, s: int) -> int:
    """Delta = -16 (4 r^3 + 27 s^2), exact."""
    return -16 * (4 * r**3 + 27 * s**2)


class Curve:
    """y^2 = x^3 + r x + s, with its discriminant."""

    __slots__ = ("r", "s", "delta")

    def __init__(self, r: int, s: int):
        self.r = r
        self.s = s
        self.delta = discriminant(r, s)

    @property
    def singular(self) -> bool:
        return self.delta == 0


class TraceData:
    """a_p of a minimal model; bad is true iff p divides its discriminant."""

    __slots__ = ("p", "ap", "bad")

    def __init__(self, p: int, ap: int, bad: bool):
        if ap * ap > 4 * p:
            raise ValueError(f"Hasse bound violated: a_{p} = {ap}")
        if bad and ap not in (-1, 0, 1):
            raise ValueError(f"bad prime {p} must have a_p in {{-1,0,1}}")
        self.p = p
        self.ap = ap
        self.bad = bad


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _minimality_bound(r: int, s: int) -> int:
    """A bound on every p with p^4 | r and p^6 | s, for (r, s) != (0, 0)."""
    if r == 0:
        return round(abs(s) ** (1 / 6)) + 1
    if s == 0:
        return round(abs(r) ** (1 / 4)) + 1
    return min(round(abs(r) ** (1 / 4)), round(abs(s) ** (1 / 6))) + 1


def is_minimal(r: int, s: int) -> bool:
    """No prime p has p^4 | r and p^6 | s.  (0, 0) counts as non-minimal."""
    if r == 0 and s == 0:
        return False
    for p in sieve_primes(_minimality_bound(r, s)):
        p4, p6 = p**4, p**6
        if r % p4 == 0 and s % p6 == 0:
            return False
    return True


def star_map(r: int, s: int) -> tuple[Curve, int]:
    """Maximal d with d^4 | r and d^6 | s, plus the minimal quotient curve."""
    if r == 0 and s == 0:
        raise ValueError("star_map undefined at (0, 0)")
    d = 1
    for p in sieve_primes(_minimality_bound(r, s)):
        er = _valuation(r, p) // 4 if r != 0 else None
        es = _valuation(s, p) // 6 if s != 0 else None
        e = min(x for x in (er, es) if x is not None)
        d *= p**e
    return Curve(r // d**4, s // d**6), d


def sigma_p(r: int, s: int, p: int) -> int:
    """-sum_x ((x^3 + r x + s)/p) over x mod p; equals a_p for p >= 5."""
    if p < 5:
        raise ValueError("sigma_p requires p >= 5")
    tab = residue_table(p)
    x = np.arange(p, dtype=np.int64)
    f = ((x * x % p) * x % p + (r % p) * x + s % p) % p
    return -int(tab[f].sum())


def _powmod(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p elementwise for int64 residues 0 <= a < p < 3e9."""
    out = np.ones_like(a)
    base = a.copy()
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _certified_round(vals: np.ndarray, what: str) -> np.ndarray:
    """Round float correlations to integers; a residual of 0.25 or more raises."""
    n = np.rint(vals)
    worst = float(np.abs(vals - n).max(initial=0.0))
    if worst >= 0.25:
        raise NumericalDriftError(f"{what}: correlation residual {worst:.3g} >= 0.25")
    return n


@lru_cache(maxsize=256)
def _class_tables(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a_p(k, k), a_p(0, s), a_p(r, 0)) at every residue, by FFT correlation.

    Each table is -sum_v h(v) chi(v + k) for a histogram h over F_p (see
    the module docstring), computed as one cyclic correlation of length
    p with chi, zero-padded to a power of two n >= 2p - 1 against two
    periods of chi so that no index wraps.  O(p log p) per prime.  The
    tables are int16 (|a_p| <= 2 sqrt(p) fits for p < 2^28), 6p bytes.
    """
    chi = residue_table(p).astype(np.float64)
    x = np.arange(p, dtype=np.int64)
    u = x[1:]
    w = u - 1
    g = (w * w % p) * w % p * _powmod(u, p - 2, p) % p  # (u - 1)^3 / u
    hist = np.stack(
        (
            np.bincount(g, weights=chi[1:], minlength=p),  # H(v)
            np.bincount((x * x % p) * x % p, minlength=p),  # cubes
            np.bincount(x * x % p, weights=chi, minlength=p),  # squares signed by chi(x)
        )
    )
    n = 1 << (2 * p - 2).bit_length()
    spec = np.conj(np.fft.rfft(hist, n)) * np.fft.rfft(np.tile(chi, 2), n)
    corr = _certified_round(np.fft.irfft(spec, n)[:, :p], f"class tables at p={p}")
    kk, zs, rz = (-corr).astype(np.int16)
    kk -= int(chi[p - 1])
    for t in (kk, zs, rz):
        t.setflags(write=False)
    return kk, zs, rz


def sigma_p_batch(r: np.ndarray, s: np.ndarray, p: int) -> np.ndarray:
    """sigma_p for many curves at once, gathered from the class tables.

    r and s are int64 arrays that broadcast: flat pairs, or rv[:, None]
    and sv for a product grid (a caller with Python-int coefficients
    reduces them mod p first).  A cell with r s != 0 (mod p) reads
    chi(k) a_p(k, k) chi(s) with
    k = r^3 s^-2 mod p (see the module docstring); a cell with r = 0 or
    s = 0 (mod p) reads a_p(0, s) or a_p(r, 0).  Each prime costs the
    O(p log p) tables once (cached) plus O(N log p) array passes, where
    the cube and inverse run on r and s before they broadcast.  The
    result is int64 and exactly sigma_p at every cell.
    """
    if p < 5:
        raise ValueError("sigma_p_batch requires p >= 5")
    rm = np.asarray(r, dtype=np.int64) % p
    sm = np.asarray(s, dtype=np.int64) % p
    kk, zs, rz = _class_tables(p)
    chi = residue_table(p)
    r3 = (rm * rm % p) * rm % p
    k = r3 * _powmod(sm, p - 3, p) % p  # s^(p-3) = s^-2; k = 0 where r s = 0
    out = (kk.astype(np.int64) * chi)[k] * chi[sm]
    np.copyto(out, zs[sm], where=rm == 0)
    np.copyto(out, rz[rm], where=sm == 0)
    return out


@lru_cache(maxsize=64)
def _t_sum_table(p: int) -> np.ndarray:
    """g[v] = sum_t (t/p) e_p(t v), complex, by direct summation.

    The double sum of the trace formula regroups exactly as
    sum_x g[(x^3 + r x + s) mod p]; building g costs O(p^2) once per prime.
    """
    tab = residue_table(p).astype(np.float64)
    tv = np.arange(p, dtype=np.int64)
    phases = np.exp(2j * np.pi * (tv[:, None] * tv[None, :] % p) / p)
    g = (tab[:, None] * phases).sum(axis=0)
    g.setflags(write=False)
    return g


def sigma_p_charsum(r: int, s: int, p: int) -> int:
    """Trace via the complex double sum -tau_p^{-1} sum_{t,x} (t/p) e_p(t(x^3+rx+s)).

    The t = 0 terms vanish since (0/p) = 0.  The result is rounded to the
    nearest integer; residuals of _CHARSUM_TOL or more raise NumericalDriftError.
    """
    if p < 5:
        raise ValueError("sigma_p_charsum requires p >= 5")
    g = _t_sum_table(p)
    x = np.arange(p, dtype=np.int64)
    f = ((x * x % p) * x % p + (r % p) * x + s % p) % p
    val = -complex(g[f].sum()) / gauss_sum(p)
    n = round(val.real)
    if abs(val.imag) >= _CHARSUM_TOL or abs(val.real - n) >= _CHARSUM_TOL:
        raise NumericalDriftError(
            f"sigma_p_charsum residual too large at (r={r}, s={s}, p={p}): {val}"
        )
    return n


def ap(curve: Curve, p: int) -> TraceData:
    """Frobenius trace of a minimal nonsingular curve at p >= 5."""
    if curve.singular:
        raise ValueError("ap requires a nonsingular curve")
    if not is_minimal(curve.r, curve.s):
        raise ValueError(
            "ap requires a minimal model; apply star_map first "
            "(sigma_p of the unreduced curve is a different quantity)"
        )
    a = sigma_p(curve.r, curve.s, p)
    return TraceData(p=p, ap=a, bad=curve.delta % p == 0)


def c_pk(trace: TraceData, k: int) -> float:
    """Explicit-formula coefficient c_{p^k} for k in {1, 2}.

    k=1: -a_p / p in both good and bad cases.
    k=2: good reduction uses alpha^2 + conj(alpha)^2 = a_p^2 - 2p.
    """
    p, a = trace.p, trace.ap
    if k == 1:
        return -a / p
    if k == 2:
        if trace.bad:
            return -(a * a) / (2 * p * p)
        return -(a * a - 2 * p) / (2 * p * p)
    raise ValueError("c_pk supports k in {1, 2}")


def conductor_surrogate(curve: Curve) -> int:
    """Documented conservative upper bound for the conductor.

    N = 2^8 * 3^5^[3 | Delta] * prod_{p >= 5, p | Delta} p^{f_p} with
    f_p = 1 when p does not divide r and f_p = 2 otherwise.  Exact local
    analysis at 2 and 3 is deliberately replaced by the worst-case
    exponents, so log(N) keeps the rank bound an upper bound.  The primes
    of Delta come from arith.factorize.
    """
    if curve.singular:
        raise ValueError("conductor_surrogate requires a nonsingular curve")
    cond = 2**8
    for p in factorize(abs(curve.delta)):
        if p == 3:
            cond *= 3**5
        elif p >= 5:
            cond *= p if curve.r % p != 0 else p * p
    return cond
