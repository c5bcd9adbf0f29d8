"""Quadratic twist families D y^2 = x^3 + r x + s.

Root numbers propagate from the base curve by w_D = w * sign(D) * chi_D(N);
the twist set splits by (k, delta, e): sign of D, 2-adic valuation, and the
residue mod 8 of the odd squarefree part.  The average-rank experiment
walks the fundamental discriminants selected by a smooth weight and
reduces each twisted curve to its minimal model.  The prime sums of all
minimal twists then come from families.prime_terms, the batch route of
the box family, on Python-int arrays; each curve's U1 and U2 are the
math.fsum of its row of terms, exactly as the scalar U1 / U2 sum them.
The traces are those of the minimal models, not chi_D(p) a_p(E): the two
differ when p | D and star_map divides p out of the twist.

poisson_twist_check verifies the Poisson / Gauss-sum dual-sum identity
used to average character sums over twists, by computing both sides
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .arith import (
    PrimeTable,
    factorize,
    gcd,
    is_fundamental_discriminant,
    kronecker,
    legendre,
    moebius,
    sieve_primes,
    squarefree_kernel,
)
from .curves import Curve, conductor_surrogate, sigma_p, star_map
from .families import fsum_rows, prime_terms
from .weights import QuadratureError, SmoothWeight, fourier_numeric

__all__ = [
    "TwistFamily",
    "TwistReport",
    "IdentityViolatedError",
    "twist_curve",
    "root_number",
    "fundamental_discriminants",
    "enumerate_T_pm",
    "class_decompose",
    "sieve_indicator_X",
    "twist_average_experiment",
    "twisted_pnt_sum",
    "poisson_twist_check",
    "theorem4_proportions",
]


class IdentityViolatedError(RuntimeError):
    """Both sides of the dual-sum identity disagree beyond tolerance."""


@dataclass(frozen=True)
class TwistFamily:
    base: Curve
    N: int  # conductor of the base curve (supplied or surrogate)
    w: int  # root number of the base curve, +-1 (supplied)
    sign: int  # which of the two root-number classes to enumerate
    weight: SmoothWeight
    class_triple: tuple[int, int, int] | None = None  # optional (k, delta, e) filter

    def __post_init__(self):
        if self.w not in (-1, 1) or self.sign not in (-1, 1):
            raise ValueError("w and sign must be +-1")
        if self.N < 1:
            raise ValueError("N must be positive")
        lo, hi = self.weight.support
        if not (hi <= 0 or lo >= 0):
            raise ValueError("twist weight support must avoid 0")
        if self.class_triple is not None:
            k, delta, e = self.class_triple
            if k not in (1, 3, 5, 7) or delta not in (-1, 1) or e not in (0, 2, 3):
                raise ValueError(f"invalid class triple {self.class_triple}")
            if (delta > 0) != (lo >= 0):
                raise ValueError("weight support sign must match delta")


def twist_curve(base: Curve, D: int) -> Curve:
    """Short-Weierstrass model of the twist: (r D^2, s D^3)."""
    if D == 0:
        raise ValueError("twist by 0 is undefined")
    return Curve(base.r * D * D, base.s * D**3)


def root_number(w: int, D: int, N: int) -> int:
    """w_D = w * (D / |D|) * chi_D(N), for gcd(D, N) = 1."""
    if gcd(D, N) != 1:
        raise ValueError(f"root_number requires gcd(D, N) = 1, got D={D}, N={N}")
    return w * (1 if D > 0 else -1) * kronecker(D, N)


def fundamental_discriminants(lo: int, hi: int) -> Iterator[int]:
    """Fundamental discriminants D with lo <= D <= hi, ascending."""
    lo, hi = int(math.ceil(lo)), int(math.floor(hi))
    if hi < lo:
        return
    vals = np.arange(lo, hi + 1)
    sf = np.ones(len(vals), dtype=bool)  # squarefree flags for vals
    top = max(abs(lo), abs(hi), 1)
    for p in sieve_primes(math.isqrt(top)):
        p2 = p * p
        sf[(-lo) % p2 :: p2] = False
    keep = (vals != 0) & (vals % 4 == 1) & sf
    # D = 4m with m squarefree, m = 2 or 3 mod 4: test m via sf at index 4m
    mult4 = (vals != 0) & (vals % 4 == 0)
    m = vals // 4
    in_range = (m * 4 >= lo) & (m * 4 <= hi)
    keep |= mult4 & in_range & np.isin(m % 4, (2, 3)) & _squarefree_mask(m)
    for D in vals[keep]:
        yield int(D)


def _squarefree_mask(vals: np.ndarray) -> np.ndarray:
    """Boolean squarefree flags for an arbitrary integer array (0 -> False)."""
    out = vals != 0
    if not out.any():
        return out
    top = int(np.abs(vals).max())
    for p in sieve_primes(math.isqrt(top)):
        out &= vals % (p * p) != 0
    return out


def enumerate_T_pm(family: TwistFamily, T: float) -> Iterator[tuple[int, float]]:
    """(D, w(D/T)) over fundamental D with gcd(D, N) = 1 and w_D = family.sign.

    Emitted in increasing order of D; zero-weight discriminants are skipped.
    """
    if T < 1:
        raise ValueError("enumerate_T_pm requires T >= 1")
    lo, hi = family.weight.support
    for D in fundamental_discriminants(lo * T, hi * T):
        if gcd(D, family.N) != 1:
            continue
        wv = float(family.weight(D / T))
        if wv == 0.0:
            continue
        if root_number(family.w, D, family.N) != family.sign:
            continue
        if family.class_triple is not None:
            k, delta, e, _ = class_decompose(D)
            if (k, delta, e) != family.class_triple:
                continue
        yield D, wv


def class_decompose(D: int) -> tuple[int, int, int, int]:
    """D = delta * 2^e * nhat with nhat odd squarefree; returns (k, delta, e, nhat)
    where k = nhat mod 8."""
    if not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a fundamental discriminant")
    delta = 1 if D > 0 else -1
    n = abs(D)
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e not in (0, 2, 3):
        raise ValueError(f"2-adic valuation {e} of {D} not in {{0, 2, 3}}")
    nhat = squarefree_kernel(n)
    return nhat % 8, delta, e, nhat


def sieve_indicator_X(n: int, T: float, N: int) -> int:
    """X(n) = sum_{d | P, d^2 | n} mu(d), P = prod of odd primes <= log log T
    coprime to N.  Equals 1 unless some such prime has p^2 | n."""
    if n < 1 or n % 2 == 0:
        raise ValueError("sieve_indicator_X requires odd positive n")
    if T < 16:
        raise ValueError("sieve_indicator_X requires T >= 16")
    cut = math.log(math.log(T))
    ps = [p for p in sieve_primes(int(cut)) if p > 2 and N % p != 0]
    divisors = [1]
    for p in ps:
        divisors += [d * p for d in divisors]
    return sum(moebius(d) for d in divisors if n % (d * d) == 0)


@dataclass
class TwistReport:
    """Per-discriminant rank-bound terms and family aggregates for one sign."""

    T: float
    X: float
    C0: float
    sign: int
    empty: bool
    D: np.ndarray
    weight: np.ndarray
    logN_term: np.ndarray
    U1_raw: np.ndarray
    U2_raw: np.ndarray
    bound: np.ndarray
    logND2_term: np.ndarray  # diagnostic: log(N D^2) / log X upper bound
    W_total: float
    avg_logN_term: float
    avg_U1_term: float
    avg_U2_term: float
    avg_bound: float
    u1_over_logX: float
    u2_over_logX: float
    u2_deviation: float  # max |U2 - (log X)/4| / log log |D|
    class_sign_map: dict = field(default_factory=dict)


def twist_average_experiment(
    family: TwistFamily,
    T: float,
    X: float,
    C0: float = 0.0,
    primes: PrimeTable | None = None,
) -> TwistReport:
    """Explicit-formula averages over the selected twist class.

    Each twist is reduced to its minimal model before the prime sums are
    evaluated, all twists at once per prime; the conductor surrogate is
    fed the known prime divisors of D and of the base discriminant, and
    the crude N*D^2 bound is reported alongside as a diagnostic.
    """
    if not 1 < X <= T * T:
        raise ValueError("twist_average_experiment requires 1 < X <= T^2")
    if primes is None:
        primes = sieve_primes(int(X))
    logX = math.log(X)
    rows_D, rows_w, minimals, logns = [], [], [], []
    class_map: dict[tuple[int, int, int], set[int]] = {}
    base_primes = (
        tuple(factorize(abs(family.base.delta))) if family.base.delta else ()
    )
    for D, wv in enumerate_T_pm(family, T):
        twisted = twist_curve(family.base, D)
        minimal, _ = star_map(twisted.r, twisted.s)
        hints = base_primes + tuple(factorize(abs(D)))
        logns.append(math.log(conductor_surrogate(minimal, prime_hints=hints)))
        k, delta, e, _ = class_decompose(D)
        class_map.setdefault((k, delta, e), set()).add(family.sign)
        rows_D.append(D)
        rows_w.append(wv)
        minimals.append(minimal)
    if not rows_D:
        return TwistReport(
            T=T, X=X, C0=C0, sign=family.sign, empty=True,
            D=np.array([], dtype=np.int64), weight=np.array([]),
            logN_term=np.array([]), U1_raw=np.array([]), U2_raw=np.array([]),
            bound=np.array([]), logND2_term=np.array([]),
            W_total=0.0, avg_logN_term=math.nan, avg_U1_term=math.nan,
            avg_U2_term=math.nan, avg_bound=math.nan,
            u1_over_logX=math.nan, u2_over_logX=math.nan, u2_deviation=math.nan,
        )
    # Python ints: a twisted discriminant D^6 Delta_E / d^12 overflows int64
    R = np.array([c.r for c in minimals], dtype=object)
    S = np.array([c.s for c in minimals], dtype=object)
    disc = np.array([c.delta for c in minimals], dtype=object)
    terms = list(prime_terms(R, S, disc, X, primes))
    u1a = np.asarray(fsum_rows([t1 for _, t1, _ in terms], len(R)))
    u2a = np.asarray(fsum_rows([t2 for _, _, t2 in terms if t2 is not None], len(R)))
    lt = np.asarray(logns) / logX
    bound = lt + (2.0 / logX) * (u1a + u2a) + C0 / logX
    devs = [
        abs(u2 - logX / 4.0) / math.log(math.log(max(abs(D), 16)))
        for D, u2 in zip(rows_D, u2a.tolist())
    ]
    nd2_t = [math.log(family.N * D * D) / logX for D in rows_D]
    w = np.asarray(rows_w)
    wsum = math.fsum(rows_w)

    def wavg(x):
        return math.fsum((w * x).tolist()) / wsum

    return TwistReport(
        T=T, X=X, C0=C0, sign=family.sign, empty=False,
        D=np.asarray(rows_D, dtype=np.int64), weight=w,
        logN_term=lt, U1_raw=u1a, U2_raw=u2a, bound=bound,
        logND2_term=np.asarray(nd2_t),
        W_total=wsum,
        avg_logN_term=wavg(lt),
        avg_U1_term=wavg((2.0 / logX) * u1a),
        avg_U2_term=wavg((2.0 / logX) * u2a),
        avg_bound=wavg(bound),
        u1_over_logX=wavg(u1a) / logX,
        u2_over_logX=wavg(u2a) / logX,
        u2_deviation=max(devs),
        class_sign_map={k: sorted(v) for k, v in class_map.items()},
    )


def twisted_pnt_sum(base: Curve, D: int, x: float, primes: PrimeTable) -> float:
    """sum_{5 <= p <= x} (a_p(E) / p) chi_D(p) log p.

    Primes 2 and 3 are excluded throughout, matching the p >= 5 convention
    of every other prime sum here.
    """
    if x < 5:
        return 0.0
    if D != 1 and not is_fundamental_discriminant(D):
        raise ValueError("D must be 1 or a fundamental discriminant")
    terms = []
    for p in primes.in_range(5, x):
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


def poisson_twist_check(
    W: SmoothWeight, b: int, p: int, T: float, tol: float = 1e-6
) -> float:
    """Both sides of the Poisson dual-sum identity for psi_p = psi * (./p).

    Direct side: sum_n W(n/T) psi_p(n).  Dual side: T G(p)/q times the
    psi_p-weighted sum of W_hat(Tm/q) over m != 0 (the m = 0 term vanishes
    with psi_p(0)).  Returns the absolute difference; raises if >= tol.
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
    # keeps the neglected tail well under tol.  Each term is certified to
    # that floor, so the truncation test is judged on accurate values; a
    # floor beyond the reach of the quadrature fails at once.  W is real,
    # so W_hat(-t) = conj(W_hat(t)) and only positive frequencies need
    # quadrature.
    floor = tol * math.sqrt(q) / T * 1e-2
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
    if residual >= tol:
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
