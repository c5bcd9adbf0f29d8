"""Smooth cutoff functions and their Fourier transforms.

The triangular weight h and its Fejer transform h_hat are the test
functions of the explicit formula; the C-infinity bumps realize the
abstract weight classes used for curve and twist counting; kernel_k is
the near-characteristic kernel whose flat top isolates an unweighted
prime sum.

Fourier convention: f_hat(t) = int e^{-2 pi i x t} f(x) dx.

fourier_numeric computes f_hat for any SmoothWeight with numpy alone: an
adaptive composite 10-point Gauss-Legendre rule whose panel-against-halves
error estimates sum to at most the requested absolute error.  The same
rule serves the C-infinity bumps and the kinked piecewise-linear weights.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "SmoothWeight",
    "QuadratureError",
    "h",
    "h_hat",
    "h_X",
    "bump",
    "even_bump",
    "plateau_bump",
    "triangular_weight",
    "fourier_numeric",
    "kernel_k",
    "kernel_k_hat",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its error target."""


_ROUNDING = 8 * np.finfo(np.float64).eps  # per-panel floor, relative to the integral of |f|
_MAX_SPLITS = 4096  # bisections before fourier_numeric gives up


class SmoothWeight(NamedTuple):
    """Nonnegative weight, exactly zero outside its (closed) support."""

    support: tuple[float, float]
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        lo, hi = self.support
        inside = (t >= lo) & (t <= hi)
        out = np.zeros_like(t)
        if np.any(inside):
            out[inside] = self.evaluator(t[inside])
        if out.ndim == 0:
            return float(out)
        return out


def h(t):
    """Triangular weight: max(1 - |t|, 0)."""
    t = np.asarray(t, dtype=np.float64)
    out = np.maximum(1.0 - np.abs(t), 0.0)
    return float(out) if out.ndim == 0 else out


def h_hat(t):
    """Fejer kernel (sin(pi t) / (pi t))^2; value 1 at t = 0.

    A short series branch handles the removable singularity.
    """
    t = np.asarray(t, dtype=np.float64)
    small = np.abs(t) < 1e-4
    u = np.pi * t
    with np.errstate(divide="ignore", invalid="ignore"):
        main = (np.sin(u) / u) ** 2
    series = 1.0 - u * u / 3.0 + 2.0 * u**4 / 45.0
    out = np.where(small, series, main)
    return float(out) if out.ndim == 0 else out


def h_X(t, X: float):
    """Rescaled triangular weight h(t / log X), X >= 2."""
    if X < 2:
        raise ValueError("h_X requires X >= 2")
    return h(np.asarray(t, dtype=np.float64) / math.log(X))


def triangular_weight() -> SmoothWeight:
    return SmoothWeight(support=(-1.0, 1.0), evaluator=h)


def _bump_core(u):
    """exp(-1/(1-u^2)) on |u| < 1, 0 outside; all derivatives vanish at +-1."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def bump(support_lo: float, support_hi: float) -> SmoothWeight:
    """Standard C-infinity bump mapped onto [lo, hi]."""
    if not support_lo < support_hi:
        raise ValueError("bump requires support_lo < support_hi")
    lo, hi = float(support_lo), float(support_hi)

    def ev(x):
        u = (2.0 * np.asarray(x, dtype=np.float64) - lo - hi) / (hi - lo)
        return _bump_core(u)

    return SmoothWeight(support=(lo, hi), evaluator=ev)


def even_bump() -> SmoothWeight:
    """Even weight supported on +-[1/2, 1]; zero near the origin.

    This is the concrete realization of the curve-counting weights, which
    must be smooth, compactly supported and vanish at the origin.
    """
    half = bump(0.5, 1.0)

    def ev(x):
        return half.evaluator(np.abs(np.asarray(x, dtype=np.float64)))

    return SmoothWeight(support=(-1.0, 1.0), evaluator=ev)


def _smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = np.asarray(t, dtype=np.float64)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    pos = t > 0
    neg = (1.0 - t) > 0
    a[pos] = np.exp(-1.0 / t[pos])
    b[neg] = np.exp(-1.0 / (1.0 - t)[neg])
    return a / (a + b)


def plateau_bump(
    support_lo: float, support_hi: float, flat_lo: float, flat_hi: float
) -> SmoothWeight:
    """C-infinity weight, strictly positive inside its support, equal to 1 on
    [flat_lo, flat_hi]."""
    if not support_lo < flat_lo < flat_hi < support_hi:
        raise ValueError("need support_lo < flat_lo < flat_hi < support_hi")
    lo, hi, flo, fhi = map(float, (support_lo, support_hi, flat_lo, flat_hi))

    def ev(x):
        x = np.asarray(x, dtype=np.float64)
        return _smooth_step((x - lo) / (flo - lo)) * _smooth_step((hi - x) / (hi - fhi))

    return SmoothWeight(support=(lo, hi), evaluator=ev)


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 10-point Gauss-Legendre rule on [-1, 1].

    The literals are the values of numpy.polynomial.legendre.leggauss(10)
    bit for bit (tests/test_weights.py checks it), so no process loads
    numpy.polynomial or runs its eigensolve.
    """
    x = np.array([
        -0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
        -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
        0.8650633666889845, 0.9739065285171717,
    ])
    w = np.array([
        0.06667134430868814, 0.1494513491505804, 0.219086362515982, 0.2692667193099965,
        0.2955242247147528, 0.2955242247147528, 0.2692667193099965, 0.219086362515982,
        0.1494513491505804, 0.06667134430868814,
    ])
    return x, w


def _panel_sums(weight: SmoothWeight, t: float, a: np.ndarray, b: np.ndarray):
    """Gauss-Legendre sums of f(x) e^{-2 pi i x t} and of |f(x)| on each
    panel [a_k, b_k], from a single call of the weight."""
    x, w = _gauss_legendre()
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * x
    f = weight(nodes)
    fe = f * np.exp(-2j * math.pi * t * nodes)
    return (fe @ w) * half, (np.abs(f) @ w) * half


def fourier_numeric(weight: SmoothWeight, t: float, epsabs: float = 1e-10) -> complex:
    """f_hat(t) by adaptive composite Gauss-Legendre quadrature, certified
    to absolute error epsabs.

    The support is cut into max(16, ceil(|t| (hi - lo))) equal panels, so
    no panel holds more than one oscillation of e^{-2 pi i x t}; the
    16-panel minimum keeps a narrow feature (such as kernel_k's shoulder
    of width 1/X) from slipping between the nodes of a wide panel.  Each
    round compares, on every active panel, the 10-point rule on the whole
    panel with the sum of the rules on its two halves.  The error estimate
    is their difference plus a rounding floor of 8 eps times the integral
    of |f| on the panel.  A panel whose estimate is within its share
    epsabs * len / (hi - lo) contributes its two-halves value; the others
    are bisected, and all active panels of a round are evaluated with one
    call of the weight.  The accepted estimates sum to at most epsabs.
    The rule needs no smoothness: kinks (triangular, kernel_k) are found
    by bisection.  Raises QuadratureError once more than _MAX_SPLITS panels
    have been bisected.
    """
    lo, hi = weight.support
    t = float(t)
    edges = np.linspace(lo, hi, max(16, math.ceil(abs(t) * (hi - lo))) + 1)
    a, b = edges[:-1], edges[1:]
    m = 0.5 * (a + b)
    # the first round evaluates the whole panels in the same call as the halves
    s, mag = _panel_sums(weight, t, np.concatenate([a, m, a]), np.concatenate([m, b, b]))
    whole = s[2 * len(a):]
    done = []
    splits = 0
    while True:
        k = len(a)
        left, right = s[:k], s[k : 2 * k]
        both = left + right
        err = np.abs(whole - both) + _ROUNDING * (mag[:k] + mag[k : 2 * k])
        ok = err <= epsabs * (b - a) / (hi - lo)
        done.append(both[ok])
        bad = ~ok
        if not bad.any():
            return complex(np.sum(np.concatenate(done)))
        splits += int(bad.sum())
        if splits > _MAX_SPLITS:
            raise QuadratureError(
                f"quadrature failure at t={t}: error estimate {err[bad].sum():.3e} "
                f"on {int(bad.sum())} panels after {splits} panel splits"
            )
        a, m, b = a[bad], m[bad], b[bad]
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
        whole = np.concatenate([left[bad], right[bad]])
        m = 0.5 * (a + b)
        s, mag = _panel_sums(weight, t, np.concatenate([a, m]), np.concatenate([m, b]))


def kernel_k(t, X: float):
    """The flat-topped kernel (X h(t) - (X-1) h(t / (1 - 1/X))) / log^2 X.

    Algebraically this is piecewise linear:
      1 / log^2 X              for |t| <= 1 - 1/X   (the plateau, exact),
      X (1 - |t|) / log^2 X    for 1 - 1/X < |t| <= 1,
      0                        otherwise.
    """
    if X < 2:
        raise ValueError("kernel_k requires X >= 2")
    L2 = math.log(X) ** 2
    a = np.abs(np.asarray(t, dtype=np.float64))
    out = np.where(a <= 1.0 - 1.0 / X, 1.0 / L2, np.where(a <= 1.0, X * (1.0 - a) / L2, 0.0))
    return float(out) if out.ndim == 0 else out


def kernel_k_hat(t, X: float):
    """Fourier transform: X (sin^2(pi t) - sin^2(pi (1 - 1/X) t)) / (pi^2 t^2 log^2 X)."""
    if X < 2:
        raise ValueError("kernel_k_hat requires X >= 2")
    L2 = math.log(X) ** 2
    a = 1.0 - 1.0 / X
    t = np.asarray(t, dtype=np.float64)
    small = np.abs(t) < 1e-4
    u = np.pi * t
    with np.errstate(divide="ignore", invalid="ignore"):
        main = X * (np.sin(u) ** 2 - np.sin(a * u) ** 2) / (u * u)
    # sin^2(z) = z^2 - z^4/3 + 2 z^6/45 near 0
    series = X * ((1 - a**2) - u * u * (1 - a**4) / 3.0 + 2.0 * u**4 * (1 - a**6) / 45.0)
    out = np.where(small, series, main) / L2
    return float(out) if out.ndim == 0 else out
