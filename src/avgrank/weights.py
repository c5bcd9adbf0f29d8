"""Smooth cutoff functions and their Fourier transforms.

The triangular weight h and its Fejer transform h_hat are the test
functions of the explicit formula; the C-infinity bumps realize the
abstract weight classes used for curve and twist counting; kernel_k is
the near-characteristic kernel whose flat top isolates an unweighted
prime sum.

Fourier convention: f_hat(t) = int e^{-2 pi i x t} f(x) dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class SmoothWeight:
    """Nonnegative weight, exactly zero outside its (closed) support."""

    support: tuple[float, float]
    smoothness: str  # "triangular" | "C3" | "C-infinity"
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
    return SmoothWeight(support=(-1.0, 1.0), smoothness="triangular", evaluator=h)


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

    return SmoothWeight(support=(lo, hi), smoothness="C-infinity", evaluator=ev)


def even_bump(inner: float = 0.5, outer: float = 1.0) -> SmoothWeight:
    """Even weight supported on +-[inner, outer]; zero near the origin.

    This is the concrete realization of the curve-counting weights, which
    must be smooth, compactly supported and vanish at the origin.
    """
    if not 0 < inner < outer:
        raise ValueError("even_bump requires 0 < inner < outer")
    half = bump(inner, outer)

    def ev(x):
        return half.evaluator(np.abs(np.asarray(x, dtype=np.float64)))

    return SmoothWeight(support=(-outer, outer), smoothness="C-infinity", evaluator=ev)


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

    return SmoothWeight(support=(lo, hi), smoothness="C-infinity", evaluator=ev)


def fourier_numeric(weight: SmoothWeight, t: float, epsabs: float = 1e-10) -> complex:
    """f_hat(t) by adaptive quadrature over the compact support."""
    # imported here: scipy.integrate is most of the package's import time
    from scipy.integrate import quad

    lo, hi = weight.support

    def f(x):
        return float(weight(x))

    if t == 0:
        re, err_re = quad(f, lo, hi, epsabs=epsabs * 0.5, epsrel=1e-12, limit=400)
        im, err_im = 0.0, 0.0
    elif abs(t) * (hi - lo) <= 8.0:
        # few oscillations: plain adaptive quadrature certifies much
        # tighter error bounds than the oscillatory rule here
        w = 2.0 * math.pi * t
        re, err_re = quad(lambda x: f(x) * math.cos(w * x), lo, hi, epsabs=epsabs * 0.5, epsrel=1e-12, limit=400)
        im, err_im = quad(lambda x: f(x) * math.sin(w * x), lo, hi, epsabs=epsabs * 0.5, epsrel=1e-12, limit=400)
        im = -im
    else:
        w = 2.0 * math.pi * t
        re, err_re = quad(f, lo, hi, weight="cos", wvar=w, epsabs=epsabs * 0.5, epsrel=1e-12, limit=400)
        im, err_im = quad(f, lo, hi, weight="sin", wvar=w, epsabs=epsabs * 0.5, epsrel=1e-12, limit=400)
        im = -im
    if err_re + err_im > epsabs:
        raise QuadratureError(
            f"quadrature failure at t={t}: error estimate {err_re + err_im:.3e}"
        )
    return complex(re, im)


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
