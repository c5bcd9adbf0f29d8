import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avgrank.weights import (
    QuadratureError,
    SmoothWeight,
    _gauss_legendre,
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


def test_h_basic():
    assert h(0.0) == 1.0
    assert h(0.5) == 0.5
    assert h(-0.5) == 0.5
    assert h(1.0) == 0.0
    assert h(2.0) == 0.0
    arr = h(np.array([-2.0, 0.0, 0.25]))
    assert np.allclose(arr, [0.0, 1.0, 0.75])


def test_h_hat_values():
    assert h_hat(0.0) == 1.0
    assert abs(h_hat(0.5) - (math.sin(math.pi / 2) / (math.pi / 2)) ** 2) < 1e-15
    # zeros at nonzero integers
    for n in (1, 2, 3):
        assert abs(h_hat(float(n))) < 1e-25
    # series branch continuous with the main branch
    assert abs(h_hat(1e-4 - 1e-12) - h_hat(1e-4 + 1e-12)) < 1e-12


def test_h_hat_nonnegative():
    ts = np.linspace(-50, 50, 10001)
    assert (h_hat(ts) >= 0).all()


def test_h_X():
    assert h_X(0.0, 10.0) == 1.0
    assert h_X(math.log(10.0), 10.0) == 0.0
    assert abs(h_X(1.0, math.e**2) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        h_X(0.0, 1.5)


def test_fourier_numeric_matches_fejer():
    tw = triangular_weight()
    for t in [0.0, 0.1, 0.5, 1.0, 2.5, -3.3, 7.7]:
        val = fourier_numeric(tw, t)
        assert abs(val.real - h_hat(t)) < 1e-8
        assert abs(val.imag) < 1e-8  # even weight: real transform


def test_bump_properties():
    w = bump(1.0, 2.0)
    assert w(0.9) == 0.0 and w(2.1) == 0.0
    assert w(1.5) == math.exp(-1.0)
    assert w(1.25) > 0
    # C-infinity decay into the endpoints
    assert w(1.0 + 1e-9) < 1e-100 or w(1.0 + 1e-9) == 0.0


def test_even_bump_symmetric_vanishes_at_origin():
    w = even_bump()
    xs = np.linspace(-1.2, 1.2, 241)
    vals = w(xs)
    assert np.allclose(vals, vals[::-1])
    assert w(0.0) == 0.0
    assert w(0.75) > 0
    assert w(0.3) == 0.0  # inside the inner hole


def test_plateau_bump():
    w = plateau_bump(0.5, 2.5, 1.0, 2.0)
    for x in np.linspace(1.0, 2.0, 21):
        assert abs(w(float(x)) - 1.0) < 1e-12
    assert w(0.5) == 0.0 and w(2.5) == 0.0
    assert 0 < w(0.75) < 1 and 0 < w(2.25) < 1
    with pytest.raises(ValueError):
        plateau_bump(0.5, 2.5, 2.0, 1.0)


def test_quadrature_error_raised():
    w = bump(0.0, 1.0)
    with pytest.raises(QuadratureError):
        fourier_numeric(w, 0.3, epsabs=1e-16)


def test_kernel_k_plateau_and_shoulder():
    for X in (10.0, 100.0):
        L2 = math.log(X) ** 2
        edge = 1.0 - 1.0 / X
        for t in np.linspace(-edge, edge, 41):
            assert kernel_k(float(t), X) == 1.0 / L2  # exact, not approximate
        mid = edge + 0.5 / X
        assert abs(kernel_k(mid, X) - X * (1.0 - mid) / L2) < 1e-15
        assert kernel_k(1.0 + 1e-12, X) == 0.0


def test_kernel_k_is_the_h_combination():
    # k(t) = (X h(t) - (X-1) h(t/(1-1/X))) / log^2 X pointwise
    X = 7.0
    L2 = math.log(X) ** 2
    a = 1.0 - 1.0 / X
    for t in np.linspace(-1.5, 1.5, 301):
        combo = (X * h(float(t)) - (X - 1.0) * h(float(t) / a)) / L2
        assert abs(kernel_k(float(t), X) - combo) < 1e-14


def test_kernel_k_hat_matches_quadrature():
    for X in (10.0, 100.0):
        w = SmoothWeight(
            support=(-1.0, 1.0),
            evaluator=lambda t, X=X: kernel_k(t, X),
        )
        for t in [0.0, 0.2, 0.9, 1.7, 4.3]:
            q = fourier_numeric(w, t)
            assert abs(q.real - kernel_k_hat(t, X)) < 1e-8
            assert abs(q.imag) < 1e-8


def test_kernel_k_hat_series_branch_continuity():
    for X in (10.0, 100.0):
        assert abs(kernel_k_hat(1e-4 - 1e-12, X) - kernel_k_hat(1e-4 + 1e-12, X)) < 1e-10
        # k_hat(0) = integral of k = (2 - 1/X) / log^2 X
        want = (2.0 - 1.0 / X) / math.log(X) ** 2
        assert abs(kernel_k_hat(0.0, X) - want) < 1e-14


def _quad_oracle(weight, t):
    """f_hat(t) by scipy quad with a scalar callback: the independent oracle."""
    from scipy.integrate import quad

    lo, hi = weight.support

    def f(x):
        return float(weight(x))

    opts = dict(epsabs=1e-13, epsrel=1e-13, limit=2000)
    w = 2.0 * math.pi * t
    if t == 0:
        (re, err_re), (im, err_im) = quad(f, lo, hi, **opts), (0.0, 0.0)
    elif abs(t) * (hi - lo) <= 8.0:
        re, err_re = quad(lambda x: f(x) * math.cos(w * x), lo, hi, **opts)
        im, err_im = quad(lambda x: f(x) * math.sin(w * x), lo, hi, **opts)
    else:  # QAWO, the oscillatory rule, at many oscillations
        re, err_re = quad(f, lo, hi, weight="cos", wvar=w, **opts)
        im, err_im = quad(f, lo, hi, weight="sin", wvar=w, **opts)
    assert err_re + err_im < 1e-12
    return complex(re, -im)


_K100 = SmoothWeight((-1.0, 1.0), lambda x: kernel_k(x, 100.0))


@pytest.mark.parametrize(
    "weight, t",
    # the high frequencies on bump(1, 2) catch aliasing: a trapezoid
    # n-vs-2n certificate there agrees on a value 1e9 times too large
    [pytest.param(bump(1.0, 2.0), t, id=f"bump-{t:g}") for t in (0.0, 0.3, 40.0, 120.0, 240.0, 1000.0)]
    + [pytest.param(plateau_bump(0.5, 2.5, 1.0, 2.0), t, id=f"plateau-{t:g}") for t in (0.0, 0.3, 1.7)]
    + [pytest.param(even_bump(), t, id=f"even-{t:g}") for t in (0.0, 0.3, 2.2)]
    # kernel_k's shoulder is 1/X wide: a rule started from one panel
    # misses it at t = 0 and converges falsely
    + [pytest.param(_K100, t, id=f"kernel100-{t:g}") for t in (0.0, 0.2)],
)
def test_fourier_numeric_matches_quad_oracle(weight, t):
    got = fourier_numeric(weight, t)
    assert abs(got - _quad_oracle(weight, t)) <= 1e-10


def test_gauss_legendre_literals_are_leggauss():
    x, w = _gauss_legendre()
    want_x, want_w = np.polynomial.legendre.leggauss(10)
    assert x.dtype == w.dtype == np.float64
    assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()


def test_cli_import_leaves_out_scipy_integrate():
    # neither the CLI import nor a whole verify run, Fourier suites
    # included, loads any scipy module, nor numpy.polynomial (the
    # Gauss-Legendre rule is literal), fractions (only two oracles use
    # it) or dataclasses
    import avgrank

    env = dict(os.environ, PYTHONPATH=str(Path(avgrank.__file__).parents[1]))
    code = (
        "import io, sys, contextlib\n"
        "from avgrank import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['verify'])\n"
        "names = ('numpy.polynomial', 'fractions', 'dataclasses')\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in names))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "0 []"
