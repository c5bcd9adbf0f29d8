"""Show the test-function toolkit: weights, Fourier transforms, and the kernel.

The explicit-formula machinery rests on two transforms with closed forms:
the triangular weight (whose transform is the nonnegative Fejer kernel) and
the plateau kernel k (whose transform k-hat is plateau-exact on |t| <= 1-1/X).
We check both against fourier_numeric, an adaptive composite Gauss-Legendre
rule certified to 1e-10 by comparing each panel with its two halves, then
evaluate the Poisson summation identity that underlies the twist character
sums.
"""

import math

import numpy as np

from avgrank import (
    SmoothWeight,
    bump,
    fourier_numeric,
    h_hat,
    kernel_k,
    kernel_k_hat,
    poisson_twist_check,
    triangular_weight,
)

print("Fejer transform: quadrature vs closed form")
tw = triangular_weight()
for t in (0.0, 0.3, 1.0, 2.5):
    num = fourier_numeric(tw, t).real
    print(f"  t = {t:4.1f}:  quadrature {num:+.10f}   closed form {h_hat(t):+.10f}")

X = 50.0
w = SmoothWeight(support=(-1.0, 1.0), evaluator=lambda t: kernel_k(t, X))
print(f"\nkernel k at X = {X:g}: plateau value 1/log^2 X = {1 / math.log(X) ** 2:.6f}")
for t in (0.0, 0.5, 0.97, 0.999):
    print(f"  k({t:5.3f}) = {kernel_k(t, X):.6f}")
print("k-hat quadrature check:")
for t in (0.0, 1.7):
    num = fourier_numeric(w, t).real
    print(f"  t = {t:3.1f}:  quadrature {num:+.10f}   closed form {kernel_k_hat(t, X):+.10f}")

print("\nPoisson summation residuals (smooth bump on [1, 2], T = 200):")
wb = bump(1.0, 2.0)
for b in (1, 8):
    for p in (5, 7, 11):
        res = poisson_twist_check(wb, b, p, 200.0)
        print(f"  b = {b}, p = {p:2d}:  residual {res:.3e}")
