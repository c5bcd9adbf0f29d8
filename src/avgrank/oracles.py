"""Independent brute-force oracles for the arithmetic lemmas.

Everything here is deliberately slow and direct — triple loops, exact
rationals, literal divisor sums — so the optimized code paths elsewhere
can be checked against outputs whose correctness is obvious from the
code.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .arith import factorize

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "GcdSumResult",
    "gcd_sum_S",
    "delta_of",
    "f_of",
    "g_of",
    "beta_of",
    "gamma_of",
    "floor_inequality",
    "dirichlet_tail_check",
    "ramanujan_exponential_oracle",
    "ramanujan_exponential_sweep",
]


class GcdSumResult(NamedTuple):
    """S(U, V) and its bound_ratio, total / (U^1.01 * V * (U^2 + V))."""

    U: int
    V: int
    total: int
    bound_ratio: float


def gcd_sum_S(U: int, V: int, order: str = "uvw") -> GcdSumResult:
    """S(U, V) = sum_{u <= U} sum_{v <= V} sum_{|w| <= v} gcd(u^2, v^3 - w^3).

    Conventions: u in [1, U], v in [1, V], w in [-v, v] inclusive, and
    gcd(x, 0) = |x| (so w = v contributes u^2).  Two loop orders are
    provided purely as an internal cross-check.
    """
    if U < 1 or V < 1:
        raise ValueError("gcd_sum_S requires U, V >= 1")
    total = 0
    if order == "uvw":
        for u in range(1, U + 1):
            u2 = u * u
            for v in range(1, V + 1):
                v3 = v**3
                for w in range(-v, v + 1):
                    total += math.gcd(u2, v3 - w**3)
    elif order == "vwu":
        for v in range(1, V + 1):
            v3 = v**3
            for w in range(-v, v + 1):
                d = v3 - w**3
                for u in range(1, U + 1):
                    total += math.gcd(u * u, d)
    else:
        raise ValueError("order must be 'uvw' or 'vwu'")
    ratio = total / (U**1.01 * V * (U * U + V))
    return GcdSumResult(U=U, V=V, total=total, bound_ratio=ratio)


# ---------------------------------------------------------------------------
# multiplicative helpers built from prime-exponent floor expressions


def delta_of(d: int) -> int:
    """prod p^ceil(e/2) over d = prod p^e; the smallest square multiple of d
    is delta(d)^2... / see f_of for the complementary factor."""
    if d < 1:
        raise ValueError("requires d >= 1")
    out = 1
    for p, e in factorize(d).items():
        out *= p ** ((e + 1) // 2)
    return out


def f_of(d: int) -> int:
    """prod p^floor(e/2); satisfies delta(d) * f(d) = d."""
    if d < 1:
        raise ValueError("requires d >= 1")
    out = 1
    for p, e in factorize(d).items():
        out *= p ** (e // 2)
    return out


def g_of(d: int) -> Fraction:
    """prod p^(floor(e/3) - ceil(e/2)), an exact rational (usually < 1)."""
    from fractions import Fraction

    if d < 1:
        raise ValueError("requires d >= 1")
    out = Fraction(1)
    for p, e in factorize(d).items():
        out *= Fraction(p) ** (e // 3 - (e + 1) // 2)
    return out


def beta_of(d: int) -> int:
    """prod p^floor((f + 2) / 3) where f = floor(e/2) per prime."""
    if d < 1:
        raise ValueError("requires d >= 1")
    out = 1
    for p, e in factorize(d).items():
        out *= p ** ((e // 2 + 2) // 3)
    return out


def gamma_of(d: int) -> int:
    """prod p^max(e - 3 floor((f + 2)/3), 0) with f = floor(e/2) per prime."""
    if d < 1:
        raise ValueError("requires d >= 1")
    out = 1
    for p, e in factorize(d).items():
        out *= p ** max(e - 3 * ((e // 2 + 2) // 3), 0)
    return out


def floor_inequality(e: int, f: int) -> bool:
    """floor(e/3) - ceil(e/2) >= e - ceil(e/2) - 2 floor((f+2)/3) - max(e - 3 floor((f+2)/3), 0).

    The per-prime exponent inequality behind beta * gamma dominating the
    relevant divisor; requires 0 <= f <= e.
    """
    if not 0 <= f <= e:
        raise ValueError("requires 0 <= f <= e")
    b = (f + 2) // 3
    lhs = e // 3 - (e + 1) // 2
    rhs = e - (e + 1) // 2 - 2 * b - max(e - 3 * b, 0)
    return lhs >= rhs


def dirichlet_tail_check(U: int) -> tuple[int, Fraction]:
    """Exact partial sums (sum f(d), sum g(d)) over d <= U^2.

    The f sum grows barely faster than U^2 and the g sum barely at all;
    the ratios sum_f / U^2.1 and sum_g / U^0.1 are eventually
    nonincreasing along a doubling ladder of U, which is how the tail
    estimates get sanity-checked.  For U = 2 the range is d in {1, 2, 3, 4}
    and the sums are 1+1+1+2 = 5 and 1 + 1/2 + 1/3 + 1/2 = 7/3.
    """
    from fractions import Fraction

    if U < 1:
        raise ValueError("requires U >= 1")
    sum_f = sum(f_of(d) for d in range(1, U * U + 1))
    sum_g = sum((g_of(d) for d in range(1, U * U + 1)), Fraction(0))
    return sum_f, sum_g


# ---------------------------------------------------------------------------
# Ramanujan sums: divisor formula vs literal exponential sum


def ramanujan_exponential_oracle(a: int, b: int) -> int:
    """c_b(a) = sum over units j mod b of e_b(-a j^{-1}), rounded.

    (Substituting j -> -j^{-1} permutes the units, so this equals the
    usual sum of e_b(a j); the inverse form is kept as written.)  The
    imaginary part and the rounding residual must both be tiny; any drift
    raises so the oracle cannot silently go bad.
    """
    if b < 1:
        raise ValueError("requires b >= 1")
    if b == 1:
        return 1
    acc = complex(0.0)
    for j in range(1, b):
        if math.gcd(j, b) == 1:
            jinv = pow(j, -1, b)
            ang = 2.0 * math.pi * ((-a * jinv) % b) / b
            acc += complex(math.cos(ang), math.sin(ang))
    n = round(acc.real)
    if abs(acc.imag) > 1e-6 or abs(acc.real - n) > 1e-6:
        raise RuntimeError(f"ramanujan exponential sum drifted at (a={a}, b={b}): {acc}")
    return n


def ramanujan_exponential_sweep(a_vals, b: int) -> np.ndarray:
    """c_b(a) over an array of a via one vectorized exponential sum.

    All residues a j mod b are formed at once, so the sweep over a costs a
    single (phi(b) x len(a)) complex reduction.
    """
    if b < 1:
        raise ValueError("requires b >= 1")
    a = np.asarray(a_vals, dtype=np.int64)
    j = np.array([x for x in range(b) if math.gcd(x, b) == 1], dtype=np.int64)
    ang = 2.0 * np.pi * ((a[:, None] * j[None, :]) % b) / b
    acc = np.exp(1j * ang).sum(axis=1)
    out = np.round(acc.real).astype(np.int64)
    if np.abs(acc.imag).max(initial=0.0) > 1e-6 or np.abs(acc.real - out).max(initial=0.0) > 1e-6:
        raise RuntimeError(f"ramanujan exponential sweep drifted at b={b}")
    return out
