import math
from fractions import Fraction

import numpy as np

from avgrank.arith import factorize, ramanujan_sum
from avgrank.oracles import (
    beta_of,
    delta_of,
    dirichlet_tail_check,
    f_of,
    floor_inequality,
    g_of,
    gamma_of,
    gcd_sum_S,
    ramanujan_exponential_oracle,
    ramanujan_exponential_sweep,
)


def test_gcd_sum_known_values():
    assert gcd_sum_S(1, 1).total == 3
    assert gcd_sum_S(2, 2).total == 29


def test_gcd_sum_loop_orders_agree():
    for U, V in [(1, 1), (3, 2), (5, 7), (12, 9)]:
        assert gcd_sum_S(U, V, order="uvw").total == gcd_sum_S(U, V, order="vwu").total


def test_gcd_sum_bound_ratio_dyadic():
    # the normalized ratio stays bounded over a dyadic grid
    ratios = []
    U = 1
    while U <= 32:
        V = 1
        while V <= 32:
            ratios.append(gcd_sum_S(U, V).bound_ratio)
            V *= 2
        U *= 2
    assert max(ratios) < 10.0
    assert min(ratios) > 0.0


def test_delta_f_multiplicative_split():
    for d in range(1, 500):
        assert delta_of(d) * f_of(d) == d
        # delta(d)^2 is divisible by d (smallest square multiple property)
        assert (delta_of(d) ** 2) % d == 0
        assert g_of(d) == Fraction(1, 1) if d == 1 else True


def test_g_of_values():
    assert g_of(1) == 1
    assert g_of(2) == Fraction(1, 2)
    assert g_of(3) == Fraction(1, 3)
    assert g_of(4) == Fraction(1, 2)
    assert g_of(8) == Fraction(1, 2)  # floor(3/3) - ceil(3/2) = 1 - 2
    assert g_of(27) == Fraction(1, 3)


def test_beta_gamma_consistency():
    # beta(d) * gamma(d) >= d / (delta(d) * beta(d)^2): the divisor-domination
    # inequality behind the floor exercise, checked per prime power
    for d in range(1, 400):
        for p, e in factorize(d).items():
            f = e // 2
            b = (f + 2) // 3
            lhs = e // 3 - (e + 1) // 2
            rhs = e - (e + 1) // 2 - 2 * b - max(e - 3 * b, 0)
            assert lhs >= rhs
        assert beta_of(d) >= 1 and gamma_of(d) >= 1


def test_floor_inequality_exhaustive_small():
    for e in range(0, 120):
        for f in range(0, e + 1):
            assert floor_inequality(e, f)


def test_dirichlet_tail_check():
    assert dirichlet_tail_check(2) == (5, Fraction(7, 3))
    # exact recomputation at a larger cutoff
    from avgrank.oracles import f_of, g_of

    sf, sg = dirichlet_tail_check(10)
    assert sf == sum(f_of(d) for d in range(1, 101))
    assert sg == sum((g_of(d) for d in range(1, 101)), Fraction(0))
    # the raw sums grow roughly like U^2 log U and log^2 U: far below
    # U^2.5 and U respectively on a doubling ladder
    for U in (2, 4, 8, 16, 32):
        f, g = dirichlet_tail_check(U)
        assert f < 4 * U**2.5
        assert float(g) < 10 * U


def test_ramanujan_exponential_vs_divisor():
    for b in range(1, 60):
        for a in range(-15, 16):
            assert ramanujan_exponential_oracle(a, b) == ramanujan_sum(a, b)


def test_ramanujan_sweeps_agree():
    a_vals = np.arange(-50, 51)
    for b in (1, 2, 12, 49, 90):
        div = [ramanujan_sum(a, b) for a in a_vals.tolist()]
        assert ramanujan_exponential_sweep(a_vals, b).tolist() == div


def test_ramanujan_b_equals_one():
    assert ramanujan_exponential_oracle(17, 1) == 1
    assert ramanujan_exponential_oracle(0, 1) == 1
