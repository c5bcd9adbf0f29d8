import math
import os

import numpy as np
import pytest

from avgrank.arith import sieve_primes
from avgrank.cli import main
from avgrank.curves import Curve, sigma_p, sigma_p_batch
from avgrank import moments
from avgrank.families import U1, _box, enumerate_C, enumerate_D, rank_bound
from avgrank.moments import (
    TermType,
    V,
    _markov,
    V_family,
    classify_type,
    density_bound,
    high_rank_census,
    moment_2k,
    multinomial_C,
    optimal_k,
    reference_decay,
    type1_S,
)
from avgrank.weights import h_X


def test_V_empty_below_101():
    primes = sieve_primes(200)
    assert V(Curve(1, 1), 100.0, primes) == 0.0
    # only p = 101 contributes just above
    v = V(Curve(1, 1), 101.0, primes)
    want = (math.log(101) / 101) * h_X(math.log(101), 101.0) * sigma_p(1, 1, 101)
    assert abs(v - want) < 1e-15


def test_V_rejects_singular():
    primes = sieve_primes(200)
    with pytest.raises(ValueError):
        V(Curve(-3, 2), 150.0, primes)


def test_V_equals_minus_U1_tail():
    # for minimal curves, V matches -U1 with the sum restricted to p > 100
    X = 400.0
    primes = sieve_primes(400)
    for cur in [Curve(1, 1), Curve(-2, 3), Curve(0, 1)]:
        tail = U1(cur, X, primes) - (
            -math.fsum(
                (math.log(p) / p) * h_X(math.log(p), X) * sigma_p(cur.r, cur.s, p)
                for p in sieve_primes(100, 5)
            )
        )
        assert abs(V(cur, X, primes) - (-tail)) < 1e-12


def test_V_family_matches_scalar():
    T, X = 200.0, 300.0
    primes = sieve_primes(300)
    vals = V_family(T, X)
    curves = list(enumerate_D(T))
    assert len(vals) == len(curves)
    for i in range(0, len(curves), 37):
        want = V(curves[i], X, primes)
        # bit for bit, the sign of a zero included
        assert vals[i] == want and math.copysign(1.0, vals[i]) == math.copysign(1.0, want)


def test_V_family_equals_the_direct_rectangle_sum():
    # V through prime_sums against the direct sum of (log p / p) h_X(log p)
    # sigma_p over the D(T) rectangle, bit for bit
    T, X = 1000.0, 300.0
    grid = _box(T, minimal_only=False)
    want = np.zeros(grid.keep.shape)
    for p in sieve_primes(int(X), 101):
        want += (math.log(p) / p) * h_X(math.log(p), X) * sigma_p_batch(grid.rv[:, None], grid.sv, p)
    got = V_family(T, X)
    assert np.array_equal(got.view(np.int64), want[grid.keep].view(np.int64))


def test_moment_2k_and_markov():
    T, X = 1000.0, 300.0
    vals = V_family(T, X)
    for k in (1, 2):
        m = moment_2k(T, X, k)
        assert abs(m - math.fsum((vals ** (2 * k)).tolist())) < 1e-9
        for lam in (0.5, 1.0, 2.0):
            count = int((np.abs(vals) >= lam).sum())
            assert count <= m / lam ** (2 * k)


def test_density_bound_precondition():
    with pytest.raises(ValueError):
        density_bound(1000.0, 300.0, 1, R=2.0)
    val = density_bound(1000.0, 300.0, 1, R=6.0)
    assert val >= 0


@pytest.mark.parametrize("T, k", [(1e4, 1), (5e4, 1), (5e4, 2), (7e5, 3)])
def test_density_bound_admits_the_census_boundary_row(T, k):
    # at X = T^(1/(6k)) the float quotient 2 log T / log X overshot 12k, so
    # the row R = 3 + 12k that the census admits was refused
    R = 3 + 12 * k
    row = high_rank_census(T, 10.0, R_max=R).rows[R]
    assert row.markov_bound is not None
    assert density_bound(T, T ** (1 / (6 * k)), k, R) == row.markov_bound


@pytest.mark.parametrize("T, X, R", [(1e4, 1.0, 15), (1e4, 0.5, 15), (1.0, 1.0, 15), (1e4, 300.0, 3 + 1e-9)])
def test_density_bound_rejects_degenerate_T_X_and_R(T, X, R):
    with pytest.raises(ValueError, match="density_bound requires"):
        density_bound(T, X, 1, R)


def test_moment_2k_checks_T_before_the_empty_range():
    # (100, 50] holds no prime, yet T = 0.5 has no box
    with pytest.raises(ValueError, match="T >= 1"):
        moment_2k(0.5, 50.0, 1)


def test_type1_S():
    assert type1_S(100.0) == 0.0
    # single-prime check just above the cutoff
    X = 102.0
    want = (2 * h_X(math.log(101), X) * math.log(101)) ** 2 / 101
    assert abs(type1_S(X) - want) < 1e-12
    # convergence direction toward log^2(X)/3
    r5 = type1_S(10**5) / math.log(10**5) ** 2
    r7 = type1_S(10**7) / math.log(10**7) ** 2
    assert abs(r7 - 1 / 3) < abs(r5 - 1 / 3)


def test_multinomial_C():
    assert multinomial_C([2]) == 1
    assert multinomial_C([1, 1]) == 2
    assert multinomial_C([2, 2]) == 6
    assert multinomial_C([4, 1, 1]) == 30
    with pytest.raises(ValueError):
        multinomial_C([1])  # odd sum
    with pytest.raises(ValueError):
        multinomial_C([-2, 4])


def test_classify_type():
    assert classify_type([2, 4]) is TermType.TYPE_I
    assert classify_type([0, 2]) is TermType.TYPE_I
    assert classify_type([1, 3]) is TermType.TYPE_II
    assert classify_type([2, 1, 1]) is TermType.TYPE_II


def test_reference_decay_and_optimal_k():
    assert reference_decay(0) == 1.0
    assert abs(reference_decay(4) - 6.0 ** (-1 / 3)) < 1e-15
    # faster than exponential: successive ratios shrink
    ratios = [reference_decay(R + 1) / reference_decay(R) for R in range(1, 20)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert optimal_k(0) == 1
    assert optimal_k(14) == 1
    assert optimal_k(15) == 1
    assert optimal_k(27) == 2


def test_high_rank_census():
    rep = high_rank_census(200.0, 60.0, R_max=6)
    assert rep.n_C == len(_box(200.0)) == sum(1 for _ in enumerate_C(200.0))
    assert rep.n_D == sum(1 for _ in enumerate_D(200.0))
    censuses = [row.census for row in rep.rows]
    assert censuses == sorted(censuses, reverse=True)
    assert [row.R for row in rep.rows] == list(range(7))
    assert rep.rank_cutoff == 11 * math.log(200.0) / math.log(math.log(200.0))
    for row in rep.rows:
        if row.markov_bound is not None:
            k = optimal_k(row.R)
            XR = 200.0 ** (1.0 / (6 * k))
            assert row.R >= 3 + 2 * math.log(200.0) / math.log(XR)


@pytest.mark.parametrize("T", [3.0, 12.0, 13.0, 27.0, 2000.0, 1e4])
def test_high_rank_census_n_D_is_the_box_minus_its_singular_cells(T):
    # the singular cells (-3t^2, 2t^3) number 1, 3 and 5 across these T
    assert high_rank_census(T, 10.0, R_max=0).n_D == len(_box(T, minimal_only=False))


def test_high_rank_census_matches_scalar_rank_bound():
    T, X, C0 = 600.0, 50.0, 0.3
    rep = high_rank_census(T, X, C0, R_max=8)
    bounds = [rank_bound(cur, X, C0) for cur in enumerate_C(T)]
    assert [row.census for row in rep.rows] == [sum(b >= R for b in bounds) for R in range(9)]


def test_high_rank_census_checks_the_rows_memory_before_the_loop(monkeypatch, tmp_path):
    # 1 GiB of physical memory admits 5.4e6 rows at 200 bytes each
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**18}.__getitem__)
    assert len(high_rank_census(100.0, 10.0, R_max=8).rows) == 9

    def no_rows(R):
        raise AssertionError("the census loop ran before the memory check")

    monkeypatch.setattr(moments, "reference_decay", no_rows)
    with pytest.raises(ValueError) as exc:
        high_rank_census(100.0, 10.0, R_max=10**9)
    assert str(exc.value) == (
        "the census to R_max = 1000000000 needs 186 GiB, more than the 1 GiB of physical memory"
    )
    out = ["--out-csv", str(tmp_path / "d.csv"), "--out-json", str(tmp_path / "d.json")]
    assert main(["density", "--T", "100", "--X", "10", "--R-max", str(10**9), *out]) == 2
    assert list(tmp_path.iterdir()) == []


def test_high_rank_census_rejects_degenerate_X_and_T():
    with pytest.raises(ValueError, match="X > 1"):
        high_rank_census(200.0, 1.0)
    with pytest.raises(ValueError, match="T > e"):
        high_rank_census(math.e, 10.0)


def test_high_rank_census_computes_one_moment_per_k(monkeypatch):
    # admissible: R = 15..26 at k = 1 and R = 27..38 at k = 2, where
    # R >= 3 + 2 log T / log XR is R >= 3 + 12k; both ranges (100, XR]
    # hold no prime, so neither moment builds D(T)
    T, X = 1e4, 100.0
    calls, v_calls = [], []

    def counting(T, X, k):
        calls.append(k)
        return moment_2k(T, X, k)

    def counting_V(T, X):
        v_calls.append(X)
        return V_family(T, X)

    monkeypatch.setattr(moments, "moment_2k", counting)
    monkeypatch.setattr(moments, "V_family", counting_V)
    rep = high_rank_census(T, X, R_max=38)
    assert calls == [1, 2]
    assert v_calls == []
    admissible = [row.R for row in rep.rows if row.markov_bound is not None]
    assert admissible == list(range(15, 39))
    assert all(row.markov_bound == 0.0 for row in rep.rows if row.R >= 15)
    for row in rep.rows:
        if row.markov_bound is not None:
            k = optimal_k(row.R)
            XR = T ** (1.0 / (6 * k))
            assert row.markov_bound == _markov(moment_2k(T, XR, k), T, k, rep.n_C)


def test_high_rank_census_admits_the_row_at_3_plus_12k():
    # the float threshold 3 + 2 log T / log XR read above 15 at T = 300
    rep = high_rank_census(300.0, 30.0, R_max=16)
    assert [row.R for row in rep.rows if row.markov_bound is not None] == [15, 16]
