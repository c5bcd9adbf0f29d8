import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from avgrank import families
from avgrank.arith import factorize, sieve_primes
from avgrank.curves import Curve, ap, c_pk, conductor_surrogate, discriminant, is_minimal, sigma_p
from avgrank.families import (
    CAVEAT,
    S_T,
    U1,
    U2,
    _box,
    _conductor_batch,
    _conductor_grid,
    _product_grid,
    _strip_2_3,
    _weighted_grid,
    average_rank_experiment,
    enumerate_C,
    enumerate_D,
    int_root,
    lemma2_lhs,
    prime_sums,
    rank_bound,
    weight_wT,
)
from avgrank.weights import h_X


def test_int_root():
    assert int_root(64, 3) == 4
    assert int_root(63.9, 3) == 3
    assert int_root(10**12, 2) == 10**6
    assert int_root(0, 5) == 0
    # float-rounding hazard: (10^6)^2 stays exact
    assert int_root((10**6) ** 2 - 1, 2) == 10**6 - 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_int_root_is_exact_up_to_1e300(k):
    # oracle: n = floor(m^(1/k)) is the one integer with n^k <= m < (n + 1)^k
    rng = random.Random(k)
    bases = [*range(1, 40), *(rng.randrange(2, 10 ** (300 // k)) for _ in range(300))]
    for b in bases:
        for m in (b**k - 1, b**k, b**k + 1):
            n = int_root(m, k)
            assert n**k <= m < (n + 1) ** k, (m, k)
    # floats: the root of floor(x), and 1e300 in a handful of steps
    for x in (1e300, 1e40, 2.0**200 - 2.0**147, 1e16 + 2.0):
        n = int_root(x, k)
        assert n**k <= int(x) < (n + 1) ** k


def test_enumerate_D_count_and_filter():
    curves = list(enumerate_D(64.0))
    assert len(curves) == 150
    assert all(not c.singular for c in curves)
    rmax, smax = int_root(64, 3), int_root(64, 2)
    assert rmax == 4 and smax == 8
    # row-major ordering
    assert (curves[0].r, curves[0].s) == (-4, -8)
    assert all(abs(c.r) <= 4 and abs(c.s) <= 8 for c in curves)


def test_enumerate_C_subset():
    D = set((c.r, c.s) for c in enumerate_D(10**4))
    C = set((c.r, c.s) for c in enumerate_C(10**4))
    assert C <= D
    assert all(is_minimal(r, s) for r, s in C)
    assert all(not is_minimal(r, s) for r, s in D - C)
    # (16, 64) sits in the box at T = 10^4 but is non-minimal
    assert (16, 64) in D - C


def test_weight_wT_and_S_T():
    total = math.fsum(weight_wT(c, 10**4) for c in enumerate_C(10**4))
    assert abs(total - S_T(10**4)) < 1e-9
    # the value before the box weight became a module constant, bit for bit
    assert repr(S_T(1e4)) == "105.73597359003493"


@pytest.mark.parametrize("T", [8.0, 64.0, 2.0e4])
def test_box_grid_matches_enumeration(T):
    # T = 2e4 reaches r = +-16 and s = +-64, +-128, where p = 2 decides minimality
    for minimal, enum in ((True, enumerate_C), (False, enumerate_D)):
        R, S = _box(T, minimal).cells()
        assert list(zip(R.tolist(), S.tolist())) == [(c.r, c.s) for c in enum(T)]


def test_box_grid_requires_T_at_least_1():
    with pytest.raises(ValueError, match="T >= 1"):
        _box(0.5)
    # average_rank_experiment checks T before X <= T^(5/6), complex for T < 0
    for T in (0.5, -5.0):
        with pytest.raises(ValueError, match="T >= 1"):
            average_rank_experiment(T, 2.0)
    with pytest.raises(ValueError, match="T >= 1"):
        S_T(0.5)
    with pytest.raises(ValueError, match="T >= 1"):
        lemma2_lhs(0.5, 10.0)


def test_box_beyond_int64_is_rejected_before_allocating():
    # 16 * 27 * smax^2 passes 2^63 near T = 1.9e16.  Without the check the
    # r axis at these T would exceed the address space, so a broken check
    # fails here without allocating anything
    for T in (1e40, 1e60):
        with pytest.raises(ValueError, match="discriminants exceed int64"):
            _box(T)
        with pytest.raises(ValueError, match="discriminants exceed int64"):
            average_rank_experiment(T, 10.0)


def test_box_beyond_physical_memory_is_rejected_before_allocating(monkeypatch):
    # 32 MiB against 2001 x 63245 cells of 8 bytes each
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**13}.__getitem__)
    with pytest.raises(ValueError) as exc:
        _box(1e9)
    assert str(exc.value) == (
        "T = 1e+09 is too large: the box needs 0.943 GiB, more than the 0.0312 GiB of physical memory"
    )


def test_family_grid_is_box_grid_on_weight_support():
    # the support of even_bump is |x| >= 1/2; T = 2e4 keeps (+-16, +-128),
    # which p = 2 makes non-minimal, inside it
    T = 2.0e4
    grid, W = _weighted_grid(T)
    R, S = grid.cells()
    expect = [(c, weight_wT(c, T)) for c in enumerate_C(T)]
    expect = [(c, w) for c, w in expect if w > 0]
    assert list(zip(R.tolist(), S.tolist())) == [(c.r, c.s) for c, _ in expect]
    assert np.allclose(W, [w for _, w in expect], rtol=1e-14, atol=0)


def test_family_grid_respects_filters():
    grid, W = _weighted_grid(5000.0)
    R, S = grid.cells()
    assert (4 * R**3 + 27 * S**2 != 0).all()
    assert (W > 0).all()
    for i in range(len(R)):
        assert is_minimal(int(R[i]), int(S[i]))
    # against the streaming enumeration with the same weight threshold
    direct = {
        (c.r, c.s)
        for c in enumerate_C(5000.0)
        if weight_wT(c, 5000.0) > 0
    }
    assert direct == set(zip(R.tolist(), S.tolist()))


def test_prime_sums_equal_the_scalar_U1_U2_on_every_curve():
    # += in increasing p from 0.0, as the scalar oracles add: equal, not close,
    # on the grid and on the flat cells; X = 11^2 puts p = 11 on U2's edge
    T, X = 300.0, 121.0
    grid = _box(T)
    R, S = grid.cells()
    u1, u2 = prime_sums(R, S, X)
    g1, g2 = prime_sums(grid.rv[:, None], grid.sv, X)
    assert u1.shape == u2.shape == R.shape and g1.shape == g2.shape == grid.keep.shape
    assert np.array_equal(g1[grid.keep], u1) and np.array_equal(g2[grid.keep], u2)
    primes = sieve_primes(int(X))
    for i, (r, s) in enumerate(zip(R.tolist(), S.tolist())):
        assert u1[i] == U1(Curve(r, s), X, primes)
        assert u2[i] == U2(Curve(r, s), X, primes)


def _sieve_cases(R, S):
    """Rows with exponent 2 at some p >= 5, and rows whose rest after 2 and 3
    has a prime factor above the trial bound, among the first 400 rows."""
    rem, _ = _strip_2_3(discriminant(R, S))
    bound = math.isqrt(int(rem.max()))
    # p >= 5 has exponent 2 exactly when p | gcd(r, s)
    exp2 = sum(1 for r, s in zip(R.tolist(), S.tolist()) if max(factorize(math.gcd(r, s)), default=1) >= 5)
    left = sum(1 for x in rem[:400].tolist() if x > 1 and max(factorize(x)) > bound)
    return exp2, left


@pytest.mark.parametrize("T", [300.0, 2.0e4, 1.0e5])
def test_root_sieve_matches_trial_division_bitwise(T):
    # the census grid C(T) and the weighted average-rank grid
    for grid in (_box(T), _weighted_grid(T)[0]):
        R, S = grid.cells()
        got = _conductor_grid(grid)
        want = _conductor_batch(R, discriminant(R, S))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        exp2, left = _sieve_cases(R, S)
        assert exp2 > 0 and left > 0


def test_root_sieve_thin_grid_at_T_1e12_matches_scalar_surrogate():
    # r near 1e4 and s near 1e6: the trial bound passes 2.1e6, where the cube
    # of a residue p - |r| leaves int64.  (-9998, 990930) has Delta = 4 q1 q2
    # with primes q1, q2 in (2^21 + 9998, bound]: a sieve that misses both
    # leaves log(q1 q2) to the leftover step, which differs from
    # log q1 + log q2 in the last bit, so trial division is matched bitwise.
    # (9973, 997300) has exponent 2 at the prime 9973.  The singular
    # (-3 * 57^2, 2 * 57^3) and the non-minimal (0, 0), (10^4, 0) and
    # (10^4, 10^6) are not kept.
    rv = np.array([-10007, -9999, -9998, -3 * 57**2, 0, 9973, 10000], dtype=np.int64)
    sv = np.array([-999983, -1, 0, 2 * 57**3, 990930, 997300, 999999, 1000000], dtype=np.int64)
    q1, q2 = 2302243, 2444881
    assert 4 * (-9998) ** 3 + 27 * 990930**2 == 4 * q1 * q2 and 2**21 + 9998 < q1 < q2
    assert factorize(q1) == {q1: 1} and factorize(q2) == {q2: 1}
    two_logs = 8 * math.log(2) + math.log(q1)
    assert two_logs + math.log(q2) != 8 * math.log(2) + np.log(float(q1 * q2))
    grid = _product_grid(rv, sv, True)
    R, S = grid.cells()
    assert not grid.keep[3, 3] and not grid.keep[4, 2] and grid.keep.sum() == grid.keep.size - 5
    rem, _ = _strip_2_3(discriminant(R, S))
    assert math.isqrt(int(rem.max())) > 2719009
    got = _conductor_grid(grid)
    assert np.array_equal(got.view(np.int64), _conductor_batch(R, discriminant(R, S)).view(np.int64))
    want = [math.log(conductor_surrogate(Curve(r, s))) for r, s in zip(R.tolist(), S.tolist())]
    assert np.allclose(got, want, rtol=1e-14, atol=0)
    exp2, left = _sieve_cases(R, S)
    assert exp2 > 0 and left > 0


def _strip_2_3_scalar(d: int) -> tuple[int, float]:
    n = abs(d)
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    return n, 8 * math.log(2) + (5 * math.log(3) if d % 3 == 0 else 0.0)


def test_strip_2_3_matches_scalar_loop_on_large_powers():
    # powers of 2 and 3 as large as |delta| < 2^63 allows, and 3^39 with no 2 at all
    q = 1009
    deltas = [2**62, 2**40 * 3**12 * 11, 2**20 * 3**20 * q, 3**39, 2**19 * 3**12, 1, 2, 3, 6, 5 * 7, q]
    deltas += [-d for d in deltas]
    assert max(deltas) < 2**63
    rem, logn = _strip_2_3(np.array(deltas, dtype=np.int64))
    assert rem.tolist() == [_strip_2_3_scalar(d)[0] for d in deltas]
    assert logn.tolist() == [_strip_2_3_scalar(d)[1] for d in deltas]
    with pytest.raises(ValueError, match="nonzero discriminant"):
        _strip_2_3(np.array([5, 0], dtype=np.int64))


def test_conductor_batch_rejects_a_zero_discriminant():
    # 0 % p == 0 at every p: trial division that admitted a zero would never end,
    # so the call runs in a child process that a hang would time out
    code = (
        "import numpy as np\n"
        "from avgrank.families import _conductor_batch\n"
        "try:\n"
        "    _conductor_batch(np.array([3, 0]), np.array([10**12 + 39, 0]))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(families.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "the conductor surrogate needs a nonzero discriminant\n"


def test_U1_two_term_hand_value():
    # E_{1,0}, X = 10: only p = 5, 7 contribute
    cur = Curve(1, 0)
    primes = sieve_primes(10)
    a5, a7 = sigma_p(1, 0, 5), sigma_p(1, 0, 7)
    want = -(
        (math.log(5) / 5) * h_X(math.log(5), 10.0) * a5
        + (math.log(7) / 7) * h_X(math.log(7), 10.0) * a7
    )
    assert abs(U1(cur, 10.0, primes) - want) < 1e-12
    assert U1(cur, 4.0, primes) == 0.0


def test_U2_single_term_hand_value():
    # E_{1,0}, X = 30: single term p = 5 with c_25 = 0.12
    cur = Curve(1, 0)
    primes = sieve_primes(30)
    want = 0.12 * 2 * math.log(5) * h_X(2 * math.log(5), 30.0)
    assert abs(U2(cur, 30.0, primes) - want) < 1e-12
    assert U2(cur, 24.0, primes) == 0.0
    # p^2 <= X, as in prime_sums: sqrt of the float below 25 rounds to 5.0
    assert U2(cur, math.nextafter(25.0, 0.0), primes) == 0.0


def test_rank_bound_assembly():
    cur = Curve(1, 0)
    X = 100.0
    primes = sieve_primes(100)
    manual = (
        math.log(conductor_surrogate(cur)) / math.log(X)
        + (2.0 / math.log(X)) * U1(cur, X, primes)
        + (2.0 / math.log(X)) * U2(cur, X, primes)
    )
    assert rank_bound(cur, X) == manual
    assert rank_bound(cur, X, C0=3.0) == manual + 3.0 / math.log(X)


def test_average_rank_experiment_consistency():
    X = 50.0
    rep = average_rank_experiment(2000.0, X)
    assert rep.caveat == CAVEAT
    primes = sieve_primes(50)
    logX = math.log(X)
    # spot-check five curves against the scalar path
    for i in range(0, len(rep.r), max(1, len(rep.r) // 5)):
        cur = Curve(int(rep.r[i]), int(rep.s[i]))
        assert rep.U1_term[i] == (2 / logX) * U1(cur, X, primes)
        assert rep.U2_term[i] == (2 / logX) * U2(cur, X, primes)
        assert abs(rep.logN_term[i] - math.log(conductor_surrogate(cur)) / logX) < 1e-10
        assert abs(rep.bound[i] - rank_bound(cur, X)) < 1e-10
    # weighted averages recompute
    wsum = math.fsum(rep.weight.tolist())
    assert abs(wsum - rep.S_T) < 1e-12
    assert abs(rep.avg_bound - math.fsum((rep.weight * rep.bound).tolist()) / wsum) < 1e-12


def test_average_rank_experiment_validation():
    with pytest.raises(ValueError, match="X <="):
        average_rank_experiment(100.0, 1000.0)
    # at T = 8, r / T^(1/3) is 0, +-1/2 or +-1, where the weight vanishes
    with pytest.raises(ValueError, match="empty family"):
        average_rank_experiment(8.0, 5.0)


def test_lemma2_lhs_small():
    # the inner sum runs over every (r, s) of positive weight; at T = 2e4
    # those include the non-minimal (+-16, +-128)
    T = 2.0e4
    assert not is_minimal(16, 128) and weight_wT(Curve(-16, -128), T) > 0
    val = lemma2_lhs(T, 10.0)
    rmax, smax = int_root(T, 3), int_root(T, 2)
    cells = [Curve(r, s) for r in range(-rmax, rmax + 1) for s in range(-smax, smax + 1)]
    weighted = [(c, w) for c in cells if (w := weight_wT(c, T)) > 0]
    total = math.fsum(
        abs(math.fsum(w * sigma_p(c.r, c.s, p) for c, w in weighted)) for p in [11, 13, 17, 19]
    )
    assert abs(val - total) < 1e-9
    # the value before the box weight became a module constant, bit for bit
    assert repr(val) == "0.3428802295429417"
