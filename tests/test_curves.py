import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import avgrank
from avgrank import curves
from avgrank.arith import sieve_primes
from avgrank.curves import (
    Curve,
    _class_tables,
    NumericalDriftError,
    TraceData,
    ap,
    c_pk,
    conductor_surrogate,
    discriminant,
    is_minimal,
    sigma_p,
    sigma_p_batch,
    sigma_p_charsum,
    star_map,
)


def brute_ap(r: int, s: int, p: int) -> int:
    """p + 1 - #E(F_p) by literal point counting, projective point at infinity included."""
    count = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x + r * x + s) % p
        for y in range(p):
            if (y * y) % p == rhs:
                count += 1
    return p + 1 - count


def test_discriminant():
    assert discriminant(0, 1) == -432
    assert discriminant(-1, 0) == 64
    assert discriminant(1, 0) == -64
    assert discriminant(-3, 2) == 0  # 4(-27) + 27(4) = 0
    assert Curve(-3, 2).singular


def test_sigma_p_equals_brute_point_count():
    for p in [5, 7, 11, 13]:
        for r in range(-3, 4):
            for s in range(-3, 4):
                if discriminant(r, s) % p != 0:
                    assert sigma_p(r, s, p) == brute_ap(r, s, p), (r, s, p)


def test_sigma_p_singular_reduction_bounded():
    # when p | Delta the character sum is still defined and lies in {-1, 0, 1}
    for p in [5, 7, 11, 13, 17]:
        for r in range(-6, 7):
            for s in range(-6, 7):
                if discriminant(r, s) != 0 and discriminant(r, s) % p == 0:
                    assert abs(sigma_p(r, s, p)) <= 1, (r, s, p)


def test_sigma_p_charsum_agreement():
    for p in [5, 7, 11, 29]:
        for r in range(-5, 6):
            for s in range(-5, 6):
                assert sigma_p_charsum(r, s, p) == sigma_p(r, s, p)


def test_sigma_p_requires_p_at_least_5():
    with pytest.raises(ValueError):
        sigma_p(1, 1, 3)
    with pytest.raises(ValueError):
        sigma_p_charsum(1, 1, 3)


def test_sigma_p_charsum_tolerance_guard(monkeypatch):
    monkeypatch.setattr(curves, "_CHARSUM_TOL", 1e-18)
    with pytest.raises(NumericalDriftError):
        sigma_p_charsum(1, 1, 7)


def test_sigma_p_batch_matches_scalar():
    rng = np.random.default_rng(7)
    R = rng.integers(-50, 51, size=200)
    S = rng.integers(-50, 51, size=200)
    for p in [5, 13, 101]:
        batch = sigma_p_batch(R, S, p)
        for i in range(len(R)):
            assert batch[i] == sigma_p(int(R[i]), int(S[i]), p)


# primes on both sides of p mod 3 (p = 1 mod 3 has nontrivial cube roots of 1)
ORACLE_PRIMES = sieve_primes(200, 5)


@st.composite
def coefficient_rows(draw):
    """(p, R, S) with residues 0 mod p, small and twist-sized coefficients mixed in."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    coef = st.one_of(
        st.integers(-50, 50),
        st.integers(-(10**18), 10**18),
        st.integers(-(10**12), 10**12).map(lambda m: m * p),
    )
    rows = draw(st.lists(st.tuples(coef, coef), min_size=1, max_size=40))
    R, S = (np.array(col, dtype=np.int64) for col in zip(*rows))
    return p, R, S


@settings(max_examples=150, deadline=None)
@given(coefficient_rows())
@example((7, np.array([0, 7, 0, 3, -14]), np.array([0, 0, 5, -21, 2])))
@example((11, np.array([0, 22, 0, 3, -1]), np.array([0, 0, -11, 4, 10**15])))
def test_sigma_p_batch_matches_scalar_oracles(case):
    p, R, S = case
    batch = sigma_p_batch(R, S, p)
    for r, s, got in zip(R.tolist(), S.tolist(), batch.tolist()):
        assert got == sigma_p(r, s, p) == sigma_p_charsum(r, s, p), (r, s, p)


def test_sigma_p_batch_sparse_classes_and_chunks():
    # p > N: most residues never occur; rows with r = 0 or s = 0 (mod p) mixed in
    p = 10007
    rng = np.random.default_rng(11)
    R = rng.integers(-(10**15), 10**15, size=600)
    S = rng.integers(-(10**15), 10**15, size=600)
    R[:20] = p * rng.integers(-100, 100, size=20)
    S[10:30] = -p * rng.integers(0, 100, size=20)
    batch = sigma_p_batch(R, S, p)
    assert [int(a) for a in batch] == [sigma_p(int(r), int(s), p) for r, s in zip(R, S)]


@st.composite
def grid_vectors(draw):
    """(p, rv, sv): row and column values of a product grid, multiples of p mixed in."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    coef = st.one_of(
        st.integers(-50, 50),
        st.integers(-(10**18), 10**18),
        st.integers(-(10**12), 10**12).map(lambda m: m * p),
    )
    rv = draw(st.lists(coef, min_size=1, max_size=8))
    sv = draw(st.lists(coef, min_size=1, max_size=8))
    return p, np.array(rv, dtype=np.int64), np.array(sv, dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(grid_vectors())
# r = 0 rows, s = 0 columns and cells with p | gcd(r, s), at p = 1 and 2 mod 3
@example((7, np.array([0, 14, 3, -7]), np.array([0, -21, 5, 7])))
@example((11, np.array([22, -1, 0]), np.array([-11, 10**15, 4, 0])))
def test_trace_rectangle_matches_scalar_oracles(case):
    p, rv, sv = case
    rect = sigma_p_batch(rv[:, None], sv, p)
    assert rect.shape == (len(rv), len(sv)) and rect.dtype == np.int64
    # the flat call on the same cells, row-major, reshapes to the rectangle
    flat = sigma_p_batch(np.repeat(rv, len(sv)), np.tile(sv, len(rv)), p)
    assert flat.dtype == np.int64 and np.array_equal(flat.reshape(rect.shape), rect)
    for i, r in enumerate(rv.tolist()):
        for j, s in enumerate(sv.tolist()):
            assert rect[i, j] == sigma_p(r, s, p) == sigma_p_charsum(r, s, p), (r, s, p)


TABLE_PRIMES = [5, 7, 11, 13, 101, 997]


def test_table_primes_cover_both_classes_mod_3():
    # p = 1 mod 3 has three cube roots of unity, so the cube histogram differs
    assert {p % 3 for p in TABLE_PRIMES} == {1, 2}


@pytest.mark.parametrize("p", TABLE_PRIMES)
def test_class_tables_match_sigma_p_at_every_residue(p):
    kk, zs, rz = _class_tables(p)
    assert kk.dtype == zs.dtype == rz.dtype == np.int16
    for k in range(p):
        assert (kk[k], zs[k], rz[k]) == (sigma_p(k, k, p), sigma_p(0, k, p), sigma_p(k, 0, p)), k


@pytest.mark.parametrize("p", [7919, 10007])
def test_class_tables_match_sigma_p_sampled(p):
    kk, zs, rz = _class_tables(p)
    ks = [0, 1, p - 1] + np.random.default_rng(p).integers(2, p - 1, size=40).tolist()
    for k in ks:
        assert (kk[k], zs[k], rz[k]) == (sigma_p(k, k, p), sigma_p(0, k, p), sigma_p(k, 0, p)), k


def test_class_tables_certificate_rejects_perturbed_correlation(monkeypatch):
    clean = [t.copy() for t in _class_tables(101)]
    irfft = np.fft.irfft
    try:
        for shift in (0.3, -0.25):
            _class_tables.cache_clear()
            monkeypatch.setattr(np.fft, "irfft", lambda *a, d=shift, **k: irfft(*a, **k) + d)
            with pytest.raises(NumericalDriftError, match="p=101"):
                _class_tables(101)
        # inside the certificate's margin the rounding restores the exact tables
        _class_tables.cache_clear()
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.2)
        assert all(np.array_equal(a, b) for a, b in zip(_class_tables(101), clean))
    finally:
        _class_tables.cache_clear()


def test_sigma_p_large_coefficients_no_overflow():
    # twisted-curve sized coefficients must reduce mod p correctly
    r, s = 123456789 * 10**9 + 1, -(987654321 * 10**12 + 7)
    for p in [101, 99991]:
        assert sigma_p(r, s, p) == sigma_p(r % p, s % p, p)
        assert sigma_p_charsum(r, s, 101) == sigma_p(r % 101, s % 101, 101)


def test_hasse_bound_sweep():
    for p in sieve_primes(60, 5):
        for r in range(-8, 9):
            for s in range(-8, 9):
                assert sigma_p(r, s, p) ** 2 <= 4 * p


def test_is_minimal():
    assert is_minimal(1, 1)
    assert is_minimal(0, 1)
    assert is_minimal(1, 0)
    assert not is_minimal(0, 0)
    assert not is_minimal(16, 64)  # d = 2
    assert not is_minimal(0, 64)  # 2^6 | 64, 2^4 | 0
    assert not is_minimal(2 * 3**4, 0)  # 3^4 | r and 3^6 | 0
    assert is_minimal(16, 32)  # 2^6 does not divide 32


def test_star_map():
    cur, d = star_map(16, 64)
    assert (cur.r, cur.s, d) == (1, 1, 2)
    cur, d = star_map(80, 448)
    assert (cur.r, cur.s, d) == (5, 7, 2)
    cur, d = star_map(3, 5)
    assert (cur.r, cur.s, d) == (3, 5, 1)
    cur, d = star_map(0, 3**6 * 7)
    assert (cur.r, cur.s, d) == (0, 7, 3)
    with pytest.raises(ValueError):
        star_map(0, 0)
    # the reduced curve is always minimal
    for r, s in [(2**4 * 3**4, 2**6 * 3**6), (5**8, 5**12), (-(2**4), 2**6)]:
        cur, d = star_map(r, s)
        assert is_minimal(cur.r, cur.s)
        assert cur.r * d**4 == r and cur.s * d**6 == s


def _largest_scale(r: int, s: int) -> int:
    """The largest d with d^4 | r and d^6 | s, by direct search over d."""
    best, d = 1, 2
    while (r == 0 or d**4 <= abs(r)) and (s == 0 or d**6 <= abs(s)):
        if r % d**4 == 0 and s % d**6 == 0:
            best = d
        d += 1
    return best


def test_star_map_and_is_minimal_match_direct_search():
    # the base range holds its own scales (16 = 2^4, 64 = 2^6, 729 = 3^6)
    # and the r = 0 and s = 0 rows; each scale d maps (r, s) to (r d^4, s d^6)
    rs = range(-17, 18)
    ss = sorted({*range(-8, 9), 64, -64, 128, 729, -1458})
    seen = set()
    for d in (1, 2, 3, 5, 6, 10):
        for r0 in rs:
            for s0 in ss:
                if r0 == 0 and s0 == 0:
                    continue
                r, s = r0 * d**4, s0 * d**6
                want = _largest_scale(r, s)
                cur, got = star_map(r, s)
                assert (cur.r, cur.s, got) == (r // want**4, s // want**6, want), (r, s)
                assert is_minimal(r, s) == (want == 1), (r, s)
                seen.add(want)
    assert {1, 2, 3, 5, 6, 10, 20, 30} <= seen


def test_ap_requires_minimal_nonsingular():
    with pytest.raises(ValueError):
        ap(Curve(-3, 2), 5)  # singular
    with pytest.raises(ValueError):
        ap(Curve(16, 64), 5)  # non-minimal
    t = ap(Curve(1, 1), 7)
    assert t.p == 7 and t.ap == sigma_p(1, 1, 7)
    assert t.bad == (discriminant(1, 1) % 7 == 0)


def test_tracedata_validation():
    with pytest.raises(ValueError):
        TraceData(p=5, ap=5, bad=False)  # Hasse violated
    with pytest.raises(ValueError):
        TraceData(p=7, ap=2, bad=True)  # bad prime needs |ap| <= 1


def test_c_pk_values():
    good = TraceData(p=5, ap=2, bad=False)
    bad = TraceData(p=5, ap=1, bad=True)
    assert c_pk(good, 1) == -2 / 5
    assert c_pk(good, 2) == -(4 - 10) / 50
    assert c_pk(bad, 2) == -1 / 50
    with pytest.raises(ValueError):
        c_pk(good, 3)


def test_c_25_hand_value():
    # E: y^2 = x^3 + x has a_5 = +-2, giving c_25 = -(4 - 10)/50 = 0.12
    t = ap(Curve(1, 0), 5)
    assert t.ap**2 == 4
    assert c_pk(t, 2) == 0.12


def test_conductor_surrogate():
    cur = Curve(1, 1)  # Delta = -16 * 31
    assert conductor_surrogate(cur) == 2**8 * 31
    cur = Curve(0, 1)  # Delta = -432 = -16 * 27
    assert conductor_surrogate(cur) == 2**8 * 3**5
    cur = Curve(5, 0)  # Delta = -16 * 500 = -2^6 * 5^3; 5 | r
    assert conductor_surrogate(cur) == 2**8 * 5**2
    with pytest.raises(ValueError):
        conductor_surrogate(Curve(-3, 2))


def test_conductor_surrogate_of_a_twist():
    base = Curve(1, 1)
    D = 10007  # prime
    twisted = Curve(base.r * D * D, base.s * D**3)
    assert conductor_surrogate(twisted) == 2**8 * 31 * D**2


def test_conductor_surrogate_stops_at_a_prime_cofactor():
    # |Delta| = 2^4 3^3 q with q = 148149037038814817 prime: trial division
    # to sqrt(q) takes tens of seconds, so a child process that still
    # divides runs into the timeout
    code = "from avgrank.curves import Curve, conductor_surrogate\nprint(conductor_surrogate(Curve(1000002, 1)))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(avgrank.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=10
    )
    assert int(out.stdout) == 2**8 * 3**5 * 148149037038814817
