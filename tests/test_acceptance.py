"""Acceptance suite: sixteen numbered criteria, one printed verdict line each.

Each criterion prints exactly one "[criterion NN] PASS/FAIL ..." line and
then asserts, so a red test still shows its verdict and measured values.
Run with -s to see the verdict lines for passing criteria too.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

import avgrank as a
from avgrank.cli import main as cli_main
from avgrank.moments import V_family, moment_2k, type1_S
from avgrank.oracles import (
    floor_inequality,
    gcd_sum_S,
    ramanujan_exponential_sweep,
)
from avgrank.twists import (
    class_decompose,
    fundamental_discriminants,
    poisson_twist_check,
    root_number,
    sieve_indicator_X,
    theorem4_proportions,
)
from avgrank.weights import (
    SmoothWeight,
    bump,
    fourier_numeric,
    h_X,
    h_hat,
    kernel_k,
    kernel_k_hat,
    plateau_bump,
    triangular_weight,
)


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def _sq_count_table(p: int) -> np.ndarray:
    """#{y mod p : y^2 = v}, built by counting squares directly."""
    y = np.arange(p, dtype=np.int64)
    return np.bincount((y * y) % p, minlength=p)


def _trace_sweep():
    """sigma_p, charsum and point-count traces over the criterion-1 box."""
    primes = a.sieve_primes(97, 5)
    mism_char, mism_count, hasse_bad = 0, 0, 0
    for p in primes:
        sq = _sq_count_table(p)
        x = np.arange(p, dtype=np.int64)
        x3 = (x * x % p) * x % p
        for r in range(-20, 21):
            for s in range(-30, 31):
                sig = a.sigma_p(r, s, p)
                if sig != a.sigma_p_charsum(r, s, p):
                    mism_char += 1
                # independent a_p: p + 1 - #E(F_p) with the projective point
                f = (x3 + (r % p) * x + s % p) % p
                affine = int(sq[f].sum())
                if sig != p + 1 - (affine + 1):
                    mism_count += 1
                if sig * sig > 4 * p:
                    hasse_bad += 1
    return mism_char, mism_count, hasse_bad


_SWEEP = None


def _sweep_cached():
    global _SWEEP
    if _SWEEP is None:
        t0 = time.perf_counter()
        res = _trace_sweep()
        _SWEEP = (*res, time.perf_counter() - t0)
    return _SWEEP


def test_criterion_01_trace_identity():
    mism_char, mism_count, hasse_bad, dt = _sweep_cached()
    ok = mism_char == 0 and mism_count == 0 and dt <= 60.0
    assert verdict(
        1,
        ok,
        f"sigma_p = charsum = point-count a_p on |r|<=20, |s|<=30, 5<=p<=97 "
        f"({mism_char} charsum mismatches, {mism_count} count mismatches, {dt:.1f}s)",
    )


def test_criterion_02_hasse_bound():
    _, _, hasse_bad, _ = _sweep_cached()
    ok = hasse_bad == 0
    assert verdict(2, ok, f"|sigma_p| <= 2 sqrt(p) on the same sweep ({hasse_bad} violations)")


def test_criterion_03_ramanujan_identity():
    a_vals = np.arange(-200, 201)
    bad = 0
    for b in range(1, 201):
        if ramanujan_exponential_sweep(a_vals, b).tolist() != [a.ramanujan_sum(x, b) for x in a_vals.tolist()]:
            bad += 1
    ok = bad == 0
    assert verdict(3, ok, f"divisor formula = exponential sum for b <= 200, |a| <= 200 ({bad} bad moduli)")


def test_criterion_04_gcd_sum_oracle():
    ok_values = gcd_sum_S(1, 1).total == 3 and gcd_sum_S(2, 2).total == 29
    mismatches = 0
    for U in range(1, 31):
        for V in range(1, 31):
            if gcd_sum_S(U, V, order="uvw").total != gcd_sum_S(U, V, order="vwu").total:
                mismatches += 1
    ratios = [
        gcd_sum_S(2**i, 2**j).bound_ratio for i in range(6) for j in range(6)
    ]
    ok = ok_values and mismatches == 0 and max(ratios) < 10.0
    assert verdict(
        4,
        ok,
        f"S(1,1)=3, S(2,2)=29, loop orders agree U,V<=30 ({mismatches} mismatches), "
        f"dyadic bound_ratio max {max(ratios):.3f}",
    )


def test_criterion_05_floor_inequality():
    bad = sum(
        0 if floor_inequality(e, f) else 1 for e in range(0, 201) for f in range(0, e + 1)
    )
    ok = bad == 0
    assert verdict(5, ok, f"floor inequality exhaustive 0 <= f <= e <= 200 ({bad} failures)")


def test_criterion_06_fejer_transform():
    tw = triangular_weight()
    pts = np.linspace(-7.93, 7.93, 100)
    worst = max(abs(fourier_numeric(tw, float(t)).real - h_hat(float(t))) for t in pts)
    grid = np.linspace(-60, 60, 10**4)
    nonneg = bool((h_hat(grid) >= 0).all())
    exact0 = h_hat(0.0) == 1.0
    ok = worst < 1e-8 and nonneg and exact0
    assert verdict(
        6, ok, f"h_hat quadrature agreement (worst {worst:.2e}), h_hat >= 0 at 1e4 pts: {nonneg}, h_hat(0)=1: {exact0}"
    )


def test_criterion_07_kernel():
    worst = 0.0
    plateau_exact = True
    for X in (10.0, 100.0):
        w = SmoothWeight(
            support=(-1.0, 1.0),
            evaluator=lambda t, X=X: kernel_k(t, X),
        )
        for t in np.linspace(-6.7, 6.7, 41):
            worst = max(worst, abs(fourier_numeric(w, float(t)).real - kernel_k_hat(float(t), X)))
        plateau = 1.0 / math.log(X) ** 2
        for p in a.sieve_primes(int(X ** (1.0 - 1.0 / X))):
            if kernel_k(math.log(p) / math.log(X), X) != plateau:
                plateau_exact = False
    ok = worst < 1e-8 and plateau_exact
    assert verdict(
        7, ok, f"k_hat quadrature agreement (worst {worst:.2e}), plateau exact: {plateau_exact}"
    )


def test_criterion_08_u2_inequality():
    ok = True
    caps = {}
    for X in (100.0, 10000.0):
        primes = a.sieve_primes(int(X))
        cap = 2 * math.fsum(math.log(p) / p for p in a.sieve_primes(int(math.sqrt(X)), 5))
        worst = max(abs(a.U2(cur, X, primes)) for cur in a.enumerate_C(1000.0))
        caps[X] = (worst, cap)
        ok = ok and worst <= cap
    detail = ", ".join(f"X={int(X)}: max|U2|={w:.3f} <= {c:.3f}" for X, (w, c) in caps.items())
    assert verdict(8, ok, f"per-curve |U2| bound at T=1e3 ({detail})")


def _type1_pnt(X: float) -> float:
    """PNT prediction of type1_S(X)/log^2 X with its p > 100 cutoff.

    With dp ~ dt/log t and u = log t, the sum over 100 < p <= X of
    (2 h_X(log p) log p)^2 / p becomes the integral of 4 h_X(u)^2 u over
    [log 100, log X].  The integrand is a cubic there, so the
    Gauss-Legendre rule is exact.
    """
    lo, hi = math.log(100), math.log(X)
    x, w = np.polynomial.legendre.leggauss(4)
    u = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    return 0.5 * (hi - lo) * float(np.dot(w, 4.0 * h_X(u, X) ** 2 * u)) / hi**2


def test_criterion_09_type1_sum_convergence():
    t0 = time.perf_counter()
    r5 = type1_S(10**5) / math.log(10**5) ** 2
    r6 = type1_S(10**6) / math.log(10**6) ** 2
    r7 = type1_S(10**7) / math.log(10**7) ** 2
    dt = time.perf_counter() - t0
    pnt5, pnt6, pnt7 = (_type1_pnt(10.0**e) for e in (5, 6, 7))
    in_band = 0.28 <= r6 <= 0.39
    trend = abs(r7 - 1 / 3) < abs(r5 - 1 / 3)
    ok = in_band and trend and dt <= 120.0
    assert verdict(
        9,
        ok,
        f"S(X)/log^2 X (PNT prediction): {r5:.4f} ({pnt5:.4f}) @1e5, "
        f"{r6:.4f} ({pnt6:.4f}) @1e6 (band [0.28,0.39]: {in_band}), "
        f"{r7:.4f} ({pnt7:.4f}) @1e7 (trend toward 1/3: {trend}), {dt:.1f}s",
    )


def test_criterion_10_family_average_trend():
    T = 10**5
    X = math.sqrt(T)
    rep = a.average_rank_experiment(float(T), X)
    in_band = 0.15 <= rep.u2_over_logX <= 0.35
    comparison = abs(rep.u1_over_logX) < rep.u2_over_logX
    ok = in_band and comparison
    assert verdict(
        10,
        ok,
        f"T=1e5, X=sqrt(T): avg U2/logX = {rep.u2_over_logX:.4f} (band [0.15,0.35]: {in_band}), "
        f"|avg U1|/logX = {abs(rep.u1_over_logX):.5f} < U2 ratio: {comparison}",
    )


def test_criterion_11_poisson_identity():
    weights = (bump(1.0, 2.0), plateau_bump(0.5, 2.5, 1.0, 2.0))
    worst = 0.0
    for w in weights:
        for b in (1, 8):
            for p in a.sieve_primes(31, 3):
                worst = max(worst, poisson_twist_check(w, b, p, 200.0))
    ok = worst < 1e-6
    assert verdict(11, ok, f"dual-sum residual < 1e-6 for p <= 31, b in {{1,8}}, two weights (worst {worst:.2e})")


def test_criterion_12_theorem4_arithmetic():
    got = theorem4_proportions(1.5, 1.5)
    ok = got == (0.25, 0.75)
    assert verdict(12, ok, f"(3/2, 3/2) -> {got}, expected (0.25, 0.75)")


def test_criterion_13_sieve_indicator():
    T, N = 1e10, 1
    ps = [p for p in a.sieve_primes(int(math.log(math.log(T)))) if p > 2 and N % p != 0]
    bad = 0
    for n in range(1, 10**4 + 1, 2):
        val = sieve_indicator_X(n, T, N)
        direct = 0 if any(n % (p * p) == 0 for p in ps) else 1
        if val != direct or val not in (0, 1):
            bad += 1
    ok = bad == 0
    assert verdict(13, ok, f"indicator = direct predicate for odd n <= 1e4 ({bad} mismatches)")


def test_criterion_14_root_number_class_constancy():
    # fixed base: odd square conductor N = 49, root number w = +1
    N, w = 49, 1
    classes = {}
    for D in fundamental_discriminants(-10**4, 10**4):
        if math.gcd(D, N) != 1:
            continue
        k, delta, e, _ = class_decompose(D)
        classes.setdefault((k, delta, e), set()).add(root_number(w, D, N))
    non_constant = [c for c, signs in classes.items() if len(signs) != 1]
    ok = not non_constant and len(classes) >= 8
    assert verdict(
        14,
        ok,
        f"root number constant on each of {len(classes)} (k,delta,e) classes, |D| <= 1e4 "
        f"({len(non_constant)} non-constant)",
    )


def test_criterion_15_markov_consistency():
    T, X = 1000.0, 300.0
    vals = V_family(T, X)
    bad = 0
    for k in (1, 2):
        m = moment_2k(T, X, k)
        for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
            count = int((np.abs(vals) >= lam).sum())
            if count > m / lam ** (2 * k):
                bad += 1
    ok = bad == 0
    assert verdict(15, ok, f"#{{|V| >= lam}} <= moment/lam^2k at T=1e3 ({bad} violations)")


def test_criterion_16_cli_determinism(tmp_path):
    jobs = [
        ("average-rank", ["--T", "500", "--X", "30"], ["rows.csv", "sum.json"]),
        ("density", ["--T", "200", "--X", "20", "--R-max", "5"], ["d.csv", "d.json"]),
        (
            "twists",
            ["--r", "1", "--s", "1", "--N", "49", "--w", "1", "--T", "120", "--X", "30"],
            ["t.csv", "t.json"],
        ),
    ]
    identical = True
    for name, flags, outs in jobs:
        captures = []
        for threads in ("1", "4"):
            d = tmp_path / f"{name}-{threads}"
            d.mkdir()
            argv = [name, *flags, "--threads", threads]
            if name in ("average-rank", "density", "twists"):
                argv += ["--out-csv", str(d / outs[0]), "--out-json", str(d / outs[1])]
            rc = cli_main(argv)
            assert rc == 0
            captures.append(tuple((d / o).read_bytes() for o in outs))
        identical = identical and captures[0] == captures[1]
    # cache build determinism
    blobs = []
    for threads in ("1", "4"):
        out = tmp_path / f"c{threads}.apcache"
        rc = cli_main(["cache", "build", "--T", "30", "--X", "20", "--out", str(out), "--threads", threads])
        assert rc == 0
        blobs.append(out.read_bytes())
    identical = identical and blobs[0] == blobs[1]
    # verify: stdout identical across thread settings
    outs = []
    for threads in ("1", "4"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(["verify", "--threads", threads])
        assert rc == 0
        outs.append(buf.getvalue())
    identical = identical and outs[0] == outs[1]
    assert verdict(16, identical, "byte-identical outputs for all subcommands across --threads {1,4}")
