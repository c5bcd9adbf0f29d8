import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from avgrank import twists
from avgrank.arith import (
    _kronecker_any,
    factorize,
    is_fundamental_discriminant,
    kronecker,
    sieve_primes,
)
from avgrank.cli import main
from avgrank.curves import Curve, conductor_surrogate, discriminant, sigma_p, sigma_p_batch, star_map
from avgrank.families import U1, U2, rank_bound
from avgrank.twists import (
    IdentityViolatedError,
    _kronecker_array,
    _minimal_twists,
    class_decompose,
    fundamental_discriminants,
    poisson_twist_check,
    root_number,
    sieve_indicator_X,
    theorem4_proportions,
    twist_average_experiment,
    twist_batch,
    twist_curve,
)
from avgrank.weights import bump, h_X, triangular_weight


def test_twist_curve_delta_scaling():
    base = Curve(1, 1)
    for D in range(-50, 51):
        if D == 0:
            continue
        tw = twist_curve(base, D)
        assert tw.delta == D**6 * base.delta
    with pytest.raises(ValueError):
        twist_curve(base, 0)


def test_root_number():
    # w_D = w * sign(D) * chi_D(N)
    for D in (5, -7, 8, -8, 13):
        for N in (11, 49, 37):
            if math.gcd(D, N) != 1:
                continue
            for w in (-1, 1):
                assert root_number(w, D, N) == w * (1 if D > 0 else -1) * kronecker(D, N)
    with pytest.raises(ValueError):
        root_number(1, 5, 15)  # gcd(5, 15) > 1


def test_fundamental_discriminants_matches_predicate():
    # the two slice sieves (over [lo, hi] and over the range of m = D / 4),
    # also on ranges that miss 0 or hold one value
    for lo, hi in [(-500, 500), (37.5, 811.2), (-811.2, -37.5), (-4, 4), (8, 8), (9, 7)]:
        got = list(fundamental_discriminants(lo, hi))
        want = [
            D for D in range(math.ceil(lo), math.floor(hi) + 1)
            if D != 0 and is_fundamental_discriminant(D)
        ]
        assert got == want, (lo, hi)


def test_class_decompose_roundtrip():
    for D in fundamental_discriminants(-2000, 2000):
        k, delta, e, nhat = class_decompose(D)
        assert delta * 2**e * nhat == D
        assert k == nhat % 8 and nhat % 2 == 1 and e in (0, 2, 3)
    assert class_decompose(8) == (1, 1, 3, 1)
    assert class_decompose(-4) == (1, -1, 2, 1)
    assert class_decompose(21) == (5, 1, 0, 21)
    with pytest.raises(ValueError):
        class_decompose(18)


def test_sieve_indicator_matches_direct():
    T, N = 1e10, 1
    ps = [p for p in sieve_primes(int(math.log(math.log(T)))) if p > 2 and N % p != 0]
    for n in range(1, 2001, 2):
        direct = 0 if any(n % (p * p) == 0 for p in ps) else 1
        assert sieve_indicator_X(n, T, N) == direct
    assert sieve_indicator_X(1, T, N) == 1
    assert sieve_indicator_X(9, T, N) == 0  # 3 <= log log T and 9 | 9
    with pytest.raises(ValueError):
        sieve_indicator_X(12, T, N)  # even n rejected


def test_twist_rows_sign_filter():
    base, N, w, T = Curve(1, 1), 49, 1, 200.0
    supports = (bump(0.2, 1.0), bump(-1.0, -0.2))
    rep = twist_average_experiment(base, N, w, supports, T, 30.0)
    D, sign = rep.D.tolist(), rep.sign.tolist()
    # N = 49 is an odd square, so chi_D(N) = 1 whenever gcd(D, N) = 1 and
    # the root-number class is decided by sign(D) alone
    assert 1 in sign and -1 in sign
    for Di, si, wi in zip(D, sign, rep.weight.tolist()):
        assert si == root_number(w, Di, N) == (1 if Di > 0 else -1) and wi > 0
    # each support's rows exhaust its admissible discriminants of nonzero weight
    for weight in supports:
        lo, hi = weight.support
        want = [
            Di
            for Di in fundamental_discriminants(lo * T, hi * T)
            if math.gcd(Di, N) == 1 and float(weight(Di / T)) > 0
        ]
        rows = [(Di, wi) for Di, wi in zip(D, rep.weight.tolist()) if lo * T <= Di <= hi * T]
        assert rows == [(Di, float(weight(Di / T))) for Di in want]


def test_kronecker_array_matches_scalar_on_every_pair():
    # any a, including gcd(a, b) > 1 and a, b both even, where (a / b) = 0
    a, b = np.meshgrid(np.arange(-80, 81), np.arange(1, 81))
    a, b = a.ravel(), b.ravel()
    got = _kronecker_array(a, b)
    assert got.tolist() == [_kronecker_any(x, y) for x, y in zip(a.tolist(), b.tolist())]


# 2 and 8 take the 2-adic step of the Kronecker symbol, 360 = 2^3 3^2 5
# mixes it with odd primes, and 2^89 - 1 is a prime far beyond int64
@pytest.mark.parametrize("N", [1, 2, 8, 49, 389, 360, 2**89 - 1])
def test_twist_batch_matches_scalar_oracles(N):
    T = 1000.0
    weight = triangular_weight()  # support [-1, 1]: every D in [-T, T]
    batch = twist_batch(N, weight, T)
    want = [D for D in fundamental_discriminants(-T, T) if math.gcd(D, N) == 1]
    assert batch.D.dtype == np.int64 and batch.D.tolist() == want
    for i, D in enumerate(want):
        for w in (-1, 1):
            assert w * batch.twist_sign[i] == root_number(w, D, N), (D, N)
        assert batch.weights[i] == weight(D / T)


@pytest.mark.parametrize("N", [1, 2, 8, 49, 389, 360, 2**89 - 1])
def test_class_sign_map_matches_class_decompose(N):
    # every row's class triple is a key whose list holds the row's sign, and
    # no key or sign appears that no row gives; the lists ascend
    supports = (bump(0.5, 1.0), bump(-1.0, -0.5))  # the CLI's two supports
    rep = twist_average_experiment(Curve(1, 1), N, 1, supports, 1000.0, 30.0)
    want = {}
    for D, s in zip(rep.D.tolist(), rep.sign.tolist()):
        want.setdefault(class_decompose(D)[:3], set()).add(s)
    assert rep.class_sign_map == {triple: sorted(signs) for triple, signs in want.items()}


@pytest.mark.parametrize("T", [400.0, 4e3, 2e4, 1e5])
def test_twist_batch_weights_equal_scalar_weight(T):
    # the bump on the whole array equals the bump at each D, bit for bit
    for weight in (bump(0.5, 1.0), bump(-1.0, -0.5)):
        batch = twist_batch(49, weight, T)
        assert batch.weights.tolist() == [float(weight(D / T)) for D in batch.D.tolist()]


# (25, 125) has d = 5 at 5 | D; (16, 64) and (80, 448) are not minimal at 2;
# at r = 0 or s = 0 star_map takes its one-sided branch and every f_p is 2;
# Delta_E of (913, 25) and (1024, 3) is 2^4 times a prime p above 2^31.5,
# below and above 2^32, so p^2 leaves int64
@pytest.mark.parametrize(
    "r, s",
    [(25, 125), (16, 64), (80, 448), (0, 1), (-1, 0), (1, 1), (-2, 3), (913, 25), (1024, 3)],
)
def test_minimal_twists_match_star_map_and_conductor(r, s):
    base = Curve(r, s)
    D = np.array(list(fundamental_discriminants(-600, 600)), dtype=np.int64)
    R, S, disc, cond = _minimal_twists(base, D)
    seen_d = set()
    for i, Di in enumerate(D.tolist()):
        tw = twist_curve(base, Di)
        minimal, d = star_map(tw.r, tw.s)
        seen_d.add(d)
        assert (R[i], S[i], disc[i]) == (minimal.r, minimal.s, minimal.delta), Di
        n = conductor_surrogate(minimal)
        assert type(cond[i]) is int and cond[i] == n, Di
        if r == 0 or s == 0:
            q = n // 2**8 // (3**5 if minimal.delta % 3 == 0 else 1)
            assert math.isqrt(q) ** 2 == q
    assert len(seen_d) > 1


def test_twist_batch_beyond_int64_is_rejected_before_sieving():
    # |D| reaches T * max |support| > 2^63.  Without the check the sieve up
    # to sqrt(|D|) at these T would exceed the address space, so a broken
    # check fails here without allocating anything
    for T, support in ((1e30, (0.5, 1.0)), (1e30, (-1.0, -0.5)), (1e40, (0.5, 1.0))):
        with pytest.raises(ValueError, match="discriminants exceed int64"):
            twist_batch(49, bump(*support), T)


@pytest.mark.parametrize("T", [4000.0, 2e4])
def test_cli_unsigned_weight_equals_scalar_loop(tmp_path, T):
    # W_unsigned from the batch weights equals the left-to-right scalar sum
    # over both supports, bit for bit
    N = 49
    out = tmp_path / "t.json"
    rc = main(
        [
            "twists", "--r", "1", "--s", "1", "--N", str(N), "--w", "1",
            "--T", str(T), "--X", "20",
            "--out-csv", str(tmp_path / "t.csv"), "--out-json", str(out),
        ]
    )
    assert rc == 0
    total = 0.0
    for weight in (bump(0.5, 1.0), bump(-1.0, -0.5)):
        lo, hi = weight.support
        for D in fundamental_discriminants(lo * T, hi * T):
            if math.gcd(D, N) == 1:
                total += float(weight(D / T))
    assert json.loads(out.read_text())["W_unsigned"] == total


def test_twist_family_validation(tmp_path, capsys):
    base, wt = Curve(1, 1), (bump(0.2, 1.0),)
    with pytest.raises(ValueError, match="w and sign must be"):
        twist_average_experiment(base, 49, 2, wt, 150.0, 50.0)
    with pytest.raises(ValueError, match="support must avoid 0"):
        twist_average_experiment(base, 49, 1, (bump(0.2, 1.0), bump(-0.5, 0.5)), 150.0, 50.0)
    with pytest.raises(ValueError, match="N must be positive"):
        twist_average_experiment(base, 0, 1, wt, 150.0, 50.0)
    # the engine's message reaches the command line as one line and exit 2
    argv = ["twists", "--r", "1", "--s", "1", "--N", "0", "--w", "1", "--T", "150", "--X", "50",
            "--out-csv", str(tmp_path / "t.csv"), "--out-json", str(tmp_path / "t.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: N must be positive\n"
    assert list(tmp_path.iterdir()) == []


def test_twist_average_experiment_smoke():
    rep = twist_average_experiment(Curve(1, 1), 49, 1, (bump(0.2, 1.0),), 150.0, 50.0)
    assert len(rep.D) and (rep.weight > 0).all()
    assert len(rep.D) == len(rep.sign) == len(rep.bound)
    # every discriminant respects the sign filter
    for D, sign in zip(rep.D.tolist(), rep.sign.tolist()):
        assert sign == root_number(1, D, 49) == 1
    assert rep.W[1] > 0 and math.isfinite(rep.avg_bound[1])
    # class -> sign map only contains the sign of the rows
    for signs in rep.class_sign_map.values():
        assert signs == [1]


def test_twist_average_experiment_empty(monkeypatch):
    # an empty batch, and a non-empty batch whose minus class is empty: at
    # N = 49 every D of the positive support has sign +1
    for weight, T, X in ((bump(0.97, 0.99), 20.0, 10.0), (bump(0.5, 1.0), 4000.0, 200.0)):
        rep = twist_average_experiment(Curve(1, 1), 49, 1, (weight,), T, X)
        assert rep.W[-1] == 0.0 and math.isnan(rep.avg_bound[-1])
        assert all(signs == [1] for signs in rep.class_sign_map.values())
    assert len(rep.D) > 0 and rep.W[1] > 0 and math.isfinite(rep.avg_bound[1])
    # an empty family takes no prime sums, so it sieves nothing
    calls = []
    monkeypatch.setattr(twists, "sieve_primes", lambda *args: calls.append(args) or sieve_primes(*args))
    rep = twist_average_experiment(Curve(1, 1), 49, 1, (bump(0.97, 0.99),), 20.0, 10.0)
    assert calls == []
    for a in (rep.D, rep.sign):
        assert a.dtype == np.int64 and a.shape == (0,)
    for a in (rep.weight, rep.logN_term, rep.U1_raw, rep.U2_raw, rep.bound):
        assert a.dtype == np.float64 and a.shape == (0,)
    assert rep.W == {1: 0.0, -1: 0.0} and rep.W_unsigned == 0.0
    assert all(math.isnan(v) for v in rep.avg_bound.values())
    assert rep.class_sign_map == {}


@pytest.mark.parametrize(
    "r, s, N", [(25, 125, 1), (1, 1, 49), (-2, 3, 389), (0, 1, 36), (-1, 0, 32)]
)
def test_twist_average_matches_scalar_oracles(r, s, N):
    # the batch route over minimal twists against the root number, the
    # scalar U1 / U2 and the conductor surrogate; (25, 125) has star_map
    # d = 5 whenever 5 | D, and |Delta| of most twists at T = 2000 exceeds 2^63
    base, T, X = Curve(r, s), 2000.0, 200.0
    primes = sieve_primes(int(X))
    logX = math.log(X)
    rep = twist_average_experiment(base, N, 1, (bump(0.5, 1.0), bump(-1.0, -0.5)), T, X)
    seen_d, seen_big = set(), False
    for i, D in enumerate(rep.D.tolist()):
        assert rep.sign[i] == root_number(1, D, N), D
        tw = twist_curve(base, D)
        minimal, d = star_map(tw.r, tw.s)
        seen_d.add(d)
        seen_big |= abs(minimal.delta) > 2**63
        assert rep.U1_raw[i] == U1(minimal, X, primes)
        assert rep.U2_raw[i] == U2(minimal, X, primes)
        n = conductor_surrogate(minimal)
        assert rep.logN_term[i] == math.log(n) / logX
        assert rep.bound[i] == rank_bound(minimal, X)
    # an odd-square or unit N leaves one sign class per weight, and it can be empty
    assert set(rep.sign.tolist()) == {1, -1}
    assert seen_big
    if (r, s) == (25, 125):
        assert 5 in seen_d


@pytest.mark.parametrize(
    "r, s, N, X, delta_primes",
    [
        (-2, 3, 389, 5000.0, (211,)),
        (1, 1, 49, 1000.0, (31,)),
        (25, 125, 1, 300.0, (5, 31)),
        (-1, 0, 1, 4300.0, ()),
    ],
)
def test_twist_prime_sums_equal_the_minimal_models_traces(r, s, N, X, delta_primes):
    # chi_D(p) a_p(E) off Delta_E and the minimal models' residues at its
    # primes, against sigma_p_batch on every minimal model at every prime,
    # added with += in the same order: equal, not close.  The rows hold
    # primes p | D; (25, 125) has d = 5 at 5 | D and (-1, 0) d = 2 at even D
    # (N = 1 keeps the even D); 31^2 <= X puts a prime of Delta_E on U2's bad
    # branch; and past X = 4099 some |a_p(E)| > 127 leaves the Legendre
    # table's int8
    base, T = Curve(r, s), 2000.0
    rep = twist_average_experiment(base, N, 1, (bump(0.5, 1.0), bump(-1.0, -0.5)), T, X)
    R, S, _, _ = _minimal_twists(base, rep.D)
    primes = sieve_primes(int(X), 5)
    u1, u2 = np.zeros(len(R)), np.zeros(len(R))
    for p in primes:
        rm, sm = (np.asarray(c % p, dtype=np.int64) for c in (R, S))
        sig = sigma_p_batch(rm, sm, p)
        lp = math.log(p)
        t1 = -(lp / p) * h_X(lp, X) * sig
        if p * p <= X:
            bad = discriminant(rm, sm) % p == 0
            c = np.where(bad, -(sig * sig) / (2.0 * p * p), -(sig * sig - 2.0 * p) / (2.0 * p * p))
            u2 += c * 2.0 * lp * h_X(2.0 * lp, X)
        u1 += t1
    assert np.array_equal(rep.U1_raw, u1) and np.array_equal(rep.U2_raw, u2)
    assert tuple(p for p in primes if base.delta % p == 0) == delta_primes
    D = rep.D.tolist()
    assert any(d % p == 0 for d in D for p in primes if p > max(delta_primes, default=0))
    if r in (25, -1):  # some twist is not minimal
        assert any(R[i] != r * d * d for i, d in enumerate(D))
    if X > 4099:
        assert max(abs(sigma_p(r, s, p)) for p in primes) > 127


def test_cli_twists_factorises_the_base_once(tmp_path, monkeypatch):
    # every twist of both supports and both signs is reduced in one
    # _minimal_twists call, on one factorisation of |Delta_E|; at N = 389
    # all four (support, sign) classes are nonempty
    factorized, minimal = [], []

    def count_factorize(n):
        factorized.append(n)
        return factorize(n)

    def count_minimal(base, D):
        minimal.append(len(D))
        return _minimal_twists(base, D)

    monkeypatch.setattr(twists, "factorize", count_factorize)
    monkeypatch.setattr(twists, "_minimal_twists", count_minimal)
    rc = main(
        [
            "twists", "--r", "-2", "--s", "3", "--N", "389", "--w", "-1", "--T", "4000", "--X", "200",
            "--out-csv", str(tmp_path / "t.csv"), "--out-json", str(tmp_path / "t.json"),
        ]
    )
    assert rc == 0
    assert factorized == [abs(Curve(-2, 3).delta)]
    assert minimal == [len((tmp_path / "t.csv").read_text().splitlines()) - 1]


def test_cli_twists_exits_2_on_a_base_it_cannot_factor(tmp_path):
    # |Delta_E| = 432 q^2 for the Mersenne prime q = 2^89 - 1 > psi_12: rho
    # cannot split q^2 within its budget.  Trial division to q would not end,
    # so the command runs in a child process under a timeout
    q = 2**89 - 1
    env = dict(os.environ, PYTHONPATH=str(Path(twists.__file__).parents[1]))
    argv = ["twists", "--r", "0", "--s", str(q), "--N", "1", "--w", "1", "--T", "100", "--X", "10"]
    argv += ["--out-csv", str(tmp_path / "t.csv"), "--out-json", str(tmp_path / "t.json")]
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "avgrank.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: factorize: cannot split the cofactor {q * q} within 1048576 rho steps\n"
    assert time.monotonic() - start < 10
    assert not list(tmp_path.iterdir())


def test_twist_minimal_trace_is_not_the_character_shortcut():
    # twist of (25, 125) by D = 5 is (5^4, 5^6) times (1, 1): star_map divides
    # out d = 5, and a_5 of the minimal model is -3, where chi_5(5) a_5(E) = 0
    tw = twist_curve(Curve(25, 125), 5)
    minimal, d = star_map(tw.r, tw.s)
    assert (minimal.r, minimal.s, d) == (1, 1, 5)
    assert sigma_p(1, 1, 5) == -3 and kronecker(5, 5) == 0


def test_twist_average_rejects_large_X():
    with pytest.raises(ValueError, match=r"1 < X <= T\^2"):
        twist_average_experiment(Curve(1, 1), 49, 1, (bump(0.2, 1.0),), 10.0, 1000.0)



def test_twists_beyond_physical_memory_are_rejected_before_any_batch(tmp_path, capsys, monkeypatch):
    # 1 MiB of physical memory: T = 1e3 needs 145 KB, T = 1e4 needs 1.45 MB
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.__getitem__)
    supports = (bump(0.5, 1.0), bump(-1.0, -0.5))
    assert len(twist_average_experiment(Curve(-2, 3), 389, -1, supports, 1e3, 50.0).D) > 0

    def no_batch(*args):
        raise AssertionError("a twist batch was built before the memory check")

    monkeypatch.setattr(twists, "twist_batch", no_batch)
    with pytest.raises(ValueError) as exc:
        twist_average_experiment(Curve(-2, 3), 389, -1, supports, 1e4, 50.0)
    assert str(exc.value) == (
        "T = 10000 is too large: the twist family needs 0.00135 GiB, "
        "more than the 0.000977 GiB of physical memory"
    )
    out = ["--out-csv", str(tmp_path / "t.csv"), "--out-json", str(tmp_path / "t.json")]
    argv = ["twists", "--r", "-2", "--s", "3", "--N", "389", "--w", "-1", "--T", "1e4", "--X", "50", *out]
    assert main(argv) == 2
    assert "the twist family needs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_poisson_twist_check_small(monkeypatch):
    w = bump(1.0, 2.0)
    res = poisson_twist_check(w, 1, 5, 100.0)
    assert res < 1e-6
    res = poisson_twist_check(w, 8, 5, 100.0)
    assert res < 1e-6
    # (./7) is odd, so the conjugate dual terms read psi_p at -m, not m
    res = poisson_twist_check(w, 1, 7, 100.0)
    assert res < 1e-6
    # the first dual term cannot be certified to the floor: fail at once,
    # not after 5000 terms
    monkeypatch.setattr(twists, "_POISSON_TOL", 1e-30)
    with pytest.raises(IdentityViolatedError, match="cannot be certified"):
        poisson_twist_check(w, 1, 5, 100.0)
    with pytest.raises(ValueError):
        poisson_twist_check(w, 8, 2, 100.0)


def test_theorem4_proportions():
    assert theorem4_proportions(1.5, 1.5) == (0.25, 0.75)
    assert theorem4_proportions(2.0, 1.0) == (0.0, 1.0)
    assert theorem4_proportions(0.0, 1.0) == (1.0, 1.0)
    with pytest.raises(ValueError):
        theorem4_proportions(-0.1, 1.0)
