"""Output checks for the benchmark workloads.

Each check reads what one CLI invocation wrote and tests it by a route
independent of the one that produced it: family counts and minimality
by direct integer arithmetic, twist traces from the base curve's
character-sum traces and an Euler-criterion Legendre symbol, scalar
per-curve prime sums against the batch engine and back.  A check
returns a list of problems (empty when the output is right) and the
number of (curve, prime) trace values the output depends on.  The work
directory passed to a check is the one given to the CLI, relative to
the repository root.
"""

from __future__ import annotations

import csv
import json
import math
import random
import struct
from pathlib import Path

import numpy as np

ABS_TOL = 1e-9


# ---------------------------------------------------------------------------
# independent arithmetic


def int_root(x: float, k: int) -> int:
    """floor(x^(1/k)) for x >= 0, exact."""
    n = int(x ** (1.0 / k))
    while (n + 1) ** k <= x:
        n += 1
    while n > 0 and n**k > x:
        n -= 1
    return n


def primes_upto(n: int) -> list[int]:
    """Primes <= n by trial division against the primes found so far."""
    out: list[int] = []
    for m in range(2, int(n) + 1):
        if all(m % p for p in out if p * p <= m):
            out.append(m)
    return out


def trace_primes(X: float) -> list[int]:
    """The primes 5 <= p <= X that the explicit-formula sums run over."""
    return [p for p in primes_upto(int(X)) if p >= 5]


def minimal_box(T: float) -> tuple[np.ndarray, np.ndarray]:
    """(r, s) of every nonsingular minimal curve in the box of height T, row-major."""
    rmax, smax = int_root(T, 3), int_root(T, 2)
    R = np.repeat(np.arange(-rmax, rmax + 1, dtype=np.int64), 2 * smax + 1)
    S = np.tile(np.arange(-smax, smax + 1, dtype=np.int64), 2 * rmax + 1)
    keep = 4 * R**3 + 27 * S**2 != 0
    for p in primes_upto(max(int_root(rmax, 4), int_root(smax, 6)) + 1):
        keep &= ~((R % p**4 == 0) & (S % p**6 == 0))
    return R[keep], S[keep]


def legendre(a: int, p: int) -> int:
    """(a/p) for an odd prime p by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def is_fundamental(D: int) -> bool:
    def squarefree(m: int) -> bool:
        m = abs(m)
        d = 2
        while d * d <= m:
            if m % (d * d) == 0:
                return False
            d += 1
        return m != 0

    if D % 4 == 1:
        return squarefree(D)
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and squarefree(D // 4)


def h_X(t: float, X: float) -> float:
    return max(1.0 - abs(t) / math.log(X), 0.0)


# ---------------------------------------------------------------------------
# readers


def read_csv(path: Path, header: str) -> tuple[list[list[str]], list[str]]:
    problems = []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or ",".join(rows[0]) != header:
        problems.append(f"{path.name}: header is not {header!r}")
        return [], problems
    return rows[1:], problems


def close(a: float, b: float, tol: float = ABS_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# average-rank


def check_average_rank(work: Path, params: dict, seed: int) -> tuple[list[str], int]:
    """JSON means recompute from the CSV; sampled rows match the scalar route."""
    from avgrank.arith import sieve_primes
    from avgrank.curves import Curve, conductor_surrogate
    from avgrank.families import U1, U2

    rows, problems = read_csv(work / "rows.csv", "r,s,logN_term,U1_term,U2_term,bound")
    summary = json.loads((work / "summary.json").read_text())
    T, X = params["T"], params["X"]
    n = len(rows)
    if n == 0:
        return problems + ["rows.csv: no rows"], 0
    if summary["n_curves"] != n or summary["T"] != T or summary["X"] != X:
        problems.append("summary.json: n_curves, T or X disagree with the run")
    r = np.array([int(x[0]) for x in rows], dtype=np.int64)
    s = np.array([int(x[1]) for x in rows], dtype=np.int64)
    cols = {name: [float(x[i]) for x in rows] for i, name in enumerate(("logN", "U1", "U2", "bound"), 2)}
    for name, col in cols.items():
        if math.fsum(col) / n != summary[f"mean_{name}" if name == "bound" else f"mean_{name}_term"]:
            problems.append(f"summary.json: mean of {name} does not recompute from rows.csv")
    logX = math.log(X)
    for i in range(n):
        if not close(cols["bound"][i], cols["logN"][i] + cols["U1"][i] + cols["U2"][i]):
            problems.append(f"rows.csv row {i + 1}: bound is not the sum of its terms")
            break
    keys = r * 10**9 + s
    if not (np.diff(keys) > 0).all():
        problems.append("rows.csv: (r, s) not strictly increasing")
    R, S = minimal_box(T)
    if not np.isin(keys, R * 10**9 + S).all():
        problems.append("rows.csv: a curve is singular, non-minimal or outside the box")
    primes = sieve_primes(int(X))
    for i in sorted(random.Random(seed).sample(range(n), min(8, n))):
        cur = Curve(int(r[i]), int(s[i]))
        want = (
            math.log(conductor_surrogate(cur)) / logX,
            2.0 / logX * U1(cur, X, primes),
            2.0 / logX * U2(cur, X, primes),
        )
        got = (cols["logN"][i], cols["U1"][i], cols["U2"][i])
        if not all(close(a, b) for a, b in zip(got, want)):
            problems.append(f"rows.csv row {i + 1}: terms {got} != scalar route {want}")
    return problems, n * len(trace_primes(X))


# ---------------------------------------------------------------------------
# density


def check_density(work: Path, params: dict, seed: int) -> tuple[list[str], int]:
    """Counts from direct enumeration; the census recomputed by the batch engine."""
    from avgrank.curves import sigma_p_batch
    from avgrank.families import _conductor_batch

    rows, problems = read_csv(work / "density.csv", "R,census,markov_bound,reference_decay")
    summary = json.loads((work / "density.json").read_text())
    T, X, R_max = params["T"], params["X"], params["R_max"]
    R, S = minimal_box(T)
    rmax, smax = int_root(T, 3), int_root(T, 2)
    n_D = (2 * rmax + 1) * (2 * smax + 1) - sum(
        1 for r in range(-rmax, 1) for s in range(-smax, smax + 1) if 4 * r**3 + 27 * s**2 == 0
    )
    if summary["n_C"] != len(R) or summary["n_D"] != n_D:
        problems.append(f"density.json: n_C/n_D {summary['n_C']}/{summary['n_D']} != {len(R)}/{n_D}")
    if [int(x[0]) for x in rows] != list(range(R_max + 1)):
        return problems + ["density.csv: R column is not 0..R_max"], 0
    census = [int(x[1]) for x in rows]
    if census[0] != len(R):
        problems.append(f"density.csv: census at R=0 is {census[0]}, n_C is {len(R)}")
    if any(a < b for a, b in zip(census, census[1:])):
        problems.append("density.csv: census increases with R")
    # every curve's bound through the batch trace engine
    logX = math.log(X)
    delta = -16 * (4 * R**3 + 27 * S**2)
    u = np.zeros(len(R))
    for p in trace_primes(X):
        sig = sigma_p_batch(R, S, p).astype(np.float64)
        lp = math.log(p)
        u -= lp / p * h_X(lp, X) * sig
        if p * p <= X:
            c = np.where(delta % p == 0, -(sig * sig) / (2.0 * p * p), -(sig * sig - 2.0 * p) / (2.0 * p * p))
            u += c * 2.0 * lp * h_X(2.0 * lp, X)
    bound = _conductor_batch(R, delta) / logX + 2.0 / logX * u
    for Rv, got in enumerate(census):
        lo, hi = int((bound >= Rv + ABS_TOL).sum()), int((bound >= Rv - ABS_TOL).sum())
        if not lo <= got <= hi:
            problems.append(f"density.csv: census at R={Rv} is {got}, batch route gives {lo}")
    for x in rows:
        Rv = int(x[0])
        ref = 1.0 if Rv == 0 else (1.5 * Rv) ** (-Rv / 12.0)
        if not close(float(x[3]), ref, 1e-15):
            problems.append(f"density.csv: reference_decay at R={Rv} is {x[3]}, want {ref!r}")
        k = max(1, (Rv - 3) // 12)
        XR = T ** (1.0 / (6 * k))
        admissible = XR >= 2 and Rv >= 3 + 2 * math.log(T) / math.log(XR)
        if admissible != (x[2] != "") or (admissible and not 0.0 <= float(x[2]) < math.inf):
            problems.append(f"density.csv: markov_bound at R={Rv} is {x[2]!r}, admissible={admissible}")
    return problems, len(R) * len(trace_primes(X))


# ---------------------------------------------------------------------------
# twists


def check_twists(work: Path, params: dict, seed: int) -> tuple[list[str], int]:
    """Root numbers and U1 of every twist row from the base curve's traces."""
    from avgrank.curves import sigma_p_charsum

    rows, problems = read_csv(work / "twists.csv", "D,sign,weight,logN_term,U1_term,U2_term,bound")
    summary = json.loads((work / "twists.json").read_text())
    T, X = params["T"], params["X"]
    r, s, N, w = params["r"], params["s"], params["N"], params["w"]
    if not rows:
        return problems + ["twists.csv: no rows"], 0
    if summary["partition_gap"] > ABS_TOL * max(1.0, summary["W_unsigned"]):
        problems.append(f"twists.json: partition_gap {summary['partition_gap']!r} is not ~0")
    ps = trace_primes(X)
    base = {p: sigma_p_charsum(r, s, p) for p in ps}
    coef = {p: -(math.log(p) / p) * h_X(math.log(p), X) * base[p] for p in ps}
    W = {1: [], -1: []}
    seen = set()
    for x in rows:
        D, sign, wt, u1 = int(x[0]), int(x[1]), float(x[2]), float(x[4])
        if (D, sign) in seen or not is_fundamental(D) or math.gcd(D, N) != 1 or not wt > 0:
            problems.append(f"twists.csv: D={D} is repeated, not fundamental, not coprime to N or unweighted")
            break
        seen.add((D, sign))
        root = w * (1 if D > 0 else -1) * jacobi(D, N)
        if root != sign:
            problems.append(f"twists.csv: D={D} has sign {sign}, root number is {root}")
            break
        want = math.fsum(coef[p] * legendre(D, p) for p in ps)
        if not close(u1, want):
            problems.append(f"twists.csv: D={D} U1 {u1!r} != chi_D(p) a_p(E) route {want!r}")
            break
        W[sign].append(wt)
    for sign, key in ((1, "W_plus"), (-1, "W_minus")):
        if not problems and not close(math.fsum(W[sign]), summary[key], 1e-12):
            problems.append(f"twists.json: {key} does not recompute from the weights in twists.csv")
    return problems, len(rows) * len(ps)


# ---------------------------------------------------------------------------
# verify and cache

VERIFY_SUITES = (
    "traces", "ramanujan", "gcd-sum", "floor-inequality", "fejer",
    "kernel", "sieve-indicator", "poisson", "cache",
)
CACHE_HEADER = struct.Struct("<8sqq")


def check_verify(work: Path, params: dict, seed: int) -> tuple[list[str], int]:
    lines = (work / "verify.out").read_text().splitlines()
    want = [f"PASS {name}" for name in VERIFY_SUITES]
    return ([] if lines == want else [f"verify.out: {lines} != {want}"]), 0


def read_cache(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    magic, version, count = CACHE_HEADER.unpack_from(raw)
    if magic != b"APCACHE1" or version != 1 or len(raw) != CACHE_HEADER.size + 32 * count:
        raise ValueError(f"{path.name}: bad header or length")
    return np.frombuffer(raw, dtype="<i8", offset=CACHE_HEADER.size).reshape(count, 4)


def check_cache_build(work: Path, params: dict, seed: int) -> tuple[list[str], int]:
    """Keys from direct enumeration, every a_p from the batch engine, a sample by character sums."""
    from avgrank.curves import sigma_p_batch, sigma_p_charsum

    T, X = params["T"], params["X"]
    path = work / "ap.apcache"
    R, S = minimal_box(T)
    ps = trace_primes(X)
    n = len(R) * len(ps)
    problems = []
    out = (work / "build.out").read_text()
    if out != f"wrote {n} records to {path}\n":
        problems.append(f"build.out: {out!r} does not report {n} records")
    try:
        rec = read_cache(path)
    except ValueError as exc:
        return problems + [str(exc)], n
    want = np.stack(
        [np.repeat(R, len(ps)), np.repeat(S, len(ps)), np.tile(np.asarray(ps, dtype=np.int64), len(R))], axis=1
    )
    if rec.shape != (n, 4) or not (rec[:, :3] == want).all():
        return problems + ["ap.apcache: keys differ from the minimal box times the primes"], n
    for j, p in enumerate(ps):
        if not (rec[j :: len(ps), 3] == sigma_p_batch(R, S, p)).all():
            problems.append(f"ap.apcache: a_p at p={p} differs from the batch engine")
            break
    for i in random.Random(seed).sample(range(n), min(16, n)):
        rr, ss, p, a = (int(v) for v in rec[i])
        if sigma_p_charsum(rr, ss, p) != a:
            problems.append(f"ap.apcache: a_{p}({rr}, {ss}) = {a} differs from the character sum")
    return problems, n


def check_cache_check(work: Path, params: dict, seed: int) -> tuple[list[str], int]:
    n = len(read_cache(work / "ap.apcache"))
    out = (work / "check.out").read_text()
    return ([] if out == f"ok: {n} records\n" else [f"check.out: {out!r} is not 'ok: {n} records'"]), 0


def check_corrupt_rejected(work: Path, params: dict, seed: int) -> tuple[list[str], int]:
    err = (work / "corrupt.out.err").read_text()
    return ([] if "Hasse bound violated" in err else [f"corrupt check: {err!r} names no Hasse violation"]), 0


def corrupt_copy(work: Path, seed: int) -> None:
    """Copy the cache with one seed-chosen a_p replaced by a value beyond the Hasse bound."""
    raw = bytearray((work / "ap.apcache").read_bytes())
    count = CACHE_HEADER.unpack_from(raw)[2]
    i = random.Random(seed).randrange(count)
    off = CACHE_HEADER.size + 32 * i + 24
    raw[off : off + 8] = (10**6).to_bytes(8, "little", signed=True)
    (work / "ap_corrupt.apcache").write_bytes(bytes(raw))
