import argparse
import json
import math
import os
import random
import resource
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from avgrank.cache import (
    MAGIC,
    ApCache,
    CorruptCacheError,
    cache_build,
    cache_check,
    cache_load,
    cache_save,
)
from avgrank import cache as cache_mod
from avgrank import cli, families, moments, twists
from avgrank.cli import load_curve_data, main
from avgrank.curves import Curve, ap
from avgrank.families import enumerate_C


# ---------------------------------------------------------------------------
# cache


def test_cache_roundtrip(tmp_path):
    c = cache_build(30.0, 20.0)
    assert len(c) > 0
    path = tmp_path / "c.apcache"
    cache_save(c, path)
    loaded = cache_load(path)
    assert (loaded.records == c.records).all()


def test_cache_build_records_match_ap():
    # one record per curve of C(20) and prime 5..13, in (r, s, p) order
    rec = cache_build(20.0, 15.0).records.tolist()
    assert [row[:3] for row in rec] == [[c.r, c.s, p] for c in enumerate_C(20.0) for p in (5, 7, 11, 13)]
    for r, s, p, a in rec:
        assert a == ap(Curve(r, s), p).ap


def test_apcache_requires_n_by_4_records():
    for shape in ((3, 3), (12,), (2, 4, 1)):
        with pytest.raises(ValueError, match=r"\(n, 4\)"):
            ApCache(records=np.zeros(shape, dtype=np.int64))


def test_cache_load_rejects_truncation(tmp_path):
    c = cache_build(10.0, 10.0)
    path = tmp_path / "c.apcache"
    cache_save(c, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.apcache"
    bad.write_bytes(raw[:-5])
    with pytest.raises(CorruptCacheError, match="record bytes"):
        cache_load(bad)
    bad.write_bytes(raw[:10])
    with pytest.raises(CorruptCacheError, match="truncated"):
        cache_load(bad)


def test_cache_load_rejects_bad_magic_and_version(tmp_path):
    c = cache_build(10.0, 10.0)
    path = tmp_path / "c.apcache"
    cache_save(c, path)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.apcache"
    raw2 = bytearray(raw)
    raw2[:8] = b"NOTMAGIC"
    bad.write_bytes(bytes(raw2))
    with pytest.raises(CorruptCacheError, match="magic"):
        cache_load(bad)
    raw2 = bytearray(raw)
    raw2[8:16] = struct.pack("<q", 99)
    bad.write_bytes(bytes(raw2))
    with pytest.raises(CorruptCacheError, match="version"):
        cache_load(bad)


def test_apcache_rejects_unsorted_records():
    # reversed records: cache_save would write a file that cache_check rejects
    rec = cache_build(300.0, 40.0).records
    with pytest.raises(ValueError, match=r"not strictly sorted by \(r, s, p\) at index 1$"):
        ApCache(records=rec[::-1].copy())
    # a duplicate key; two primes of one curve swapped
    dup, swap = rec.copy(), rec.copy()
    dup[6, :3] = rec[5, :3]
    swap[[7, 8]] = rec[[8, 7]]
    for bad, at in ((dup, 6), (swap, 8)):
        assert bad[at, 0] == bad[at - 1, 0] and bad[at, 1] == bad[at - 1, 1]
        with pytest.raises(ValueError, match=f"at index {at}$"):
            ApCache(records=bad)


def _write_records(path, rec: np.ndarray) -> None:
    """A cache file of rec as given, sorted or not, as another writer may leave it."""
    path.write_bytes(cache_mod._HEADER.pack(MAGIC, cache_mod.VERSION, len(rec)) + rec.astype("<i8").tobytes())


def test_cache_load_rejects_unsorted_and_hasse(tmp_path):
    c = cache_build(10.0, 10.0)
    path = tmp_path / "c.apcache"
    # swap two records to break sortedness
    rec = c.records.copy()
    rec[[0, 1]] = rec[[1, 0]]
    _write_records(path, rec)
    with pytest.raises(CorruptCacheError, match="sorted"):
        cache_load(path)
    # corrupt an a_p beyond the Hasse bound
    rec = c.records.copy()
    rec[3, 3] = 10**6
    cache_save(ApCache(records=rec), path)
    with pytest.raises(CorruptCacheError, match="Hasse"):
        cache_load(path)


# a_p^2 of these wraps in int64 to 0 and to a negative number
OVERFLOW_APS = (2**32, -(2**32), 3_037_000_500, -3_037_000_500)


@pytest.mark.parametrize("a", OVERFLOW_APS)
def test_hasse_check_is_exact_beyond_int64(tmp_path, capsys, a):
    rec = cache_build(10.0, 10.0).records.copy()
    rec[2, 3] = a
    path = tmp_path / "c.apcache"
    cache_save(ApCache(records=rec), path)
    for read in (cache_check, cache_load):
        with pytest.raises(CorruptCacheError, match=f"Hasse bound violated at index 2: .*ap={a}\\)"):
            read(path)
    assert run_cli(["cache", "check", "--path", str(path)]) == 4
    assert "Hasse bound violated at index 2" in capsys.readouterr().err


def _reference_verdict(path, rec: np.ndarray) -> str | None:
    """The error message a full-body check gives, or None for a valid body.

    Keys are compared column by column in int64 (exact for any int64 key),
    and the Hasse bound in Python integers, so no square can wrap.
    """
    prev, curr = rec[:-1, :3], rec[1:, :3]
    r_eq, s_eq = prev[:, 0] == curr[:, 0], prev[:, 1] == curr[:, 1]
    ordered = (
        (prev[:, 0] < curr[:, 0])
        | (r_eq & (prev[:, 1] < curr[:, 1]))
        | (r_eq & s_eq & (prev[:, 2] < curr[:, 2]))
    )
    if not ordered.all():
        return f"corrupt cache {path}: records not strictly sorted at index {int(np.argmin(ordered)) + 1}"
    for i, (r, s, p, a) in enumerate(rec.tolist()):
        if a * a > 4 * p:
            return f"corrupt cache {path}: Hasse bound violated at index {i}: (r={r}, s={s}, p={p}, ap={a})"
    return None


def _corrupt(rec: np.ndarray, rng: random.Random) -> None:
    """Apply one random corruption to rec in place."""
    n = len(rec)
    i = rng.randrange(n)
    kind = rng.choice(("swap", "duplicate", "ap", "negative p"))
    if kind == "swap":
        j = min(i + 1, n - 1)
        rec[[i, j]] = rec[[j, i]]
    elif kind == "duplicate":
        j = min(i + 1, n - 1)
        rec[j, :3] = rec[i, :3]
    elif kind == "ap":
        bound = math.isqrt(4 * int(rec[i, 2]))
        rec[i, 3] = rng.choice((bound, bound + 1, -bound - 1, 10**6, 2**62, *OVERFLOW_APS))
    else:
        rec[i, 2] = -rng.randrange(1, 2**40)


def test_block_validator_matches_full_body_reference(tmp_path, monkeypatch):
    # blocks of 7 records, so breaks fall on and next to block boundaries
    monkeypatch.setattr(cache_mod, "_BLOCK", 7)
    base = cache_build(12.0, 40.0).records
    assert len(base) > 10 * 7
    path = tmp_path / "c.apcache"
    rng = random.Random(2003)
    verdicts = set()
    for case in range(300):
        rec = base[: rng.randrange(1, len(base) + 1)].copy()
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            _corrupt(rec, rng)
        _write_records(path, rec)
        want = _reference_verdict(path, rec)
        verdicts.add(want is None or want.split(": ")[1][:5])
        for read in (cache_check, cache_load):
            try:
                read(path)
                got = None
            except CorruptCacheError as exc:
                got = str(exc)
            assert got == want, (case, read.__name__)
        if want is None:
            assert cache_check(path) == len(rec)
            assert (cache_load(path).records == rec).all()
    # every verdict occurred: valid, unsorted and Hasse-violating files
    assert verdicts == {True, "recor", "Hasse"}


# ---------------------------------------------------------------------------
# curve-data files


def test_load_curve_data(tmp_path):
    f = tmp_path / "curves.txt"
    f.write_text("# base curves\n1 1 49 1\n\n-2 3 389 -1\n")
    rows = load_curve_data(f)
    assert len(rows) == 2
    cur, N, w = rows[0]
    assert (cur.r, cur.s, N, w) == (1, 1, 49, 1)
    assert rows[1][1:] == (389, -1)


@pytest.mark.parametrize(
    "content,match",
    [
        ("1 1 49\n", "4 fields"),
        ("1 1 49 2\n", "root number"),
        ("1 1 0 1\n", "conductor"),
        ("-3 2 49 1\n", "singular"),
        ("a b c d\n", "non-integer"),
        ("", "no curve records"),
    ],
)
def test_load_curve_data_rejects(tmp_path, content, match):
    f = tmp_path / "curves.txt"
    f.write_text(content)
    with pytest.raises(ValueError, match=match):
        load_curve_data(f)


# ---------------------------------------------------------------------------
# CLI


def run_cli(args):
    return main(args)


def test_cli_average_rank_outputs(tmp_path):
    csv = tmp_path / "rows.csv"
    js = tmp_path / "summary.json"
    rc = run_cli(
        [
            "average-rank",
            "--T", "500", "--X", "30",
            "--out-csv", str(csv), "--out-json", str(js),
        ]
    )
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "r,s,logN_term,U1_term,U2_term,bound"
    summary = json.loads(js.read_text())
    assert summary["n_curves"] == len(lines) - 1
    # summary means recompute from the CSV rows
    cols = list(zip(*(ln.split(",") for ln in lines[1:])))
    for key, idx in [
        ("mean_logN_term", 2),
        ("mean_U1_term", 3),
        ("mean_U2_term", 4),
        ("mean_bound", 5),
    ]:
        mean = math.fsum(float(x) for x in cols[idx]) / (len(lines) - 1)
        assert abs(summary[key] - mean) < 1e-12
    assert "caveat" in summary


def test_cli_average_rank_determinism_across_threads(tmp_path):
    outputs = []
    for threads in ("1", "4"):
        csv = tmp_path / f"rows{threads}.csv"
        js = tmp_path / f"sum{threads}.json"
        rc = run_cli(
            [
                "average-rank",
                "--T", "500", "--X", "30",
                "--threads", threads,
                "--out-csv", str(csv), "--out-json", str(js),
            ]
        )
        assert rc == 0
        outputs.append((csv.read_bytes(), js.read_bytes()))
    assert outputs[0] == outputs[1]


def test_cli_average_rank_empty_family(tmp_path):
    rc = run_cli(
        [
            "average-rank",
            # T = 8: every candidate r sits exactly on the zero boundary of
            # the r-weight, so the weighted family has no members
            "--T", "8", "--X", "5",
            "--out-csv", str(tmp_path / "r.csv"),
            "--out-json", str(tmp_path / "s.json"),
        ]
    )
    assert rc == 3


def test_cli_missing_required_flag(tmp_path):
    rc = run_cli(["average-rank", "--T", "500"])
    assert rc == 2


def test_cli_config_file_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 500, "X": 30, "out-csv": str(tmp_path / "a.csv"), "out-json": str(tmp_path / "a.json")}))
    rc = run_cli(["average-rank", "--config", str(cfg)])
    assert rc == 0
    # flag overrides the config value
    rc = run_cli(
        [
            "average-rank", "--config", str(cfg),
            "--out-csv", str(tmp_path / "b.csv"),
            "--out-json", str(tmp_path / "b.json"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_cli_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = run_cli(["average-rank", "--config", str(cfg)])
    assert rc == 2


def test_cli_density(tmp_path):
    csv = tmp_path / "d.csv"
    js = tmp_path / "d.json"
    rc = run_cli(
        [
            "density",
            "--T", "200", "--X", "20", "--R-max", "5",
            "--out-csv", str(csv), "--out-json", str(js),
        ]
    )
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "R,census,markov_bound,reference_decay"
    rows = [ln.split(",") for ln in lines[1:]]
    Rs = [int(r[0]) for r in rows]
    assert Rs == sorted(Rs) and len(set(Rs)) == len(Rs)
    census = [int(r[1]) for r in rows]
    assert census == sorted(census, reverse=True)
    summary = json.loads(js.read_text())
    assert summary["n_C"] >= 1 and summary["n_D"] >= summary["n_C"]


def test_cli_twists(tmp_path):
    csv = tmp_path / "t.csv"
    js = tmp_path / "t.json"
    rc = run_cli(
        [
            "twists",
            "--r", "1", "--s", "1", "--N", "49", "--w", "1",
            "--T", "120", "--X", "30",
            "--out-csv", str(csv), "--out-json", str(js),
        ]
    )
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "D,sign,weight,logN_term,U1_term,U2_term,bound"
    summary = json.loads(js.read_text())
    assert summary["partition_gap"] < 1e-9
    assert summary["W_plus"] > 0 and summary["W_minus"] > 0
    assert 0.0 <= summary["proportion_rank0_lower"] <= 1.0
    assert summary["class_sign_map"]


def test_cli_twists_curve_file(tmp_path):
    f = tmp_path / "curves.txt"
    f.write_text("1 1 49 1\n")
    rc = run_cli(
        [
            "twists",
            "--curve-file", str(f),
            "--T", "120", "--X", "30",
            "--out-csv", str(tmp_path / "t.csv"),
            "--out-json", str(tmp_path / "t.json"),
        ]
    )
    assert rc == 0


def test_cli_cache_build_and_check(tmp_path):
    out = tmp_path / "c.apcache"
    rc = run_cli(["cache", "build", "--T", "30", "--X", "20", "--out", str(out)])
    assert rc == 0
    rc = run_cli(["cache", "check", "--path", str(out)])
    assert rc == 0
    # corrupt it
    raw = bytearray(out.read_bytes())
    raw[-8:] = (10**9).to_bytes(8, "little", signed=True)
    out.write_bytes(bytes(raw))
    rc = run_cli(["cache", "check", "--path", str(out)])
    assert rc == 4


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_cli_twists_X_above_T_squared_exits_2(tmp_path, capsys, monkeypatch):
    # rejected before the discriminants are sieved
    def no_batch(*args):
        raise AssertionError("twist_batch ran before the X check")

    monkeypatch.setattr(twists, "twist_batch", no_batch)
    rc = run_cli(
        [
            "twists", "--r", "1", "--s", "1", "--N", "49", "--w", "1",
            "--T", "10", "--X", "1000",
            "--out-csv", str(tmp_path / "t.csv"), "--out-json", str(tmp_path / "t.json"),
        ]
    )
    assert rc == 2
    assert "X <= T^2" in _one_error_line(capsys)


def test_cli_density_X_1_exits_2(tmp_path, capsys):
    rc = run_cli(
        [
            "density", "--T", "200", "--X", "1",
            "--out-csv", str(tmp_path / "d.csv"), "--out-json", str(tmp_path / "d.json"),
        ]
    )
    assert rc == 2
    assert "X > 1" in _one_error_line(capsys)


def test_cli_cache_check_missing_file_exits_2(tmp_path, capsys):
    rc = run_cli(["cache", "check", "--path", str(tmp_path / "missing.apcache")])
    assert rc == 2
    assert "missing.apcache" in _one_error_line(capsys)


def test_cli_cache_build_T_below_1_exits_2(tmp_path, capsys):
    out = tmp_path / "c.apcache"
    rc = run_cli(["cache", "build", "--T", "0.5", "--X", "30", "--out", str(out)])
    assert rc == 2
    line = _one_error_line(capsys)
    assert "T >= 1" in line and "box_grid" not in line
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["density", "cache build"])
def test_cli_sieve_beyond_memory_exits_2_before_writing(tmp_path, capsys, monkeypatch, cmd):
    # the box passes and the sieve is refused.  cache build: 64 KiB of
    # physical memory and the sieve to 2e4.  density: X <= T^(5/6) keeps the
    # box (checked first) above the sieve but at tiny X; at T = 4 the box
    # needs 120 bytes and the sieve to 3 needs 175, so 150 bytes lie between.
    # The census rows, checked before the box, need 200 bytes even at
    # R_max = 0, more than any sieve so small a box admits, so here they
    # are counted at 0 bytes
    memory, flags, limit = {
        "density": (150, ("--T", "4", "--X", "3"), 3),
        "cache build": (2**16, ("--X", "2e4"), 20000),
    }[cmd]
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}.__getitem__)
    monkeypatch.setattr(moments, "_CENSUS_ROW_BYTES", 0)
    rc = run_cli(_argv(cmd, tmp_path, *flags))
    assert rc == 2
    assert f"the prime sieve to {limit} needs" in _one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


def test_cli_density_X_above_T_5_6_exits_2_before_sieving(tmp_path):
    # average-rank's bound X <= T^(5/6): without it this sieves to 1e5 and
    # builds a class table per prime, minutes of work, so a child process
    # that still runs it meets the timeout
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "avgrank.cli", *_argv("density", tmp_path, "--T", "100", "--X", "1e5")]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, env=env, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: density requires X <= T^(5/6)\n"
    assert list(tmp_path.iterdir()) == []


# A launcher that loads nothing but os: posix_spawn's child counts the
# launcher's size at exec in its ru_maxrss, so the reading is the CLI's own.
_MAXRSS_LAUNCHER = """\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_cli_twists_memory_is_linear_in_rows(tmp_path):
    # 6,056 rows x 428 primes: kept as one column per prime, every term of
    # every row (180 MB peak RSS); added prime by prime, O(rows) (39 MB)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [
        sys.executable, "-S", "-c", _MAXRSS_LAUNCHER, "-m", "avgrank.cli", "twists",
        "--r", "-2", "--s", "3", "--N", "389", "--w", "-1", "--T", "2e4", "--X", "3000",
        "--out-csv", str(tmp_path / "t.csv"), "--out-json", str(tmp_path / "t.json"),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    rc, maxrss_kb = map(int, proc.stdout.split())
    assert rc == 0, proc.stderr
    assert maxrss_kb < 100 * 1024, maxrss_kb


def test_cli_cache_build_beyond_memory_exits_2_before_writing(tmp_path, capsys, monkeypatch):
    # 1 MiB of physical memory: the sieve to 200 and the box at T = 1e3
    # pass, the ~1300 x 44 records of 32 bytes each are refused
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.__getitem__)
    rc = run_cli(["cache", "build", "--T", "1e3", "--X", "200", "--out", str(tmp_path / "c.apcache")])
    assert rc == 2
    assert "the a_p cache of " in _one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


def test_cli_verify_checks_the_batch_engine(capsys, monkeypatch):
    # one trace of the 9 x 9 rectangle off at p = 47: the scalar oracles
    # still agree, so only the engine check can fail
    from avgrank import curves, verify

    def wrong(r, s, p):
        a = curves.sigma_p_batch(r, s, p)
        return np.where((r == 4) & (s == -4) & (p == 47), a + 2, a)

    monkeypatch.setattr(verify, "sigma_p_batch", wrong)
    assert run_cli(["verify"]) == 4
    out = capsys.readouterr()
    assert "FAIL traces\n" in out.out and out.err == "failing suites: traces\n"


def test_cli_twists_empty_class_writes_null(tmp_path):
    js = tmp_path / "t.json"
    rc = run_cli(
        [
            "twists", "--r", "1", "--s", "1", "--N", "49", "--w", "1",
            "--T", "5", "--X", "9",
            "--out-csv", str(tmp_path / "t.csv"), "--out-json", str(js),
        ]
    )
    assert rc == 0

    def reject(token):
        raise AssertionError(f"non-JSON constant {token} in output")

    summary = json.loads(js.read_text(), parse_constant=reject)
    # no twist lands in the + class at this size, so its averages are undefined
    assert summary["W_plus"] == 0.0 and summary["W_minus"] > 0
    assert summary["avg_bound_plus"] is None
    assert summary["proportion_rank0_lower"] is None
    assert summary["avg_bound_minus"] is not None


def _argv(cmd, tmp_path, *extra):
    """Full argv of a subcommand with valid defaults; extra flags come last."""
    out = [str(tmp_path / "out.csv"), str(tmp_path / "out.json")]
    base = {
        "average-rank": ["average-rank", "--T", "500", "--X", "30"],
        "density": ["density", "--T", "500", "--X", "30"],
        "twists": ["twists", "--r", "1", "--s", "1", "--N", "49", "--w", "1", "--T", "500", "--X", "30"],
    }
    if cmd == "cache build":
        return ["cache", "build", "--T", "30", "--X", "20", "--out", str(tmp_path / "out.apcache"), *extra]
    return base[cmd] + ["--out-csv", out[0], "--out-json", out[1], *extra]


@pytest.mark.parametrize(
    "cmd, flags, match",
    [
        ("average-rank", ("--T", "inf"), "--T must be a finite number"),
        ("density", ("--T", "inf"), "--T must be a finite number"),
        ("twists", ("--T", "inf"), "--T must be a finite number"),
        ("cache build", ("--T", "inf"), "--T must be a finite number"),
        ("cache build", ("--X", "inf"), "--X must be a finite number"),
        ("average-rank", ("--C0", "nan"), "--C0 must be a finite number"),
        ("average-rank", ("--C0", "inf"), "--C0 must be a finite number"),
        ("density", ("--C0", "nan"), "--C0 must be a finite number"),
        ("density", ("--C0", "inf"), "--C0 must be a finite number"),
        ("density", ("--R-max", "-1"), "--R-max must be a nonnegative integer"),
        ("average-rank", ("--threads", "0"), "--threads must be a positive integer"),
        ("cache build", ("--threads", "-3"), "--threads must be a positive integer"),
        # a finite C0 whose bounds overflow: in math.fsum, or to inf in the JSON
        ("average-rank", ("--C0", "1e308"), "OverflowError: intermediate overflow in fsum"),
        ("average-rank", ("--X", "1.001", "--C0", "1e308"), "not JSON compliant: inf"),
        ("twists", ("--C0", "1e308"), "OverflowError: intermediate overflow in fsum"),
        ("twists", ("--X", "1.0001", "--C0", "1e306"), "not JSON compliant: inf"),
        # a T whose family cannot be indexed in int64, rejected before any
        # array is allocated (the first would exceed the address space)
        ("average-rank", ("--T", "1e40"), "T = 1e+40 is too large"),
        ("density", ("--T", "1e40"), "T = 1e+40 is too large"),
        ("density", ("--T", "1e300"), "T = 1e+300 is too large"),
        ("twists", ("--T", "1e40"), "T = 1e+40 is too large"),
        ("cache build", ("--T", "1e40"), "T = 1e+40 is too large"),
        # the base curve's checks; new cases go last, as the case ids are positional
        ("twists", ("--w", "2"), "base root number must be +-1"),
        ("twists", ("--r", "0", "--s", "0"), "base curve (0, 0) is singular"),
    ],
)
def test_cli_bad_value_flag_exits_2_before_writing(tmp_path, capsys, cmd, flags, match):
    rc = run_cli(_argv(cmd, tmp_path, *flags))
    assert rc == 2
    assert match in _one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "cmd, config, match",
    [
        ("average-rank", '{"T": Infinity}', "--T must be a finite number"),
        ("cache build", '{"X": -Infinity}', "--X must be a finite number"),
        ("density", '{"C0": NaN}', "--C0 must be a finite number"),
        ("density", '{"R-max": -1}', "--R-max must be a nonnegative integer"),
        ("density", '{"R_max": 2.5}', "--R-max must be a nonnegative integer"),
        ("average-rank", '{"C0": "x"}', "--C0 must be a finite number"),
        ("twists", '{"r": "abc"}', "--r must be an integer"),
        ("twists", '{"r": 1.5}', "--r must be an integer"),
        ("twists", '{"s": "1"}', "--s must be an integer"),
        ("twists", '{"N": 49.0}', "--N must be an integer"),
        ("twists", '{"w": true}', "--w must be an integer"),
        # rejected before the curve file is read, so it need not exist
        ("twists", '{"curve-file": "curves.txt", "base-index": "x"}', "--base-index must be an integer"),
        ("average-rank", '{"out-csv": 5}', "--out-csv must be a file path"),
        ("density", '{"threads": "many"}', "--threads must be a positive integer"),
        ("twists", '{"threads": true}', "--threads must be a positive integer"),
        ("average-rank", '{"threads": 2.0}', "--threads must be a positive integer"),
    ],
)
def test_cli_bad_value_in_config_exits_2_before_writing(tmp_path, capsys, cmd, config, match):
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    cfg = cfg_dir / "c.json"
    cfg.write_text(config)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = _argv(cmd, out_dir, "--config", str(cfg))
    for key in json.loads(config):
        flag = "--" + key.replace("_", "-")
        if flag in argv:  # the config value must not be overridden by a flag
            i = argv.index(flag)
            del argv[i : i + 2]
    rc = run_cli(argv)
    assert rc == 2
    assert match in _one_error_line(capsys)
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "argv, match",
    [
        (["twists", "--curve-file", "{d}/missing.txt"], "No such file or directory"),
        (["twists", "--curve-file", "{d}"], "Is a directory"),
        (["twists", "--curve-file", "{d}/bin.txt"], "not a text file"),
        (["twists", "--r", "1", "--s", "1", "--N", "49", "--w", "1", "--config", "{d}/bin.txt"], "cannot read config"),
    ],
)
def test_cli_unreadable_input_file_exits_2(tmp_path, capsys, argv, match):
    (tmp_path / "bin.txt").write_bytes(b"\xff\xfe1 1 49 1\n")
    out = [str(tmp_path / "t.csv"), "--out-json", str(tmp_path / "t.json")]
    argv = [a.format(d=tmp_path) for a in argv] + ["--T", "500", "--X", "30", "--out-csv", *out]
    rc = run_cli(argv)
    assert rc == 2
    assert match in _one_error_line(capsys)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["bin.txt"]


def test_cli_twists_base_index_list_config_and_empty_family_exits(tmp_path, capsys):
    # an out-of-range base index and a config that is not a JSON object exit
    # 2 before writing; an empty twist family exits 3 after writing a
    # header-only CSV and a JSON of zero weights and null averages
    curves, cfg, out = tmp_path / "one.txt", tmp_path / "list.json", tmp_path / "out"
    curves.write_text("1 1 49 1\n")
    cfg.write_text("[1, 2]")
    out.mkdir()
    for extra, match in [
        (("--curve-file", str(curves), "--base-index", "3"), f"base index 3 out of range for {curves}"),
        (("--config", str(cfg)), f"config file {cfg} must hold a JSON object"),
    ]:
        assert run_cli(_argv("twists", out, *extra)) == 2
        assert match in _one_error_line(capsys)
        assert list(out.iterdir()) == []
    assert run_cli(_argv("twists", out, "--T", "2.5", "--X", "2")) == 3
    assert capsys.readouterr().err == "error: empty twist family\n"
    assert (out / "out.csv").read_text() == "D,sign,weight,logN_term,U1_term,U2_term,bound\n"
    summary = json.loads((out / "out.json").read_text())
    assert summary["W_plus"] == summary["W_minus"] == summary["W_unsigned"] == 0.0
    assert summary["avg_bound_plus"] is summary["avg_bound_minus"] is None
    assert summary["proportion_rank0_lower"] is summary["proportion_rank1_lower"] is None


@pytest.mark.parametrize("cmd, flag", [("cache build", "--out"), ("density", "--out-json")])
def test_cli_output_into_missing_directory_exits_2_before_writing(tmp_path, capsys, cmd, flag):
    argv = _argv(cmd, tmp_path)
    argv[argv.index(flag) + 1] = str(tmp_path / "no" / "out")
    rc = run_cli(argv)
    assert rc == 2
    assert f"{flag} {tmp_path}" in _one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []  # density's CSV is not written either


def test_cli_family_beyond_memory_exits_2(tmp_path, capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 314. TiB for an array")

    monkeypatch.setattr(families, "average_rank_experiment", no_memory)
    assert run_cli(_argv("average-rank", tmp_path)) == 2
    assert "MemoryError: Unable to allocate" in _one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd", ["average-rank", "density", "cache build"])
def test_cli_box_beyond_physical_memory_exits_2(tmp_path, cmd):
    # 4.3e5 x 2e8 cells pass the int64 bound but not the memory bound, which
    # is checked before any array is allocated.  The child's address space is
    # capped at 1 GiB, so a missing check fails on the message (MemoryError)
    # instead of bringing in the kernel's OOM killer.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "avgrank.cli", *_argv(cmd, tmp_path, "--T", "1e16", "--X", "10")]
    proc = subprocess.run(
        argv, capture_output=True, text=True, cwd=tmp_path, env=env, preexec_fn=cap, timeout=300
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: T = 1e+16 is too large: the box needs ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the option table, the parser and the CSV writer


def _subcommands(parser):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flags(parser) -> list[str]:
    """'flag dest type' of every argument but --help; a str option has no type."""
    out = []
    for a in parser._actions:
        if isinstance(a, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        flag = a.option_strings[0] if a.option_strings else "(positional)"
        out.append(f"{flag} {a.dest} {a.type.__name__ if a.type else 'str'}")
    return out


COMMON = ["--config config str", "--threads threads int"]
FAMILY = ["--T T float", "--X X float", "--C0 C0 float"]
OUTPUTS = ["--out-csv out_csv str", "--out-json out_json str"]
FLAGS = {
    "average-rank": [*FAMILY, *OUTPUTS, *COMMON],
    "density": [*FAMILY, "--R-max R_max int", *OUTPUTS, *COMMON],
    "twists": [
        "--r r int", "--s s int", "--N N int", "--w w int",
        "--curve-file curve_file str", "--base-index base_index int",
        *FAMILY, *OUTPUTS, *COMMON,
    ],
    "verify": COMMON,
    "cache": ["(positional) cache_cmd str", "--T T float", "--X X float", "--out out str", "--path path str", *COMMON],
}


def test_parser_flags_dests_and_types_are_pinned():
    parser = cli.build_parser()
    assert _flags(parser) == []
    subs = _subcommands(parser)
    assert list(subs) == list(FLAGS)
    for name, want in FLAGS.items():
        assert _flags(subs[name]) == want, name


def test_handlers_resolve_when_the_parser_is_built(monkeypatch):
    def traced(args):
        return 0

    monkeypatch.setattr(cli, "cmd_verify", traced)
    assert cli.build_parser().parse_args(["verify"]).fn is traced


# --help of avgrank and of each subcommand at 80 columns, as written before the
# parser was built from the option table
HELP_TEXTS = {
    "": """\
usage: avgrank [-h] {average-rank,density,twists,verify,cache} ...

positional arguments:
  {average-rank,density,twists,verify,cache}
    average-rank        explicit-formula rank-bound averages over the box
                        family
    density             high rank-bound census and moment density bounds
    twists              quadratic-twist rank-bound averages per root-number
                        class
    verify              run the oracle and identity suites
    cache               build or validate a binary a_p cache

options:
  -h, --help            show this help message and exit
""",
    "average-rank": """\
usage: avgrank average-rank [-h] [--T T] [--X X] [--C0 C0] [--out-csv OUT_CSV]
                            [--out-json OUT_JSON] [--config CONFIG]
                            [--threads THREADS]

options:
  -h, --help           show this help message and exit
  --T T
  --X X
  --C0 C0
  --out-csv OUT_CSV
  --out-json OUT_JSON
  --config CONFIG      JSON config file; explicit flags win
  --threads THREADS    accepted and has no effect
""",
    "density": """\
usage: avgrank density [-h] [--T T] [--X X] [--C0 C0] [--R-max R_MAX]
                       [--out-csv OUT_CSV] [--out-json OUT_JSON]
                       [--config CONFIG] [--threads THREADS]

options:
  -h, --help           show this help message and exit
  --T T
  --X X
  --C0 C0
  --R-max R_MAX
  --out-csv OUT_CSV
  --out-json OUT_JSON
  --config CONFIG      JSON config file; explicit flags win
  --threads THREADS    accepted and has no effect
""",
    "twists": """\
usage: avgrank twists [-h] [--r R] [--s S] [--N N] [--w W]
                      [--curve-file CURVE_FILE] [--base-index BASE_INDEX]
                      [--T T] [--X X] [--C0 C0] [--out-csv OUT_CSV]
                      [--out-json OUT_JSON] [--config CONFIG]
                      [--threads THREADS]

options:
  -h, --help            show this help message and exit
  --r R
  --s S
  --N N
  --w W
  --curve-file CURVE_FILE
                        curve-data file: lines 'r s N w'
  --base-index BASE_INDEX
  --T T
  --X X
  --C0 C0
  --out-csv OUT_CSV
  --out-json OUT_JSON
  --config CONFIG       JSON config file; explicit flags win
  --threads THREADS     accepted and has no effect
""",
    "verify": """\
usage: avgrank verify [-h] [--config CONFIG] [--threads THREADS]

options:
  -h, --help         show this help message and exit
  --config CONFIG    JSON config file; explicit flags win
  --threads THREADS  accepted and has no effect
""",
    "cache": """\
usage: avgrank cache [-h] [--T T] [--X X] [--out OUT] [--path PATH]
                     [--config CONFIG] [--threads THREADS]
                     {build,check}

positional arguments:
  {build,check}

options:
  -h, --help         show this help message and exit
  --T T
  --X X
  --out OUT
  --path PATH
  --config CONFIG    JSON config file; explicit flags win
  --threads THREADS  accepted and has no effect
""",
}


@pytest.mark.parametrize("command", list(HELP_TEXTS))
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP_TEXTS[command]


def test_twists_rows_ordered_by_D_then_sign(tmp_path):
    # each D has one root number, so the rows ascend strictly in D; at
    # N = 389 both signs occur in both weight supports
    csv = tmp_path / "t.csv"
    argv = [
        "twists", "--r", "-2", "--s", "3", "--N", "389", "--w", "-1", "--T", "2000", "--X", "100",
        "--out-csv", str(csv), "--out-json", str(tmp_path / "t.json"),
    ]
    assert run_cli(argv) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == cli.TWISTS_HEADER
    rows = [tuple(int(v) for v in ln.split(",")[:2]) for ln in lines[1:]]
    D = [d for d, _ in rows]
    assert all(a < b for a, b in zip(D, D[1:]))
    assert all(sign == twists.root_number(-1, d, 389) for d, sign in rows)
    assert {(d > 0, sign) for d, sign in rows} == {(False, 1), (False, -1), (True, 1), (True, -1)}


def _floats(rng, n) -> np.ndarray:
    return rng.normal(size=n) * rng.choice([1e-300, 1.0, 1e300, 0.0], n)


@pytest.mark.parametrize("n", [0, 1, cli.CSV_BLOCK, cli.CSV_BLOCK + 1])
def test_density_rows_match_per_row_repr(tmp_path, monkeypatch, n):
    rng = np.random.default_rng(n)
    # every third Markov bound is inadmissible, an empty field
    rows = [
        SimpleNamespace(R=R, census=int(c), markov_bound=None if R % 3 == 1 else float(m), reference=float(x))
        for R, c, m, x in zip(range(n), rng.integers(0, 2**40, n), _floats(rng, n), _floats(rng, n))
    ]
    report = SimpleNamespace(T=1e4, X=100.0, C0=0.0, n_C=n, n_D=n, rank_cutoff=1.0, rows=tuple(rows))
    monkeypatch.setattr(moments, "high_rank_census", lambda *args: report)
    assert run_cli(_argv("density", tmp_path)) == 0
    want = [cli.DENSITY_HEADER] + [
        f"{row.R},{row.census},{'' if row.markov_bound is None else repr(row.markov_bound)},{row.reference!r}"
        for row in rows
    ]
    text = (tmp_path / "out.csv").read_text()
    assert text.split("\n") == [*want, ""]
    assert (",," in text) == (n > 1)


@pytest.mark.parametrize("n", [1, cli.CSV_BLOCK, cli.CSV_BLOCK + 1])
def test_average_rank_rows_match_per_row_repr(tmp_path, monkeypatch, n):
    rng = np.random.default_rng(n)
    cols = {name: _floats(rng, n) for name in ("logN_term", "U1_term", "U2_term", "bound")}
    report = SimpleNamespace(
        r=rng.integers(-(2**40), 2**40, n), s=rng.integers(-(2**40), 2**40, n), **cols,
        T=1e4, X=100.0, C0=0.0, S_T=1.0, avg_logN_term=0.0, avg_U1_term=0.0, avg_U2_term=0.0,
        avg_bound=0.0, u1_over_logX=0.0, u2_over_logX=0.0, caveat="",
    )
    monkeypatch.setattr(families, "average_rank_experiment", lambda *args: report)
    assert run_cli(_argv("average-rank", tmp_path)) == 0
    want = [cli.AVERAGE_RANK_HEADER] + [
        f"{r},{s}," + ",".join(repr(float(cols[name][i])) for name in cols)
        for i, (r, s) in enumerate(zip(report.r.tolist(), report.s.tolist()))
    ]
    assert (tmp_path / "out.csv").read_text().split("\n") == [*want, ""]
