"""Command-line driver.

Subcommands: average-rank, density, twists, verify, cache.  Rows go to
CSV (schema-stable headers) through one block writer, aggregates to
JSON; with a fixed configuration every command writes byte-identical
output regardless of the --threads setting.  Configuration comes from
flags plus an optional JSON config file, with flags winning, and each
option has one kind in OPTIONS, which sets the flag's type and checks
flag and config values alike; environment variables are never consulted.

This module imports only the standard library, and json only where a
JSON file is read or written; each subcommand imports the engine modules
it runs (verify its suites from avgrank.verify), so --help and a bad
option value return before numpy loads.  main sets
OPENBLAS_NUM_THREADS=1 unless the user has set it, so no idle BLAS pool
runs beside the process.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .curves import Curve

__all__ = ["main", "load_curve_data"]

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_EMPTY_FAMILY = 3
EXIT_VERIFY_FAILED = 4

# CSV headers and row formats: %r of a Python float is its repr, which
# round-trips and is locale-independent
AVERAGE_RANK_HEADER = "r,s,logN_term,U1_term,U2_term,bound"
AVERAGE_RANK_ROW = "%d,%d,%r,%r,%r,%r\n"
DENSITY_HEADER = "R,census,markov_bound,reference_decay"
DENSITY_ROW = "%d,%d,%s,%r\n"
TWISTS_HEADER = "D,sign,weight,logN_term,U1_term,U2_term,bound"
TWISTS_ROW = "%d,%d,%r,%r,%r,%r,%r\n"
CSV_BLOCK = 1024

# option (argparse dest) -> kind; _check_values reports the first bad
# value in this order
OPTIONS = {
    "T": "number", "X": "number", "C0": "number",
    "r": "integer", "s": "integer", "N": "integer", "w": "integer", "base_index": "integer",
    "R_max": "nonnegative", "threads": "positive",
    "curve_file": "file", "path": "file", "config": "file",
    "out": "output", "out_csv": "output", "out_json": "output",
}
# kind -> (argparse type, what a value must be)
KINDS = {
    "number": (float, "a finite number"),
    "integer": (int, "an integer"),
    "nonnegative": (int, "a nonnegative integer"),
    "positive": (int, "a positive integer"),
    "file": (None, "a file path"),
    "output": (None, "a file path"),
}
HELP = {
    "curve_file": "curve-data file: lines 'r s N w'",
    "config": "JSON config file; explicit flags win",
    "threads": "accepted and has no effect",
}


class ConfigError(ValueError):
    pass


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _finite_or_none(x: float) -> float | None:
    """JSON has no NaN: an undefined average is written as null."""
    return None if math.isnan(x) else x


def _write_csv(path: str, header: str, row: str, cols) -> None:
    """Write header, then one row per index of the equal-length arrays cols.

    Rows go in blocks of CSV_BLOCK: tolist() makes one Python object per
    value of a block, never of the whole file, and one % formats the block.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for i in range(0, len(cols[0]), CSV_BLOCK):
            block = [c[i : i + CSV_BLOCK].tolist() for c in cols]
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def _write_outputs(args, header: str, row: str, cols, summary: dict) -> None:
    """Write the rows to --out-csv and the summary to --out-json.

    The summary is serialised before either file is opened, so a value
    that is not a finite float (json raises ValueError) leaves no file.
    """
    import json

    text = json.dumps(summary, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False)
    _write_csv(args.out_csv, header, row, cols)
    with open(args.out_json, "w", newline="\n") as fh:
        fh.write(text + "\n")


def load_curve_data(path: str | Path) -> list[tuple[Curve, int, int]]:
    """Parse a curve-data file: one "r s N w" record per line.

    Blank lines and lines starting with '#' are skipped.  N is the known
    conductor, w the known root number (+-1).  Malformed records raise
    ConfigError naming the offending line.
    """
    from .curves import Curve

    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file ({exc.reason})") from exc
    out = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ConfigError(f"{path}:{ln}: expected 4 fields 'r s N w', got {len(parts)}")
        try:
            r, s, N, w = (int(x) for x in parts)
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: non-integer field ({exc})") from exc
        cur = Curve(r, s)
        if cur.singular:
            raise ConfigError(f"{path}:{ln}: curve ({r}, {s}) is singular")
        if N < 1:
            raise ConfigError(f"{path}:{ln}: conductor must be positive")
        if w not in (-1, 1):
            raise ConfigError(f"{path}:{ln}: root number must be +-1")
        out.append((cur, N, w))
    if not out:
        raise ConfigError(f"{path}: no curve records found")
    return out


# ---------------------------------------------------------------------------
# config plumbing


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset (None) options from the JSON config file; flags win."""
    if not getattr(args, "config", None):
        return
    import json

    try:
        data = json.loads(Path(args.config).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {args.config} must hold a JSON object")
    for key, val in data.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"config file {args.config}: unknown option {key!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, val)


def _valid(kind: str, val) -> bool:
    """Whether val is of the option kind; json reads NaN and Infinity as
    floats, and a bool is no integer here."""
    if kind == "number":
        try:
            return math.isfinite(float(val))
        except (TypeError, ValueError, OverflowError):
            return False
    if kind in ("file", "output"):
        return isinstance(val, str)
    if kind == "nonnegative":
        return type(val) is int and val >= 0
    if kind == "positive":
        return type(val) is int and val >= 1
    return type(val) is int


def _check_values(args: argparse.Namespace) -> None:
    """Every option that is set must be of its kind in OPTIONS, and an
    output file must go into an existing directory.

    Runs after the config file is applied, so it sees both sources.  A bad
    value fails before any work and before any file is written.
    """
    for name, kind in OPTIONS.items():
        val = getattr(args, name, None)
        if val is None:
            continue
        if not _valid(kind, val):
            raise ConfigError(f"{_flag(name)} must be {KINDS[kind][1]}, got {val!r}")
        if kind == "output" and (Path(val).is_dir() or not Path(val).parent.is_dir()):
            raise ConfigError(f"{_flag(name)} {val}: not a file in an existing directory")


def _require(args: argparse.Namespace, *names: str) -> None:
    for n in names:
        if getattr(args, n) is None:
            raise ConfigError(f"missing required option {_flag(n)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_average_rank(args) -> int:
    _require(args, "T", "X", "out_csv", "out_json")
    from . import families

    C0 = float(args.C0 or 0.0)
    try:
        report = families.average_rank_experiment(float(args.T), float(args.X), C0)
    except ValueError as exc:
        if "empty family" in str(exc):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_EMPTY_FAMILY
        raise
    n = len(report.r)
    summary = {
        "T": report.T,
        "X": report.X,
        "C0": report.C0,
        "n_curves": n,
        "S_T": report.S_T,
        "avg_logN_term": report.avg_logN_term,
        "avg_U1_term": report.avg_U1_term,
        "avg_U2_term": report.avg_U2_term,
        "avg_bound": report.avg_bound,
        "u1_over_logX": report.u1_over_logX,
        "u2_over_logX": report.u2_over_logX,
        "caveat": report.caveat,
    }
    for name in ("logN_term", "U1_term", "U2_term", "bound"):
        summary[f"mean_{name}"] = math.fsum(getattr(report, name).tolist()) / n
    cols = (report.r, report.s, report.logN_term, report.U1_term, report.U2_term, report.bound)
    _write_outputs(args, AVERAGE_RANK_HEADER, AVERAGE_RANK_ROW, cols, summary)
    return EXIT_OK


def cmd_density(args) -> int:
    _require(args, "T", "X", "out_csv", "out_json")
    T, X = float(args.T), float(args.X)
    # average-rank's bound, checked before numpy loads and before anything is sieved
    if T > 0 and X > T ** (5 / 6):
        raise ConfigError("density requires X <= T^(5/6)")
    import numpy as np

    from . import moments

    C0 = float(args.C0 or 0.0)
    R_max = int(args.R_max if args.R_max is not None else 8)
    report = moments.high_rank_census(T, X, C0, R_max)
    summary = {
        "T": report.T,
        "X": report.X,
        "C0": report.C0,
        "n_C": report.n_C,
        "n_D": report.n_D,
        "rank_cutoff": report.rank_cutoff,
    }
    rows = report.rows
    cols = (
        np.array([row.R for row in rows]),
        np.array([row.census for row in rows]),
        np.array(["" if row.markov_bound is None else repr(float(row.markov_bound)) for row in rows]),
        np.array([row.reference for row in rows]),
    )
    _write_outputs(args, DENSITY_HEADER, DENSITY_ROW, cols, summary)
    return EXIT_OK


def cmd_twists(args) -> int:
    _require(args, "T", "X", "out_csv", "out_json")
    if not args.curve_file:
        _require(args, "r", "s", "N", "w")
        if args.w not in (-1, 1):
            raise ConfigError("base root number must be +-1")
    T, X = float(args.T), float(args.X)
    # checked before numpy loads and before anything is sieved
    if not 1 < X <= T * T:
        raise ConfigError("twists requires 1 < X <= T^2")
    from . import twists, weights
    from .curves import Curve

    C0 = float(args.C0 or 0.0)
    if args.curve_file:
        bases = load_curve_data(args.curve_file)
        idx = args.base_index or 0
        if not 0 <= idx < len(bases):
            raise ConfigError(f"base index {idx} out of range for {args.curve_file}")
        base, N, w = bases[idx]
    else:
        base = Curve(args.r, args.s)
        N, w = args.N, args.w
        if base.singular:
            raise ConfigError(f"base curve ({base.r}, {base.s}) is singular")
    # W_unsigned sums the positive support first
    supports = (weights.bump(0.5, 1.0), weights.bump(-1.0, -0.5))
    rep = twists.twist_average_experiment(base, N, w, supports, T, X, C0)
    W, avg = rep.W, rep.avg_bound
    if W[1] > 0 and W[-1] > 0:
        prop0, prop1 = twists.theorem4_proportions(max(avg[1], 0.0), max(avg[-1], 0.0))
    else:
        prop0 = prop1 = math.nan
    summary = {
        "T": T,
        "X": X,
        "C0": C0,
        "base": {"r": base.r, "s": base.s, "N": N, "w": w},
        "W_plus": W[1],
        "W_minus": W[-1],
        "W_unsigned": rep.W_unsigned,
        # the two signed weight totals must exhaust the unsigned total
        "partition_gap": abs(rep.W_unsigned - W[1] - W[-1]),
        "avg_bound_plus": _finite_or_none(avg[1]),
        "avg_bound_minus": _finite_or_none(avg[-1]),
        "proportion_rank0_lower": _finite_or_none(prop0),
        "proportion_rank1_lower": _finite_or_none(prop1),
        "class_sign_map": {"%d,%d,%d" % triple: signs for triple, signs in rep.class_sign_map.items()},
    }
    cols = (rep.D, rep.sign, rep.weight, rep.logN_term, rep.U1_raw, rep.U2_raw, rep.bound)
    _write_outputs(args, TWISTS_HEADER, TWISTS_ROW, cols, summary)
    if W[1] == 0 and W[-1] == 0:
        print("error: empty twist family", file=sys.stderr)
        return EXIT_EMPTY_FAMILY
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from .verify import SUITES

    failed = []
    for name, fn in SUITES:
        ok = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failed.append(name)
    if failed:
        print("failing suites: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_cache(args) -> int:
    from . import cache as cache_mod  # numpy loads only in cache_build

    if args.cache_cmd == "build":
        _require(args, "T", "X", "out")
        c = cache_mod.cache_build(float(args.T), float(args.X))
        cache_mod.cache_save(c, args.out)
        print(f"wrote {len(c)} records to {args.out}")
        return EXIT_OK
    if args.cache_cmd == "check":
        _require(args, "path")
        try:
            n = cache_mod.cache_check(args.path)
        except OSError as exc:
            raise ConfigError(f"cannot read cache {args.path}: {exc.strerror}") from exc
        except cache_mod.CorruptCacheError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        print(f"ok: {n} records")
        return EXIT_OK
    raise ConfigError("cache requires a sub-action: build or check")


# ---------------------------------------------------------------------------
# parser


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    """One flag per option name, then --config and --threads, in --help order."""
    for name in (*names, "config", "threads"):
        p.add_argument(_flag(name), type=KINDS[OPTIONS[name]][0], help=HELP.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="avgrank")
    sub = parser.add_subparsers(dest="command", required=True)
    family, outputs = ("T", "X", "C0"), ("out_csv", "out_json")
    # the handlers are looked up here, when the parser is built, so a
    # rebound cmd_* name is the one that runs
    for command, help, fn, names in (
        ("average-rank", "explicit-formula rank-bound averages over the box family",
         cmd_average_rank, (*family, *outputs)),
        ("density", "high rank-bound census and moment density bounds",
         cmd_density, (*family, "R_max", *outputs)),
        ("twists", "quadratic-twist rank-bound averages per root-number class",
         cmd_twists, ("r", "s", "N", "w", "curve_file", "base_index", *family, *outputs)),
        ("verify", "run the oracle and identity suites", cmd_verify, ()),
    ):
        p = sub.add_parser(command, help=help)
        _add_options(p, *names)
        p.set_defaults(fn=fn)

    p = sub.add_parser("cache", help="build or validate a binary a_p cache")
    p.add_argument("cache_cmd", choices=["build", "check"])
    _add_options(p, "T", "X", "out", "path")
    p.set_defaults(fn=cmd_cache)
    return parser


def main(argv=None) -> int:
    # avgrank's BLAS calls are tiny, and an idle OpenBLAS pool spins on the
    # other cores: a CLI process starts none unless the user asks for one.
    # A process that has loaded numpy already keeps its pool as it is.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, parser)
        _check_values(args)
        return args.fn(args)
    except (ValueError, OSError) as exc:  # a bad value, the engine's too; a file error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (OverflowError, MemoryError) as exc:  # a huge --C0; a family beyond memory
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
