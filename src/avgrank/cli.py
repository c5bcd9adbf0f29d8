"""Command-line driver.

Subcommands: average-rank, density, twists, verify, cache.  Rows go to
CSV (schema-stable headers), aggregates to JSON; with a fixed
configuration every command writes byte-identical output regardless of
the --threads setting.  Configuration comes from flags plus an optional
JSON config file, with flags winning; environment variables are never
consulted.

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

AVERAGE_RANK_HEADER = "r,s,logN_term,U1_term,U2_term,bound"
AVERAGE_RANK_ROW = "%d,%d,%r,%r,%r,%r\n"
DENSITY_HEADER = "R,census,markov_bound,reference_decay"
TWISTS_HEADER = "D,sign,weight,logN_term,U1_term,U2_term,bound"
CSV_BLOCK = 1024


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    """Stable float formatting: repr round-trips and is locale-independent."""
    return repr(float(x))


def _finite_or_none(x: float) -> float | None:
    """JSON has no NaN: an undefined average is written as null."""
    return None if math.isnan(x) else x


def _write_json(path: Path, obj) -> None:
    import json

    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False)
        fh.write("\n")


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


def _check_values(args: argparse.Namespace) -> None:
    """T, X and C0 must be finite numbers, r, s, N, w and base-index
    integers (not bool), R-max a nonnegative and threads a positive
    integer, and file options strings; an output file must go into an
    existing directory.

    Runs after the config file is applied, so it sees both sources; json
    reads NaN and Infinity as floats.  A bad value fails before any work
    and before any file is written.
    """
    for name in ("T", "X", "C0"):
        val = getattr(args, name, None)
        if val is None:
            continue
        try:
            ok = math.isfinite(float(val))
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"--{name} must be a finite number, got {val!r}")
    for name in ("r", "s", "N", "w", "base_index"):
        val = getattr(args, name, None)
        if val is not None and type(val) is not int:
            raise ConfigError(f"--{name.replace('_', '-')} must be an integer, got {val!r}")
    val = getattr(args, "R_max", None)
    if val is not None and not (type(val) is int and val >= 0):
        raise ConfigError(f"--R-max must be a nonnegative integer, got {val!r}")
    val = getattr(args, "threads", None)
    if val is not None and not (type(val) is int and val >= 1):
        raise ConfigError(f"--threads must be a positive integer, got {val!r}")
    for name in ("curve_file", "path", "out", "out_csv", "out_json"):
        val = getattr(args, name, None)
        if val is None:
            continue
        flag = "--" + name.replace("_", "-")
        if not isinstance(val, str):
            raise ConfigError(f"{flag} must be a file path, got {val!r}")
        if name.startswith("out") and (Path(val).is_dir() or not Path(val).parent.is_dir()):
            raise ConfigError(f"{flag} {val}: not a file in an existing directory")


def _require(args: argparse.Namespace, *names: str) -> None:
    for n in names:
        if getattr(args, n) is None:
            raise ConfigError(f"missing required option --{n.replace('_', '-')}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_average_rank(args) -> int:
    _require(args, "T", "X", "out_csv", "out_json")
    from . import families

    C0 = float(args.C0 or 0.0)
    try:
        params = families.FamilyParams(T=float(args.T))
        report = families.average_rank_experiment(params, float(args.X), C0)
    except ValueError as exc:
        if "empty family" in str(exc):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_EMPTY_FAMILY
        raise ConfigError(str(exc)) from exc
    cols = (report.r, report.s, report.logN_term, report.U1_term, report.U2_term, report.bound)
    with open(args.out_csv, "w", newline="\n") as fh:
        fh.write(AVERAGE_RANK_HEADER + "\n")
        # blocks of tolist() rows: one Python object per value, never the
        # whole file; one % formats a block, with %r as repr of each float
        for i in range(0, len(report.r), CSV_BLOCK):
            block = [c[i : i + CSV_BLOCK].tolist() for c in cols]
            fmt = AVERAGE_RANK_ROW * len(block[0])
            fh.write(fmt % tuple(chain.from_iterable(zip(*block))))
    n = len(report.r)
    _write_json(
        Path(args.out_json),
        {
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
            "mean_logN_term": math.fsum(report.logN_term.tolist()) / n,
            "mean_U1_term": math.fsum(report.U1_term.tolist()) / n,
            "mean_U2_term": math.fsum(report.U2_term.tolist()) / n,
            "mean_bound": math.fsum(report.bound.tolist()) / n,
            "caveat": report.caveat,
        },
    )
    return EXIT_OK


def cmd_density(args) -> int:
    _require(args, "T", "X", "out_csv", "out_json")
    from . import moments

    C0 = float(args.C0 or 0.0)
    R_max = int(args.R_max if args.R_max is not None else 8)
    try:
        report = moments.high_rank_census(float(args.T), float(args.X), C0, R_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    with open(args.out_csv, "w", newline="\n") as fh:
        fh.write(DENSITY_HEADER + "\n")
        for row in report.rows:
            mb = "" if row.markov_bound is None else _fmt(row.markov_bound)
            fh.write(f"{row.R},{row.census},{mb},{_fmt(row.reference)}\n")
    _write_json(
        Path(args.out_json),
        {
            "T": report.T,
            "X": report.X,
            "C0": report.C0,
            "n_C": report.n_C,
            "n_D": report.n_D,
            "rank_cutoff": report.rank_cutoff,
        },
    )
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
    from .arith import sieve_primes
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
    # one prime table for all four experiments
    primes = sieve_primes(int(X))
    reports = {1: [], -1: []}
    unsigned = []
    try:
        for wgt in (weights.bump(0.5, 1.0), weights.bump(-1.0, -0.5)):
            batch = twists.twist_batch(N, wgt, T)
            unsigned.append(batch.weights)
            for sign, pair in reports.items():
                fam = twists.TwistFamily(base=base, N=N, w=w, sign=sign, weight=wgt)
                pair.append(twists.twist_average_experiment(fam, T, X, C0, primes, batch))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    with open(args.out_csv, "w", newline="\n") as fh:
        fh.write(TWISTS_HEADER + "\n")
        rows = []
        for sign, pair in reports.items():
            for rep in pair:
                cols = (rep.weight, rep.logN_term, rep.U1_raw, rep.U2_raw, rep.bound)
                rows.extend(
                    (D, sign, *vals)
                    for D, *vals in zip(rep.D.tolist(), *(c.tolist() for c in cols))
                )
        rows.sort()
        for D, sign, wv, lt, u1, u2, b in rows:
            fh.write(
                f"{D},{sign},{_fmt(wv)},{_fmt(lt)},{_fmt(u1)},{_fmt(u2)},{_fmt(b)}\n"
            )
    # partition check: the two signed weight totals must exhaust the
    # unsigned total over all admissible discriminants, summed left to
    # right in increasing D, positive support first
    unsigned_total = 0.0
    for batch_weights in unsigned:
        for wv in batch_weights.tolist():
            unsigned_total += wv
    W_plus = math.fsum(r.W_total for r in reports[1])
    W_minus = math.fsum(r.W_total for r in reports[-1])
    avg_plus = math.fsum(
        r.W_total * r.avg_bound for r in reports[1] if not r.empty
    ) / W_plus if W_plus > 0 else math.nan
    avg_minus = math.fsum(
        r.W_total * r.avg_bound for r in reports[-1] if not r.empty
    ) / W_minus if W_minus > 0 else math.nan
    if W_plus > 0 and W_minus > 0:
        prop0, prop1 = twists.theorem4_proportions(max(avg_plus, 0.0), max(avg_minus, 0.0))
    else:
        prop0 = prop1 = math.nan
    class_map = {}
    for pair in reports.values():
        for rep in pair:
            for triple, signs in rep.class_sign_map.items():
                key = f"{triple[0]},{triple[1]},{triple[2]}"
                class_map.setdefault(key, set()).update(signs)
    _write_json(
        Path(args.out_json),
        {
            "T": T,
            "X": X,
            "C0": C0,
            "base": {"r": base.r, "s": base.s, "N": N, "w": w},
            "W_plus": W_plus,
            "W_minus": W_minus,
            "W_unsigned": unsigned_total,
            "partition_gap": abs(unsigned_total - W_plus - W_minus),
            "avg_bound_plus": _finite_or_none(avg_plus),
            "avg_bound_minus": _finite_or_none(avg_minus),
            "proportion_rank0_lower": _finite_or_none(prop0),
            "proportion_rank1_lower": _finite_or_none(prop1),
            "class_sign_map": {k: sorted(v) for k, v in sorted(class_map.items())},
        },
    )
    if W_plus == 0 and W_minus == 0:
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
    if args.cache_cmd == "build":
        _require(args, "T", "X", "out")
        from . import cache as cache_mod

        try:
            c = cache_mod.cache_build(float(args.T), float(args.X))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        cache_mod.cache_save(c, args.out)
        print(f"wrote {len(c)} records to {args.out}")
        return EXIT_OK
    if args.cache_cmd == "check":
        _require(args, "path")
        from . import cache as cache_mod

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


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; explicit flags win")
    sp.add_argument("--threads", type=int, default=None, help="accepted and has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="avgrank")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("average-rank", help="explicit-formula rank-bound averages over the box family")
    p.add_argument("--T", type=float)
    p.add_argument("--X", type=float)
    p.add_argument("--C0", type=float)
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    _add_common(p)
    p.set_defaults(fn=cmd_average_rank)

    p = sub.add_parser("density", help="high rank-bound census and moment density bounds")
    p.add_argument("--T", type=float)
    p.add_argument("--X", type=float)
    p.add_argument("--C0", type=float)
    p.add_argument("--R-max", type=int, dest="R_max")
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    _add_common(p)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("twists", help="quadratic-twist rank-bound averages per root-number class")
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--curve-file", help="curve-data file: lines 'r s N w'")
    p.add_argument("--base-index", type=int)
    p.add_argument("--T", type=float)
    p.add_argument("--X", type=float)
    p.add_argument("--C0", type=float)
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    _add_common(p)
    p.set_defaults(fn=cmd_twists)

    p = sub.add_parser("verify", help="run the oracle and identity suites")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cache", help="build or validate a binary a_p cache")
    p.add_argument("cache_cmd", choices=["build", "check"])
    p.add_argument("--T", type=float)
    p.add_argument("--X", type=float)
    p.add_argument("--out")
    p.add_argument("--path")
    _add_common(p)
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
    except (ConfigError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
