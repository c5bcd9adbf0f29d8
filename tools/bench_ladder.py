"""Run the avgrank CLI ladder and record wall time, CPU time and peak RSS per entry.

Usage, from any directory:

    python3 tools/bench_ladder.py --checkout parent=../old --checkout change=. \
        --out BENCH.json

Each --checkout LABEL=PATH names a source tree with src/avgrank in it; with
none, the tree that holds this script is run under the label "change".
Every ladder entry runs as a fresh subprocess (python -m avgrank.cli) with
PYTHONPATH set to that tree's src, in a scratch directory.  Checkouts
take turns run by run, and which goes first alternates, so a slow spell of
a noisy machine hits all of them.
Every entry runs RUNS times per checkout.  Per entry the record holds
the median wall time, every wall time, the median CPU time of the
process (user + system, from os.wait4), the largest peak RSS (also from
os.wait4) and a SHA-256 of the output files, so equal digests across
checkouts show equal bytes.  Per checkout the record holds its git commit
(null without .git) and a SHA-256 of its src/avgrank/*.py.  The "help"
entry is a bare process start, and "cache build 60 30" a start that loads
numpy and the trace engine for almost no work.
The "cache check" entries read cache files that the first checkout builds
once per ladder run, before any timed run.  Only the standard
library is used, and the script keeps its own memory small: with vfork,
a child's ru_maxrss also counts the parent's size at exec, so output
files are hashed in chunks and numpy's version comes from a subprocess.
Give every tree the same bytecode state (all with __pycache__ or none):
compiled bytecode saves each process start ~50 ms.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 3  # runs per ladder entry and checkout; the record keeps their median

# name -> CLI arguments; {out} is the scratch directory of the run
LADDER = {
    "help": "--help",
    "average-rank 1e5 316": "average-rank --T 1e5 --X 316 --out-csv {out}/rows.csv --out-json {out}/summary.json",
    "average-rank 1e6 1000": "average-rank --T 1e6 --X 1000 --out-csv {out}/rows.csv --out-json {out}/summary.json",
    "average-rank 1e7 1000": "average-rank --T 1e7 --X 1000 --out-csv {out}/rows.csv --out-json {out}/summary.json",
    "density 1e4 100": "density --T 1e4 --X 100 --out-csv {out}/density.csv --out-json {out}/density.json",
    "density 1e5 300": "density --T 1e5 --X 300 --out-csv {out}/density.csv --out-json {out}/density.json",
    # 26 admissible Markov rows (k = 1, 2 and 3): the moment sums of the census
    "density 1e6 100 --R-max 40": (
        "density --T 1e6 --X 100 --R-max 40 --out-csv {out}/density.csv --out-json {out}/density.json"
    ),
    "twists 2e4 300": (
        "twists --r 1 --s 1 --N 49 --w 1 --T 2e4 --X 300 "
        "--out-csv {out}/twists.csv --out-json {out}/twists.json"
    ),
    # 5,308 rows x 428 primes: the twists' memory, which must stay O(rows) as X grows
    "twists 2e4 3000": (
        "twists --r 1 --s 1 --N 49 --w 1 --T 2e4 --X 3000 "
        "--out-csv {out}/twists.csv --out-json {out}/twists.json"
    ),
    # the twists profiling case: 30,292 rows x 428 primes, on a base whose
    # discriminant has the prime 211
    "twists -2 3 389 -1 1e5 3000": (
        "twists --r -2 --s 3 --N 389 --w -1 --T 1e5 --X 3000 "
        "--out-csv {out}/twists.csv --out-json {out}/twists.json"
    ),
    # 26,567 CSV rows: the CSV writer at scale
    "twists 1e5 100": (
        "twists --r 1 --s 1 --N 49 --w 1 --T 1e5 --X 100 "
        "--out-csv {out}/twists.csv --out-json {out}/twists.json"
    ),
    "cache build 60 30": "cache build --T 60 --X 30 --out {out}/ap.apcache",
    "cache build 1e4 300": "cache build --T 1e4 --X 300 --out {out}/ap.apcache",
    "cache check 1e3 100": "cache check --path {fixtures}/ap-1e3-100.apcache",
    "cache check 1e4 300": "cache check --path {fixtures}/ap-1e4-300.apcache",
    "verify": "verify",
}
# file name -> CLI arguments that write it to {path}; {fixtures} above is
# the directory that holds them
FIXTURES = {
    "ap-1e3-100.apcache": "cache build --T 1e3 --X 100 --out {path}",
    "ap-1e4-300.apcache": "cache build --T 1e4 --X 300 --out {path}",
}


def cli_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src / "src"))


def run_once(src: Path, args: str, fixtures: str) -> tuple[float, float, float, str, int]:
    """(wall s, CPU s, peak RSS MB, digest of stdout and output files, exit code)."""
    with tempfile.TemporaryDirectory(prefix="ladder-") as td:
        out = Path(td)
        argv = [sys.executable, "-m", "avgrank.cli", *args.format(out=td, fixtures=fixtures).split()]
        env = cli_env(src)
        with open(out / "stdout", "wb") as so:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=subprocess.DEVNULL, cwd=td, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        digest = hashlib.sha256()
        for f in sorted(out.iterdir()):
            digest.update(f.name.encode() + b"\0")
            if f.name == "stdout":  # cache build names the scratch path
                digest.update(f.read_bytes().replace(td.encode(), b"{out}"))
                continue
            with open(f, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024.0, digest.hexdigest(), proc.returncode


def git_commit(src: Path) -> str | None:
    try:
        head = subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(src), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def source_sha256(src: Path) -> str:
    """SHA-256 of the tree's src/avgrank/*.py, each file's name and bytes in
    name order, so a checkout without .git (a git archive copy) is identified too."""
    digest = hashlib.sha256()
    for f in sorted((src / "src" / "avgrank").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True
    )
    numpy_version = probe.stdout.strip() if probe.returncode == 0 else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", default=[], metavar="LABEL=PATH")
    ap.add_argument("--out", help="write the JSON record here (default: standard output)")
    args = ap.parse_args(argv)
    checkouts = dict(c.split("=", 1) for c in args.checkout) or {"change": str(HERE.parent)}
    checkouts = {label: Path(p).resolve() for label, p in checkouts.items()}
    record = {
        "environment": environment(),
        "runs": RUNS,
        "checkouts": {
            label: {"commit": git_commit(src), "source_sha256": source_sha256(src), "entries": {}}
            for label, src in checkouts.items()
        },
    }
    with tempfile.TemporaryDirectory(prefix="ladder-fixtures-") as fixtures:
        first = next(iter(checkouts.values()))
        for file, build in FIXTURES.items():
            cmd = [sys.executable, "-m", "avgrank.cli", *build.format(path=f"{fixtures}/{file}").split()]
            subprocess.run(cmd, stdout=subprocess.DEVNULL, cwd=fixtures, env=cli_env(first), check=True)
        for name in LADDER:
            samples = {label: [] for label in checkouts}
            for k in range(RUNS):
                for label, src in list(checkouts.items())[:: -1 if k % 2 else 1]:
                    samples[label].append(run_once(src, LADDER[name], fixtures))
            for label, runs in samples.items():
                walls = [r[0] for r in runs]
                entry = {
                    "argv": LADDER[name].split(),
                    "wall_s": statistics.median(walls),
                    "walls_s": walls,
                    "cpu_s": statistics.median(r[1] for r in runs),
                    "peak_rss_mb": max(r[2] for r in runs),
                    "outputs_sha256": sorted({r[3] for r in runs}),
                    "exit_codes": sorted({r[4] for r in runs}),
                }
                record["checkouts"][label]["entries"][name] = entry
                print(
                    f"{label:>8}  {name:<24} {entry['wall_s']:8.3f} s  {entry['cpu_s']:8.3f} s cpu"
                    f"  {entry['peak_rss_mb']:7.1f} MB",
                    file=sys.stderr,
                )
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
