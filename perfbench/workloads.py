"""The benchmark's workloads: CLI invocations, their inputs and their checks.

Each workload is a fixed sequence of avgrank CLI invocations ("ops").
The workload seed perturbs T and X within +-1% (one of eight variants,
so reference digests exist for every seed) and picks the rows the
checks sample; the program only ever sees the resulting flags.  The
default seed 0 is the unperturbed variant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

# Relative change of T and X per variant; variant = seed % 8.
VARIANT_OFFSETS = (0.0, 0.005, -0.005, 0.01, -0.01, 0.0025, -0.0025, 0.0075)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its arguments, expected exit code and output check."""

    argv: tuple[str, ...]
    expect: int
    stdout: str  # file in the work directory that receives standard output
    check: Callable[[Path, dict, int], tuple[list[str], int]]
    before: Callable[[Path, int], None] | None = None  # prepares this op's input


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    variant: int
    params: dict
    ops: tuple[Op, ...]
    outputs: tuple[str, ...]  # files digested for cli.outputs_changed


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict  # full-size inputs
    smoke: dict  # tiny inputs for the self-test
    plan: Callable[[dict, Path], tuple[tuple[Op, ...], tuple[str, ...]]]


def _perturb(sizes: dict, variant: int) -> dict:
    f = 1.0 + VARIANT_OFFSETS[variant]
    out = dict(sizes)
    out["T"] = float(round(sizes["T"] * f))
    out["X"] = float(round(sizes["X"] * f))
    return out


def _num(x: float) -> str:
    return repr(float(x))


def _box_average(p: dict, work: Path):
    ops = (
        Op(
            ("average-rank", "--T", _num(p["T"]), "--X", _num(p["X"]),
             "--out-csv", str(work / "rows.csv"), "--out-json", str(work / "summary.json")),
            0, "average-rank.out", checks.check_average_rank,
        ),
    )
    return ops, ("rows.csv", "summary.json", "average-rank.out")


def _census(p: dict, work: Path):
    ops = (
        Op(
            ("density", "--T", _num(p["T"]), "--X", _num(p["X"]), "--R-max", str(p["R_max"]),
             "--out-csv", str(work / "density.csv"), "--out-json", str(work / "density.json")),
            0, "density.out", checks.check_density,
        ),
    )
    return ops, ("density.csv", "density.json", "density.out")


def _twist_classes(p: dict, work: Path):
    ops = (
        Op(
            ("twists", "--r", str(p["r"]), "--s", str(p["s"]), "--N", str(p["N"]), "--w", str(p["w"]),
             "--T", _num(p["T"]), "--X", _num(p["X"]),
             "--out-csv", str(work / "twists.csv"), "--out-json", str(work / "twists.json")),
            0, "twists.out", checks.check_twists,
        ),
    )
    return ops, ("twists.csv", "twists.json", "twists.out")


def _verify_cache(p: dict, work: Path):
    cache = str(work / "ap.apcache")
    ops = (
        Op(("verify",), 0, "verify.out", checks.check_verify),
        Op(("cache", "build", "--T", _num(p["T"]), "--X", _num(p["X"]), "--out", cache),
           0, "build.out", checks.check_cache_build),
        Op(("cache", "check", "--path", cache), 0, "check.out", checks.check_cache_check),
        Op(("cache", "check", "--path", str(work / "ap_corrupt.apcache")), 4, "corrupt.out",
           checks.check_corrupt_rejected, before=checks.corrupt_copy),
    )
    return ops, ("verify.out", "ap.apcache", "build.out", "check.out", "corrupt.out")


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "box-average",
            {"T": 1e5, "X": 320.0},
            {"T": 3000.0, "X": 60.0},
            _box_average,
        ),
        Workload(
            "census",
            {"T": 2000.0, "X": 100.0, "R_max": 24},
            {"T": 300.0, "X": 40.0, "R_max": 12},
            _census,
        ),
        Workload(
            "twist-classes",
            {"r": 1, "s": 1, "N": 49, "w": 1, "T": 4000.0, "X": 200.0},
            {"r": 1, "s": 1, "N": 49, "w": 1, "T": 400.0, "X": 40.0},
            _twist_classes,
        ),
        Workload(
            "verify-cache",
            {"T": 600.0, "X": 120.0},
            {"T": 60.0, "X": 30.0},
            _verify_cache,
        ),
    )
}


def make_plan(name: str, seed: int, work: Path, smoke: bool = False) -> Plan:
    """The ops of a workload at a seed.

    work is the workload's directory relative to the repository root, which
    is the working directory of the benchmark and of the CLI processes.
    """
    wl = WORKLOADS[name]
    variant = seed % len(VARIANT_OFFSETS)
    params = _perturb(wl.smoke if smoke else wl.sizes, variant)
    ops, outputs = wl.plan(params, work)
    return Plan(name, seed, variant, params, ops, outputs)


def sample_seed(plan: Plan) -> int:
    """Seed for the rows the checks sample, distinct from the variant choice."""
    return random.Random(f"{plan.workload}/{plan.seed}").randrange(2**31)
