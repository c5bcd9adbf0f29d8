"""Self-test of the benchmark itself, at tiny sizes (seconds, not minutes).

    python3 perfbench/selftest.py

1. The tracer's self-time arithmetic on a synthetic span tree.
2. The tracer on the real package: counts, nesting and restored bindings.
3. Each workload at smoke size passes its checks, then fails them once
   one digit of its output is flipped (fault injection).
4. A traced smoke run attributes the traced wall time to the layers.

Prints one PASS/FAIL line per test; exits 1 if any failed.
"""

from __future__ import annotations

import math
import os
import sys

import run
import workloads
from tracer import Tracer, aggregate, package_modules

# (file, column, row) whose first digit is flipped; row 1 is the first
# line after a CSV header, column None means the first digit of the line
FAULTS = {
    "box-average": ("rows.csv", 5, 1),
    "census": ("density.csv", 1, 1),
    "twist-classes": ("twists.csv", 4, 3),
    "verify-cache": ("build.out", None, 0),
}


def test_aggregate() -> None:
    # cli.main [0,10] > families.f [1,6] > curves.g [2,5] > curves.h [2.5,3] > curves.g [2.6,2.8]
    #                                    > curves.g [5.5,6]
    #                 > curves.g [7,9]
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("families.f", 1.0, 6.0, 0),
        ("curves.g", 2.0, 5.0, 1),
        ("curves.h", 2.5, 3.0, 2),
        ("curves.g", 2.6, 2.8, 3),
        ("curves.g", 5.5, 6.0, 1),
        ("curves.g", 7.0, 9.0, 0),
    ]
    funcs, layers = aggregate(*(list(col) for col in zip(*spans)))
    want_self = {"cli.main": 3.0, "families.f": 1.5, "curves.g": 5.2, "curves.h": 0.3}
    want_incl = {"cli.main": 10.0, "families.f": 5.0, "curves.g": 5.5, "curves.h": 0.5}
    for key in want_self:
        assert math.isclose(funcs[key]["self_s"], want_self[key]), (key, funcs[key])
        assert math.isclose(funcs[key]["s"], want_incl[key]), (key, funcs[key])
    assert math.isclose(layers["curves"]["s"], 5.5) and math.isclose(layers["curves"]["self_s"], 5.5)
    assert math.isclose(sum(v["self_s"] for v in layers.values()), 10.0)


def test_tracer(avgrank) -> None:
    from avgrank import curves

    modules = package_modules(avgrank)
    original = curves.ap
    with Tracer(modules) as tr:
        t0 = tr.clock()
        curves.ap(curves.Curve(1, 1), 7)
        list(avgrank.families.enumerate_C(8.0))
        wall = tr.clock() - t0
    assert curves.ap is original, "bindings not restored"
    m = tr.summary()
    assert m["curves.ap.calls"] == 1 and m["curves.is_minimal.calls"] >= 1, m
    assert m["curves.sigma_p.calls"] == 1 and m["arith.sieve_primes.calls"] >= 1, m
    assert m["families.enumerate_C.calls"] == 1 and m["families.enumerate_D.calls"] == 1, m
    assert m["curves.ap.s"] >= m["curves.sigma_p.s"] > 0 and m["curves.ap.self_s"] < m["curves.ap.s"], m
    attributed = sum(m.get(f"{layer}.self_s", 0.0) for layer in run.LAYERS)
    assert 0 < attributed <= wall, (attributed, wall)


def flip_first_digit(path, column, row) -> None:
    lines = path.read_text().split("\n")
    fields = lines[row].split(",")
    target = fields[column] if column is not None else lines[row]
    i = next(i for i, ch in enumerate(target) if ch.isdigit())
    flipped = target[:i] + str((int(target[i]) + 1) % 10) + target[i + 1 :]
    if column is None:
        lines[row] = flipped
    else:
        fields[column] = flipped
        lines[row] = ",".join(fields)
    path.write_text("\n".join(lines))


def test_workload(name: str) -> None:
    work = run.fresh_work(name)
    plan = workloads.make_plan(name, 3, work, smoke=True)
    codes, *_ = run.run_subprocess_iteration(plan, run.child_env(work), 1)
    clean = run.Verdicts(plan)
    clean.record(codes)
    assert clean.failed == 0 and clean.evals > 0, clean.problems
    fname, column, row = FAULTS[name]
    flip_first_digit(work / fname, column, row)
    faulty = run.Verdicts(plan)
    faulty.record(codes)
    assert faulty.failed == 1, f"flipped digit in {fname} not detected: {faulty.problems}"


def test_traced(avgrank) -> None:
    work = run.fresh_work("census")
    plan = workloads.make_plan("census", 0, work, smoke=True)
    metrics, verdicts = run.measure_layers(plan, 0.0, 1, avgrank)
    assert verdicts.failed == 0 and not verdicts.problems, verdicts.problems
    assert metrics["families.rank_bound.calls"] == metrics["families.U1.calls"] > 0, metrics
    assert metrics["curves.ap.calls"] == metrics["curves.sigma_p.calls"] == metrics["weights.h_X.calls"], metrics
    assert abs(metrics["trace.unattributed_frac"]) < run.UNATTRIBUTED_LIMIT, metrics["trace.unattributed_frac"]


def main() -> int:
    os.chdir(run.ROOT)
    avgrank = run.import_program()
    tests = [("tracer self-time arithmetic", test_aggregate), ("tracer on avgrank", lambda: test_tracer(avgrank))]
    tests += [(f"fault injection {n}", lambda n=n: test_workload(n)) for n in workloads.WORKLOADS]
    tests.append(("traced smoke run", lambda: test_traced(avgrank)))
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}", flush=True)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
