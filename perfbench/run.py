"""Benchmark of the avgrank command-line program.

Run from the repository root:

    python3 perfbench/run.py --workload box-average --seed 0 --seconds 20 --trace 0

With ``--trace 0`` every iteration runs the workload's CLI invocations as
subprocesses, one at a time in a closed loop with one client, and the
end-to-end metrics are reported.  With ``--trace 1`` the same
invocations run in this process, alternating untraced and traced
iterations, and the per-layer metrics are reported.  Outputs are
checked outside the timed region.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

``--workload all`` runs every workload in turn and prints one table.
``--record-digests`` rewrites the reference output digests.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, clear_caches, package_modules

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
WORK = Path("perfbench") / ".work"  # relative to ROOT, which is the working directory
SETUP_REPEATS = 5
UNATTRIBUTED_LIMIT = 0.05
LAYERS = ("cli", "arith", "curves", "weights", "families", "moments", "twists", "oracles", "cache")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program source, bad arguments)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def import_program():
    """Import avgrank from this checkout's src/ and nowhere else."""
    if not (SRC / "avgrank" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import avgrank

    if Path(avgrank.__file__).resolve().parent != (SRC / "avgrank").resolve():
        raise BenchError(f"avgrank was imported from {avgrank.__file__}, not {SRC}")
    return avgrank


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(ROOT / work / "tmp")
    return env


def fresh_work(name: str) -> Path:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    return work


def environment(threads: int, overhead) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        res = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        commit = res.stdout.strip() if res.returncode == 0 else None
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "threads": threads,
        "trace_overhead_frac": overhead,
    }


# ---------------------------------------------------------------------------
# running ops


def spawn(argv, env, stdout_path: Path):
    """Run one CLI process; returns (exit code, wall s, cpu s, max RSS in KiB)."""
    with open(ROOT / stdout_path, "wb") as out, open(ROOT / f"{stdout_path}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "avgrank.cli", *argv], cwd=ROOT, env=env, stdout=out, stderr=err
        )
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def prepare(op, plan) -> None:
    """Make the op's input; if that fails (say, an earlier op wrote nothing), the op fails on its own."""
    if op.before is not None:
        try:
            op.before(WORK / plan.workload, workloads.sample_seed(plan))
        except Exception:
            traceback.print_exc()


def run_subprocess_iteration(plan, env, threads: int):
    """All ops of the plan as CLI processes; returns (codes, wall, cpu, max RSS KiB)."""
    codes, cpu, rss = [], 0.0, 0
    work = WORK / plan.workload
    t0 = time.perf_counter()
    for op in plan.ops:
        prepare(op, plan)
        code, _, c, m = spawn([*op.argv, "--threads", str(threads)], env, work / op.stdout)
        codes.append(code)
        cpu += c
        rss = max(rss, m)
    return codes, time.perf_counter() - t0, cpu, rss


def run_inprocess_iteration(plan, cli, threads: int, clock=time.perf_counter):
    """All ops of the plan through cli.main in this process; returns (codes, wall)."""
    codes = []
    work = WORK / plan.workload
    t0 = clock()
    for op in plan.ops:
        prepare(op, plan)
        with open(work / op.stdout, "w") as out, open(work / f"{op.stdout}.err", "w") as err:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([*op.argv, "--threads", str(threads)])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is a failed op, as a traceback is for a process
                    traceback.print_exc()
                    code = 1
        codes.append(code)
    return codes, clock() - t0


def digests(plan) -> dict[str, str]:
    work = WORK / plan.workload
    out = {}
    for name in plan.outputs:
        path = work / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return out


class Verdicts:
    """Checks each iteration's outputs; bytes identical to a checked iteration reuse its verdict."""

    def __init__(self, plan):
        self.plan = plan
        self.known: dict[str, list[list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.evals = 0
        self.problems: list[str] = []

    def record(self, codes) -> None:
        key = json.dumps(digests(self.plan), sort_keys=True)
        if key not in self.known:
            self.known[key] = self._check()
        for op, code, problems in zip(self.plan.ops, codes, self.known[key]):
            self.attempted += 1
            if code != op.expect:
                problems = problems + [f"{' '.join(op.argv[:2])}: exit code {code}, expected {op.expect}"]
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    def _check(self) -> list[list[str]]:
        work = WORK / self.plan.workload
        seed = workloads.sample_seed(self.plan)
        per_op, evals = [], 0
        for op in self.plan.ops:
            try:
                problems, n = op.check(work, self.plan.params, seed)
            except Exception as exc:  # a malformed output must count as a failed op
                problems, n = [f"{op.stdout}: check raised {type(exc).__name__}: {exc}"], 0
            per_op.append(problems)
            evals += n
        self.evals = self.evals or evals
        return per_op


# ---------------------------------------------------------------------------
# measurements


def measure_end_to_end(plan, seconds: float, threads: int) -> tuple[dict, Verdicts]:
    work = WORK / plan.workload
    env = child_env(work)
    setup = [spawn(["--help"], env, work / "help.out")[1] for _ in range(SETUP_REPEATS)]
    verdicts = Verdicts(plan)
    walls, cpus, rss = [], [], 0
    while not walls or sum(walls) < seconds:
        codes, wall, cpu, m = run_subprocess_iteration(plan, env, threads)
        walls.append(wall)
        cpus.append(cpu)
        rss = max(rss, m)
        verdicts.record(codes)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": rss / 1024.0,
        "setup_s": statistics.median(setup),
        "trace_evals_per_s": verdicts.evals / wall,
        "ops_ok_frac": 1.0 - verdicts.failed / verdicts.attempted,
        "iterations": len(walls),
        "samples": {"wall_s": walls, "cpu_s": cpus, "setup_s": setup},
    }
    return metrics, verdicts


def derived(m: dict) -> dict:
    """Ratios of the traced counters, each with its base."""
    def ratio(a, b):
        return m.get(a, 0) / m[b] if m.get(b) else 0.0

    return {
        "curves.batch_class_ratio": ratio("curves.sigma_p_batch.classes", "curves.sigma_p_batch.rows"),
        "arith.sieve_reuse": ratio("arith.sieve_primes.distinct_limits", "arith.sieve_primes.calls"),
        "twists.per_discriminant_ms": 1000.0 * ratio("twists.twist_average_experiment.s", "twists.discriminants"),
        "cache.load_MBps": ratio("cache.bytes_read", "cache.cache_load.s") / 1e6,
    }


def measure_layers(plan, seconds: float, threads: int, avgrank) -> tuple[dict, Verdicts]:
    import avgrank.cli as cli

    modules = package_modules(avgrank)
    tempfile.tempdir = str(ROOT / WORK / plan.workload / "tmp")
    verdicts = Verdicts(plan)
    plain, traced, layers = [], [], []
    bytes_out = changed = None
    while not traced or sum(plain) + sum(traced) < seconds:
        clear_caches(modules)
        codes, wall = run_inprocess_iteration(plan, cli, threads)
        plain.append(wall)
        verdicts.record(codes)
        if changed is None:
            changed = outputs_changed(plan)
            files = [WORK / plan.workload / name for name in plan.outputs]
            bytes_out = sum(f.stat().st_size for f in files if f.exists())
        clear_caches(modules)
        with Tracer(modules) as tr:
            t0, c0 = time.perf_counter(), tr.clock()
            codes, _ = run_inprocess_iteration(plan, cli, threads, tr.clock)
            real, adjusted = time.perf_counter() - t0, tr.clock() - c0
        traced.append(real)
        verdicts.record(codes)
        m = tr.summary()
        m["trace.wall_s"] = adjusted
        m["trace.unattributed_frac"] = 1.0 - sum(
            m.get(f"{layer}.self_s", 0.0) for layer in LAYERS
        ) / adjusted
        m.update(derived(m))
        layers.append(m)
    metrics = {k: statistics.median_low(m.get(k, 0) for m in layers) for k in set().union(*layers)}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["cli.bytes_out"] = bytes_out
    metrics["cli.outputs_changed"] = changed
    metrics["iterations"] = len(traced)
    if abs(metrics["trace.unattributed_frac"]) > UNATTRIBUTED_LIMIT:
        verdicts.problems.append(
            f"layer self times leave {metrics['trace.unattributed_frac']:.1%} of the traced wall unattributed"
        )
    return metrics, verdicts


def outputs_changed(plan) -> int:
    """Output files whose sha256 differs from the reference digest of this variant."""
    try:
        ref = json.loads(DIGESTS.read_text())[plan.workload][str(plan.variant)]
    except (OSError, KeyError, json.JSONDecodeError):
        ref = {}
    got = digests(plan)
    return sum(1 for name in plan.outputs if ref.get(name) != got[name])


def run_workload(name: str, seed: int, seconds: float, trace: bool, avgrank) -> dict:
    spec = load_spec()
    threads = nproc()
    work = fresh_work(name)
    plan = workloads.make_plan(name, seed, work)
    if trace:
        metrics, verdicts = measure_layers(plan, seconds, threads, avgrank)
        wanted = spec["per_layer"]
    else:
        metrics, verdicts = measure_end_to_end(plan, seconds, threads)
        wanted = spec["end_to_end"]
    env = environment(threads, metrics.get("trace.overhead_frac"))
    result = {
        "correct": verdicts.failed == 0 and not verdicts.problems,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": name, "seed": seed, "variant": plan.variant, "params": plan.params,
        "trace": trace, "iterations": metrics["iterations"], "samples": metrics.get("samples"),
        "environment": env,
        "ops_failed_frac": verdicts.failed / verdicts.attempted, "problems": list(dict.fromkeys(verdicts.problems)),
        **result,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for p in dict.fromkeys(verdicts.problems):
        print(f"FAILED {name}: {p}", file=sys.stderr)
    print(f"# {name} seed={seed} variant={plan.variant} iterations={metrics['iterations']} "
          f"ops_failed_frac={record['ops_failed_frac']:.4g}")
    for key, val in result["metrics"].items():
        print(f"{name:>14} {key:<44} {val['value']:>16.6g} {val['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    return result


def record_digests() -> None:
    """Run every workload variant once and store the sha256 of each output."""
    out = {}
    for name in workloads.WORKLOADS:
        out[name] = {}
        for variant in range(len(workloads.VARIANT_OFFSETS)):
            work = fresh_work(name)
            plan = workloads.make_plan(name, variant, work)
            codes, *_ = run_subprocess_iteration(plan, child_env(work), nproc())
            verdicts = Verdicts(plan)
            verdicts.record(codes)
            if verdicts.failed:
                raise BenchError(f"{name} variant {variant} fails its checks: {verdicts.problems}")
            out[name][str(variant)] = digests(plan)
            print(f"{name} variant {variant}: {len(out[name][str(variant)])} digests", flush=True)
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        avgrank = import_program()
        if args.record_digests:
            record_digests()
            return 0
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), avgrank) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
