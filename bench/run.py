"""Benchmark of debond: three seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cli-expansion --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run times whole operations with the program
exactly as shipped and prints the end-to-end metrics.  With ``--trace 1`` it
alternates an untraced and a traced pass over the same rounds and prints the
per-layer metrics, including the tracing overhead.  Either way it checks
every output, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable lines
come before it; a fuller record goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9

# One process, one thread: pin numpy's BLAS pools before numpy is imported.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cli-expansion", "forward-suite", "roundtrip-suite"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts():
    import numpy
    import yaml

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def peak_rss_mb():
    import resource

    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class SpeedGauge:
    """Rescales wall times to the reference speed of the machine.

    On a shared machine the same operation runs up to 1.5 times slower for
    seconds to minutes at a time, often longer than a run.  The gauge times
    three fixed kernels right before and right after every timed interval: a
    scalar loop of ``np.searchsorted`` lookups and float arithmetic, small
    array allocations, and vector ``np.interp``/``cumsum``/``union1d`` on
    arrays a few hundred KiB large, the mix of the program's hot paths.  Each
    kernel time over its time on the reference machine is a slowdown; the
    interval is reported as its wall time over the mean slowdown of the six
    readings, i.e. in seconds of the reference machine.  None of the kernels
    calls the program, so a change to the program cannot move the gauge.
    """

    # Kernel times measured once on the reference machine (2-CPU x86_64,
    # Python 3.11.7, numpy 2.4.6); see README.
    REFERENCE_S = (0.0150, 0.0070, 0.0350)

    def __init__(self):
        import numpy as np

        self._np = np
        self._xs = np.linspace(0.0, 1.0, 4097)
        self._vs = np.sin(self._xs)
        self._big_x = np.linspace(0.0, 1.0, 20001)
        self._big_v = np.cos(self._big_x)
        self._queries = np.random.default_rng(0).random(200000)

    def _scalar(self):
        np, xs, vs = self._np, self._xs, self._vs
        acc = 0.0
        for k in range(1, 3001):
            q = (k * 0.6180339887498949) % 1.0
            i = min(max(int(np.searchsorted(xs, q)), 1), xs.shape[0] - 1)
            w = (q - xs[i - 1]) / (xs[i] - xs[i - 1])
            acc += max(float(vs[i - 1] * (1.0 - w) + vs[i] * w), 0.0) / (1.0 + q)
        return acc

    def _alloc(self):
        np = self._np
        out = []
        for k in range(1500):
            a = np.empty(64)
            a[:] = k
            out.append(np.concatenate(([0.0], a[1:] * 2.0)))
        return out

    def _array(self):
        np = self._np
        y = np.interp(self._queries, self._big_x, self._big_v)
        return np.cumsum(y)[-1], np.union1d(np.sort(self._queries[:20000]), self._big_x).size

    def slowdown(self):
        """Mean of kernel time / reference time over the three kernels."""
        total = 0.0
        for kernel, reference in zip((self._scalar, self._alloc, self._array), self.REFERENCE_S):
            start = time.perf_counter()
            kernel()
            total += (time.perf_counter() - start) / reference
        return total / 3.0


def measure_setup(scenario_path, gauge):
    """A fresh interpreter that imports debond.cli and loads the scenario: (wall, scaled)."""
    env = dict(os.environ, **THREAD_ENV)
    probe = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(scenario_path)]
    before = gauge.slowdown()
    start = time.perf_counter()
    done = subprocess.run(probe, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=60, check=False)
    wall = time.perf_counter() - start
    after = gauge.slowdown()
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.decode(errors='replace')}")
    return wall, wall / (0.5 * (before + after))


def run_op(index, op, gauge, tracer=None):
    """Run one operation's steps (timed) and check it (untimed, never traced)."""
    from workloads import Outcome
    import debond

    results, step_s, wall_s, error = [], {}, 0.0, None
    slowdown = gauge.slowdown()
    for name, step in op.steps:
        if tracer is not None:
            tracer.install(debond)
        start = time.perf_counter()
        try:
            results.append(step(results))
        except Exception:  # a program error fails this operation; the run goes on
            error = traceback.format_exc(limit=4)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        before, slowdown = slowdown, gauge.slowdown()
        wall_s += wall
        step_s[name] = wall / (0.5 * (before + slowdown))
        if error is not None:
            break
    if error is not None:
        outcome = Outcome(failed=True, problems=[f"raised: {error.strip().splitlines()[-1]}"])
    else:
        outcome = op.check(results)
    return {"op": index, "kind": op.kind, "wall_s": wall_s, "seconds": sum(step_s.values()),
            "steps": step_s, "failed": outcome.failed, "problems": outcome.problems,
            "front_dev": outcome.front_dev, "state_dev": outcome.state_dev,
            "extra": outcome.extra}


def run_plain(ops, seconds, scenario_path):
    """Repeat the round until the time is up; one setup probe per round, at least nine.

    Returns the operation records and the setup probes as (wall, scaled) seconds.
    """
    gauge = SpeedGauge()
    records, setups = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        setups.append(measure_setup(scenario_path, gauge))
        records += [run_op(j, op, gauge) for j, op in enumerate(ops)]
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(scenario_path, gauge))
    return records, setups


def run_traced(ops, seconds, scenario_path, tracer):
    """Alternate an untraced and a traced pass over the round."""
    import debond
    from setup_probe import load_scenario

    gauge = SpeedGauge()
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        plain += [run_op(j, op, gauge) for j, op in enumerate(ops)]
        tracer.install(debond)
        try:
            load_scenario(str(scenario_path))
        finally:
            tracer.uninstall()
        traced += [run_op(j, op, gauge, tracer) for j, op in enumerate(ops)]
    return plain, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def median_per_op(records):
    per = {}
    for r in records:
        per.setdefault(r["op"], []).append(r["seconds"])
    return {op: statistics.median(v) for op, v in per.items()}


def end_to_end_metrics(records, setups):
    per_op = median_per_op(records)
    bad = {r["op"] for r in records if r["failed"]}
    fronts = [r["front_dev"] for r in records if r["front_dev"] is not None]
    states = [r["state_dev"] for r in records if r["state_dev"] is not None]
    return {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "op_s": (statistics.median(per_op.values()), "s"),
        "ops_per_s": ((len(per_op) - len(bad)) / sum(per_op.values()), "1/s"),
        "front_dev": (max(fronts), "length"),
        "state_dev": (max(states), "length"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(tracer, plain, traced):
    n = len(traced)
    t, s, c, k = tracer.time, tracer.self_time, tracer.calls, tracer.counts

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    csv_bytes = sum(r["extra"].get("csv_bytes", 0) for r in traced)
    plain_s = sum(median_per_op(plain).values())
    traced_s = sum(median_per_op(traced).values())
    return {
        "config.load_s": (ratio(t["config.load"], k["scenario_loads"]), "s"),
        "func1d.eval_calls": (ratio(c["func1d.eval"], n), "count"),
        "func1d.eval_s": (ratio(t["func1d.eval"], n), "s"),
        "func1d.antiderivative_calls": (ratio(c["func1d.antiderivative"], n), "count"),
        "func1d.antiderivative_s": (ratio(t["func1d.antiderivative"], n), "s"),
        "func1d.invert_calls": (ratio(c["func1d.invert"], n), "count"),
        "func1d.invert_s": (ratio(t["func1d.invert"], n), "s"),
        "model.echo_calls": (ratio(c["model.echo"], n), "count"),
        "model.reflection_factor_calls": (ratio(c["model.reflection_factor"], n), "count"),
        "model.griffith_speed_calls": (ratio(c["model.griffith_speed"], n), "count"),
        "forward.solve_front_s": (ratio(t["forward.solve_front"], n), "s"),
        "forward.march_steps": (ratio(k["march_steps"], n), "count"),
        "forward.march_us_per_step": (ratio(t["forward.solve_front"], k["march_steps"], 1e6), "us"),
        "forward.initial_branch_s": (ratio(t["forward.initial_branch"], n), "s"),
        "forward.trace_function_s": (ratio(t["forward.trace_function"], n), "s"),
        "forward.trace_value_calls": (ratio(c["forward.trace_value"], n), "count"),
        "forward.trace_value_s": (ratio(t["forward.trace_value"], n), "s"),
        "forward.reconstruct_s": (ratio(t["forward.reconstruct"], n), "s"),
        "forward.reconstruct_us_per_point": (
            ratio(t["forward.reconstruct"], k["reconstruct_points"], 1e6), "us"),
        "forward.griffith_residuals_s": (ratio(t["forward.griffith_residuals"], n), "s"),
        "branch.final_branch_s": (ratio(t["branch.final_branch"], n), "s"),
        "branch.backward_nodes": (ratio(k["backward_nodes"], n), "count"),
        "control.synthesize_s": (ratio(t["control.synthesize"], n), "s"),
        "control.synthesize_self_s": (ratio(s["control.synthesize"], n), "s"),
        "control.prescribed_front_s": (ratio(t["control.prescribed_front"], n), "s"),
        "control.uprime_calls": (ratio(c["control.uprime"], n), "count"),
        "control.uprime_s": (ratio(t["control.uprime"], n), "s"),
        "control.control_nodes": (ratio(k["control_nodes"], n), "count"),
        "control.verify_s": (ratio(t["control.verify"], n), "s"),
        "cli.command_self_s": (ratio(s["cli.command"], n), "s"),
        "cli.csv_bytes": (ratio(csv_bytes, n), "bytes"),
        "trace.overhead_pct": (ratio(traced_s - plain_s, plain_s, 100.0), "%"),
    }


def kind_summary(records):
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r)
    return {
        kind: {"attempted": len(rs), "failed": sum(r["failed"] for r in rs),
               "median_s": statistics.median(r["seconds"] for r in rs)}
        for kind, rs in kinds.items()
    }


def step_medians(records):
    """Median scaled time of each named step (simulate_s, synthesize_s, verify_s, ...)."""
    per = {}
    for r in records:
        for name, sec in r["steps"].items():
            per.setdefault(f"{r['kind']}.{name}_s", []).append(sec)
    return {name: statistics.median(v) for name, v in per.items()}


# Other names for the same numbers, printed for readers of older plans (see README).
ALIASES = {
    "forward-suite": {"solves_per_s": "ops_per_s", "oracle_front_dev": "front_dev"},
    "roundtrip-suite": {"roundtrips_per_s": "ops_per_s", "roundtrip_state_dev": "state_dev"},
    "cli-expansion": {},
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "debond" / "__init__.py").is_file():
        print(f"error: no debond sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    from tracer import Tracer
    from workloads import WORKLOADS

    facts = machine_facts()
    seed = args.seed & 0xFFFFFFFF
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](seed, str(work))
        scenario_path = work / "setup_scenario.yaml"
        scenario_path.write_text(workload.setup_scenario(), encoding="utf-8")
        ops = workload.ops()
        tracer, setups = None, []
        if args.trace:
            tracer = Tracer()
            plain, traced = run_traced(ops, args.seconds, scenario_path, tracer)
            records = plain + traced
            metrics = per_layer_metrics(tracer, plain, traced)
        else:
            records, setups = run_plain(ops, args.seconds, scenario_path)
            metrics = end_to_end_metrics(records, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    problems = [(r["kind"], p) for r in records if not r["failed"] for p in r["problems"]]
    correct = not problems
    summary = kind_summary(records)
    extras = step_medians(records) if not args.trace else {}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "correct": correct,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "operations": summary, "step_medians_s": extras,
        "aliases": ALIASES[args.workload],
        "setup_probes": setups if not args.trace else [],
        "records": records,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")

    print(f"# debond benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for kind, row in summary.items():
        print(f"# {kind}: attempted {row['attempted']}, failed {row['failed']}, "
              f"median {row['median_s']:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    for name, value in extras.items():
        print(f"{name:34s} {value:.6g} s   (median of the step)")
    for alias, name in ALIASES[args.workload].items():
        if name in metrics:
            print(f"{alias:34s} = {name}")
    for kind, problem in problems[:10]:
        print(f"# CHECK FAILED [{kind}]: {problem}")
    failures = [(r["kind"], p) for r in records if r["failed"] for p in r["problems"]]
    for kind, problem in failures[:3]:
        print(f"# operation failed [{kind}]: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
