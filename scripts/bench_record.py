#!/usr/bin/env python3
"""Fold paired benchmark result files into one committed ``BENCH_<label>.json``.

    python3 scripts/bench_record.py LABEL --parent A1.json A2.json ... --change B1.json B2.json ...

Each file is a ``result-*.json`` that ``bench/run.py`` wrote.  The files of one
workload pair up in the order given: the k-th parent file of a workload with
its k-th change file, so list them as the alternating runs were made.  For
each workload and each end-to-end metric that ``BENCHMARK.json`` names, the
record holds each side's runs, median and quartiles, how many pairs the change
won and lost (ties count for neither), the change of the median, whether that
change exceeds the parent's interquartile range, whether a claimed gain on
the metric is met (the change won at least nine pairs in ten and its median
gain exceeds the parent's interquartile range), and whether the change's
median is worse than the parent's by no more than the metric's bound, taken
as a fraction of the parent's median.  It also keeps each side's operation
counts and the machine facts of the runs.  The record is written to
``BENCH_<label>.json`` at the root of the checkout.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(paths):
    """{workload: [result, ...]} in the order given."""
    runs = {}
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        if result.get("trace"):
            raise ValueError(f"{path}: a traced run; end-to-end metrics come from --trace 0")
        runs.setdefault(result["workload"], []).append(result)
    return runs


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _metric(spec, parent, change):
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p, c = _summary(parent), _summary(change)
    gain = sign * (p["median"] - c["median"])  # > 0 when the change is better
    won = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    exceeds_iqr = gain > p["q3"] - p["q1"]
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": p, "change": c,
        "pairs_won": won,
        "pairs_lost": sum(sign * (a - b) < 0 for a, b in zip(parent, change)),
        "median_change_pct": 100.0 * (c["median"] - p["median"]) / p["median"]
        if p["median"] else None,
        "gain_exceeds_parent_iqr": exceeds_iqr,
        "claim_met": 10 * won >= 9 * len(parent) and exceeds_iqr,
        "within_bound": -gain <= spec["bound"] * abs(p["median"]),
    }


def _counts(results):
    return {key: sum(r[key] for r in results) for key in ("attempted", "failed")}


def build_record(label, parent_paths, change_paths, benchmark):
    parent, change = _load(parent_paths), _load(change_paths)
    if parent.keys() != change.keys():
        raise ValueError(f"workloads differ: parent {sorted(parent)}, change {sorted(change)}")
    workloads = {}
    for name, p_runs in parent.items():
        c_runs = change[name]
        if len(p_runs) != len(c_runs) or len(p_runs) < 2:
            raise ValueError(f"{name}: {len(p_runs)} parent and {len(c_runs)} change runs; "
                             "need equal counts of at least two")
        metrics = {}
        for spec in benchmark["end_to_end"]:
            key = spec["name"]
            if all(key in r["metrics"] for r in p_runs + c_runs):
                metrics[key] = _metric(spec, [r["metrics"][key]["value"] for r in p_runs],
                                       [r["metrics"][key]["value"] for r in c_runs])
        workloads[name] = {
            "pairs": len(p_runs),
            "seconds": sorted({r["seconds"] for r in p_runs + c_runs}),
            "seeds": [[a["seed"], b["seed"]] for a, b in zip(p_runs, c_runs)],
            "operations": {"parent": _counts(p_runs), "change": _counts(c_runs)},
            "all_correct": all(r["correct"] for r in p_runs + c_runs),
            "metrics": metrics,
        }
    machines = [r["machine"] for runs in (parent, change) for rs in runs.values() for r in rs]
    return {
        "label": label,
        "machine": machines[0],
        "machines_differ": any(m != machines[0] for m in machines),
        "workloads": workloads,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label", help="the record is written to BENCH_<label>.json")
    ap.add_argument("--parent", nargs="+", required=True, help="result files of the parent")
    ap.add_argument("--change", nargs="+", required=True, help="result files of the change")
    args = ap.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        record = build_record(args.label, args.parent, args.change, benchmark)
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, wl in record["workloads"].items():
        for key, m in wl["metrics"].items():
            print(f"{name:16s} {key:12s} parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} won {m['pairs_won']}/{wl['pairs']} "
                  f"claim_met {m['claim_met']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
