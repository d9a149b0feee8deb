import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCHMARK = {"end_to_end": [
    {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]}


def _result(tmp_path, side, k, op_s, workload="cli-expansion"):
    path = tmp_path / f"{side}-{workload}-{k}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": 100 + k, "seconds": 30.0, "trace": 0,
        "machine": {"cpu_count": 2}, "correct": True, "attempted": 10, "failed": 0,
        "metrics": {"op_s": {"value": op_s, "unit": "s"},
                    "ops_per_s": {"value": 1.0 / op_s, "unit": "1/s"}},
    }))
    return path


def test_pairs_fold_into_medians_quartiles_and_wins(tmp_path):
    parent = [_result(tmp_path, "parent", k, v) for k, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
    change = [_result(tmp_path, "change", k, v) for k, v in enumerate([0.5, 1.5, 3.0, 4.5, 2.0])]
    record = bench_record.build_record("t", parent, change, BENCHMARK)
    wl = record["workloads"]["cli-expansion"]
    assert wl["pairs"] == 5 and wl["operations"]["parent"] == {"attempted": 50, "failed": 0}
    op = wl["metrics"]["op_s"]
    assert op["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert op["change"]["median"] == 2.0
    assert (op["pairs_won"], op["pairs_lost"]) == (3, 1)  # the tie at 3.0 counts for neither
    assert op["median_change_pct"] == pytest.approx(-100.0 / 3.0)
    assert op["within_bound"] and not op["gain_exceeds_parent_iqr"]  # gain 1.0 < IQR 2.0
    rate = wl["metrics"]["ops_per_s"]  # higher is better: the same pairs win
    assert (rate["pairs_won"], rate["pairs_lost"]) == (3, 1)
    assert record["machine"] == {"cpu_count": 2} and not record["machines_differ"]
    assert not op["claim_met"]  # 3 of 5 pairs, and a gain within the parent's IQR


@pytest.mark.parametrize("won, met", [(10, True), (9, True), (8, False)])
def test_claim_met_needs_nine_pairs_in_ten_and_a_gain_beyond_the_iqr(tmp_path, won, met):
    parent_runs = [2.0 + 0.01 * k for k in range(10)]  # IQR 0.045
    change_runs = [v - 0.5 if k < won else v + 0.1 for k, v in enumerate(parent_runs)]
    parent = [_result(tmp_path, "parent", k, v) for k, v in enumerate(parent_runs)]
    change = [_result(tmp_path, "change", k, v) for k, v in enumerate(change_runs)]
    record = bench_record.build_record("t", parent, change, BENCHMARK)
    for key in ("op_s", "ops_per_s"):
        m = record["workloads"]["cli-expansion"]["metrics"][key]
        assert m["pairs_won"] == won and m["gain_exceeds_parent_iqr"]
        assert m["claim_met"] is met


def test_main_prints_claim_met_on_each_summary_line(tmp_path, monkeypatch, capsys):
    parent = [_result(tmp_path, "parent", k, 2.0 + 0.01 * k) for k in range(10)]
    change = [_result(tmp_path, "change", k, 1.0 + 0.01 * k) for k in range(10)]
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    args = ["t", "--parent", *map(str, parent), "--change", *map(str, change)]
    assert bench_record.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:2]] == ["op_s", "ops_per_s"]
    assert all(line.endswith("won 10/10 claim_met True") for line in lines[:2])
    assert json.loads((tmp_path / "BENCH_t.json").read_text())["label"] == "t"


def test_unpaired_or_traced_runs_are_refused(tmp_path):
    parent = [_result(tmp_path, "parent", k, 1.0) for k in range(3)]
    change = [_result(tmp_path, "change", k, 1.0) for k in range(2)]
    with pytest.raises(ValueError, match="3 parent and 2 change runs"):
        bench_record.build_record("t", parent, change, BENCHMARK)
    traced = json.loads(parent[0].read_text())
    traced["trace"] = 1
    parent[0].write_text(json.dumps(traced))
    with pytest.raises(ValueError, match="traced run"):
        bench_record.build_record("t", parent, change + [parent[2]], BENCHMARK)
