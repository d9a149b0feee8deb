import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _write(root, text):
    (root / "run").mkdir(parents=True)
    (root / "run" / "trace.csv").write_text(text, encoding="utf-8")
    return root


def test_text_only_csv_change_is_counted_per_column(tmp_path):
    # Equal as floats, different as text: a zero's sign and a trailing digit.
    rev = _write(tmp_path / "rev", "s,f,g\n0,-0,1\n1,2.5,-0\n2,3,-0\n")
    here = _write(tmp_path / "here", "s,f,g\n0,0,1\n1,2.50,0\n2,3,0\n")
    assert compare_outputs.differences(here, rev) == [(Path("run/trace.csv"), [
        "rows: 3 at REV, 3 here",
        "f: 2 cells differ in text only, 1 of them only in the sign of a zero",
        "g: 2 cells differ in text only, 2 of them only in the sign of a zero",
    ])]


def test_value_change_reports_the_largest_change(tmp_path):
    rev = _write(tmp_path / "rev", "s,f\n0,-0\n1,2\n")
    here = _write(tmp_path / "here", "s,f\n0,0\n1,2.5\n")
    assert compare_outputs.differences(here, rev) == [(Path("run/trace.csv"), [
        "rows: 2 at REV, 2 here", "f: largest change 0.5 absolute, 0.25 relative",
    ])]
