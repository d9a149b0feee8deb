import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from debond import ContinuityFailure, cli, config, control
from debond.cli import main
from debond.config import load_config, parse_config
from debond.func1d import SampledFunction, union
from debond.model import ControlSignal

STATIC_ZERO = """\
T: 3.0
solver: {h: 1.0e-3, scheme: heun}
toughness: {preset: constant, value: 1.0}
initial:
  ell0: 1.0
  regularity: C01
  y0: {preset: constant, value: 0.0}
  y1: {preset: constant, value: 0.0}
control:
  u: {preset: constant, value: 0.0}
target:
  ellbar0: 1.0
  regularity: C01
  ybar0: {preset: constant, value: 0.0}
  ybar1: {preset: constant, value: 0.0}
"""

CONSTANT_SPEED = """\
T: 6.0
solver: {h: 1.0e-3, scheme: heun}
toughness: {preset: constant, value: 0.5}
initial:
  ell0: 1.0
  regularity: C01
  y0: {preset: constant, value: 0.0}
  y1: {preset: constant, value: 2.0}
control:
  u: {preset: constant, value: 0.0}
"""

EXPANSION = """\
T: 6.0
solver: {h: 1.0e-3, scheme: heun}
toughness: {preset: constant, value: 1.0}
initial:
  ell0: 1.0
  regularity: C01
  y0: {preset: constant, value: 0.0}
  y1: {preset: constant, value: 0.0}
target:
  ellbar0: 2.0
  regularity: C01
  ybar0: {preset: constant, value: 0.0}
  ybar1: {preset: constant, value: 0.0}
branch: {policy: prefer_static}
"""

BAD_TARGET = """\
T: 5.0
solver: {h: 1.0e-3, scheme: heun}
toughness: {preset: constant, value: 1.0}
initial:
  ell0: 1.0
  regularity: C01
  y0: {preset: constant, value: 0.0}
  y1: {preset: constant, value: 0.0}
target:
  ellbar0: 1.0
  regularity: C01
  ybar0: {preset: linear, intercept: 2.0, slope: -2.0}
  ybar1: {preset: constant, value: 4.0}
"""


def run(tmp_path, doc, command, *extra):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(doc)
    out = tmp_path / "out"
    return main([command, "--config", str(cfg), "--out", str(out), *extra]), out


def read_csv(path):
    with open(path) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def read_keyvals(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


def test_simulate_static(tmp_path):
    code, out = run(tmp_path, STATIC_ZERO, "simulate")
    assert code == 0
    front = read_csv(out / "front.csv")
    assert np.max(np.abs(front["ell"] - 1.0)) <= 1e-12
    assert np.all(np.diff(front["t"]) > 0)
    for name in ("trace.csv", "control.csv", "state_at_T.csv"):
        assert (out / name).exists()


def test_simulate_constant_speed_final_value(tmp_path):
    code, out = run(tmp_path, CONSTANT_SPEED, "simulate")
    assert code == 0
    front = read_csv(out / "front.csv")
    assert front["ell"][-1] == pytest.approx(4.0, abs=5e-3)


def test_missing_T_names_field(tmp_path, capsys):
    doc = STATIC_ZERO.replace("T: 3.0\n", "")
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(doc)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "T" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("T: 3.0", "T: .nan", "'T'"),
        ("T: 3.0", "T: .inf", "'T'"),
        ("{h: 1.0e-3,", "{h: .nan,", "'solver.h'"),
    ],
)
def test_non_finite_number_names_field(tmp_path, capsys, old, new, field):
    code, _ = run(tmp_path, STATIC_ZERO.replace(old, new, 1), "simulate")
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("  y1: {preset: constant, value: 0.0}\ncontrol",
         "  y1: {samples: [[0.0, 0.0], [0.5, .nan], [1.0, 0.0]]}\ncontrol",
         "'initial.y1.samples[1]'"),
        ("  y1: {preset: constant, value: 0.0}\ncontrol",
         "  y1: {samples: [[0.0, 0.0], [1.0, zero]]}\ncontrol", "'initial.y1.samples[1]'"),
        ("T: 3.0", "T: -1.0", "'T'"),
        ("T: 3.0", "T: 0.0", "'T'"),
        ("{h: 1.0e-3,", "{h: -1.0e-3,", "'solver.h'"),
        ("T: 3.0", "T: 3.0\noutput: {state_points: 0.5}", "'output.state_points'"),
        # sample tables whose x does not increase
        ("  y0: {preset: constant, value: 0.0}",
         "  y0: {samples: [[0.0, 0.0], [0.7, 0.0], [0.3, 0.0], [1.0, 0.0]]}",
         "'initial.y0.samples'"),
        ("  y0: {preset: constant, value: 0.0}",
         "  y0: {samples: [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [1.0, 0.0]]}",
         "'initial.y0.samples'"),
        ("u: {preset: constant, value: 0.0}",
         "u: {samples: [[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [3.0, 0.0]]}", "'control.u.samples'"),
        ("toughness: {preset: constant, value: 1.0}",
         "toughness: {samples: [[0.0, 1.0], [2.0, 1.0], [2.0, 1.0], [4.0, 1.0]]}",
         "'toughness.samples'"),
        # presets whose samples overflow
        ("u: {preset: constant, value: 0.0}",
         "u: {preset: linear, intercept: 0.0, slope: 1.0e+308}", "'control.u'"),
        ("u: {preset: constant, value: 0.0}",
         "u: {preset: sine, amplitude: 1.0e+308, omega: 2.0}", "'control.u'"),
        ("  y1: {preset: constant, value: 0.0}\ncontrol",
         "  y1: {preset: linear, intercept: 1.0e+308, slope: 1.0e+308}\ncontrol", "'initial.y1'"),
        # sample tables that miss the domain, are too short or hold a row that is not a pair
        ("  y0: {preset: constant, value: 0.0}", "  y0: {samples: [[0.0, 0.0], [0.5, 0.0]]}",
         "'initial.y0.samples': table must span [0, 1], got [0, 0.5]"),
        ("  y0: {preset: constant, value: 0.0}", "  y0: {samples: [[0.0, 0.0]]}",
         "'initial.y0.samples': need at least two [x, value] rows"),
        ("  y0: {preset: constant, value: 0.0}", "  y0: {samples: [[0.0, 0.0], [1.0]]}",
         "'initial.y0.samples[1]': expected [x, value]"),
        ("  regularity: C01", "  regularity: C2", "'initial.regularity': must be 'C01' or 'C1'"),
        (STATIC_ZERO, "- 3.0\n", "'(document)': top level must be a mapping"),
    ],
)
def test_invalid_input_exits_2_naming_field(tmp_path, capsys, old, new, field):
    doc = STATIC_ZERO.replace(old, new, 1)
    assert doc != STATIC_ZERO
    code, out = run(tmp_path, doc, "simulate")
    assert code == 2
    assert field in capsys.readouterr().err
    assert not (out / "front.csv").exists()


@pytest.mark.parametrize("old, new, command, field", [
    ("  y0: {preset: constant, value: 0.0}", "  y0: {preset: linear, intercept: 1.0, slope: -0.5}",
     "simulate", "'initial': y0 must vanish at the front: y0(1) = 0.5"),
    ("  ybar0: {preset: constant, value: 0.0}", "  ybar0: {preset: constant, value: 0.5}",
     "synthesize", "'target': ybar0 must vanish at the front: ybar0(1) = 0.5"),
])
def test_state_that_does_not_vanish_at_the_front_exits_2_naming_it(tmp_path, capsys, old, new,
                                                                   command, field):
    code, _ = run(tmp_path, STATIC_ZERO.replace(old, new, 1), command)
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("toughness", ["{preset: constant, value: 1.0e-310}",
                                       "{samples: [[0.0, 1.0e-310], [4.0, 1.0e-310]]}"])
def test_overflowing_griffith_rate_exits_3_with_one_line(tmp_path, capsys, toughness):
    doc = (STATIC_ZERO.replace("{preset: constant, value: 1.0}", toughness, 1)
           .replace("u: {preset: constant, value: 0.0}",
                    "u: {preset: linear, intercept: 0.0, slope: 1.0}", 1))
    code, _ = run(tmp_path, doc, "simulate")
    assert code == 3
    assert capsys.readouterr().err == (
        "error: front speed rounds to 1 at t = 1: trace slope 1, toughness 1e-310\n")


@pytest.mark.parametrize("old, new, field, hint", [
    ("{h: 1.0e-3,", "{h: 1e-3,", "'solver.h'", "'1e-3' as text, write 1.0e-3"),
    ("u: {preset: constant, value: 0.0}", "u: {preset: linear, intercept: 0.0, slope: 1.0e308}",
     "'control.u.slope'", "'1.0e308' as text, write 1.0e+308"),
])
def test_number_yaml_reads_as_text_names_field_and_the_form_that_parses(tmp_path, capsys, old,
                                                                        new, field, hint):
    code, out = run(tmp_path, STATIC_ZERO.replace(old, new, 1), "simulate")
    assert code == 2
    err = capsys.readouterr().err
    assert field in err and hint in err
    assert not (out / "front.csv").exists()


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    def overflow(cfg, args):
        raise OverflowError("cannot convert float infinity to integer")

    monkeypatch.setitem(cli._COMMANDS, "simulate", overflow)
    code, _ = run(tmp_path, STATIC_ZERO, "simulate")
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "OverflowError" in err


def test_continuity_failure_exits_6(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise ContinuityFailure("designed trace jumps by 0.5 at s = 2")

    monkeypatch.setattr(control, "synthesize_c01", broken)
    code, _ = run(tmp_path, STATIC_ZERO, "synthesize")
    assert code == 6
    assert capsys.readouterr().err == (
        "error: continuity assertion failed: designed trace jumps by 0.5 at s = 2\n")


@pytest.mark.parametrize("old, new", [
    ("u: {preset: constant, value: 0.0}",
     "u: {preset: constant, value: 0.0, resolution: 1000000000000}"),
    ("{h: 1.0e-3,", "{h: 1.0e-12,"),
])
def test_failed_allocation_exits_3_naming_it(tmp_path, capsys, old, new):
    # Both arrays are terabytes.  Capping the address space at 1 TiB makes their
    # allocation fail at once whatever the kernel's overcommit policy; a size that
    # could be allocated would be touched and fill the memory instead.
    import resource

    doc = STATIC_ZERO.replace(old, new, 1)
    assert doc != STATIC_ZERO
    limits = resource.getrlimit(resource.RLIMIT_AS)
    cap = min(v for v in (*limits, 1 << 40) if v != resource.RLIM_INFINITY)
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    try:
        code, out = run(tmp_path, doc, "simulate")
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
    assert not (out / "front.csv").exists()


def test_incompatible_data_exits_3(tmp_path):
    doc = STATIC_ZERO.replace(
        "y1: {preset: constant, value: 0.0}\ncontrol",
        "y1: {preset: constant, value: 0.0}\n  # y0(0) = 1 with u(0) = 0\ncontrol",
    ).replace(
        "y0: {preset: constant, value: 0.0}\n  y1",
        "y0: {preset: linear, intercept: 1.0, slope: -1.0}\n  y1",
    )
    code, _ = run(tmp_path, doc, "simulate")
    assert code == 3


def test_front_speed_rounding_to_one_exits_3_naming_its_cause(tmp_path, capsys):
    doc = STATIC_ZERO.replace("value: 1.0}", "value: 1.0e-18}", 1).replace(
        "u: {preset: constant, value: 0.0}", "u: {preset: linear, intercept: 0.0, slope: 1.0}")
    code, _ = run(tmp_path, doc, "simulate")
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: front speed rounds to 1 at t = ")
    assert "trace slope 1, toughness 1e-18" in err
    assert 0.0 <= float(err.split("at t = ")[1].split(":")[0]) <= 3.0
    assert not list(tmp_path.rglob("*.csv"))


def test_initial_branch_command(tmp_path):
    code, out = run(tmp_path, CONSTANT_SPEED, "initial-branch")
    assert code == 0
    info = read_keyvals(out / "initial_branch.txt")
    assert float(info["t_star"]) == pytest.approx(2.5, abs=5e-3)


def test_final_branch_command(tmp_path):
    doc = EXPANSION.replace("ybar1: {preset: constant, value: 0.0}",
                            "ybar1: {preset: constant, value: 0.8164965809277259}")
    code, out = run(tmp_path, doc, "final-branch", "--policy", "prefer_moving")
    assert code == 0
    info = read_keyvals(out / "final_branch.txt")
    # |w|^2 = 2/3 against kappa = 1: constant root 0.5
    assert float(info["ell_bar_star_prime"]) == pytest.approx(0.5, abs=1e-2)
    branch = read_csv(out / "branch.csv")
    assert np.all(np.diff(branch["t"]) > 0)


def test_check_admissible_pass_and_fail(tmp_path):
    code, out = run(tmp_path, EXPANSION, "check-admissible")
    assert code == 0
    code, out = run(tmp_path, BAD_TARGET, "check-admissible")
    assert code == 1
    rows = (out / "admissibility.csv").read_text().splitlines()
    damping = [r for r in rows if r.startswith("damping_bound")][0]
    assert "false" in damping
    assert float(damping.split(",")[2]) == pytest.approx(2.0, abs=1e-9)


def test_check_admissible_classifies_a_c1_target(tmp_path):
    # ybar0 = 0.2 sin(pi x / 2) on [0, 2] with ybar1 = 0: a passive terminal state.
    doc = EXPANSION.replace(
        "  regularity: C01\n  ybar0: {preset: constant, value: 0.0}",
        "  regularity: C1\n  ybar0: {preset: sine, amplitude: 0.2, omega: 1.5707963267948966}")
    assert doc != EXPANSION
    code, out = run(tmp_path, doc, "check-admissible")
    assert code == 0
    rows = (out / "admissibility.csv").read_text().splitlines()
    assert rows[-2:] == ["terminal_classification,true,0,1e-08", "alpha,true,0,1"]


# y0 and ybar0 sampled at 100 intervals, y1 and ybar1 at 200: the midpoints of the
# first grid (the slope's nodes) and the nodes of the second meet a few ulps apart.
MERGED_GRIDS = STATIC_ZERO.replace(
    "  y0: {preset: constant, value: 0.0}\n  y1: {preset: constant, value: 0.0}",
    "  y0: {preset: sine, amplitude: 0.1, omega: 3.141592653589793, resolution: 100}\n"
    "  y1: {preset: constant, value: 0.0, resolution: 200}").replace(
    "  ybar0: {preset: constant, value: 0.0}\n  ybar1: {preset: constant, value: 0.0}",
    "  ybar0: {preset: sine, amplitude: 0.1, omega: 3.141592653589793, resolution: 100}\n"
    "  ybar1: {preset: constant, value: 0.0, resolution: 200}")


@pytest.mark.parametrize("command",
                         ["simulate", "initial-branch", "final-branch", "synthesize", "verify"])
def test_state_grids_with_nodes_a_few_ulps_apart_run(tmp_path, capsys, command):
    assert MERGED_GRIDS.count("resolution: 200") == 2
    code, _ = run(tmp_path, MERGED_GRIDS, command)
    assert (code, capsys.readouterr().err) == (0, "")


def test_synthesize_zero_to_zero_static_match(tmp_path):
    code, out = run(tmp_path, STATIC_ZERO, "synthesize")
    assert code == 0
    plan = read_keyvals(out / "plan.txt")
    assert plan["case"] == "static_match"


def test_synthesize_expansion_records_v(tmp_path):
    code, out = run(tmp_path, EXPANSION, "synthesize")
    assert code == 0
    plan = read_keyvals(out / "plan.txt")
    assert float(plan["v"]) == pytest.approx(1.0 / 3.0, abs=1e-9)
    # the keys come from the plan, the initial branch and the final branch
    assert list(plan) == ["case", "v", "delta", "t_circ", "t_star", "ell_star", "ell_star_prime",
                          "t_bar_star", "ell_bar_star", "ell_bar_star_prime", "alpha",
                          "stage_s1", "stage_s2", "stage_s3"]
    assert (out / "control.csv").exists() and (out / "branch.csv").exists()


def test_synthesize_boundary_time_exit_4(tmp_path, capsys):
    doc = EXPANSION.replace("T: 6.0", "T: 4.0")
    code, _ = run(tmp_path, doc, "synthesize")
    assert code == 4
    assert "need T > 2 ell_bar_star = 4\n" in capsys.readouterr().err


@pytest.mark.parametrize("T", ["1.5", "2.0"])
@pytest.mark.parametrize("command", ["final-branch", "synthesize", "verify"])
def test_horizon_too_short_for_a_final_branch_exits_4(tmp_path, capsys, command, T):
    # T <= ellbar0 = 2 leaves no final branch: one too-short horizon, one exit code.
    assert run(tmp_path, EXPANSION.replace("T: 6.0", f"T: {T}"), command)[0] == 4
    assert capsys.readouterr().err == ("error: infeasible control time: horizon T = "
                                       f"{float(T):g} too short for a final branch ending at 2\n")


@pytest.mark.parametrize("command", ["initial-branch", "final-branch", "synthesize", "verify"])
def test_horizon_too_short_for_the_initial_branch_exits_4(tmp_path, capsys, command):
    # At T = 0.5 the initial branch (t_star = 1) does not close either: every command exits 4.
    assert run(tmp_path, EXPANSION.replace("T: 6.0", "T: 0.5"), command)[0] == 4
    err = capsys.readouterr().err
    assert err.startswith("error: infeasible control time: ")
    if command == "initial-branch":
        assert err.endswith("initial branch did not close within the horizon T = 0.5\n")


@pytest.mark.parametrize("command", ["synthesize", "verify"])
def test_t_min_is_checked_before_the_initial_branch(tmp_path, capsys, command):
    # The initial branch would not close by T = 2.2; T <= T_min = 4 is found first.
    target = EXPANSION[EXPANSION.index("target:"):EXPANSION.index("branch:")]
    doc = CONSTANT_SPEED.replace("T: 6.0", "T: 2.2") + target
    assert run(tmp_path, doc, command)[0] == 4
    assert "need T > 2 ell_bar_star = 4\n" in capsys.readouterr().err


def test_c1_equal_branch_lengths_with_a_moving_end_exit_4(tmp_path, capsys):
    # The moving final branch at speed alpha = sqrt(1/2) from ellbar0 = 1 + alpha starts
    # at ell = 1 = ell0, where the initial branch rests: equal lengths, one end moving.
    doc = f"""\
T: 6.0
solver: {{h: 1.0e-3, scheme: heun}}
toughness: {{preset: constant, value: 1.0}}
initial:
  ell0: 1.0
  regularity: C1
  y0: {{preset: constant, value: 0.0}}
  y1: {{preset: constant, value: 0.0}}
target:
  ellbar0: {1.0 + math.sqrt(0.5)!r}
  regularity: C1
  ybar0: {{preset: linear, intercept: {2.0 + math.sqrt(2.0)!r}, slope: -2.0}}
  ybar1: {{preset: constant, value: {math.sqrt(2.0)!r}}}
branch: {{policy: prefer_moving}}
"""
    assert run(tmp_path, doc, "synthesize")[0] == 4
    assert capsys.readouterr().err == ("error: infeasible control time: equal branch lengths "
                                       "require both endpoint front speeds to vanish\n")


def test_synthesize_dead_end_exit_5(tmp_path):
    code, _ = run(tmp_path, BAD_TARGET, "synthesize")
    assert code == 5


def test_verify_zero_to_zero(tmp_path):
    code, out = run(tmp_path, STATIC_ZERO, "verify")
    assert code == 0
    rows = (out / "verify.csv").read_text().splitlines()
    assert rows[0] == "metric,value,tolerance,passed"
    for row in rows[1:]:
        assert float(row.split(",")[1]) <= 1e-10


def test_verify_expansion(tmp_path):
    code, out = run(tmp_path, EXPANSION, "verify")
    assert code == 0
    front_row = (out / "verify.csv").read_text().splitlines()[1]
    assert float(front_row.split(",")[1]) <= 1e-2


def test_verify_corrupted_replay_exits_1(tmp_path):
    code, out = run(tmp_path, EXPANSION, "verify")
    assert code == 0
    control = (out / "control.csv").read_text().splitlines()
    header, rows = control[0], control[1:]
    corrupted = [header]
    for row in rows:  # scale the steering; u(0) = 0 stays compatible
        t, u, up = row.split(",")
        corrupted.append(f"{t},{1.25 * float(u)},{1.25 * float(up)}")
    bad = tmp_path / "bad_control.csv"
    bad.write_text("\n".join(corrupted) + "\n")
    cfg = tmp_path / "scenario.yaml"
    code = main([
        "verify", "--config", str(cfg), "--out", str(tmp_path / "out2"),
        "--control-csv", str(bad),
    ])
    assert code == 1
    rows = (tmp_path / "out2" / "verify.csv").read_text().splitlines()
    assert any("false" in r for r in rows[1:])


def test_byte_identical_outputs(tmp_path):
    code1, out1 = run(tmp_path, CONSTANT_SPEED, "simulate")
    sub = tmp_path / "second"
    sub.mkdir()
    code2, out2 = run(sub, CONSTANT_SPEED, "simulate")
    assert code1 == code2 == 0
    for name in ("front.csv", "trace.csv", "control.csv", "state_at_T.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_h_override(tmp_path):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(STATIC_ZERO)
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--h", "0.01"])
    assert code == 0
    front = read_csv(out / "front.csv")
    assert front["t"].size == 301


@pytest.mark.parametrize("h", ["0", "-1", "nan", "inf"])
def test_h_override_must_be_positive_and_finite(tmp_path, capsys, h):
    # a bad --h is a configuration problem, like a bad solver.h
    code, out = run(tmp_path, STATIC_ZERO, "simulate", "--h", h)
    assert code == 2
    assert "'--h'" in capsys.readouterr().err
    assert not (out / "front.csv").exists()


def test_step_above_a_tenth_of_ell0(tmp_path):
    # The step needs no bound relative to ell0.
    doc = (STATIC_ZERO.replace("ell0: 1.0", "ell0: 0.05").replace("h: 1.0e-3", "h: 0.01")
           .replace("u: {preset: constant, value: 0.0}",
                    "u: {preset: sine, amplitude: 0.5, omega: 2.0, phase: 0.0}"))
    code, out = run(tmp_path, doc, "simulate")
    assert code == 0
    for name in ("front.csv", "trace.csv", "control.csv", "state_at_T.csv"):
        assert all(np.all(np.isfinite(col)) for col in read_csv(out / name).values())


def test_verify_replay_of_own_control_is_identical(tmp_path):
    # Replaying the control that verify synthesized goes through the same
    # metric, so verify.csv comes out byte for byte the same.
    code, out = run(tmp_path, EXPANSION, "verify")
    assert code == 0
    replay = tmp_path / "replay"
    code = main([
        "verify", "--config", str(tmp_path / "scenario.yaml"), "--out", str(replay),
        "--control-csv", str(out / "control.csv"),
    ])
    assert code == 0
    assert (replay / "verify.csv").read_bytes() == (out / "verify.csv").read_bytes()


@pytest.mark.parametrize("spec, values, slopes", [
    ("preset: constant, value: -0.3",
     lambda xs: np.full(xs.size, -0.3), lambda xs: np.zeros(xs.size)),
    ("preset: linear, intercept: 0.7, slope: -1.3",
     lambda xs: 0.7 + -1.3 * xs, lambda xs: np.full(xs.size, -1.3)),
    ("preset: sine, amplitude: 0.3, omega: 2.1, phase: 0.4",
     lambda xs: 0.3 * np.sin(2.1 * xs + 0.4), lambda xs: 0.3 * 2.1 * np.cos(2.1 * xs + 0.4)),
    ("preset: sine, amplitude: 0.3, omega: 2.1",  # the phase defaults to 0
     lambda xs: 0.3 * np.sin(2.1 * xs + 0.0), lambda xs: 0.3 * 2.1 * np.cos(2.1 * xs + 0.0)),
])
@pytest.mark.parametrize("resolution", [None, 37])
def test_presets_sample_their_values_and_exact_slopes_bit_for_bit(spec, values, slopes,
                                                                  resolution):
    if resolution is not None:
        spec += f", resolution: {resolution}"
    cfg = parse_config(STATIC_ZERO.replace("u: {preset: constant, value: 0.0}", f"u: {{{spec}}}"))
    fn, fn_prime = config.build_function(cfg.control["u"], 0.3, 2.9)
    xs = np.linspace(0.3, 2.9, (resolution or 512) + 1)
    for got, want in ((fn.xs, xs), (fn.vs, values(xs)), (fn_prime.xs, xs),
                      (fn_prime.vs, slopes(xs))):
        assert got.tobytes() == want.tobytes()


def test_unknown_preset_lists_the_presets():
    with pytest.raises(config.ConfigError) as err:
        parse_config(STATIC_ZERO.replace("u: {preset: constant", "u: {preset: cubic"))
    assert str(err.value) == ("config field 'control.u.preset': unknown preset 'cubic'; "
                              "use one of ('constant', 'linear', 'sine')")


def test_removed_speed_clamp_key_is_ignored(tmp_path):
    doc = STATIC_ZERO.replace("scheme: heun}", "scheme: heun, speed_clamp_eps: 1.0e-6}")
    assert parse_config(doc).solver == parse_config(STATIC_ZERO).solver
    code, _ = run(tmp_path, doc, "simulate")
    assert code == 0


def test_removed_toughness_bounds_are_ignored(tmp_path):
    doc = STATIC_ZERO.replace("value: 1.0}", "value: 1.0, c1: 2.0, c2: 0.5}", 1)
    assert doc != STATIC_ZERO
    assert parse_config(doc).toughness == parse_config(STATIC_ZERO).toughness
    code, _ = run(tmp_path, doc, "simulate")
    assert code == 0


def test_zero_verify_tolerance_is_valid():
    doc = STATIC_ZERO + "verify: {tol_front: 0.0, tol_displacement: 0, tol_velocity: 0.0}\n"
    assert parse_config(doc).verify_tolerances() == (0.0, 0.0, 0.0)


def _fuzz_scenario(rng):
    """A small valid scenario: random data, toughness and sine control with u(0) = 0."""
    zero = {"preset": "constant", "value": 0.0, "resolution": 4}
    return {
        "T": float(rng.uniform(1.0, 2.5)),
        "solver": {"h": 0.02, "scheme": str(rng.choice(["euler", "heun"]))},
        "toughness": {"preset": "constant", "value": float(rng.uniform(0.3, 2.0))},
        "initial": {
            "ell0": float(rng.uniform(0.3, 1.0)),
            "regularity": "C01",
            "y0": dict(zero),
            "y1": {"preset": "linear", "intercept": float(rng.uniform(-1.0, 1.0)),
                   "slope": 0.0, "resolution": 4},
        },
        "control": {"u": {"preset": "sine", "amplitude": float(rng.uniform(-1.0, 1.0)),
                          "omega": float(rng.uniform(0.5, 4.0)),
                          "phase": float(rng.choice([0.0, np.pi])), "resolution": 64}},
        "target": {"ellbar0": 1.5, "regularity": "C01", "ybar0": dict(zero), "ybar1": dict(zero)},
        "branch": {"policy": "prefer_static"},
        "verify": {"tol_front": 0.01},
        "output": {"state_points": 8},
    }


# (field, the field named when a value <= 0 is rejected or None when any sign
# is valid, required).  A non-positive toughness is reported for the whole
# toughness function, which may also be a table or a preset.
_FUZZ_FIELDS = [
    ("T", "T", True),
    ("solver", None, False),
    ("solver.h", "solver.h", False),
    ("solver.scheme", None, False),
    ("toughness", None, True),
    ("toughness.value", "toughness", True),
    ("initial", None, True),
    ("initial.ell0", "initial.ell0", True),
    ("initial.y0", None, True),
    ("initial.y0.value", None, True),
    ("initial.y0.resolution", "initial.y0.resolution", False),
    ("initial.y1.intercept", None, True),
    ("control", None, True),
    ("control.u", None, True),
    ("control.u.amplitude", None, True),
    ("control.u.omega", None, True),
    ("control.u.phase", None, False),
    ("control.u.resolution", "control.u.resolution", False),
    ("target", None, False),
    ("target.ellbar0", "target.ellbar0", True),
    ("target.ybar1.value", None, True),
    ("branch.policy", None, False),
    ("verify.tol_front", None, False),
    ("verify.tol_displacement", None, False),
    ("verify.tol_velocity", None, False),
    ("output.state_points", "output.state_points", False),
]


def test_fuzz_exit_code_contract(tmp_path, capsys):
    """Each invalid field exits 2 naming it; unmutated draws exit 0 with finite CSVs."""
    rng = np.random.default_rng(2024)
    cfg = tmp_path / "scenario.yaml"
    for field, nonpositive_names, required in _FUZZ_FIELDS:
        *parents, key = field.split(".")
        mutations = [(float("nan"), field), (float("inf"), field), (-float("inf"), field),
                     (f"x{rng.integers(1000)}", field)]
        if nonpositive_names:
            mutations += [(0.0, nonpositive_names),
                          (-float(rng.uniform(0.1, 10.0)), nonpositive_names)]
        if field.startswith("verify.tol_"):  # zero is a valid tolerance, a negative is not
            mutations += [(-1.0, field), (-1e-300, field)]
        if required:
            mutations.append((None, field))
        for value, named in mutations:
            doc = _fuzz_scenario(rng)
            section = doc
            for name in parents:
                section = section[name]
            if value is None:
                del section[key]
            else:
                section[key] = value
            cfg.write_text(yaml.safe_dump(doc))
            code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "bad")])
            err = capsys.readouterr().err
            assert code == 2, (field, value, err)
            assert f"'{named}'" in err and err.count("\n") == 1, (field, value, err)
    assert not (tmp_path / "bad").exists()
    for draw in range(6):
        out = tmp_path / f"ok{draw}"
        cfg.write_text(yaml.safe_dump(_fuzz_scenario(rng)))
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("front.csv", "trace.csv", "control.csv", "state_at_T.csv"):
            assert all(np.all(np.isfinite(col)) for col in read_csv(out / name).values())


# -- failures inside the backward branch and the sampled-toughness march -------------

DEAD_PARTWAY = """\
T: 4.0
solver: {h: 1.0e-3, scheme: heun}
toughness: {preset: linear, intercept: 1.0, slope: 0.1}
target:
  ellbar0: 1.0
  regularity: C01
  ybar0: {preset: constant, value: 0.0}
  ybar1: {preset: linear, intercept: 2.0, slope: -1.0}
branch: {policy: prefer_moving}
"""

C1_JUMP_AT_T = """\
T: 4.0
solver: {h: 1.0e-3, scheme: heun}
toughness: {preset: constant, value: 1.0}
target:
  ellbar0: 1.0
  regularity: C1
  ybar0: {preset: linear, intercept: -0.5, slope: 0.5}
  ybar1: {preset: constant, value: 0.0}
branch: {policy: prefer_moving}
"""

PAST_KAPPA_DOMAIN = """\
T: 2.0
solver: {h: 1.0e-3, scheme: heun}
toughness: {preset: linear, intercept: 0.5, slope: 0.2, x_max: 1.5}
initial:
  ell0: 1.0
  regularity: C01
  y0: {preset: constant, value: 0.0}
  y1: {preset: constant, value: 2.0}
control:
  u: {preset: constant, value: 0.0}
"""


@pytest.mark.parametrize("doc, command, code, message", [
    # w = 2 - x is admissible at T; w^2 exceeds 2 kappa(L) halfway down the branch
    (DEAD_PARTWAY, "final-branch", 5, "no admissible branch: size constraint violated: "
     "|ybar1 + ybar0'|^2 = 2.1889 exceeds 2 kappa = 2.18612"),
    (C1_JUMP_AT_T, "final-branch", 5, "no admissible branch: policy prefer_moving demands "
     "a speed jump at t = T away from a coincidence point (terminal speed 0, moving root "
     "0.777778)"),
    # the front leaves ell0 = 1 at speed 0.6 and kappa's samples on [0, 1.5] soon after
    (PAST_KAPPA_DOMAIN, "simulate", 3, "evaluation at 1.5001094960718018 outside domain "
     "[0, 1.5]"),
    # verify leaves out max(4h, 1e-3 hi) at each end of [0, hi]: at h = 0.5 all of [0, 2]
    (EXPANSION.replace("h: 1.0e-3", "h: 0.5"), "verify", 3, "step h = 0.5 too coarse to "
     "verify: a margin of 2 at each end leaves no velocity check point in [0, 2]"),
])
def test_solver_failures_keep_their_exit_code_and_message(tmp_path, capsys, doc, command,
                                                          code, message):
    assert run(tmp_path, doc, command)[0] == code
    assert capsys.readouterr().err == f"error: {message}\n"


# -- scenario loaders -----------------------------------------------------------------

_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


@pytest.mark.skipif(len(_LOADERS) < 2, reason="PyYAML is built without libyaml")
@pytest.mark.parametrize("doc", [STATIC_ZERO, CONSTANT_SPEED, EXPANSION, BAD_TARGET,
                                 DEAD_PARTWAY, C1_JUMP_AT_T, PAST_KAPPA_DOMAIN],
                         ids=["static-zero", "constant-speed", "expansion", "bad-target",
                              "dead-partway", "c1-jump-at-t", "past-kappa-domain"])
def test_libyaml_and_python_loaders_give_equal_configs(monkeypatch, doc):
    configs = []
    for loader in _LOADERS:
        monkeypatch.setattr(config, "_SafeLoader", loader)
        configs.append(parse_config(doc))
    assert configs[0] == configs[1]


@pytest.mark.parametrize("loader", _LOADERS)
def test_invalid_yaml_exits_2_naming_document(tmp_path, capsys, monkeypatch, loader):
    monkeypatch.setattr(config, "_SafeLoader", loader)
    code, out = run(tmp_path, STATIC_ZERO.replace("T: 3.0", "T: [3.0"), "simulate")
    assert code == 2
    assert "'(document)': not valid YAML" in capsys.readouterr().err
    assert not out.exists()


def test_output_directory_serves_when_out_is_absent(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.yaml").write_text(STATIC_ZERO + "output: {directory: results}\n")
    assert main(["simulate", "--config", "scenario.yaml"]) == 0
    assert (tmp_path / "results" / "front.csv").is_file() and not (tmp_path / "out").exists()


def test_verify_replay_of_a_control_starting_after_zero_exits_3_naming_it(tmp_path, capsys):
    late = tmp_path / "late.csv"
    late.write_text("t,u,uprime\n0.5,0,0\n6,0,0\n")
    assert run(tmp_path, EXPANSION, "verify", "--control-csv", str(late))[0] == 3
    assert capsys.readouterr().err == "error: control defined from 0.5 but the solve starts at 0\n"


# -- verify --control-csv on files it cannot read ------------------------------------

@pytest.mark.parametrize("text", [
    "",                                        # empty file
    "t,u,du\n0,0,0\n6,0,0\n",                  # wrong header
    "t,u,uprime\n0,0,0\n6,0\n",                # short row
    "t,u,uprime\n0,0,0\n6,zero,0\n",           # non-numeric cell
    "t,u,uprime\n0,0,0\n3,nan,0\n6,0,0\n",     # NaN cell
    "t,u,uprime\n",                            # header only
    "t,u,uprime\n0,0,0\n3,0,0\n3,0,0\n6,0,0\n",  # t does not increase
    "t,u,uprime\n0,0\n6,0\n",                  # two cells in every row
], ids=["empty", "header", "short-row", "non-numeric", "nan", "header-only", "t-repeats",
        "two-columns"])
def test_verify_control_csv_unreadable_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "control.csv"
    bad.write_text(text)
    code, out = run(tmp_path, EXPANSION, "verify", "--control-csv", str(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field '--control-csv': cannot read ")
    assert err.count("\n") == 1
    assert not (out / "verify.csv").exists()


def test_verify_control_csv_missing_file_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, EXPANSION, "verify", "--control-csv", str(tmp_path / "none.csv"))
    assert code == 2
    assert "'--control-csv': cannot read " in capsys.readouterr().err


@pytest.mark.parametrize("text, reason", [
    ("t,u,uprime\n0,0,0\n6,0\n", "line 3: 2 cells, expected 3"),
    ("t,u,uprime\n0,0,0\n\n6,zero,0\n", "line 4: could not convert string to float: 'zero'"),
], ids=["short-third-line", "non-numeric-after-blank"])
def test_verify_control_csv_errors_name_the_file_line(tmp_path, capsys, text, reason):
    # Lines are counted in the file, the header being line 1.
    bad = tmp_path / "control.csv"
    bad.write_text(text)
    code, _ = run(tmp_path, EXPANSION, "verify", "--control-csv", str(bad))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: config field '--control-csv': cannot read {bad}: {reason}\n")


# -- one parser for every call of main ------------------------------------------------

def test_main_calls_share_no_state(tmp_path, monkeypatch):
    # The parser is built once per process: no option of one call reaches the next.
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(EXPANSION)
    seen = []

    def record(cfg, args):
        seen.append((args.command, args.out, args.h, args.policy,
                     getattr(args, "control_csv", None), cfg.solver["h"], cfg.branch["policy"]))
        return 0

    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, record)
    calls = [
        ["verify", "--h", "0.01", "--policy", "prefer_moving", "--control-csv", "c.csv",
         "--out", "o"],
        ["final-branch"],
        ["simulate", "--h", "0.002"],
        ["verify"],
    ]
    for command, *extra in calls:
        assert main([command, "--config", str(cfg), *extra]) == 0
    assert seen == [
        ("verify", "o", 0.01, "prefer_moving", "c.csv", 0.01, "prefer_moving"),
        ("final-branch", None, None, None, None, 1e-3, "prefer_static"),
        ("simulate", None, 0.002, None, None, 0.002, "prefer_static"),
        ("verify", None, None, None, None, 1e-3, "prefer_static"),
    ]
    assert cli._parser() is cli._parser()


def test_importing_the_cli_leaves_argparse_unimported():
    code = "import sys, debond.cli; print('argparse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout == "False\n", out.stderr


def test_importing_the_cli_builds_no_csv_table():
    code = "import debond.cli as cli; print(cli._csv_tables.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout == "0\n", out.stderr


# -- the CSV formatter: every cell is exactly what "%.17g" prints ---------------------

def _assert_csv_matches_percent_g(tmp_path, block):
    block = np.asarray(block, dtype=float)
    header = [f"c{k}" for k in range(block.shape[1])]
    path = tmp_path / "cells.csv"
    cli._write_csv(path, header, list(block.T))
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    expected = ",".join(header) + "\n" + "".join([row % tuple(r) for r in block.tolist()])
    assert path.read_bytes() == expected.encode("ascii")


def test_csv_cells_match_percent_g_on_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, 40000, dtype=np.uint64)
    subnormal = bits[:4000] & np.uint64(0x800FFFFFFFFFFFFF)
    special = [np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
               1e-300, -1e300]
    cells = np.concatenate([bits.view(float), subnormal.view(float), special])
    _assert_csv_matches_percent_g(tmp_path, cells.reshape(-1, 4))


def test_csv_cells_match_percent_g_at_powers_of_ten_and_edges(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-8, 18)])
    neighbours = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
    edges = [0.0, -0.0, 2.0**-25, 1e-6, 1e16, 123456789012345.625, 2.0**-17, 1.5e-5, 2e-6]
    rng = np.random.default_rng(7)
    small = rng.uniform(1e-6, 1e-4, 2000)  # decimal exponent -6 or -5: "e-06", "e-05"
    cells = np.concatenate([neighbours, edges, small])
    _assert_csv_matches_percent_g(tmp_path, np.concatenate([cells, -cells])[:, None])


def test_csv_cells_match_percent_g_on_ties_and_short_decimals(tmp_path):
    rng = np.random.default_rng(11)
    # m 2^-k with m odd and m 5^k of 18 digits is exactly half way between two
    # 17-digit decimals, from 1e-6 (k = 23) up to 1e15 (k = 3): half to even.
    ties = [np.ldexp((rng.integers(-(-10**17 // 5**k), 10**18 // 5**k, 500) | 1).astype(float), -k)
            for k in range(3, 24)]
    dyadic = np.ldexp(rng.integers(1, 2**53, 20000).astype(float), rng.integers(-70, 10, 20000))
    decimal = rng.integers(-10**6, 10**6, 20000) / rng.choice([1, 4, 10, 1000, 8192], 20000)
    magnitudes = rng.normal(size=20000) * 10.0 ** rng.uniform(-8, 18, 20000)
    cells = np.concatenate(ties + [dyadic, decimal, magnitudes])
    _assert_csv_matches_percent_g(tmp_path, cells.reshape(-1, 4))


@pytest.mark.parametrize("cols", [1, 4])
@pytest.mark.parametrize("rows", [cli._CSV_CHUNK - 1, cli._CSV_CHUNK, cli._CSV_CHUNK + 1])
def test_csv_chunk_boundaries(tmp_path, rows, cols):
    rng = np.random.default_rng(rows * cols)
    block = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-9, 18, (rows, cols))
    block[::7] = 0.0
    _assert_csv_matches_percent_g(tmp_path, block)


@pytest.mark.parametrize("rows", [cli._CSV_CHUNK - 1, cli._CSV_CHUNK + 1])
def test_csv_single_column_of_fallback_cells(tmp_path, rows):
    # Every cell takes the "%.17g" fallback and every cell ends a row.
    cells = [np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072009e-308, 9.9e-7, 1e16, -1e300]
    _assert_csv_matches_percent_g(tmp_path, np.resize(cells, (rows, 1)))


# -- whole output directories: every CSV cell re-read and re-printed -----------------

_ZERO = "{preset: constant, value: 0.0}"
_KAPPA = [[8.0 * i / 64, 1.0 + 0.1 * math.sin(1.3 * 8.0 * i / 64 + 0.4)] for i in range(65)]
SAMPLED_C1 = f"""\
T: 6.0
solver: {{h: 1.0e-3, scheme: heun}}
toughness: {{samples: {_KAPPA}, x_max: 8.0}}
initial: {{ell0: 1.0, regularity: C1, y0: {_ZERO}, y1: {_ZERO}}}
control:
  u: {{preset: sine, amplitude: 0.3, omega: 1.5, resolution: 3000}}
target:
  ellbar0: 2.0
  regularity: C1
  ybar0: {{preset: sine, amplitude: 0.25, omega: {math.pi / 2.0!r}, resolution: 1600}}
  ybar1: {_ZERO}
"""
EXPANSION_SINE = EXPANSION + """\
control:
  u: {preset: sine, amplitude: 0.5, omega: 2.0, resolution: 6000}
"""

CSV_HEADERS = {
    "front.csv": "t,ell,ellprime",
    "trace.csv": "s,f,fprime",
    "control.csv": "t,u,uprime",
    "state_at_T.csv": "x,y,dty,dxy",
    "branch.csv": "t,scriptL,scriptLprime",
    "verify.csv": "metric,value,tolerance,passed",
}


@pytest.mark.parametrize("doc", [EXPANSION_SINE, SAMPLED_C1], ids=["expansion", "sampled-c1"])
def test_cli_csv_cells_reread_as_percent_g(tmp_path, doc):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(doc)
    written = set()
    for command in ("simulate", "synthesize", "verify"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        for path in sorted(out.glob("*.csv")):
            written.add(path.name)
            text = path.read_text(encoding="ascii")
            assert text.endswith("\n"), path
            header, *lines = text[:-1].split("\n")
            assert header == CSV_HEADERS[path.name], path
            assert lines, path
            for line in lines:
                cells = line.split(",")
                numeric = cells[1:3] if path.name == "verify.csv" else cells
                expected = ",".join("%.17g" % float(c) for c in numeric)
                if path.name == "verify.csv":
                    expected = ",".join([cells[0], expected, cells[3]])
                assert line == expected, (path, line)
    assert written == set(CSV_HEADERS)


# -- control.csv: a one-grid control is written from its samples --------------------

def _union_control_csv(path, control):
    grid = union(control.u.xs, control.uprime.xs)
    cli._write_csv(path, ["t", "u", "uprime"], [grid, control.u(grid), control.uprime(grid)])


def _synthesized_control():
    return cli._synthesize(parse_config(EXPANSION))[0].control


def _one_grid_control():
    # -0.0 in t, in u inside and at the last node, in u' across a jump pair 1e-9 apart
    t = np.array([-0.0, 0.5, 0.5 + 1e-9, 1.0, 2.0])
    u = SampledFunction(t, np.array([0.25, -0.0, 0.5, 1.0, -0.0]))
    uprime = SampledFunction(t, np.array([-0.5, 1.0, -0.0, -0.0, -1.0]))
    return ControlSignal(u, uprime)


@pytest.mark.parametrize("make, one_grid", [
    (_synthesized_control, True),
    (lambda: parse_config(EXPANSION_SINE).build_control(), True),
    (_one_grid_control, True),
    # u' of a sample table lives on the segment midpoints: the grids differ
    (lambda: parse_config(EXPANSION + "control:\n  u: {samples: [[0.0, 0.0], [1.5, 0.25], "
                          "[4.0, -0.5], [6.0, 1.0]]}\n").build_control(), False),
], ids=["synthesized", "sine-preset", "signed-zeros-and-jump", "samples"])
def test_control_csv_bytes_equal_the_union_and_interp_path(tmp_path, monkeypatch, make,
                                                           one_grid):
    signal = make()
    assert np.array_equal(signal.u.xs, signal.uprime.xs) == one_grid
    _union_control_csv(tmp_path / "union.csv", signal)
    unions = []
    monkeypatch.setattr(cli, "union", lambda *grids: unions.append(grids) or union(*grids))
    cli._control_csv(tmp_path / "control.csv", signal)
    assert len(unions) == (0 if one_grid else 1)
    assert (tmp_path / "control.csv").read_bytes() == (tmp_path / "union.csv").read_bytes()


# -- a sampled toughness must reach the target front ---------------------------------

SHORT_KAPPA = EXPANSION.replace("toughness: {preset: constant, value: 1.0}",
                                "toughness: {samples: [[0.0, 1.0], [1.5, 1.2]], x_max: 1.5}")


@pytest.mark.parametrize("command", ["check-admissible", "final-branch", "synthesize", "verify"])
def test_toughness_ending_before_the_target_front_exits_2(tmp_path, capsys, command):
    code, out = run(tmp_path, SHORT_KAPPA, command)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: config field 'toughness.x_max': the toughness is sampled on [0, 1.5], "
        "which ends before target.ellbar0 = 2\n")


@pytest.mark.parametrize("toughness, code", [
    ("{samples: [[0.0, 1.0], [2.0, 1.2]], x_max: 2.0}", 0),  # reaches ellbar0 exactly
    ("{samples: [[0.0, 1.0], [1.9999999999, 1.2]], x_max: 1.9999999999}", 0),  # in the slack
    ("{preset: linear, intercept: 1.0, slope: 0.1, x_max: 1.99}", 2),  # a preset is sampled too
    ("{preset: constant, value: 1.0, x_max: 1.0}", 0),  # a constant has no domain
])
def test_toughness_reach_of_the_target_front(tmp_path, toughness, code):
    doc = EXPANSION.replace("{preset: constant, value: 1.0}", toughness)
    assert run(tmp_path, doc, "final-branch")[0] == code
