"""README's examples run as written: the library example, and every CLI command on its
scenario file, each writing the files the CLI table lists."""

import re
from pathlib import Path

import pytest

from debond.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang):
    (block,) = re.findall(rf"```{lang}\n(.*?)```", README, re.S)
    return block


def _writes():
    """Each command of the CLI table and the files its row lists."""
    rows = re.findall(r"^\| `([a-z-]+)` +\|(.*?)\|", README, re.M)
    return {command: re.findall(r"`([\w.]+\.(?:csv|txt))`", files) for command, files in rows}


def test_the_library_example_prints_the_errors_its_comment_gives(capsys):
    exec(_block("python"), {})
    printed = [float(x) for x in capsys.readouterr().out.split()]
    comment = [float(x) for x in _block("python").rsplit("# ", 1)[1].split()]
    # rounding-level errors: the same order of magnitude on any numpy
    assert len(printed) == len(comment) == 2
    assert all(0.1 * c <= p <= 10.0 * c for p, c in zip(printed, comment))


def test_the_cli_table_lists_every_command():
    assert list(_writes()) == ["simulate", "initial-branch", "final-branch",
                               "check-admissible", "synthesize", "verify"]


@pytest.mark.parametrize("command, files", _writes().items())
def test_each_command_runs_on_the_scenario_file(tmp_path, command, files):
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(_block("yaml"))
    out = tmp_path / "out"
    assert main([command, "--config", str(scenario), "--out", str(out)]) == 0
    assert files and sorted(p.name for p in out.iterdir()) == sorted(files)
