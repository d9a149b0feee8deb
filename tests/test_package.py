"""The package namespace and the import graph: which modules each entry point loads."""

import ast
import os
import pathlib
import subprocess
import sys
import types

import pytest

import debond

# The public names of the package, submodules included.
PUBLIC = [
    "AmbiguityNote", "BranchPolicy", "BranchResult", "C1SwitchViolation", "ConstraintViolated",
    "ContinuityFailure", "ControlSignal", "DeadEnd", "DebondError", "DomainError", "FrontCurve",
    "HorizonExceeded", "IncompatibleData", "IncompatibleTarget", "InfeasibleTime",
    "InflationPlan", "InitialBranchResult", "InitialState", "InvalidToughness", "MonotoneMap",
    "NoTermination", "RangeError", "SampledFunction", "SolutionRecord", "SolverConfig",
    "SpeedOutOfRange", "SynthesisReport", "TargetState", "Toughness", "VerificationResult",
    "branch", "branch_speed_options", "check_damping_bound", "check_initial_compatibility",
    "classify_final_state", "constant", "control", "definite_integral", "derivative",
    "errors", "forward", "fprime_for_prescribed_front", "func1d", "griffith_speed", "model",
    "solve_final_branch", "solve_front", "solve_initial_branch", "speed_to_fprime_magnitude",
    "static_branch", "synthesize_c01", "synthesize_c1", "synthesize_static_c01",
    "synthesize_static_c1", "uprime_from_fprime", "verify_control", "verify_synthesis",
]
SUBMODULES = {"errors", "func1d", "model", "forward", "branch", "control"}
SOLVERS = {"debond.forward", "debond.branch", "debond.control"}

SCENARIO = """\
T: 2.0
solver: {h: 1.0e-2, scheme: heun}
toughness: {preset: constant, value: 1.0}
initial:
  ell0: 1.0
  regularity: C01
  y0: {preset: constant, value: 0.0}
  y1: {preset: constant, value: 0.0}
control:
  u: {preset: constant, value: 0.0}
"""


def test_all_lists_every_public_name():
    assert sorted(debond.__all__) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves_to_its_defining_module(name):
    namespace = {}
    exec(f"from debond import {name}", namespace)
    obj = namespace[name]
    if name in SUBMODULES:
        assert isinstance(obj, types.ModuleType) and obj is sys.modules[f"debond.{name}"]
    else:
        assert obj.__module__ in {f"debond.{m}" for m in SUBMODULES}
        assert obj is getattr(sys.modules[obj.__module__], name)
        assert getattr(debond, name) is obj


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        debond.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from debond import no_such_name", {})


def _debond_modules_after(code):
    """The ``debond.*`` modules a fresh interpreter holds after running code."""
    script = code + "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('debond.')))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(debond.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_importing_the_package_loads_no_module():
    assert _debond_modules_after("import debond") == set()


def test_importing_the_cli_loads_no_solver():
    assert not _debond_modules_after("import debond.cli") & SOLVERS


def test_simulate_loads_forward_but_not_synthesis(tmp_path):
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(SCENARIO)
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]
    loaded = _debond_modules_after(f"import debond.cli\nassert debond.cli.main({argv!r}) == 0")
    assert loaded & SOLVERS == {"debond.forward"}


def test_no_module_reaches_numpy_private_packages():
    # numpy >= 1.24 is declared: numpy._core exists only from numpy 2, and numpy.core
    # is deprecated there.  No module imports either or reaches one as an attribute.
    def private(name):
        return any(name == p or name.startswith(p + ".") for p in ("numpy._core", "numpy.core"))

    for path in sorted(pathlib.Path(debond.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"numpy.{node.attr}"] if node.value.id in ("np", "numpy") else []
            else:
                continue
            assert not any(map(private, names)), f"{path.name}: {names}"


def test_no_module_has_an_unused_import_from_the_package():
    # A name imported from a sibling module (``from .model import x``) must be read in the
    # module that imports it: as a name, an annotation or a decorator.
    for path in sorted(pathlib.Path(debond.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.asname or alias.name for alias in node.names]
                unused = [name for name in names if name not in read]
                assert not unused, f"{path.name}:{node.lineno}: from .{node.module} {unused}"
