"""Simulation and exact boundary-control synthesis for a 1D dynamic debonding model.

Importing the package loads none of its modules.  Each public name is imported
from its defining module on first access (PEP 562), so ``from debond import X``
works as before while a CLI command loads only the solvers it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("AmbiguityNote", "C1SwitchViolation", "ConstraintViolated", "DeadEnd",
               "DebondError", "DomainError", "ContinuityFailure", "HorizonExceeded",
               "IncompatibleData", "IncompatibleTarget", "InfeasibleTime",
               "InvalidToughness", "NoTermination", "RangeError", "SpeedOutOfRange"),
    "func1d": ("MonotoneMap", "SampledFunction", "constant", "definite_integral",
               "derivative"),
    "model": ("BranchResult", "ControlSignal", "FrontCurve", "InitialBranchResult",
              "InitialState", "TargetState", "Toughness", "check_damping_bound",
              "check_initial_compatibility", "classify_final_state", "griffith_speed",
              "speed_to_fprime_magnitude"),
    "forward": ("SolutionRecord", "SolverConfig", "solve_front", "solve_initial_branch"),
    "branch": ("BranchPolicy", "branch_speed_options", "solve_final_branch", "static_branch"),
    "control": ("InflationPlan", "SynthesisReport", "VerificationResult",
                "fprime_for_prescribed_front", "synthesize_c01", "synthesize_c1",
                "synthesize_static_c01", "synthesize_static_c1", "uprime_from_fprime",
                "verify_control", "verify_synthesis"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
