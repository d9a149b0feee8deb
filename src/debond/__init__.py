"""Simulation and exact boundary-control synthesis for a 1D dynamic debonding model."""

from .errors import (
    AmbiguityNote,
    C1SwitchViolation,
    ConstraintViolated,
    DeadEnd,
    DebondError,
    DomainError,
    ContinuityFailure,
    HorizonExceeded,
    IncompatibleData,
    IncompatibleTarget,
    InfeasibleTime,
    InvalidToughness,
    NoTermination,
    RangeError,
    SpeedOutOfRange,
)
from .func1d import (
    MonotoneMap,
    SampledFunction,
    constant,
    definite_integral,
    derivative,
    from_callable,
)
from .model import (
    BranchResult,
    ControlSignal,
    FrontCurve,
    InitialBranchResult,
    InitialState,
    TargetState,
    Toughness,
    check_damping_bound,
    check_initial_compatibility,
    classify_final_state,
    energy_release_rate,
    griffith_speed,
    speed_to_fprime_magnitude,
)
from .forward import (
    SolutionRecord,
    SolverConfig,
    solve_front,
    solve_initial_branch,
)
from .branch import (
    BranchPolicy,
    branch_speed_options,
    solve_final_branch,
    static_branch,
)
from .control import (
    InflationPlan,
    SynthesisReport,
    VerificationResult,
    fprime_for_prescribed_front,
    synthesize_c01,
    synthesize_c1,
    synthesize_static_c01,
    synthesize_static_c1,
    uprime_from_fprime,
    verify_control,
    verify_synthesis,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
