"""Scenario configuration: a YAML document with named sections.

Functions are declared either as inline sample tables or as named presets
(constant, linear, sine) sampled at a declared resolution.  All numbers are
decimal.  ``emit_config(parse_config(text))`` reproduces the scenario exactly
(same sampled functions), which the CLI round-trip test relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import InvalidToughness
from .func1d import SampledFunction, derivative
from .model import ControlSignal, InitialState, TargetState, Toughness

_PRESETS = ("constant", "linear", "sine")
_DEFAULT_RESOLUTION = 512


class ConfigError(ValueError):
    """Configuration problem; carries the offending field path."""

    def __init__(self, fieldpath, message):
        super().__init__(f"config field '{fieldpath}': {message}")
        self.field = fieldpath


def _require(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"{path}{key}", "missing required field")
    return mapping[key]


def _number(mapping, key, path, default=None, positive=False):
    if key not in mapping:
        if default is not None:
            return default
        raise ConfigError(f"{path}{key}", "missing required field")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}{key}", "expected a decimal number")
    if not math.isfinite(value):
        raise ConfigError(f"{path}{key}", f"expected a finite number, got {value}")
    if positive and value <= 0:
        raise ConfigError(f"{path}{key}", f"expected a positive number, got {value}")
    return float(value)


def _normalize_function(spec, path):
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected a mapping with 'preset' or 'samples'")
    if "samples" in spec:
        rows = spec["samples"]
        if not isinstance(rows, list) or len(rows) < 2:
            raise ConfigError(f"{path}.samples", "need at least two [x, value] rows")
        table = []
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)) or len(row) != 2:
                raise ConfigError(f"{path}.samples[{i}]", "expected [x, value]")
            try:
                x, v = float(row[0]), float(row[1])
            except (TypeError, ValueError):
                raise ConfigError(f"{path}.samples[{i}]", "expected two numbers") from None
            if not (math.isfinite(x) and math.isfinite(v)):
                raise ConfigError(f"{path}.samples[{i}]", f"expected finite numbers, got {row}")
            table.append([x, v])
        return {"samples": table}
    preset = _require(spec, "preset", f"{path}.")
    if preset not in _PRESETS:
        raise ConfigError(f"{path}.preset", f"unknown preset {preset!r}; use one of {_PRESETS}")
    resolution = _number(spec, "resolution", f"{path}.", default=_DEFAULT_RESOLUTION)
    out = {"preset": preset, "resolution": int(resolution)}
    if out["resolution"] < 1:
        raise ConfigError(f"{path}.resolution", "resolution must be at least 1")
    if preset == "constant":
        out["value"] = _number(spec, "value", f"{path}.")
    elif preset == "linear":
        out["intercept"] = _number(spec, "intercept", f"{path}.")
        out["slope"] = _number(spec, "slope", f"{path}.")
    else:
        out["amplitude"] = _number(spec, "amplitude", f"{path}.")
        out["omega"] = _number(spec, "omega", f"{path}.")
        out["phase"] = _number(spec, "phase", f"{path}.", default=0.0)
    return out


def build_function(spec, lo, hi, path="function"):
    """Materialize (fn, fn_prime) from a normalized function spec on [lo, hi]."""
    if "samples" in spec:
        table = np.asarray(spec["samples"], dtype=float)
        xs, vs = table[:, 0], table[:, 1]
        tol = 1e-9 * max(hi - lo, 1.0)
        if abs(xs[0] - lo) > tol or abs(xs[-1] - hi) > tol:
            raise ConfigError(
                f"{path}.samples", f"table must span [{lo:g}, {hi:g}], got [{xs[0]:g}, {xs[-1]:g}]"
            )
        fn = SampledFunction(xs, vs)
        return fn, derivative(fn)
    n = spec["resolution"]
    xs = np.linspace(lo, hi, n + 1)
    preset = spec["preset"]
    if preset == "constant":
        c = spec["value"]
        fn = SampledFunction(xs, np.full(n + 1, c))
        fnp = SampledFunction(xs, np.zeros(n + 1))
    elif preset == "linear":
        a, b = spec["intercept"], spec["slope"]
        fn = SampledFunction(xs, a + b * xs)
        fnp = SampledFunction(xs, np.full(n + 1, b))
    else:
        A, om, ph = spec["amplitude"], spec["omega"], spec["phase"]
        fn = SampledFunction(xs, A * np.sin(om * xs + ph))
        fnp = SampledFunction(xs, A * om * np.cos(om * xs + ph))
    return fn, fnp


@dataclass
class ScenarioConfig:
    """Normalized scenario: plain nested data, plus builders for model objects."""

    T: float
    solver: dict
    toughness: dict
    initial: dict = None
    target: dict = None
    control: dict = None
    branch: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    # -- builders ----------------------------------------------------------

    def build_initial(self) -> InitialState:
        if self.initial is None:
            raise ConfigError("initial", "section required for this command")
        ell0 = self.initial["ell0"]
        y0, _ = build_function(self.initial["y0"], 0.0, ell0, "initial.y0")
        y1, _ = build_function(self.initial["y1"], 0.0, ell0, "initial.y1")
        try:
            return InitialState(ell0, y0, y1, self.initial["regularity"])
        except ValueError as err:
            raise ConfigError("initial", str(err)) from err

    def build_target(self, strict=True) -> TargetState:
        if self.target is None:
            raise ConfigError("target", "section required for this command")
        ellbar0 = self.target["ellbar0"]
        y0, _ = build_function(self.target["ybar0"], 0.0, ellbar0, "target.ybar0")
        y1, _ = build_function(self.target["ybar1"], 0.0, ellbar0, "target.ybar1")
        tol = 1e-8 if strict else math.inf
        try:
            return TargetState(ellbar0, y0, y1, self.target["regularity"], tol=tol)
        except ValueError as err:
            raise ConfigError("target", str(err)) from err

    def build_toughness(self) -> Toughness:
        spec = dict(self.toughness)
        x_max = spec.pop("x_max", None)
        if spec.get("preset") == "constant":
            kappa = spec["value"]
        else:
            hi = x_max if x_max is not None else self._default_x_max()
            kappa, _ = build_function(spec, 0.0, hi, "toughness")
        try:
            return Toughness(kappa)
        except InvalidToughness as err:
            raise ConfigError("toughness", str(err)) from err

    def _default_x_max(self):
        hi = self.T
        if self.initial is not None:
            hi += self.initial["ell0"]
        if self.target is not None:
            hi = max(hi, 2.0 * self.target["ellbar0"])
        return hi

    def build_control(self) -> ControlSignal:
        if self.control is None:
            raise ConfigError("control", "section required for this command")
        u, up = build_function(self.control["u"], 0.0, self.T, "control.u")
        reg = self.initial["regularity"] if self.initial else "C01"
        return ControlSignal(u, up, reg)

    def solver_config(self):
        from .forward import SolverConfig

        return SolverConfig(
            h=self.solver["h"],
            T=self.T,
            scheme=self.solver["scheme"],
        )

    def branch_policy(self):
        from .branch import BranchPolicy

        return BranchPolicy(
            mode=self.branch.get("policy", "prefer_static"),
            h=self.branch.get("h", self.solver["h"]),
        )

    def verify_tolerances(self):
        return (
            self.verify.get("tol_front", 1e-2),
            self.verify.get("tol_displacement", 1e-2),
            self.verify.get("tol_velocity", 0.1),
        )


def _normalize_state(section, name, length_key):
    ell = _number(section, length_key, f"{name}.", positive=True)
    reg = section.get("regularity", "C01")
    if reg not in ("C01", "C1"):
        raise ConfigError(f"{name}.regularity", "must be 'C01' or 'C1'")
    keys = ("y0", "y1") if name == "initial" else ("ybar0", "ybar1")
    out = {length_key: ell, "regularity": reg}
    for key in keys:
        out[key] = _normalize_function(_require(section, key, f"{name}."), f"{name}.{key}")
    return out


# libyaml's safe loader where PyYAML was built with it: the same documents,
# several times faster than the pure-Python one.
_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_config(text: str) -> ScenarioConfig:
    try:
        doc = yaml.load(text, Loader=_SafeLoader)
    except yaml.YAMLError as err:
        raise ConfigError("(document)", f"not valid YAML: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("(document)", "top level must be a mapping")

    for name in ("solver", "initial", "target", "control", "branch", "verify", "output"):
        if not isinstance(doc.get(name, {}), dict):
            raise ConfigError(name, "expected a mapping")
    T = _number(doc, "T", "", positive=True)
    solver_in = doc.get("solver", {})
    solver = {
        "h": _number(solver_in, "h", "solver.", default=1e-3, positive=True),
        "scheme": solver_in.get("scheme", "heun"),
    }
    if solver["scheme"] not in ("euler", "heun"):
        raise ConfigError("solver.scheme", "must be 'euler' or 'heun'")

    toughness = _normalize_function(_require(doc, "toughness", ""), "toughness")
    if "x_max" in doc["toughness"]:
        toughness["x_max"] = _number(doc["toughness"], "x_max", "toughness.", positive=True)

    cfg = ScenarioConfig(T=T, solver=solver, toughness=toughness)

    if "initial" in doc:
        cfg.initial = _normalize_state(doc["initial"], "initial", "ell0")
    if "target" in doc:
        cfg.target = _normalize_state(doc["target"], "target", "ellbar0")
    if "control" in doc:
        cfg.control = {"u": _normalize_function(_require(doc["control"], "u", "control."), "control.u")}
    if "branch" in doc:
        section = doc["branch"]
        cfg.branch = {}
        if "policy" in section:
            if section["policy"] not in ("prefer_static", "prefer_moving"):
                raise ConfigError("branch.policy", "must be 'prefer_static' or 'prefer_moving'")
            cfg.branch["policy"] = section["policy"]
        if "h" in section:
            cfg.branch["h"] = _number(section, "h", "branch.", positive=True)
    if "verify" in doc:
        section = doc["verify"]
        cfg.verify = {
            key: _number(section, key, "verify.")
            for key in ("tol_front", "tol_displacement", "tol_velocity")
            if key in section
        }
        for key, value in cfg.verify.items():
            if value < 0.0:
                raise ConfigError(f"verify.{key}", f"expected a non-negative number, got {value}")
    if "output" in doc:
        section = doc["output"]
        cfg.output = {}
        if "directory" in section:
            cfg.output["directory"] = str(section["directory"])
        if "state_points" in section:
            points = int(_number(section, "state_points", "output.", positive=True))
            if points < 1:
                raise ConfigError("output.state_points", "state_points must be at least 1")
            cfg.output["state_points"] = points
    return cfg


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def emit_config(cfg: ScenarioConfig) -> str:
    doc = {"T": cfg.T, "solver": cfg.solver, "toughness": cfg.toughness}
    for name in ("initial", "target", "control", "branch", "verify", "output"):
        value = getattr(cfg, name)
        if value:
            doc[name] = value
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)
