"""Scenario configuration: a YAML document with named sections.

Functions are declared either as inline sample tables or as named presets
(constant, linear, sine) sampled at a declared resolution.  All numbers are
decimal.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import InvalidToughness
from .func1d import _DOMAIN_SLACK, SampledFunction, derivative
from .model import ControlSignal, InitialState, TargetState, Toughness

# Each preset: its parameters with their defaults (None where required), then its
# values and its exact slopes on a grid xs, given those parameters.
_PRESETS = {
    "constant": ({"value": None},
                 lambda xs, value: np.full(xs.size, value),
                 lambda xs, value: np.zeros(xs.size)),
    "linear": ({"intercept": None, "slope": None},
               lambda xs, intercept, slope: intercept + slope * xs,
               lambda xs, intercept, slope: np.full(xs.size, slope)),
    "sine": ({"amplitude": None, "omega": None, "phase": 0.0},
             lambda xs, amplitude, omega, phase: amplitude * np.sin(omega * xs + phase),
             lambda xs, amplitude, omega, phase: amplitude * omega * np.cos(omega * xs + phase)),
}
_DEFAULT_RESOLUTION = 512
# Decimal text that float() reads: sign, whole digits, fraction digits, exponent sign and digits.
_DECIMAL_TEXT = re.compile(r"([-+]?)(\d*)\.?(\d*)(?:[eE]([-+]?)(\d+))?")
# Each state section: its length field and its two sampled functions.
_STATES = {"initial": ("ell0", ("y0", "y1")), "target": ("ellbar0", ("ybar0", "ybar1"))}


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
        # YAML 1.1 reads a number only with a dot and, after an e, a signed exponent.
        text, hint = _DECIMAL_TEXT.fullmatch(str(value)), ""
        if text and (text[2] or text[3]):
            sign, whole, frac, esign, exp = text.groups()
            exp = f"e{esign or '+'}{exp}" if exp else ""
            hint = f"; YAML reads {value!r} as text, write {sign}{whole or 0}.{frac or 0}{exp}"
        raise ConfigError(f"{path}{key}", "expected a decimal number" + hint)
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
        raise ConfigError(f"{path}.preset",
                          f"unknown preset {preset!r}; use one of {tuple(_PRESETS)}")
    resolution = _number(spec, "resolution", f"{path}.", default=_DEFAULT_RESOLUTION)
    out = {"preset": preset, "resolution": int(resolution)}
    if out["resolution"] < 1:
        raise ConfigError(f"{path}.resolution", "resolution must be at least 1")
    for key, default in _PRESETS[preset][0].items():
        out[key] = _number(spec, key, f"{path}.", default=default)
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
        path, slopes = f"{path}.samples", None
    else:
        xs = np.linspace(lo, hi, spec["resolution"] + 1)
        params, value_fn, slope_fn = _PRESETS[spec["preset"]]
        args = {key: spec[key] for key in params}
        with np.errstate(all="ignore"):  # an overflow is a non-finite sample, refused below
            vs, slopes = value_fn(xs, **args), slope_fn(xs, **args)
    try:
        fn = SampledFunction(xs, vs)
        return fn, derivative(fn) if slopes is None else SampledFunction(xs, slopes)
    except ValueError as err:
        raise ConfigError(path, str(err)) from err


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

    def _build_state(self, name, state_type, **kwargs):
        section = getattr(self, name)
        if section is None:
            raise ConfigError(name, "section required for this command")
        length_key, keys = _STATES[name]
        ell = section[length_key]
        y0, y1 = (build_function(section[key], 0.0, ell, f"{name}.{key}")[0] for key in keys)
        try:
            return state_type(ell, y0, y1, section["regularity"], **kwargs)
        except ValueError as err:
            raise ConfigError(name, str(err)) from err

    def build_initial(self) -> InitialState:
        return self._build_state("initial", InitialState)

    def build_target(self, strict=True) -> TargetState:
        target = self._build_state("target", TargetState, tol=1e-8 if strict else math.inf)
        x_max = self.toughness.get("x_max")
        if (x_max is not None and self.toughness.get("preset") != "constant"
                and target.ellbar0 > x_max + _DOMAIN_SLACK * max(x_max, 1.0)):
            raise ConfigError("toughness.x_max", f"the toughness is sampled on [0, {x_max:.17g}], "
                              f"which ends before target.ellbar0 = {target.ellbar0:.17g}")
        return target

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
        return ControlSignal(*build_function(self.control["u"], 0.0, self.T, "control.u"))

    def solver_config(self):
        from .forward import SolverConfig

        return SolverConfig(
            h=self.solver["h"],
            T=self.T,
            scheme=self.solver["scheme"],
        )

    def branch_policy(self):
        from .branch import BranchPolicy

        return BranchPolicy(mode=self.branch.get("policy", "prefer_static"), h=self.solver["h"])

    def verify_tolerances(self):
        return (
            self.verify.get("tol_front", 1e-2),
            self.verify.get("tol_displacement", 1e-2),
            self.verify.get("tol_velocity", 0.1),
        )


def _normalize_state(section, name):
    length_key, keys = _STATES[name]
    ell = _number(section, length_key, f"{name}.", positive=True)
    reg = section.get("regularity", "C01")
    if reg not in ("C01", "C1"):
        raise ConfigError(f"{name}.regularity", "must be 'C01' or 'C1'")
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
        cfg.initial = _normalize_state(doc["initial"], "initial")
    if "target" in doc:
        cfg.target = _normalize_state(doc["target"], "target")
    if "control" in doc:
        cfg.control = {"u": _normalize_function(_require(doc["control"], "u", "control."), "control.u")}
    if "branch" in doc:
        section = doc["branch"]
        cfg.branch = {}
        if "policy" in section:
            if section["policy"] not in ("prefer_static", "prefer_moving"):
                raise ConfigError("branch.policy", "must be 'prefer_static' or 'prefer_moving'")
            cfg.branch["policy"] = section["policy"]
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

