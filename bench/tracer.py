"""Per-layer tracing of debond from outside the program.

``Tracer.install`` replaces each public function of the package, at every
name a caller looks it up by (the defining module, the modules that import
it by name, the package namespace) and at the class attribute for methods,
with a wrapper that times the call.  ``uninstall`` puts the originals back,
so untraced operations run the program exactly as shipped.

Each wrapped call is a frame on one stack.  A frame's self time is its
duration minus the durations of the traced calls made directly inside it.
Recursive calls of one name (``trace_value``) all count as calls, but only
the outermost one adds to the name's time.  Calls of the coarse names (the
solvers, synthesis, verification, CLI commands) are also kept as spans with
a start, an end and the enclosing span, in memory, and written out at the end
of the run; the scalar kernels called per node are only counted and timed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def _targets(debond):
    """(trace name, coarse, owner, attribute, note) for every wrapped callable.

    ``note`` reads work counts (steps, points, nodes) off a call's arguments
    and result, so no counter has to live inside the program.
    """
    from debond import branch, cli, config, control, forward, func1d, model

    out = []

    def fn(name, coarse, attr, *modules, note=None):
        for module in (debond,) + modules:
            if hasattr(module, attr):
                out.append((name, coarse, module, attr, note))

    def method(name, coarse, cls, attr, note=None):
        out.append((name, coarse, cls, attr, note))

    fn("config.load", True, "load_config", config, cli)
    fn("config.load", True, "parse_config", config, note=_count("scenario_loads"))
    for attr in ("build_initial", "build_target", "build_toughness", "build_control",
                 "solver_config", "branch_policy"):
        method("config.load", True, config.ScenarioConfig, attr)

    method("func1d.eval", False, func1d.SampledFunction, "__call__")
    method("func1d.antiderivative", False, func1d.SampledFunction, "antiderivative_at")
    method("func1d.invert", False, func1d.MonotoneMap, "invert")

    method("model.echo", False, model.FrontCurve, "echo")
    method("model.reflection_factor", False, model.FrontCurve, "reflection_factor")
    fn("model.griffith_speed", False, "griffith_speed", model, forward, control)

    fn("forward.solve_front", True, "solve_front", forward, control, cli,
       note=_count("march_steps", lambda sol: sol.front.times.size - 1))
    fn("forward.initial_branch", True, "solve_initial_branch", forward, control, cli)
    method("forward.trace_function", True, forward.SolutionRecord, "trace_function")
    method("forward.trace_value", False, forward.SolutionRecord, "trace_value")
    method("forward.reconstruct", True, forward.SolutionRecord, "reconstruct",
           note=_count("reconstruct_points", lambda res: len(res[0])))
    method("forward.griffith_residuals", True, forward.SolutionRecord, "griffith_residuals")

    backward_nodes = _count("backward_nodes", lambda res: res.front_segment.times.size)
    fn("branch.final_branch", True, "solve_final_branch", branch, cli, note=backward_nodes)
    fn("branch.final_branch", True, "static_branch", branch, control, note=backward_nodes)

    control_nodes = _count("control_nodes", lambda rep: rep.control.u.xs.size)
    for attr in ("synthesize_c01", "synthesize_c1", "synthesize_static_c01", "synthesize_static_c1"):
        fn("control.synthesize", True, attr, control, cli, note=control_nodes)
    fn("control.prescribed_front", True, "fprime_for_prescribed_front", control)
    fn("control.uprime", False, "uprime_from_fprime", control)
    fn("control.verify", True, "verify_synthesis", control, cli)

    fn("cli.command", True, "main", cli)
    return out


def _count(key, amount=lambda result: 1):
    def note(counts, result):
        counts[key] += amount(result)

    return note


class Tracer:
    """Call counts, outermost time, self time and coarse spans per trace name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.time = defaultdict(float)       # outermost calls only
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)     # work read off arguments and results
        self.spans = []                      # (id, name, start, end, parent id)
        self._stack = []                     # [child time, span id or None]
        self._depth = defaultdict(int)
        self._saved = []

    # -- installation --------------------------------------------------------

    def install(self, debond):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, coarse, owner, attr, note in _targets(debond):
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(name, coarse, original, note)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, coarse, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            depth = tracer._depth
            span_id = None
            if coarse:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0, span_id]
            depth[name] += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                depth[name] -= 1
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                tracer.calls[name] += 1
                tracer.self_time[name] += elapsed - frame[0]
                if depth[name] == 0:
                    tracer.time[name] += elapsed
                if coarse:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    tracer.spans[span_id] = (span_id, name, start, end, parent)
            if note is not None:
                note(tracer.counts, result)
            return result

        return traced

    def dump(self):
        """Spans and aggregates as plain data, times relative to the first span."""
        spans = [s for s in self.spans if s is not None]
        t0 = spans[0][2] if spans else 0.0
        return {
            "spans": [
                {"id": i, "name": n, "start": a - t0, "end": b - t0, "parent": p}
                for i, n, a, b, p in spans
            ],
            "calls": dict(self.calls),
            "time_s": dict(self.time),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
        }
