"""In-memory spans and counts around the public calls of each package layer.

The program is not edited: `install` replaces the public functions and
methods listed in `_FUNCTIONS` / `_METHODS` by wrappers that open a span,
call the original and return its result unchanged. A span records its
name, start, end and the span that was open when it started; the list is
kept in memory and written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS, stage_dir

_PACKAGE = "volterra_control"
_LAYERS = ("grids", "volterra", "malliavin", "adjoint", "hamiltonian", "portfolio",
           "reporting", "cli")

# Every stage some workload runs, in workload order.
CLI_STAGES = tuple(dict.fromkeys(s for w in WORKLOADS.values() for s in w.stages))

# (module, function name, span name); span names start with their layer.
_FUNCTIONS = (
    ("grids", "sample_paths", "grids.sample_paths"),
    ("volterra", "simulate_integral_form", "volterra.simulate_integral_form"),
    ("volterra", "evaluate_performance", "volterra.evaluate_performance"),
    ("portfolio", "solve_c", "portfolio.solve_c"),
    ("portfolio", "bsvie_solve", "portfolio.bsvie_solve"),
    ("adjoint", "solve_general", "adjoint.solve_general"),
    ("adjoint", "simulated_state_feature", "adjoint.simulated_state_feature"),
    ("hamiltonian", "check_stationarity", "hamiltonian.check_stationarity"),
    ("hamiltonian", "control_gradient", "hamiltonian.control_gradient"),
    ("reporting", "write_csv", "reporting.write"),
    ("reporting", "write_manifest", "reporting.write"),
)

# (module, class, method, span name)
_METHODS = (
    ("malliavin", "NodeRegression", "__init__", "malliavin.node_regression_build"),
    ("malliavin", "NodeRegression", "coefficients", "malliavin.regression_solve"),
    ("adjoint", "SurrogateMalliavinField", "dp_rows", "adjoint.malliavin_field_rows"),
    ("adjoint", "SurrogateMalliavinField", "djump_rows", "adjoint.malliavin_field_rows"),
)

# A simulation that runs inside this span is a re-simulation made to measure
# the state's noise sensitivities for the adjoint driver.
_SENSITIVITY_SPAN = "adjoint.state_sensitivity"


class Tracer:
    """Spans and counts of one traced process, held in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or None, start_ns, end_ns]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def within(self, name: str) -> bool:
        """True when a span called `name` is open."""
        return any(self.spans[i][0] == name for i in self._open)

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        record = [name, parent, time.perf_counter_ns(), None]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter_ns()
            self._open.pop()
            self.counts[name] += 1

    def inclusive_s(self, name: str) -> float:
        """Time inside spans called `name` (no listed call nests in itself)."""
        return sum(rec[3] - rec[2] for rec in self.spans if rec[0] == name) * 1e-9

    def self_s_by_layer(self) -> dict[str, float]:
        """Per layer, span time not covered by child spans."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[1] is not None:
                child_ns[rec[1]] += rec[3] - rec[2]
        out = dict.fromkeys(_LAYERS, 0.0)
        for rec, children in zip(self.spans, child_ns):
            layer = rec[0].split(".", 1)[0]
            out[layer] += (rec[3] - rec[2] - children) * 1e-9
        return out

    def write(self, path: Path) -> None:
        payload = {
            "clock": "perf_counter_ns",
            "fields": ["name", "parent", "start_ns", "end_ns"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Route the listed public calls of the package through `tracer`.

    Every module-level name bound to a wrapped function is rebound, since
    the CLI and the solvers import functions by name.
    """
    modules = {layer: importlib.import_module(f"{_PACKAGE}.{layer}") for layer in _LAYERS}
    package = importlib.import_module(_PACKAGE)
    wrapped: dict[int, object] = {}

    for module, fname, span in _FUNCTIONS:
        original = getattr(modules[module], fname)
        wrapped[id(original)] = _wrapper(tracer, span, original)

    for module, cname, mname, span in _METHODS:
        cls = getattr(modules[module], cname)
        original = cls.__dict__[mname]
        setattr(cls, mname, _wrapper(tracer, span, original))

    for mod in (package, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])


def _wrapper(tracer: Tracer, span: str, original):
    before, after = _BEFORE.get(span), _AFTER.get(span)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer)
        result = tracer.call(span, original, *args, **kwargs)
        if after is not None:
            after(tracer, result)
        return result
    return traced


def _count_resimulation(tracer: Tracer) -> None:
    if tracer.within(_SENSITIVITY_SPAN):
        tracer.counts["adjoint.state_feature_resimulations"] += 1


def _count_gap_evaluations(tracer: Tracer, result) -> None:
    tracer.counts["portfolio.gap_evaluations"] += len(result.history)


def _count_sweeps(tracer: Tracer, result) -> None:
    triple, _field = result
    tracer.counts["adjoint.sweeps"] += int(triple.picard_iterations)


def _count_bytes(tracer: Tracer, path) -> None:
    tracer.counts["reporting.bytes_written"] += Path(path).stat().st_size


def _trace_sensitivities(tracer: Tracer, feature) -> None:
    # The sensitivities re-simulate the state lazily, on first use inside the
    # adjoint sweep, so the spans go around the feature's callables.
    for attr in ("brownian_sensitivity", "jump_shift"):
        fn = getattr(feature, attr)
        setattr(feature, attr, functools.partial(tracer.call, _SENSITIVITY_SPAN, fn))


_BEFORE = {"volterra.simulate_integral_form": _count_resimulation}

_AFTER = {
    "portfolio.solve_c": _count_gap_evaluations,
    "adjoint.solve_general": _count_sweeps,
    "reporting.write": _count_bytes,
    "adjoint.simulated_state_feature": _trace_sensitivities,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced process (see the README table)."""
    c = tracer.counts
    out = {
        "grids.sample_paths_s": tracer.inclusive_s("grids.sample_paths"),
        "volterra.simulate_integral_form_s": tracer.inclusive_s("volterra.simulate_integral_form"),
        "volterra.simulate_integral_form_calls": c["volterra.simulate_integral_form"],
        "volterra.evaluate_performance_s": tracer.inclusive_s("volterra.evaluate_performance"),
        "malliavin.node_regressions": c["malliavin.node_regression_build"],
        "malliavin.node_regression_build_s": tracer.inclusive_s("malliavin.node_regression_build"),
        "malliavin.regression_solves": c["malliavin.regression_solve"],
        "malliavin.regression_solve_s": tracer.inclusive_s("malliavin.regression_solve"),
        "portfolio.solve_c_s": tracer.inclusive_s("portfolio.solve_c"),
        "portfolio.gap_evaluations": c["portfolio.gap_evaluations"],
        "portfolio.bsvie_solve_s": tracer.inclusive_s("portfolio.bsvie_solve"),
        "adjoint.solve_general_s": tracer.inclusive_s("adjoint.solve_general"),
        "adjoint.sweeps": c["adjoint.sweeps"],
        "adjoint.state_feature_resimulations": c["adjoint.state_feature_resimulations"],
        "adjoint.malliavin_field_rows_s": tracer.inclusive_s("adjoint.malliavin_field_rows"),
        "hamiltonian.check_stationarity_s": tracer.inclusive_s("hamiltonian.check_stationarity"),
        "hamiltonian.control_gradient_calls": c["hamiltonian.control_gradient"],
        "reporting.write_s": tracer.inclusive_s("reporting.write"),
        "reporting.bytes_written": c["reporting.bytes_written"],
    }
    for stage in CLI_STAGES:
        out[f"cli.{stage_dir(stage)}_s"] = tracer.inclusive_s(f"cli.{stage}")
    for layer, seconds in tracer.self_s_by_layer().items():
        out[f"{layer}.self_s"] = seconds
    return out

