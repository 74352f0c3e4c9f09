"""Spans around the calls into each platetx layer, and the per-layer metrics
derived from them.

The wrappers are installed from here into the namespace of every platetx
module that holds the wrapped function (and onto ``PlateStepper`` for its
methods), so the program carries no tracing code of its own. A span records
its name, start, end and parent; all spans of one traced pass share the
tracer's run id. Spans stay in memory until the pass ends.
"""

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects the spans of one traced pass."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(len(self.spans), name, parent, time.perf_counter())
            self.spans.append(span)
            self._open.append(span.id)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if observe is not None:
                span.info.update(observe(args, out))
            return out
        return traced

    def write(self, path):
        """Append this pass's spans to ``path``, one JSON object a line."""
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "run": self.run_id, "id": s.id, "name": s.name,
                    "parent": s.parent, "start": s.start, "end": s.end,
                    **s.info,
                }) + "\n")


def _step_stats(args, out):
    stats = out[1]
    return {"picard_sweeps": stats.picard_sweeps, "cg_outer": stats.cg_outer,
            "h_solves": stats.cg_inner}


def _cg_iters(args, out):
    return {"iters": out[1]}


def _field_bytes(args, out):
    # computed, not measured: one input field read and the result written
    return {"bytes": args[1].nbytes + out.nbytes}


def _csv_bytes(args, out):
    return {"csv_bytes": os.path.getsize(out["paths"][0])}


# span name -> (defining module, attribute, observer of the result)
TARGETS = {
    "config.parse_config": ("platetx.config", "parse_config", None),
    "domain.build_domain": ("platetx.domain", "build_domain", None),
    "domain.build_cutoffs": ("platetx.domain", "build_cutoffs", None),
    "stepper.init": ("platetx.stepper", "PlateStepper.__init__", None),
    "stepper.step": ("platetx.stepper", "PlateStepper.step", _step_stats),
    "stepper.solve_k": ("platetx.stepper", "PlateStepper.solve_k", None),
    "stepper.solve_h": ("platetx.stepper", "PlateStepper.solve_h", None),
    "operators.cg_solve": ("platetx.operators", "cg_solve", _cg_iters),
    "operators.sine_solve": ("platetx.operators", "sine_solve", None),
    "operators.laplacian_clamped": ("platetx.operators", "laplacian_clamped",
                                    _field_bytes),
    "operators.laplacian_clamped_transpose": (
        "platetx.operators", "laplacian_clamped_transpose", _field_bytes),
    "operators.biharmonic_transmission": (
        "platetx.operators", "biharmonic_transmission", _field_bytes),
    "operators.dirichlet_inverse": ("platetx.operators", "dirichlet_inverse",
                                    None),
    "nonlinearity.discrete_gradient_force": (
        "platetx.nonlinearity", "discrete_gradient_force", None),
    "nonlinearity.potential": ("platetx.nonlinearity", "potential", None),
    "diagnostics.energy": ("platetx.diagnostics", "energy", None),
    "diagnostics.observable_row": ("platetx.diagnostics", "observable_row",
                                   None),
    "diagnostics.multiplier_functionals": (
        "platetx.diagnostics", "multiplier_functionals", None),
    "diagnostics.negnorm": ("platetx.diagnostics", "negnorm", None),
    "diagnostics.difference_observables": (
        "platetx.diagnostics", "difference_observables", None),
    "experiments.run_experiment": ("platetx.experiments", "run_experiment",
                                   _csv_bytes),
}


@contextmanager
def installed(tracer):
    """Route every call of the TARGETS through ``tracer`` while active."""
    modules = [m for k, m in sys.modules.items()
               if k == "platetx" or k.startswith("platetx.")]
    patches = []
    for name, (home, attr, observe) in TARGETS.items():
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(sys.modules[home], cls_name)
            orig = vars(owner)[meth]
            patches.append((owner, meth, orig, name, observe))
            continue
        orig = getattr(sys.modules[home], attr)
        for mod in modules:
            if vars(mod).get(attr) is orig:
                patches.append((mod, attr, orig, name, observe))
    try:
        for owner, attr, orig, name, observe in patches:
            setattr(owner, attr, tracer.wrap(name, orig, observe))
        yield tracer
    finally:
        for owner, attr, orig, _, _ in patches:
            setattr(owner, attr, orig)


# (name, unit, better, exact): ``exact`` metrics are counts that must repeat
# exactly between two traced passes over the same inputs.
PER_LAYER = [
    ("config.parse_config.s", "s", "lower", False),
    ("domain.build_domain.s", "s", "lower", False),
    ("domain.build_cutoffs.s", "s", "lower", False),
    ("stepper.init.s", "s", "lower", False),
    ("stepper.step.calls", "count", "lower", True),
    ("stepper.step.self_s", "s", "lower", False),
    ("stepper.step.ms.p50", "ms", "lower", False),
    ("stepper.step.ms.p95", "ms", "lower", False),
    ("stepper.solve_k.calls", "count", "lower", True),
    ("stepper.solve_k.s", "s", "lower", False),
    ("stepper.cg_outer.per_step", "count/step", "lower", True),
    ("stepper.cg_outer.per_solve", "count/solve", "lower", True),
    ("stepper.solve_h.calls", "count", "lower", True),
    ("stepper.solve_h.s", "s", "lower", False),
    ("stepper.solve_h.per_step", "count/step", "lower", True),
    ("stepper.picard_sweeps.per_step", "count/step", "lower", True),
    ("stepper.picard_sweeps.max", "count", "lower", True),
    ("stepper.picard.useful_ratio", "ratio", "higher", True),
    ("operators.cg_solve.calls", "count", "lower", True),
    ("operators.cg_solve.s", "s", "lower", False),
    ("operators.cg_solve.iters", "count", "lower", True),
    ("operators.sine_solve.calls", "count", "lower", True),
    ("operators.sine_solve.s", "s", "lower", False),
    ("operators.laplacian_clamped.calls", "count", "lower", True),
    ("operators.laplacian_clamped.s", "s", "lower", False),
    ("operators.laplacian_clamped.bytes_computed", "bytes", "lower", True),
    ("operators.laplacian_clamped_transpose.calls", "count", "lower", True),
    ("operators.laplacian_clamped_transpose.s", "s", "lower", False),
    ("operators.laplacian_clamped_transpose.bytes_computed", "bytes", "lower",
     True),
    ("operators.biharmonic_transmission.calls", "count", "lower", True),
    ("operators.biharmonic_transmission.s", "s", "lower", False),
    ("operators.biharmonic_transmission.bytes_computed", "bytes", "lower",
     True),
    ("operators.dirichlet_inverse.calls", "count", "lower", True),
    ("operators.dirichlet_inverse.s", "s", "lower", False),
    ("operators.dirichlet_inverse.cg_iters_per_call", "count/call", "lower",
     True),
    ("nonlinearity.discrete_gradient_force.calls", "count", "lower", True),
    ("nonlinearity.discrete_gradient_force.s", "s", "lower", False),
    ("nonlinearity.potential.calls", "count", "lower", True),
    ("nonlinearity.potential.s", "s", "lower", False),
    ("diagnostics.energy.calls", "count", "lower", True),
    ("diagnostics.energy.s", "s", "lower", False),
    ("diagnostics.observable_row.calls", "count", "lower", True),
    ("diagnostics.observable_row.s", "s", "lower", False),
    ("diagnostics.observable_row.ms.p50", "ms", "lower", False),
    ("diagnostics.observable_row.ms.p95", "ms", "lower", False),
    ("diagnostics.multiplier_functionals.s", "s", "lower", False),
    ("diagnostics.negnorm.s", "s", "lower", False),
    ("diagnostics.difference_observables.s", "s", "lower", False),
    ("experiments.run_experiment.self_s", "s", "lower", False),
    ("experiments.csv_bytes", "bytes", "lower", True),
    ("trace.overhead_ratio", "ratio", "lower", False),
    ("probe.failed", "count", "lower", True),
]

EXACT = [name for name, _, _, exact in PER_LAYER if exact]


def layer_metrics(spans):
    """Per-layer values of one traced pass (all PER_LAYER names except the
    ones the caller supplies: trace.overhead_ratio and probe.failed)."""
    by_name = {name: [] for name in TARGETS}
    covered = np.zeros(len(spans))
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            covered[s.parent] += s.duration

    def calls(name):
        return len(by_name[name])

    def total(name):
        return float(sum(s.duration for s in by_name[name]))

    def self_s(name):
        return float(sum(s.duration - covered[s.id] for s in by_name[name]))

    def ms(name, q):
        d = [1e3 * s.duration for s in by_name[name]]
        return float(np.percentile(d, q)) if d else 0.0

    def info_sum(name, key):
        return sum(s.info[key] for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    steps = calls("stepper.step")
    sweeps = [s.info["picard_sweeps"] for s in by_name["stepper.step"]]
    inv_ids = {s.id for s in by_name["operators.dirichlet_inverse"]}
    inv_iters = sum(s.info["iters"] for s in by_name["operators.cg_solve"]
                    if s.parent in inv_ids)

    m = {}
    for name in ("config.parse_config", "domain.build_domain",
                 "domain.build_cutoffs", "stepper.init"):
        m[name + ".s"] = total(name)
    m["stepper.step.calls"] = steps
    m["stepper.step.self_s"] = self_s("stepper.step")
    m["stepper.step.ms.p50"] = ms("stepper.step", 50)
    m["stepper.step.ms.p95"] = ms("stepper.step", 95)
    m["stepper.solve_k.calls"] = calls("stepper.solve_k")
    m["stepper.solve_k.s"] = total("stepper.solve_k")
    m["stepper.cg_outer.per_step"] = ratio(
        info_sum("stepper.step", "cg_outer"), steps)
    m["stepper.cg_outer.per_solve"] = ratio(
        info_sum("stepper.step", "cg_outer"), calls("stepper.solve_k"))
    m["stepper.solve_h.calls"] = calls("stepper.solve_h")
    m["stepper.solve_h.s"] = total("stepper.solve_h")
    m["stepper.solve_h.per_step"] = ratio(
        info_sum("stepper.step", "h_solves"), steps)
    m["stepper.picard_sweeps.per_step"] = ratio(sum(sweeps), steps)
    m["stepper.picard_sweeps.max"] = max(sweeps, default=0)
    m["stepper.picard.useful_ratio"] = ratio(steps, sum(sweeps))
    for name in ("operators.cg_solve", "operators.sine_solve",
                 "operators.laplacian_clamped",
                 "operators.laplacian_clamped_transpose",
                 "operators.biharmonic_transmission",
                 "operators.dirichlet_inverse",
                 "nonlinearity.discrete_gradient_force",
                 "nonlinearity.potential", "diagnostics.energy",
                 "diagnostics.observable_row"):
        m[name + ".calls"] = calls(name)
        m[name + ".s"] = total(name)
    m["operators.cg_solve.iters"] = info_sum("operators.cg_solve", "iters")
    for name in ("operators.laplacian_clamped",
                 "operators.laplacian_clamped_transpose",
                 "operators.biharmonic_transmission"):
        m[name + ".bytes_computed"] = info_sum(name, "bytes")
    m["operators.dirichlet_inverse.cg_iters_per_call"] = ratio(
        inv_iters, calls("operators.dirichlet_inverse"))
    m["diagnostics.observable_row.ms.p50"] = ms("diagnostics.observable_row",
                                                50)
    m["diagnostics.observable_row.ms.p95"] = ms("diagnostics.observable_row",
                                                95)
    for name in ("diagnostics.multiplier_functionals", "diagnostics.negnorm",
                 "diagnostics.difference_observables"):
        m[name + ".s"] = total(name)
    m["experiments.run_experiment.self_s"] = self_s(
        "experiments.run_experiment")
    m["experiments.csv_bytes"] = info_sum("experiments.run_experiment",
                                          "csv_bytes")
    return m

