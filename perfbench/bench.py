"""The platetx workloads: their inputs, timed units and output checks.

Each workload loads one layer of the program and leaves the others light:

* ``linear-n128``: the ``simulate`` experiment, linear variant, n=128. The
  linear solve path of ``stepper`` (outer CG, thermal LU, sine
  preconditioner, ``operators`` stencils) does nearly all the work.
* ``berger-difference-n64``: the ``difference`` experiment, Berger
  (tension 1, stretch 1), n=64. Picard on the membrane coefficient reruns
  the outer CG with an operator that changes every sweep.
* ``observe-n64``: seeded states passed one at a time to
  ``observable_row`` with cutoffs; ``diagnostics`` does almost all the work
  and nothing steps.

A unit is one timed call (one experiment, or one batch of samples). Unit
``i`` of a run with seed ``s`` uses ``run.seed = 1000*s + i``; an untimed
warm-up unit at REFERENCE_SEED is compared with ``reference.json``.
"""

import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

import platetx
from platetx import config, diagnostics, domain, experiments, stepper
from platetx.errors import PlateError

REFERENCE_SEED = 0
SETUP_REPEATS = 11
REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "simulate", "difference" or "observe"
    n: int
    steps: int = 0           # midpoint steps per trajectory per unit
    samples: int = 0         # observable samples per unit
    probe_amplitudes: tuple = ()
    probe_steps: int = 0

    @property
    def items(self):
        """Work items a unit completes: midpoint steps (both trajectories
        for ``difference``) or observable samples."""
        if self.kind == "observe":
            return self.samples
        return self.steps * (2 if self.kind == "difference" else 1)

    @property
    def item_name(self):
        return "samples" if self.kind == "observe" else "steps"


# Units are short so that one run averages many seeds: the Picard work of a
# berger unit varies by about 20% from one seed to the next.
WORKLOADS = {w.name: w for w in (
    Workload("linear-n128", "simulate", n=128, steps=10),
    Workload("berger-difference-n64", "difference", n=64, steps=2,
             probe_amplitudes=(3.0, 10.0, 30.0, 100.0), probe_steps=4),
    Workload("observe-n64", "observe", n=64, samples=200),
)}


def config_text(w, seed, amplitude=1.0, steps=0):
    lines = [f"domain.n_cells={w.n}", f"run.seed={seed}",
             "run.initial=mixed", f"run.amplitude={amplitude!r}"]
    if w.kind == "simulate":
        lines += ["run.experiment=simulate", "nonlinearity.variant=linear",
                  "diag.multipliers=off"]
    elif w.kind == "difference":
        lines += ["run.experiment=difference", "nonlinearity.variant=berger",
                  "nonlinearity.tension=1", "nonlinearity.stretch=1"]
    if steps:
        # the default dt is h/4 = 1/(4n), so t_max gives exactly `steps`
        # steps; one stride keeps output to the first and last sample
        lines += [f"run.t_max={steps / (4 * w.n)!r}", f"run.stride={steps}"]
    return "\n".join(lines) + "\n"


# -- set-up -----------------------------------------------------------------

@dataclass
class Context:
    cfg: object
    dom: object
    cutoffs: object
    modes: np.ndarray        # smooth modes the observe states are drawn from


def setup(w):
    """What the workload builds before its units run: config, domain,
    stepper (stepping workloads) and cutoffs (where the experiment uses
    them). Returns the context and the seconds it took."""
    t0 = time.perf_counter()
    cfg = config.parse_config(config_text(w, REFERENCE_SEED))
    dom = domain.build_domain(cfg.domain_config)
    if w.kind != "observe":
        stepper.PlateStepper(dom, cfg.params, cfg.spec, cfg.scheme)
    cutoffs = None
    if cfg.multipliers_enabled():
        cutoffs = domain.build_cutoffs(dom, cfg.cutoff_delta)
    seconds = time.perf_counter() - t0
    modes = None
    if w.kind == "observe":
        ks = range(1, 4)
        modes = np.array([
            [np.sin(np.pi * kx * dom.X) ** 2 * np.sin(np.pi * ky * dom.Y) ** 2
             for kx in ks for ky in ks],
            [np.sin(np.pi * kx * dom.X) * np.sin(np.pi * ky * dom.Y)
             for kx in ks for ky in ks],
        ])
    return Context(cfg, dom, cutoffs, modes), seconds


# -- units ------------------------------------------------------------------

@dataclass
class Outcome:
    seconds: float
    attempted: int
    failed: int
    values: dict             # what the output check and reference look at
    problems: list


def _observe_state(ctx, rng):
    c = rng.normal(size=(3, ctx.modes.shape[1]))
    u, ut = np.tensordot(c[:2], ctx.modes[0], axes=1)
    theta = np.tensordot(c[2], ctx.modes[1], axes=1)
    return platetx.make_state(ctx.dom, u=u, ut=ut, theta=theta)


def _observe_unit(w, ctx, seed):
    rng = np.random.default_rng(seed)
    cfg = ctx.cfg
    rows = np.empty((w.samples, len(diagnostics.ObservableRow.columns())))
    seconds = 0.0
    for i in range(w.samples):
        state = _observe_state(ctx, rng)
        t0 = time.perf_counter()
        row = diagnostics.observable_row(
            ctx.dom, state, cfg.params, cfg.spec, float(i),
            cutoffs=ctx.cutoffs, eta=cfg.eta, calib_c=cfg.calib_c)
        seconds += time.perf_counter() - t0
        rows[i] = [getattr(row, c) for c in row.columns()]
    return seconds, {"rows": rows}


def _experiment_unit(w, seed):
    cfg = config.parse_config(config_text(w, seed, steps=w.steps))
    t0 = time.perf_counter()
    out = experiments.run_experiment(cfg)
    seconds = time.perf_counter() - t0
    s = out["summary"]
    if w.kind == "simulate":
        series = out["trajectory"].step_series
        l0 = abs(series["lyapunov"][0])
        values = {
            "residual_max_rel": float(np.max(np.abs(series["residual"])))
            / l0,
            "residual_bound_rel": 10.0 * (cfg.scheme.tol_inner
                                          + cfg.scheme.tol_picard),
            "lyapunov_violations": s["lyapunov_violations"],
            "lyapunov_initial": s["lyapunov_initial"],
            "lyapunov_final": s["lyapunov_final"],
        }
    else:
        values = {k: s[k] for k in ("balance_cum_rel", "e_d_initial",
                                    "e_d_final")}
    return seconds, values


def run_unit(w, ctx, seed):
    """One timed unit; an exception from the program or a rejected output
    counts as a failed operation."""
    attempted = w.samples if w.kind == "observe" else 1
    try:
        if w.kind == "observe":
            seconds, values = _observe_unit(w, ctx, seed)
        else:
            seconds, values = _experiment_unit(w, seed)
    except PlateError as exc:
        return Outcome(0.0, attempted, attempted, {},
                       [f"seed {seed}: {type(exc).__name__}: {exc}"])
    problems = check(w, values)
    if w.kind == "observe":
        failed = _bad_rows(values)
    else:
        failed = 1 if problems else 0
    return Outcome(seconds, attempted, failed, values,
                   [f"seed {seed}: {p}" for p in problems])


# -- output check -----------------------------------------------------------

BALANCE_BOUND = 1e-6         # acceptance criterion 10


def check(w, values):
    """Problems with one unit's output; empty when it is correct."""
    if w.kind == "simulate":
        problems = []
        if not values["residual_max_rel"] <= values["residual_bound_rel"]:
            problems.append(
                f"energy-identity residual {values['residual_max_rel']:.3e}"
                f" |L0| exceeds {values['residual_bound_rel']:.3e} |L0|")
        if values["lyapunov_violations"] != 0:
            problems.append(
                f"{values['lyapunov_violations']} Lyapunov violations")
        return problems
    if w.kind == "difference":
        if not values["balance_cum_rel"] <= BALANCE_BOUND:
            return [f"difference balance {values['balance_cum_rel']:.3e} "
                    f"exceeds {BALANCE_BOUND:g}"]
        return []
    bad = _bad_rows(values)
    return [f"{bad} observable rows not finite"] if bad else []


def _bad_rows(values):
    return int(np.sum(~np.all(np.isfinite(values["rows"]), axis=1)))


def reference_values(w, values):
    """The values of a REFERENCE_SEED unit that reference.json stores."""
    if w.kind == "observe":
        return {"rows": values["rows"][:3].tolist()}
    keys = {"simulate": ("lyapunov_initial", "lyapunov_final"),
            "difference": ("e_d_initial", "e_d_final")}[w.kind]
    return {k: values[k] for k in keys}


def compare_reference(w, values, reference):
    """Problems where a REFERENCE_SEED unit strays from the stored values
    by more than the stored relative tolerance."""
    entry = reference.get(w.name)
    if entry is None or entry["workload"] != list(_shape(w)):
        return [f"no reference values for {w.name} as defined here"]
    got = reference_values(w, values)
    problems = []
    for key, want in entry["values"].items():
        have = np.asarray(got[key], dtype=float)
        want = np.asarray(want, dtype=float)
        if not np.allclose(have, want, rtol=entry["rtol"], atol=0.0):
            err = np.max(np.abs(have - want)
                         / np.maximum(np.abs(want), np.finfo(float).tiny))
            problems.append(f"reference {key}: relative deviation {err:.2e}"
                            f" exceeds {entry['rtol']:g}")
    return problems


def _shape(w):
    return (w.kind, w.n, w.steps, w.samples)


def make_reference(w, ctx, rtol):
    _, values = (_observe_unit(w, ctx, REFERENCE_SEED)
                 if w.kind == "observe"
                 else _experiment_unit(w, REFERENCE_SEED))
    return {"workload": list(_shape(w)), "seed": REFERENCE_SEED,
            "rtol": rtol, "values": reference_values(w, values)}


# -- robustness probes --------------------------------------------------------

def run_probes(w, seed):
    """Short runs at the workload's probe amplitudes, outside every timed
    region. Returns (amplitude, error message or None) pairs."""
    results = []
    for amp in w.probe_amplitudes:
        cfg = config.parse_config(
            config_text(w, seed, amplitude=amp, steps=w.probe_steps))
        try:
            experiments.run_experiment(cfg)
        except PlateError as exc:
            results.append((amp, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((amp, None))
    return results


# -- measurement --------------------------------------------------------------

def measure_setup(w):
    """Median set-up seconds over SETUP_REPEATS fresh set-ups, and the last
    context."""
    times = []
    for _ in range(SETUP_REPEATS):
        ctx, seconds = setup(w)
        times.append(seconds)
    return statistics.median(times), ctx


def timed_units(w, ctx, seed, seconds):
    """Units run back to back until ``seconds`` have passed (at least one)."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    i = 0
    while not outcomes or time.perf_counter() < deadline:
        outcomes.append(run_unit(w, ctx, 1000 * seed + i))
        i += 1
    return outcomes
