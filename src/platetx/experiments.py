"""Scripted experiments: single runs, decay studies, two-trajectory
difference runs, parameter probes and the built-in verification suite.

Every experiment writes a CSV of observable rows plus a flat text summary;
filenames derive from the config hash, and outputs are deterministic
functions of the config: identical hash, identical bytes. The runners pass
values, and _write_report is the one writer that formats them. All
stepping goes through stepper.steps, and no experiment keeps the sampled
states.
"""

import dataclasses
import math
import os

import numpy as np

from .config import RunConfig
from .diagnostics import (ObservableRow, difference_observables,
                          dissipation, energy, observable_row)
from .domain import build_cutoffs, build_domain, check_hypotheses
from .errors import ConfigurationError, SolverError
from .fields import make_state
from .stepper import PlateStepper, simulate, stationary_solve, steps


def resolve_out_dir(cfg: RunConfig):
    """Config out_dir, overridable through the PLATETX_OUT environment
    variable; created on demand."""
    out = os.environ.get("PLATETX_OUT", cfg.out_dir)
    os.makedirs(out, exist_ok=True)
    return out


def initial_state(domain, kind, amplitude, seed=0):
    """Initial data library: each kind excites one energy channel.

    bump: clamped-compatible displacement bump over the whole square.
    kick: velocity impulse supported strictly inside the inner plate.
    spot: temperature spot in the frame, zero displacement.
    mixed: seeded smooth random data in all three channels.
    """
    X, Y = domain.X, domain.Y
    if kind == "bump":
        s2 = np.sin(np.pi * domain.x) ** 2
        return make_state(domain, u=amplitude * np.outer(s2, s2))
    if kind == "kick":
        lo, hi = domain.config.inner_lo, domain.config.inner_hi
        s = (X - lo) / (hi - lo)
        t = (Y - lo) / (hi - lo)
        prof = np.where(
            (s > 0) & (s < 1) & (t > 0) & (t < 1),
            np.sin(np.pi * np.clip(s, 0, 1)) ** 2
            * np.sin(np.pi * np.clip(t, 0, 1)) ** 2,
            0.0,
        )
        return make_state(domain, ut=amplitude * prof)
    if kind == "spot":
        cx = 0.5 * domain.config.inner_lo
        r2 = (X - cx) ** 2 + (Y - 0.5) ** 2
        sigma = 0.25 * domain.config.inner_lo
        th = amplitude * np.exp(-r2 / sigma**2)
        th[~domain.theta_free] = 0.0
        return make_state(domain, theta=th)
    if kind == "mixed":
        # the coefficients c[kx, ky, field] of the separable modes
        # s_kx(x)^2 s_ky(y)^2 (u, ut) and s_kx(x) s_ky(y) (theta),
        # s_k = sin(pi k x) on the nodes, each field one product S^T c S
        c = np.random.default_rng(seed).normal(size=(3, 3, 3))
        s = np.sin(np.pi * np.arange(1, 4)[:, None] * domain.x)
        s2 = s * s
        u = s2.T @ c[:, :, 0] @ s2
        ut = s2.T @ c[:, :, 1] @ s2
        th = s.T @ c[:, :, 2] @ s
        th[~domain.theta_free] = 0.0
        return make_state(domain, u=amplitude * u, ut=amplitude * ut,
                          theta=amplitude * th)
    raise ConfigurationError(f"unknown initial data kind {kind!r}")


def _write_report(cfg, columns, rows, summary):
    """CSV (metadata comments, the header of columns, one line per row of
    values) and flat text summary, named after summary["experiment"] and the
    config hash. Every CSV cell and summary value is written by one rule:
    floats with 17 significant digits, anything else (ints, bools, "none",
    names) as str."""
    def text(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)

    path_base = os.path.join(resolve_out_dir(cfg),
                             f"{summary['experiment']}-{cfg.hash()}")
    csv_path = path_base + ".csv"
    with open(csv_path, "w") as f:
        f.write(f"# config_hash={cfg.hash()}\n")
        for k in sorted(cfg.values):
            mark = " (default)" if k in cfg.defaulted else ""
            f.write(f"# {k}={cfg.values[k]}{mark}\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(map(text, row)) + "\n")
    txt_path = path_base + ".txt"
    with open(txt_path, "w") as f:
        f.write(f"config_hash={cfg.hash()}\n")
        for k, v in summary.items():
            f.write(f"{k}={text(v)}\n")
    return csv_path, txt_path


def _lyapunov_violations(traj, scheme):
    """Count steps where the Lyapunov energy increased by more than
    scheme.identity_bound() of its value."""
    lyap = traj.step_series["lyapunov"]
    bound = scheme.identity_bound()
    return int(np.sum(
        lyap[1:] - lyap[:-1] > bound * np.maximum(np.abs(lyap[:-1]), 1e-300)
    ))


def _setup(cfg: RunConfig):
    domain = build_domain(cfg.domain_config)
    return domain, PlateStepper(domain, cfg.params, cfg.spec, cfg.scheme)


def _sampled_run(cfg: RunConfig):
    """Simulate the configured initial data, evaluating the observable row
    of each sample in a sink as it is reached, with the running sum of the
    per-step identity residuals. Returns (domain, trajectory, rows of
    values in ObservableRow.columns() order).
    """
    domain, stepper = _setup(cfg)
    cutoffs = None
    if cfg.multipliers_enabled():
        cutoffs = build_cutoffs(domain, cfg.cutoff_delta)
    rows = []
    columns = ObservableRow.columns()

    def row_sink(k, t, state, residual_cum):
        row = observable_row(
            domain, state, cfg.params, cfg.spec, t,
            cutoffs=cutoffs, eta=cfg.eta, calib_c=cfg.calib_c,
            residual_cum=residual_cum,
        )
        rows.append([getattr(row, c) for c in columns])

    s0 = initial_state(domain, cfg.initial, cfg.amplitude, cfg.seed)
    traj = simulate(stepper, s0, cfg.n_steps(stepper.dt), stride=cfg.stride,
                    sinks=[row_sink])
    return domain, traj, rows


def _energy_decay(traj):
    """Final-to-initial Lyapunov ratio, and the first step time at which the
    Lyapunov energy is at most half its initial value ("none" if never).

    Both measure decay toward zero energy. A run that settles at a nonzero
    equilibrium of negative energy, such as a buckled root of a Berger
    plate under compression, reads a negative ratio: with tension=-200,
    mixed data, t_max=2 and n=32, seeds 0 and 2 read -0.179 and -0.903."""
    lyap = traj.step_series["lyapunov"]
    l0 = lyap[0]
    t_half = "none"
    if l0 > 0:
        below = np.nonzero(lyap <= 0.5 * l0)[0]
        if below.size:
            t_half = below[0] * traj.dt
    return (lyap[-1] / l0 if l0 != 0 else 0.0), t_half


def _solver_work(series):
    """Summary totals and maximum of the per-step solver work counts of a
    trajectory's step series (or of several, concatenated)."""
    return {
        "cg_outer_total": int(np.sum(series["cg_outer"])),
        "picard_max": int(np.max(series["picard_sweeps"])),
        "h_solves_total": int(np.sum(series["h_solves"])),
    }


def run_simulate(cfg: RunConfig):
    """Plain simulation with full observable logging."""
    _, traj, rows = _sampled_run(cfg)
    lyap = traj.step_series["lyapunov"]
    res = traj.step_series["residual"]
    summary = {
        "experiment": "simulate",
        "n_steps": len(res),
        "dt": traj.dt,
        "lyapunov_initial": lyap[0],
        "lyapunov_final": lyap[-1],
        "energy_ratio": _energy_decay(traj)[0],
        "residual_cum": float(np.sum(res)),
        "residual_max": float(np.max(np.abs(res))) if len(res) else 0.0,
        "lyapunov_violations": _lyapunov_violations(traj, cfg.scheme),
        **_solver_work(traj.step_series),
    }
    paths = _write_report(cfg, ObservableRow.columns(), rows, summary)
    return {"summary": summary, "trajectory": traj, "paths": paths}


def run_decay(cfg: RunConfig):
    """Decay study: simulate until the Lyapunov energy flattens (or T_max),
    then measure the distance to a stationary root. If the root solve fails,
    the report is written with distance_to_stationary=none and the solver's
    message as stationary_error, and the SolverError propagates."""
    domain, traj, rows = _sampled_run(cfg)
    lyap = traj.step_series["lyapunov"]
    n_steps = len(lyap) - 1
    # flatness over the trailing 10% window
    win = max(1, n_steps // 10)
    flat = bool(abs(lyap[-1] - lyap[-1 - win])
                <= 1e-6 * max(abs(lyap[0]), 1e-300))
    ratio, t_half = _energy_decay(traj)

    summary = {
        "experiment": "decay",
        "n_steps": n_steps,
        "dt": traj.dt,
        "energy_ratio": ratio,
        "time_to_half_energy": t_half,
        "flattened": flat,
        "no_decay_detected": not flat,
        "distance_to_stationary": "none",
        "lyapunov_violations": _lyapunov_violations(traj, cfg.scheme),
        **_solver_work(traj.step_series),
    }
    u = traj.final.u
    try:
        root = stationary_solve(domain, cfg.params, cfg.spec, u)
    except SolverError as exc:
        summary["stationary_error"] = str(exc)
        _write_report(cfg, ObservableRow.columns(), rows, summary)
        raise
    summary["distance_to_stationary"] = float(
        np.sqrt(domain.h * domain.h * np.sum((u - root) ** 2)))
    paths = _write_report(cfg, ObservableRow.columns(), rows, summary)
    return {"summary": summary, "trajectory": traj, "paths": paths}


DIFFERENCE_COLUMNS = ("t", "e_d", "l2_low", "negnorm", "thermal_grad",
                      "balance_cum")


def run_difference(cfg: RunConfig):
    """Co-simulate two nearby trajectories; track the energy of their
    difference, its lower-order norms, the per-step difference-system
    balance, and fit a decay envelope."""
    domain, stepper = _setup(cfg)
    s1 = initial_state(domain, cfg.initial, cfg.amplitude, cfg.seed)
    s2 = initial_state(domain, cfg.initial,
                       cfg.amplitude * (1.0 + cfg.perturbation), cfg.seed)
    dt = stepper.dt
    n_steps = cfg.n_steps(dt)
    params, spec = cfg.params, cfg.spec

    obs = difference_observables(domain, s1, s2, params)
    rows = [(0.0, obs, 0.0)]
    e0 = e_d = obs["e_d"]
    balance = np.empty(n_steps)

    counts = []  # the solver work of each step of both trajectories
    pairs = zip(steps(stepper, s1, n_steps), steps(stepper, s2, n_steps))
    for (k, t, s1_new, st1), (_, _, s2_new, st2) in pairs:
        counts += [(st.picard_sweeps, st.cg_outer, st.cg_inner)
                   for st in (st1, st2)]
        sampled = k % cfg.stride == 0 or k == n_steps
        if sampled:
            # the observables' e_d is the same function of the same
            # difference
            obs = difference_observables(domain, s1_new, s2_new, params)
            e_new = obs["e_d"]
        else:
            e_new = energy(domain, s1_new - s2_new, params, spec.linear()).e
        th_bar_d = 0.5 * ((s1.theta + s1_new.theta)
                          - (s2.theta + s2_new.theta))
        d_mid = dissipation(domain, th_bar_d, params)
        work = stepper.dot_u(st1.force - st2.force, st1.p_bar - st2.p_bar)
        balance[k - 1] = e_new - e_d + dt * d_mid - dt * work
        s1, s2, e_d = s1_new, s2_new, e_new
        if sampled:
            rows.append((t, obs, float(np.sum(balance[:k]))))

    # log-linear envelope fit, first 20% of samples discarded
    ts = np.array([r[0] for r in rows])
    es = np.array([r[1]["e_d"] for r in rows])
    fit = {"c_r": "none", "omega_r": "none", "fit_r2": "none"}
    start = len(ts) // 5
    tail_t, tail_e = ts[start:], es[start:]
    if np.all(tail_e > 0) and len(tail_t) >= 3:
        b, a = np.polyfit(tail_t, np.log(tail_e), 1)
        pred = a + b * tail_t
        logs = np.log(tail_e)
        ss_res = float(np.sum((logs - pred) ** 2))
        ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
        fit = {
            "c_r": float(np.exp(a) / es[0]) if es[0] > 0 else "none",
            "omega_r": -float(b),
            "fit_r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
        }

    summary = {
        "experiment": "difference",
        "n_steps": n_steps,
        "dt": dt,
        "e_d_initial": e0,
        "e_d_final": e_d,
        "contraction": bool(e_d < e0) if e0 > 0 else True,
        "balance_cum": float(np.sum(balance)),
        "balance_cum_rel": float(abs(np.sum(balance)) / e0) if e0 > 0 else 0.0,
        **fit,
        **_solver_work(dict(zip(("picard_sweeps", "cg_outer", "h_solves"),
                                np.transpose(counts)))),
    }
    csv_rows = [(t, obs["e_d"], obs["l2_low"], obs["negnorm"],
                 obs["thermal_grad"], bal) for t, obs, bal in rows]
    paths = _write_report(cfg, DIFFERENCE_COLUMNS, csv_rows, summary)
    return {"summary": summary, "balance": balance, "paths": paths}


PROBE_COLUMNS = ("value", "energy_ratio", "time_to_half", "dissipation_min",
                 "lyapunov_violations", "hypotheses_ok")


def run_probe(cfg: RunConfig):
    """Sweep one physical parameter and report decay metrics side by side;
    observational only, nothing asserted."""
    domain = build_domain(cfg.domain_config)
    s0 = initial_state(domain, cfg.initial, cfg.amplitude, cfg.seed)
    results, works = [], []
    for value in cfg.probe_values:
        params = dataclasses.replace(cfg.params,
                                     **{cfg.probe_parameter: value})
        stepper = PlateStepper(domain, params, cfg.spec, cfg.scheme)
        traj = simulate(stepper, s0, cfg.n_steps(stepper.dt),
                        stride=cfg.stride)
        ratio, t_half = _energy_decay(traj)
        diss = traj.step_series["dissipation_mid"]
        report = check_hypotheses(domain, params)
        works.append(_solver_work(traj.step_series))
        results.append({
            "value": value,
            "energy_ratio": ratio,
            "time_to_half": t_half,
            "dissipation_min": float(np.min(diss)) if len(diss) else 0.0,
            "lyapunov_violations": _lyapunov_violations(traj, cfg.scheme),
            "hypotheses_ok": report.star_ok and report.params_ok,
        })

    summary = {
        "experiment": "probe",
        "parameter": cfg.probe_parameter,
        "n_values": len(results),
    }
    for i, (r, work) in enumerate(zip(results, works)):
        summary[f"value_{i}"] = r["value"]
        summary[f"energy_ratio_{i}"] = r["energy_ratio"]
        summary.update((f"{key}_{i}", v) for key, v in work.items())
    paths = _write_report(cfg, PROBE_COLUMNS,
                          [[r[c] for c in PROBE_COLUMNS] for r in results],
                          summary)
    return {"summary": summary, "results": results, "paths": paths}


def run_stationary(cfg: RunConfig):
    """Solve the stationary problem from the configured initial shape."""
    domain = build_domain(cfg.domain_config)
    guess = initial_state(domain, cfg.initial, cfg.amplitude, cfg.seed)
    root = stationary_solve(domain, cfg.params, cfg.spec, guess.u)
    h2 = domain.h * domain.h
    summary = {
        "experiment": "stationary",
        "root_max": float(np.max(np.abs(root))),
        "root_l2": float(np.sqrt(h2 * np.sum(root * root))),
        "nonzero": bool(np.max(np.abs(root)) > 1e-8),
    }
    x = domain.x
    rows = [(x[i], x[j], root[i, j]) for i in range(domain.n + 1)
            for j in range(domain.n + 1)]
    paths = _write_report(cfg, ("x", "y", "u"), rows, summary)
    return {"summary": summary, "root": root, "paths": paths}


def verify_suite(cfg: RunConfig):
    """Built-in invariant battery on the operators that a step applies, at
    the run's domain and parameters: the PlateStepper of the configured
    run, built first, lends its own instances, and its short run closes
    the battery. Every check pairs plate fields, or their sine
    coefficients, in the stepper's inner product dot_u, the one its CG and
    the difference balance use. Each measure is relative to the size of
    its terms, so cancellation among large terms does not fail it:

    - bending_symmetry: the asymmetry |<A a, b> - <a, A b>| of the bending
      A, the negated ClampedPlateHat of the step's right side (mass 0,
      bending -1; the negation is exact, and A is also the bending of K
      and of the stationary Jacobian), on random sine coefficients, over
      |A a| |b|;
    - bending_positivity: the least Rayleigh quotient <A a, a>/<a, a>,
      which must be positive;
    - coupling_cancellation: the adjointness of the thermal half of K on
      the stepper's FrameThermalSolver, <couple_hat(y), p^> against the
      plain sum <heat_source_hat(p^), Y> over frame coordinates, y the
      projected right side of a random field and Y its solve
      (solve_projected; neither call writes y), over the norms of the
      first pair;
    - discrete_gradient_identity: <G, u2 - u1> + Pi(u2) - Pi(u1) over
      |Pi(u1)| + |Pi(u2)| + 1 for the run's force, or for a linear run for
      Berger (1, 1) and the scalar forces (1, .5) and (2, -1); a Berger G
      is the coefficient force of a step, -m_bar lambda (u1^ + u2^)/2 with
      the gradient forms q and the m_bar that the step computes on the
      stepper's sine basis and lambda, a scalar G is
      discrete_gradient_force, paired on the grid with the clamped
      u2 - u1; Pi is the grid potential that the Lyapunov energy reports;
    - energy_identity_short_run: the largest per-step energy-identity
      residual of 25 steps of the stepper from mixed data over the initial
      Lyapunov energy, against SchemeConfig.identity_bound().

    Returns a list of (name, passed, value) triples.
    """
    from .nonlinearity import (CubicForce, NonlinearitySpec,
                               discrete_gradient_force, potential)
    from .stepper import _gradient_form, _mean_coefficient

    domain, stepper = _setup(cfg)
    h2, dot = stepper.h2, stepper.dot_u
    m = domain.n - 1
    rng = np.random.default_rng(cfg.seed)
    checks = []

    def norm(x):
        return math.sqrt(dot(x, x))

    bend = stepper._bend_hat
    sym, least = 0.0, math.inf
    for _ in range(20):
        a, b = rng.standard_normal((2, m, m))
        aa = -bend.accumulate(a, np.zeros((m, m)))
        bb = -bend.accumulate(b, np.zeros((m, m)))
        sym = max(sym, abs(dot(aa, b) - dot(a, bb)) / (norm(aa) * norm(b)))
        least = min(least, dot(aa, a) / dot(a, a))
    checks.append(("bending_symmetry", sym < 1e-12, sym))
    checks.append(("bending_positivity", least > 0.0, least))

    thermal = stepper._thermal
    worst = 0.0
    for _ in range(20):
        y = thermal.project(rng.standard_normal((domain.n + 1,) * 2))
        p_hat = rng.standard_normal((m, m))
        couple = thermal.couple_hat(y)
        c2 = float(np.vdot(thermal.heat_source_hat(p_hat),
                           thermal.solve_projected(y)))
        # both sides vanish when mu = 0
        worst = max(worst, abs(dot(couple, p_hat) - c2)
                    / (norm(couple) * norm(p_hat) or 1.0))
    checks.append(("coupling_cancellation", worst < 1e-12, worst))

    sine, lam = stepper._sine, stepper._lam

    def increment_error(spec):
        """The relative increment error of spec's force between two random
        displacements, for Berger in the coefficient form a step uses."""
        if spec.variant == "berger":
            a, b = rng.standard_normal((2, m, m))
            m_bar = _mean_coefficient(spec, _gradient_form(h2, lam, a),
                                      _gradient_form(h2, lam, b))
            u1, u2 = np.pad(sine.expand(a), 1), np.pad(sine.expand(b), 1)
            g_du = dot(-0.5 * m_bar * lam * (a + b), b - a)
        else:
            u1, u2 = rng.standard_normal((2, domain.n + 1, domain.n + 1))
            u1[domain.gamma1] = u2[domain.gamma1] = 0.0
            g_du = dot(discrete_gradient_force(domain, u1, u2, spec),
                       u2 - u1)
        pi1, pi2 = potential(domain, u1, spec), potential(domain, u2, spec)
        return abs(g_du + pi2 - pi1) / (abs(pi1) + abs(pi2) + 1.0)

    forces = (cfg.spec,)
    if cfg.spec.is_linear():
        forces = (NonlinearitySpec.berger(1.0, 1.0),
                  NonlinearitySpec.scalar(CubicForce(1.0, 0.5),
                                          CubicForce(2.0, -1.0)))
    worst = max(increment_error(spec) for spec in forces for _ in range(50))
    checks.append(("discrete_gradient_identity", worst < 1e-12, worst))

    s0 = initial_state(domain, "mixed", 1.0, cfg.seed)
    traj = simulate(stepper, s0, 25)
    res = traj.step_series["residual"]
    l0 = abs(traj.step_series["lyapunov"][0]) + 1e-300
    rel = float(np.max(np.abs(res))) / l0
    checks.append(("energy_identity_short_run",
                   rel <= cfg.scheme.identity_bound(), rel))
    return checks


def run_verify(cfg: RunConfig):
    checks = verify_suite(cfg)
    summary = {"experiment": "verify",
               "passed": all(ok for _, ok, _ in checks)}
    rows = [(name, "pass" if ok else "fail", val) for name, ok, val in checks]
    for name, status, _ in rows:
        summary[name] = status
    paths = _write_report(cfg, ("check", "status", "value"), rows, summary)
    return {"summary": summary, "checks": checks, "paths": paths}


RUNNERS = {
    "simulate": run_simulate,
    "decay": run_decay,
    "difference": run_difference,
    "probe": run_probe,
    "stationary": run_stationary,
    "verify": run_verify,
}


def run_experiment(cfg: RunConfig):
    return RUNNERS[cfg.experiment](cfg)
