"""Scripted experiments: single runs, decay studies, two-trajectory
difference runs, parameter probes and the built-in verification suite.

Every experiment writes a CSV of observable rows plus a flat text summary;
filenames derive from the config hash, and outputs are deterministic
functions of the config: identical hash, identical bytes.
"""

import dataclasses
import os

import numpy as np

from .config import RunConfig
from .diagnostics import (ObservableRow, difference_observables,
                          dissipation, energy, observable_row)
from .domain import build_cutoffs, build_domain, check_hypotheses
from .errors import ConfigurationError
from .fields import make_state
from .stepper import PlateStepper, simulate, stationary_solve


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
    bump = np.sin(np.pi * X) ** 2 * np.sin(np.pi * Y) ** 2
    if kind == "bump":
        return make_state(domain, u=amplitude * bump)
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
        rng = np.random.default_rng(seed)
        u = np.zeros_like(X)
        ut = np.zeros_like(X)
        th = np.zeros_like(X)
        for kx in range(1, 4):
            for ky in range(1, 4):
                mode = np.sin(np.pi * kx * X) ** 2 * np.sin(np.pi * ky * Y) ** 2
                u += rng.normal() * mode
                ut += rng.normal() * mode
                th += rng.normal() * np.sin(np.pi * kx * X) * np.sin(np.pi * ky * Y)
        th[~domain.theta_free] = 0.0
        return make_state(domain, u=amplitude * u, ut=amplitude * ut,
                          theta=amplitude * th)
    raise ConfigurationError(f"unknown initial data kind {kind!r}")


def _write_report(cfg, rows_header, rows, summary):
    """CSV (metadata comments + header + rows) and flat text summary, named
    after summary["experiment"] and the config hash."""
    path_base = os.path.join(resolve_out_dir(cfg),
                             f"{summary['experiment']}-{cfg.hash()}")
    csv_path = path_base + ".csv"
    with open(csv_path, "w") as f:
        f.write(f"# config_hash={cfg.hash()}\n")
        for k in sorted(cfg.values):
            mark = " (default)" if k in cfg.defaulted else ""
            f.write(f"# {k}={cfg.values[k]}{mark}\n")
        f.write(rows_header + "\n")
        for row in rows:
            f.write(row + "\n")
    txt_path = path_base + ".txt"
    with open(txt_path, "w") as f:
        f.write(f"config_hash={cfg.hash()}\n")
        for k, v in summary.items():
            if isinstance(v, float):
                f.write(f"{k}={v:.17g}\n")
            else:
                f.write(f"{k}={v}\n")
    return csv_path, txt_path


def _lyapunov_violations(traj, scheme):
    """Count steps where the Lyapunov energy increased beyond the per-step
    residual bound of the scheme."""
    lyap = traj.step_series["lyapunov"]
    bound = 10.0 * (scheme.tol_inner + scheme.tol_picard)
    return int(np.sum(
        lyap[1:] - lyap[:-1] > bound * np.maximum(np.abs(lyap[:-1]), 1e-300)
    ))


def _setup(cfg: RunConfig):
    domain = build_domain(cfg.domain_config)
    stepper = PlateStepper(domain, cfg.params, cfg.spec, cfg.scheme)
    cutoffs = None
    if cfg.multipliers_enabled():
        cutoffs = build_cutoffs(domain, cfg.cutoff_delta)
    return domain, stepper, cutoffs


def _sampled_run(cfg: RunConfig):
    """Simulate the configured initial data and evaluate the observable rows
    at the sampled times, with the cumulative identity residual carried
    along from the per-step series. Returns (domain, trajectory, CSV lines).
    """
    domain, stepper, cutoffs = _setup(cfg)
    s0 = initial_state(domain, cfg.initial, cfg.amplitude, cfg.seed)
    traj = simulate(stepper, s0, cfg.n_steps(stepper.dt), stride=cfg.stride)
    res_cum = np.concatenate(([0.0], np.cumsum(traj.step_series["residual"])))
    rows = []
    for t, state in zip(traj.times, traj.states):
        k = int(round(t / stepper.dt))
        rows.append(observable_row(
            domain, state, cfg.params, cfg.spec, t,
            cutoffs=cutoffs, eta=cfg.eta, calib_c=cfg.calib_c,
            residual_cum=res_cum[k],
        ).to_csv_line())
    return domain, traj, rows


def _energy_decay(traj):
    """Final-to-initial Lyapunov ratio, and the first step time at which the
    Lyapunov energy is at most half its initial value ("none" if never)."""
    lyap = traj.step_series["lyapunov"]
    l0 = lyap[0]
    t_half = "none"
    if l0 > 0:
        below = np.nonzero(lyap <= 0.5 * l0)[0]
        if below.size:
            t_half = below[0] * traj.meta["dt"]
    return (lyap[-1] / l0 if l0 != 0 else 0.0), t_half


def run_simulate(cfg: RunConfig):
    """Plain simulation with full observable logging."""
    _, traj, rows = _sampled_run(cfg)
    lyap = traj.step_series["lyapunov"]
    res = traj.step_series["residual"]
    summary = {
        "experiment": "simulate",
        "n_steps": len(res),
        "dt": traj.meta["dt"],
        "lyapunov_initial": lyap[0],
        "lyapunov_final": lyap[-1],
        "energy_ratio": _energy_decay(traj)[0],
        "residual_cum": float(np.sum(res)),
        "residual_max": float(np.max(np.abs(res))) if len(res) else 0.0,
        "lyapunov_violations": _lyapunov_violations(traj, cfg.scheme),
    }
    paths = _write_report(cfg, ObservableRow.csv_header(), rows, summary)
    return {"summary": summary, "trajectory": traj, "paths": paths}


def run_decay(cfg: RunConfig):
    """Decay study: simulate until the Lyapunov energy flattens (or T_max),
    then measure the distance to a stationary root."""
    domain, traj, rows = _sampled_run(cfg)
    lyap = traj.step_series["lyapunov"]
    n_steps = len(lyap) - 1
    # flatness over the trailing 10% window
    win = max(1, n_steps // 10)
    flat = bool(abs(lyap[-1] - lyap[-1 - win])
                <= 1e-6 * max(abs(lyap[0]), 1e-300))
    ratio, t_half = _energy_decay(traj)

    final = traj.states[-1]
    root = stationary_solve(domain, cfg.params, cfg.spec,
                            final.u.values.copy())
    h2 = domain.h * domain.h
    dist = float(np.sqrt(h2 * np.sum((final.u.values - root) ** 2)))

    summary = {
        "experiment": "decay",
        "n_steps": n_steps,
        "dt": traj.meta["dt"],
        "energy_ratio": ratio,
        "time_to_half_energy": t_half,
        "flattened": flat,
        "no_decay_detected": not flat,
        "distance_to_stationary": dist,
        "lyapunov_violations": _lyapunov_violations(traj, cfg.scheme),
    }
    paths = _write_report(cfg, ObservableRow.csv_header(), rows, summary)
    return {"summary": summary, "trajectory": traj, "paths": paths}


DIFFERENCE_COLUMNS = ("t", "e_d", "l2_low", "negnorm", "thermal_grad",
                      "balance_cum")


def run_difference(cfg: RunConfig):
    """Co-simulate two nearby trajectories; track the energy of their
    difference, its lower-order norms, the per-step difference-system
    balance, and fit a decay envelope."""
    domain, stepper, _ = _setup(cfg)
    s1 = initial_state(domain, cfg.initial, cfg.amplitude, cfg.seed)
    s2 = initial_state(domain, cfg.initial,
                       cfg.amplitude * (1.0 + cfg.perturbation), cfg.seed)
    dt = stepper.dt
    n_steps = cfg.n_steps(dt)
    h2 = domain.h * domain.h
    params, spec = cfg.params, cfg.spec

    def e_d(a, b):
        d = a - b
        return energy(domain, d, params, spec.linear()).e

    rows = []
    e_series = np.empty(n_steps + 1)
    e_series[0] = e_d(s1, s2)
    balance = np.empty(n_steps)
    obs0 = difference_observables(domain, s1, s2, params)
    rows.append((0.0, obs0, 0.0))

    for k in range(n_steps):
        s1_new, st1 = stepper.step(s1, t=k * dt)
        s2_new, st2 = stepper.step(s2, t=k * dt)
        e_new = e_d(s1_new, s2_new)
        th_bar_d = 0.5 * ((s1.theta.values + s1_new.theta.values)
                          - (s2.theta.values + s2_new.theta.values))
        p_bar_d = 0.5 * ((s1.ut.values + s1_new.ut.values)
                         - (s2.ut.values + s2_new.ut.values))
        g = st1.force - st2.force
        d_mid = dissipation(domain, th_bar_d, params)
        work = h2 * float(np.sum(g * p_bar_d))
        balance[k] = e_new - e_series[k] + dt * d_mid - dt * work
        s1, s2 = s1_new, s2_new
        e_series[k + 1] = e_new
        if (k + 1) % cfg.stride == 0 or k + 1 == n_steps:
            t = (k + 1) * dt
            obs = difference_observables(domain, s1, s2, params)
            rows.append((t, obs, float(np.sum(balance[:k + 1]))))

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

    e0 = e_series[0]
    summary = {
        "experiment": "difference",
        "n_steps": n_steps,
        "dt": dt,
        "e_d_initial": e0,
        "e_d_final": e_series[-1],
        "contraction": bool(e_series[-1] < e0) if e0 > 0 else True,
        "balance_cum": float(np.sum(balance)),
        "balance_cum_rel": float(abs(np.sum(balance)) / e0) if e0 > 0 else 0.0,
        **fit,
    }
    csv_rows = [
        ",".join(format(v, ".17g") for v in
                 (t, obs["e_d"], obs["l2_low"], obs["negnorm"],
                  obs["thermal_grad"], bal))
        for t, obs, bal in rows
    ]
    paths = _write_report(cfg, ",".join(DIFFERENCE_COLUMNS), csv_rows,
                          summary)
    return {"summary": summary, "balance": balance, "e_series": e_series,
            "paths": paths}


PROBE_COLUMNS = ("value", "energy_ratio", "time_to_half", "dissipation_min",
                 "lyapunov_violations", "hypotheses_ok")


def run_probe(cfg: RunConfig):
    """Sweep one physical parameter and report decay metrics side by side;
    observational only, nothing asserted."""
    domain = build_domain(cfg.domain_config)
    s0 = initial_state(domain, cfg.initial, cfg.amplitude, cfg.seed)
    results = []
    for value in cfg.probe_values:
        params = dataclasses.replace(cfg.params,
                                     **{cfg.probe_parameter: value})
        stepper = PlateStepper(domain, params, cfg.spec, cfg.scheme)
        traj = simulate(stepper, s0, cfg.n_steps(stepper.dt),
                        stride=cfg.stride)
        ratio, t_half = _energy_decay(traj)
        diss = traj.step_series["dissipation_mid"]
        report = check_hypotheses(domain, params)
        results.append({
            "value": value,
            "energy_ratio": ratio,
            "time_to_half": t_half,
            "dissipation_min": float(np.min(diss)) if len(diss) else 0.0,
            "lyapunov_violations": _lyapunov_violations(traj, cfg.scheme),
            "hypotheses_ok": report.star_ok and report.params_ok,
        })

    csv_rows = []
    for r in results:
        vals = []
        for c in PROBE_COLUMNS:
            v = r[c]
            vals.append(format(v, ".17g") if isinstance(v, float) else str(v))
        csv_rows.append(",".join(vals))
    summary = {
        "experiment": "probe",
        "parameter": cfg.probe_parameter,
        "n_values": len(results),
    }
    for i, r in enumerate(results):
        summary[f"value_{i}"] = r["value"]
        summary[f"energy_ratio_{i}"] = r["energy_ratio"]
    paths = _write_report(cfg, ",".join(PROBE_COLUMNS), csv_rows, summary)
    return {"summary": summary, "results": results, "paths": paths}


def run_stationary(cfg: RunConfig):
    """Solve the stationary problem from the configured initial shape."""
    domain = build_domain(cfg.domain_config)
    guess = initial_state(domain, cfg.initial, cfg.amplitude, cfg.seed)
    root = stationary_solve(domain, cfg.params, cfg.spec,
                            guess.u.values.copy())
    h2 = domain.h * domain.h
    summary = {
        "experiment": "stationary",
        "root_max": float(np.max(np.abs(root))),
        "root_l2": float(np.sqrt(h2 * np.sum(root * root))),
        "nonzero": bool(np.max(np.abs(root)) > 1e-8),
    }
    rows = []
    for i in range(domain.n + 1):
        for j in range(domain.n + 1):
            rows.append(
                f"{domain.x[i]:.17g},{domain.x[j]:.17g},{root[i, j]:.17g}"
            )
    paths = _write_report(cfg, "x,y,u", rows, summary)
    return {"summary": summary, "root": root, "paths": paths}


def verify_suite(cfg: RunConfig):
    """Built-in invariant battery: operator symmetry, coupling cancellation,
    discrete-gradient exactness and the short-run energy identity.

    Returns a list of (name, passed, value) triples.
    """
    from .fields import inner_l2
    from .nonlinearity import (CubicForce, NonlinearitySpec,
                               discrete_gradient_force, potential)
    from .operators import (biharmonic_transmission, coupling_to_heat,
                            coupling_to_plate)

    domain = build_domain(cfg.domain_config)
    params = cfg.params
    h2 = domain.h * domain.h
    rng = np.random.default_rng(cfg.seed)
    checks = []

    def rand_clamped():
        v = rng.standard_normal((domain.n + 1, domain.n + 1))
        v[domain.gamma1] = 0.0
        return v

    sym = pos = 0.0
    for _ in range(20):
        a, b = rand_clamped(), rand_clamped()
        aa = h2 * np.sum(biharmonic_transmission(domain, a, params) * b)
        bb = h2 * np.sum(a * biharmonic_transmission(domain, b, params))
        qa = h2 * np.sum(biharmonic_transmission(domain, a, params) * a)
        sym = max(sym, abs(aa - bb) / (abs(aa) + 1e-300))
        pos = min(pos, qa)
    checks.append(("bending_symmetry", sym < 1e-12, sym))
    checks.append(("bending_positivity", pos >= 0.0, pos))

    worst = 0.0
    for _ in range(20):
        th = rng.standard_normal((domain.n + 1, domain.n + 1))
        th[~domain.theta_free] = 0.0
        ut = rand_clamped()
        c1 = h2 * np.sum(coupling_to_plate(domain, th, params) * ut)
        c2 = np.sum(domain.w1 * coupling_to_heat(domain, ut, params) * th)
        worst = max(worst, abs(c1 - c2) / (abs(c1) + 1e-300))
    checks.append(("coupling_cancellation", worst < 1e-12, worst))

    worst = 0.0
    for variant in (NonlinearitySpec.berger(1.0, 1.0),
                    NonlinearitySpec.scalar(CubicForce(1.0, 0.5),
                                            CubicForce(2.0, -1.0))):
        for _ in range(50):
            u1, u2 = rand_clamped(), rand_clamped()
            g = discrete_gradient_force(domain, u1, u2, variant, params)
            lhs = inner_l2(domain, g, u2 - u1)
            dpi = (potential(domain, make_state(domain, u=u2), variant)
                   - potential(domain, make_state(domain, u=u1), variant))
            worst = max(worst, abs(lhs + dpi) / (abs(dpi) + 1.0))
    checks.append(("discrete_gradient_identity", worst < 1e-12, worst))

    stepper = PlateStepper(domain, params, cfg.spec, cfg.scheme)
    s0 = initial_state(domain, "mixed", 1.0, cfg.seed)
    traj = simulate(stepper, s0, 25)
    res = traj.step_series["residual"]
    l0 = abs(traj.step_series["lyapunov"][0]) + 1e-300
    rel = float(np.max(np.abs(res))) / l0
    bound = 10.0 * (cfg.scheme.tol_inner + cfg.scheme.tol_picard)
    checks.append(("energy_identity_short_run", rel <= bound, rel))
    return checks


def run_verify(cfg: RunConfig):
    checks = verify_suite(cfg)
    summary = {"experiment": "verify",
               "passed": all(ok for _, ok, _ in checks)}
    rows = [f"{name},{'pass' if ok else 'fail'},{val:.17g}"
            for name, ok, val in checks]
    for name, ok, val in checks:
        summary[name] = "pass" if ok else "fail"
    paths = _write_report(cfg, "check,status,value", rows, summary)
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
