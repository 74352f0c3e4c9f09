"""Acceptance suite: every numbered criterion prints one pass/fail line.

The expensive reference runs (n=64, 2000 steps) are shared module fixtures;
everything asserted here is either an exact discrete identity, an
independent oracle, or a stability property of the diagnostics.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from grid_reference import (coupling_to_heat, coupling_to_plate,
                            discrete_gradient_force)
from platetx.config import parse_config
from platetx.diagnostics import energy, multiplier_functionals
from platetx.domain import DomainConfig, build_cutoffs, build_domain
from platetx.experiments import run_experiment
from platetx.fields import PhysParams, inner_l2, make_state
from platetx.nonlinearity import CubicForce, NonlinearitySpec, force, potential
from platetx.operators import (biharmonic_transmission, dirichlet_inverse,
                               laplacian_clamped)
from platetx.stepper import PlateStepper, SchemeConfig, simulate

PARAMS = PhysParams()
SCHEME = SchemeConfig()  # dt = h/4, tol_inner 1e-12, tol_picard 1e-11
PER_STEP_BOUND = 10.0 * (SCHEME.tol_inner + SCHEME.tol_picard)


def report(capsys, num, desc, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} "
              f"({detail})")
    assert ok, f"criterion {num}: {desc} ({detail})"


def reference_initial(domain, heat=0.3):
    u = np.sin(np.pi * domain.X) ** 2 * np.sin(np.pi * domain.Y) ** 2
    th = heat * np.sin(2 * np.pi * domain.X) * np.sin(2 * np.pi * domain.Y)
    th[~domain.theta_free] = 0.0
    return make_state(domain, u=u, ut=0.2 * u, theta=th)


def _run(n, spec, n_steps, params=PARAMS, stride=20, heat=0.3, sinks=()):
    domain = build_domain(DomainConfig(n_cells=n))
    stepper = PlateStepper(domain, params, spec, SCHEME)
    t0 = time.perf_counter()
    traj = simulate(stepper, reference_initial(domain, heat=heat), n_steps,
                    stride=stride, sinks=sinks)
    elapsed = time.perf_counter() - t0
    return domain, traj, elapsed


def _collect(states):
    """A simulate sink that keeps the sampled states in `states`."""
    return lambda k, t, state, residual_cum: states.append(state)


@pytest.fixture(scope="module")
def linear_states64():
    """The sampled states of linear_run64, which criterion 9 reads."""
    return []


@pytest.fixture(scope="module")
def linear_run64(linear_states64):
    return _run(64, NonlinearitySpec.linear(), 2000,
                sinks=[_collect(linear_states64)])


@pytest.fixture(scope="module")
def berger_run64():
    return _run(64, NonlinearitySpec.berger(tension=1.0, stretch=1.0), 2000)


@pytest.fixture(scope="module")
def scalar_run64():
    spec = NonlinearitySpec.scalar(CubicForce(kappa=1.0), CubicForce(kappa=1.0))
    return _run(64, spec, 2000)


def _cumulative_residual(traj):
    res = traj.step_series["residual"]
    return abs(float(np.sum(res)))


def test_criterion_1_linear_energy_equality(linear_run64, capsys):
    _, traj, elapsed = linear_run64
    e0 = traj.step_series["lyapunov"][0]
    rel = _cumulative_residual(traj) / e0
    ok = rel <= 1e-8 and elapsed < 120.0
    report(capsys, 1, "linear energy equality, n=64, 2000 steps", ok,
           f"cumulative residual {rel:.2e} rel, {elapsed:.0f}s")


def test_criterion_2_nonlinear_energy_equality(berger_run64, scalar_run64,
                                               capsys):
    details = []
    ok = True
    for name, run in (("berger", berger_run64), ("scalar", scalar_run64)):
        _, traj, _ = run
        rel = _cumulative_residual(traj) / traj.step_series["lyapunov"][0]
        ok = ok and rel <= 1e-7
        details.append(f"{name} {rel:.2e}")
    report(capsys, 2, "discrete-gradient energy equality, 2000 steps", ok,
           ", ".join(details))


def test_criterion_3_lyapunov_monotone(linear_run64, berger_run64,
                                       scalar_run64, capsys):
    worst = -np.inf
    for _, traj, _ in (linear_run64, berger_run64, scalar_run64):
        lyap = traj.step_series["lyapunov"]
        rises = (lyap[1:] - lyap[:-1]) / np.maximum(lyap[:-1], 1e-300)
        worst = max(worst, float(np.max(rises)))
    ok = worst <= PER_STEP_BOUND
    report(capsys, 3, "lyapunov non-increasing up to residual bound", ok,
           f"worst rise {worst:.2e} vs bound {PER_STEP_BOUND:.2e}")


def test_criterion_4_isothermal_conservation(capsys):
    params = PhysParams(mu=0.0)
    _, traj, _ = _run(32, NonlinearitySpec.linear(), 1000, params=params,
                      heat=0.0)
    e = traj.step_series["energy"]
    drift = float(np.max(np.abs(e - e[0]))) / e[0]
    ok = drift <= 1e-9
    report(capsys, 4, "mu=0 conserves quadratic energy, 1000 steps", ok,
           f"max drift {drift:.2e} rel")


def test_criterion_5_operator_correctness(capsys):
    def lap_exact(X, Y):
        return 2 * np.pi**2 * (np.cos(2 * np.pi * X) * np.sin(np.pi * Y) ** 2
                               + np.sin(np.pi * X) ** 2 * np.cos(2 * np.pi * Y))

    def bih_exact(X, Y):
        s2x, s2y = np.sin(np.pi * X) ** 2, np.sin(np.pi * Y) ** 2
        return np.pi**4 * (64 * s2x * s2y - 24 * s2x - 24 * s2y + 8)

    errs_l, errs_b = [], []
    for n in (32, 64, 128):
        dom = build_domain(DomainConfig(n_cells=n))
        f = np.sin(np.pi * dom.X) ** 2 * np.sin(np.pi * dom.Y) ** 2
        errs_l.append(np.max(np.abs(laplacian_clamped(dom, f)
                                    - lap_exact(dom.X, dom.Y))))
        a = biharmonic_transmission(dom, f, PARAMS)
        ex = bih_exact(dom.X, dom.Y)
        ex[dom.gamma1] = 0.0
        errs_b.append(np.max(np.abs(a - ex)))
    orders = [np.log2(errs_l[i] / errs_l[i + 1]) for i in range(2)]
    orders += [np.log2(errs_b[i] / errs_b[i + 1]) for i in range(2)]
    ok = all(1.7 <= o <= 2.3 for o in orders)

    dom = build_domain(DomainConfig(n_cells=16))
    rng = np.random.default_rng(5)
    h2 = dom.h**2
    sym = 0.0
    cancel = 0.0
    for _ in range(100):
        a = rng.standard_normal((17, 17))
        b = rng.standard_normal((17, 17))
        a[dom.gamma1] = b[dom.gamma1] = 0.0
        ab = h2 * np.sum(biharmonic_transmission(dom, a, PARAMS) * b)
        ba = h2 * np.sum(a * biharmonic_transmission(dom, b, PARAMS))
        sym = max(sym, abs(ab - ba) / max(abs(ab), 1e-300))
        quad = h2 * np.sum(biharmonic_transmission(dom, a, PARAMS) * a)
        ok = ok and quad > 0.0
        th = rng.standard_normal((17, 17))
        th[~dom.theta_free] = 0.0
        c1 = h2 * np.sum(coupling_to_plate(dom, th, PARAMS) * a)
        c2 = np.sum(dom.w1 * coupling_to_heat(dom, a, PARAMS) * th)
        cancel = max(cancel, abs(c1 - c2) / max(abs(c1), 1e-300))
    ok = ok and sym <= 1e-12 and cancel <= 1e-12
    report(capsys, 5, "operator orders, symmetry, coupling cancellation", ok,
           f"orders {', '.join(f'{o:.2f}' for o in orders)}, sym {sym:.1e}, "
           f"cancel {cancel:.1e}")


def test_criterion_6_dirichlet_eigenvalue(capsys):
    dom = build_domain(DomainConfig(n_cells=32))
    rng = np.random.default_rng(7)
    v = rng.standard_normal((33, 33))
    v[dom.gamma1] = 0.0
    for _ in range(60):
        w = -dirichlet_inverse(dom, v)
        v = w / np.sqrt(np.sum(w * w))
    lam_min = 1.0 / np.sum(v * -dirichlet_inverse(dom, v))
    exact = (8.0 / dom.h**2) * np.sin(np.pi * dom.h / 2) ** 2
    rel = abs(lam_min - exact) / exact
    ok = rel <= 1e-8
    report(capsys, 6, "smallest Dirichlet eigenvalue vs sine formula", ok,
           f"{lam_min:.10g} vs {exact:.10g}, rel {rel:.1e}")


def test_criterion_7_discrete_gradient_exactness(capsys):
    dom = build_domain(DomainConfig(n_cells=8))
    rng = np.random.default_rng(11)
    worst = 0.0
    for spec in (NonlinearitySpec.berger(tension=-2.0, stretch=1.5),
                 NonlinearitySpec.scalar(CubicForce(1.0, 0.5),
                                         CubicForce(2.0, -1.0))):
        for _ in range(1000):
            u1 = rng.standard_normal((9, 9))
            u2 = rng.standard_normal((9, 9))
            u1[dom.gamma1] = u2[dom.gamma1] = 0.0
            g = discrete_gradient_force(dom, u1, u2, spec)
            lhs = inner_l2(dom, g, u2 - u1)
            dpi = potential(dom, u2, spec) - potential(dom, u1, spec)
            worst = max(worst, abs(lhs + dpi) / (abs(dpi) + 1.0))
    ok = worst <= 1e-12
    report(capsys, 7, "increment identity <G,du> = -dPi, 1000 pairs each",
           ok, f"worst {worst:.1e} rel")


def potential_lower_bound(domain, spec):
    """Closed-form lower bound for Pi over all states."""
    if spec.variant == "berger":
        if spec.tension >= 0:
            return 0.0
        return -spec.tension**2 / (4.0 * spec.stretch)
    bound = 0.0
    areas = (float(np.sum(domain.w1)), float(np.sum(domain.w2)))
    for f, area in zip((spec.f1, spec.f2), areas):
        if f.c < 0 and f.kappa > 0:
            # min of kappa s^4/4 + c s^2/2 is -c^2/(4 kappa)
            bound += -(f.c**2) / (4.0 * f.kappa) * area
    return bound


def test_criterion_8_potential_contract(capsys):
    dom = build_domain(DomainConfig(n_cells=8))
    rng = np.random.default_rng(13)
    specs = (NonlinearitySpec.berger(tension=-3.0, stretch=2.0),
             NonlinearitySpec.scalar(CubicForce(1.0, -4.0),
                                     CubicForce(2.0, -2.0)))
    # Richardson: central difference of Pi along a direction converges to
    # <force, v> at second order, so halving eps quarters the error
    ratios = []
    for spec in specs:
        for _ in range(20):
            u = rng.standard_normal((9, 9))
            v = rng.standard_normal((9, 9))
            u[dom.gamma1] = v[dom.gamma1] = 0.0
            pair = inner_l2(dom, force(dom, u, spec), v)
            errs = []
            for eps in (1e-3, 5e-4):
                num = (potential(dom, u + eps * v, spec)
                       - potential(dom, u - eps * v, spec))
                errs.append(abs(num / (2 * eps) - pair))
            if errs[1] > 1e-9:
                ratios.append(errs[0] / errs[1])
    second_order = bool(ratios) and abs(np.median(ratios) - 4.0) < 0.5

    bound_ok = True
    for spec in specs:
        bound = potential_lower_bound(dom, spec)
        for _ in range(1000):
            u = 3.0 * rng.standard_normal((9, 9))
            u[dom.gamma1] = 0.0
            bound_ok = bound_ok and potential(dom, u, spec) >= bound
    ok = second_order and bound_ok
    report(capsys, 8, "potential derivative pairing and lower bounds", ok,
           f"median Richardson ratio {np.median(ratios):.2f}, "
           f"bounds {'held' if bound_ok else 'violated'}")


def _running_max_ratio(domain, states):
    cut = build_cutoffs(domain)
    spec = NonlinearitySpec.linear()
    run_max = 0.0
    for state in states:
        eb = energy(domain, state, PARAMS, spec)
        if eb.e <= 0:
            continue
        *_, r = multiplier_functionals(domain, state, cut, PARAMS)
        run_max = max(run_max, abs(r) / eb.e)
    return run_max


def test_criterion_9_multiplier_ratio_stable(linear_run64, linear_states64,
                                             capsys):
    dom64, traj64, _ = linear_run64
    t_end = len(traj64.step_series["residual"]) * traj64.dt
    dom32 = build_domain(DomainConfig(n_cells=32))
    stepper = PlateStepper(dom32, PARAMS, NonlinearitySpec.linear(), SCHEME)
    n_steps = int(round(t_end / stepper.dt))
    states32 = []
    simulate(stepper, reference_initial(dom32), n_steps, stride=10,
             sinks=[_collect(states32)])
    c32 = _running_max_ratio(dom32, states32)
    c64 = _running_max_ratio(dom64, linear_states64)
    ratio = max(c64 / c32, c32 / c64)
    ok = np.isfinite(ratio) and ratio < 2.0
    report(capsys, 9, "|R|/E running max stable under refinement", ok,
           f"C0(n=32) {c32:.3g}, C0(n=64) {c64:.3g}, ratio {ratio:.2f}")


def test_criterion_10_difference_balance(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PLATETX_OUT", str(tmp_path))
    cfg = parse_config(
        "domain.n_cells=32\nrun.t_max=7.8125\nrun.stride=50\n"
        "nonlinearity.variant=berger\nnonlinearity.tension=1.0\n"
        "difference.perturbation=0.5\nrun.experiment=difference\n"
    )
    out = run_experiment(cfg)
    dom = build_domain(cfg.domain_config)
    n_steps = cfg.n_steps(SCHEME.resolve_dt(dom.h))
    e0 = out["summary"]["e_d_initial"]
    rel = abs(out["summary"]["balance_cum"]) / e0
    ok = n_steps == 1000 and rel <= 1e-6
    report(capsys, 10, "difference-system balance over 1000 steps", ok,
           f"cumulative {rel:.2e} rel, {n_steps} steps")


def test_criterion_11_decay_reported(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PLATETX_OUT", str(tmp_path))
    cfg = parse_config(
        "domain.n_cells=64\nrun.experiment=decay\n"
        "nonlinearity.variant=berger\nnonlinearity.tension=1.0\n"
    )
    out = run_experiment(cfg)
    s = out["summary"]
    traj = out["trajectory"]
    lyap = traj.step_series["lyapunov"]
    rises = (lyap[1:] - lyap[:-1]) / np.maximum(lyap[:-1], 1e-300)
    ok = float(np.max(rises)) <= PER_STEP_BOUND  # the only hard assertion
    halved = s["energy_ratio"] < 0.5
    report(capsys, 11, "decay run: monotone lyapunov; rate is data", ok,
           f"E(T)/E(0) = {s['energy_ratio']:.3g} "
           f"({'halved' if halved else 'not halved'} within T_max), "
           f"t_half = {s['time_to_half_energy']}")


def test_criterion_12_determinism(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PLATETX_OUT", str(tmp_path))
    text = ("domain.n_cells=16\nrun.t_max=0.5\nrun.stride=4\n"
            "nonlinearity.variant=berger\nrun.initial=mixed\nrun.seed=9\n")
    first = run_experiment(parse_config(text))
    bytes1 = Path(first["paths"][0]).read_bytes()
    second = run_experiment(parse_config(text))
    bytes2 = Path(second["paths"][0]).read_bytes()
    ok = bytes1 == bytes2 and len(bytes1) > 0
    report(capsys, 12, "identical config hash gives byte-identical CSV", ok,
           f"{len(bytes1)} bytes compared")
