import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import random_clamped, random_theta
import grid_reference
from grid_reference import (central_gradient, coupling_to_plate,
                            energy_identity_residual, thermal_laplacian)
from platetx import diagnostics, operators
from platetx.config import parse_config
from platetx.diagnostics import (EnergyBreakdown, ObservableRow,
                                 difference_observables, dissipation, energy,
                                 multiplier_functionals, negnorm,
                                 observable_row)
from platetx.domain import (DomainConfig, build_cutoffs, build_domain,
                            quintic_smoothstep)
from platetx.errors import ConfigurationError, SolverError
from platetx.experiments import _write_report
from platetx.fields import PhysParams, State, make_state
from platetx.nonlinearity import CubicForce, NonlinearitySpec, potential
from platetx.operators import (biharmonic_transmission, dirichlet_inverse,
                               frame_gradient_form, laplacian_clamped,
                               sine_basis)
from platetx.stepper import PlateStepper, SchemeConfig, simulate


def test_energy_zero_state(dom16, params):
    eb = energy(dom16, make_state(dom16), params, NonlinearitySpec.linear())
    assert eb.e == 0.0
    assert eb.lyapunov == 0.0


def test_energy_single_node_kick(dom16, params):
    ut = np.zeros((17, 17))
    ut[8, 8] = 1.0  # interior inner-plate node
    eb = energy(dom16, make_state(dom16, ut=ut), params,
                NonlinearitySpec.linear())
    assert eb.kinetic2 == pytest.approx(0.5 * params.rho2 * dom16.h**2)
    assert eb.kinetic1 == 0.0
    assert eb.bending1 == 0.0


def test_lyapunov_minus_e_is_potential(dom16, params, rng):
    spec = NonlinearitySpec.berger(tension=-1.0, stretch=2.0)
    for _ in range(100):
        s = make_state(dom16, u=random_clamped(dom16, rng),
                       ut=random_clamped(dom16, rng),
                       theta=random_theta(dom16, rng))
        eb = energy(dom16, s, params, spec)
        assert eb.lyapunov - eb.e == pytest.approx(
            potential(dom16, s.u, spec), rel=1e-12)
        assert eb.kinetic1 >= 0 and eb.bending1 >= 0 and eb.thermal >= 0


def test_dissipation_zero_theta(dom16, params):
    assert dissipation(dom16, np.zeros((17, 17)), params) == 0.0


def _dissipation_by_direct_summation(domain, th, par):
    """Independent oracle: loop over every grid edge and boundary node. A
    cell [i,i+1]x[j,j+1] belongs to the inner square iff it lies inside
    the box of nodes lo..hi."""
    n, lo, hi = domain.n, domain.lo_idx, domain.hi_idx
    cell_inner = np.zeros((n, n), dtype=bool)
    cell_inner[lo:hi, lo:hi] = True
    total = 0.0
    for i in range(n):
        for j in range(n + 1):
            frac = sum(
                0.5 for cj in (j - 1, j)
                if 0 <= cj < n and not cell_inner[i, cj]
            )
            total += frac * (th[i + 1, j] - th[i, j]) ** 2
    for i in range(n + 1):
        for j in range(n):
            frac = sum(
                0.5 for ci in (i - 1, i)
                if 0 <= ci < n and not cell_inner[ci, j]
            )
            total += frac * (th[i, j + 1] - th[i, j]) ** 2
    robin = par.lam * domain.h * float(np.sum(th[domain.gamma1] ** 2))
    return par.beta0 * (total + robin)


def test_dissipation_matches_direct_summation(dom16, rng):
    par = PhysParams(beta0=1.7, lam=0.6)
    th = random_theta(dom16, rng)
    assert dissipation(dom16, th, par) == pytest.approx(
        _dissipation_by_direct_summation(dom16, th, par), rel=1e-12
    )


def _thermal_grad(domain, th, par):
    """The thermal_grad column of the observable row of temperature th."""
    zero = np.zeros_like(th)
    return observable_row(domain, State(zero, zero, th), par,
                          NonlinearitySpec.linear(), 0.0).thermal_grad


def test_thermal_gradient_linear_profile_closed_form(dom16):
    # theta = x: every frame x-edge contributes h^2 per unit transverse
    # extent, integrating |grad theta|^2 = 1 over the frame area
    par = PhysParams(beta0=1.7, lam=0.0)
    assert _thermal_grad(dom16, dom16.X.copy(), par) == pytest.approx(
        1.7 * 0.75, rel=1e-12
    )


def test_dissipation_matches_thermal_form(dom16, params, rng):
    # the package's D, thermal_form, against the grid operator of the form
    for _ in range(50):
        th = random_theta(dom16, rng)
        d = dissipation(dom16, th, params)
        assert d >= 0.0
        ref = grid_reference.dissipation(dom16, th, params)
        assert abs(d - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_thermal_gradient_excludes_robin(dom16, rng):
    th = random_theta(dom16, rng)
    p0 = PhysParams(beta0=2.0, lam=0.0)
    p1 = PhysParams(beta0=2.0, lam=3.0)
    assert _thermal_grad(dom16, th, p0) == pytest.approx(
        _thermal_grad(dom16, th, p1)
    )
    assert dissipation(dom16, th, p1) > dissipation(dom16, th, p0)


def test_residual_zero_trajectory(dom16, params):
    states = [make_state(dom16) for _ in range(5)]
    per_step, cum = energy_identity_residual(dom16, states, 0.1, params,
                                             NonlinearitySpec.linear())
    assert np.all(per_step == 0.0)
    assert np.all(cum == 0.0)


def test_residual_small_for_midpoint_run(dom16, params):
    stepper = PlateStepper(dom16, params, scheme=SchemeConfig(tol_inner=1e-12))
    u0 = np.sin(np.pi * dom16.X) ** 2 * np.sin(np.pi * dom16.Y) ** 2
    th0 = random_theta(dom16, np.random.default_rng(3))
    s0 = make_state(dom16, u=u0, theta=th0)
    states = []
    traj = simulate(stepper, s0, n_steps=30,
                    sinks=[lambda k, t, s, r: states.append(s)])
    per_step, _ = energy_identity_residual(dom16, states, stepper.dt, params,
                                           NonlinearitySpec.linear())
    e0 = energy(dom16, states[0], params,
                NonlinearitySpec.linear()).lyapunov
    assert np.max(np.abs(per_step)) <= 1e-9 * e0
    # the recomputed residuals agree with the in-step record
    np.testing.assert_allclose(per_step, traj.step_series["residual"],
                               atol=1e-13 * e0)


def _euler_states(domain, params, s0, dt, n_steps):
    """Forward Euler import: deliberately not energy consistent."""
    states = [s0.copy()]
    s = s0
    density = (params.rho1 * domain.w1 + params.rho2 * domain.w2) / domain.h**2
    for _ in range(n_steps):
        u, ut, th = s.u, s.ut, s.theta
        acc = -(biharmonic_transmission(domain, u, params)
                + coupling_to_plate(domain, th, params))
        acc /= density.clip(1e-300)
        acc[domain.gamma1] = 0.0
        dth = (params.mu * laplacian_clamped(domain, ut)
               - params.beta0 * thermal_laplacian(domain, th, params))
        dth[~domain.theta_free] = 0.0
        s = make_state(domain, u=u + dt * ut, ut=ut + dt * acc,
                       theta=th + dt * dth / params.rho0)
        states.append(s)
    return states


def test_residual_flags_explicit_euler(dom16, params):
    spec = NonlinearitySpec.linear()
    u0 = np.sin(np.pi * dom16.X) ** 2 * np.sin(np.pi * dom16.Y) ** 2
    s0 = make_state(dom16, u=u0)
    maxres = {}
    for m in (1, 2):
        dt = 1e-5 / m
        states = _euler_states(dom16, params, s0, dt, 10 * m)
        per_step, _ = energy_identity_residual(dom16, states, dt, params,
                                               spec)
        maxres[m] = np.max(np.abs(per_step))
    # visible residual, shrinking with dt (second order per step)
    e0 = energy(dom16, s0, params, spec).lyapunov
    assert maxres[1] > 1e-7 * e0
    assert 2.0 <= maxres[1] / maxres[2] <= 8.0


def test_multipliers_zero_state(dom16, params):
    cut = build_cutoffs(dom16)
    vals = multiplier_functionals(dom16, make_state(dom16), cut, params)
    assert vals == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_multipliers_j1_vanishes_without_heat(dom16, params, rng):
    cut = build_cutoffs(dom16)
    s = make_state(dom16, u=random_clamped(dom16, rng),
                   ut=random_clamped(dom16, rng))
    j1, j2, j3, j4, r = multiplier_functionals(dom16, s, cut, params)
    assert j1 == 0.0
    assert any(v != 0.0 for v in (j2, j3, j4))


def test_multipliers_weight_guard(dom16, params):
    cut = build_cutoffs(dom16)
    with pytest.raises(ConfigurationError):
        multiplier_functionals(dom16, make_state(dom16), cut, params,
                               eta=10.0, calib_c=1.0)


def test_difference_observables_identical_states(dom16, params, rng):
    s = make_state(dom16, u=random_clamped(dom16, rng),
                   ut=random_clamped(dom16, rng),
                   theta=random_theta(dom16, rng))
    obs = difference_observables(dom16, s, s, params)
    assert all(v == 0.0 for v in obs.values())


def test_difference_observables_reduce_to_single(dom16, params, rng):
    s = make_state(dom16, u=random_clamped(dom16, rng),
                   ut=random_clamped(dom16, rng),
                   theta=random_theta(dom16, rng))
    obs = difference_observables(dom16, s, make_state(dom16), params)
    eb = energy(dom16, s, params, NonlinearitySpec.linear())
    assert obs["e_d"] == pytest.approx(eb.e)
    assert obs["negnorm"] == pytest.approx(negnorm(dom16, s, params))


def test_negnorm_bounded_by_energy(dom16, params, rng):
    # norm comparison constant is finite on a fixed grid
    ratios = []
    for _ in range(20):
        s = make_state(dom16, ut=random_clamped(dom16, rng))
        eb = energy(dom16, s, params, NonlinearitySpec.linear())
        ratios.append(negnorm(dom16, s, params) / eb.e)
    assert max(ratios) < 1e3


def test_observable_row_csv(dom16, params, tmp_path, monkeypatch):
    # experiments._write_report formats an observable row, passed as its
    # values in columns() order, as one CSV line under the header
    cols = ObservableRow.columns()
    assert cols[0] == "t"
    assert cols == sorted(set(cols), key=cols.index)  # no duplicates
    row = observable_row(dom16, make_state(dom16), params,
                         NonlinearitySpec.linear(), 0.25)
    monkeypatch.setenv("PLATETX_OUT", str(tmp_path))
    csv_path, _ = _write_report(parse_config(""), cols,
                                [[getattr(row, c) for c in cols]],
                                {"experiment": "simulate"})
    header, line = [l for l in Path(csv_path).read_text().splitlines()
                    if not l.startswith("#")]
    assert header.count(",") == len(cols) - 1
    assert line.split(",")[0] == "0.25"
    assert len(line.split(",")) == len(cols)


def test_observable_row_with_multipliers(dom16, params, rng):
    cut = build_cutoffs(dom16)
    s = make_state(dom16, u=random_clamped(dom16, rng),
                   ut=random_clamped(dom16, rng),
                   theta=random_theta(dom16, rng))
    row = observable_row(dom16, s, params, NonlinearitySpec.linear(), 1.0,
                         cutoffs=cut)
    assert row.r_over_e == pytest.approx(abs(row.r) / row.e)
    assert row.dissipation >= 0.0


def test_energy_breakdown_invariants():
    eb = EnergyBreakdown(kinetic1=1.0, bending2=2.0, potential=-0.5)
    assert eb.e == 3.0
    assert eb.lyapunov == 2.5


def _random_state(domain, rng):
    return make_state(domain, u=random_clamped(domain, rng),
                      ut=random_clamped(domain, rng),
                      theta=random_theta(domain, rng))


def _psi_and_m(dom, cut):
    """The J4 weight psi and the components of m = x - x0 from their
    definitions: psi is 1 within 4 delta of the inner box and 0 from 8 delta
    on."""
    d2 = dom.dist_to_inner_box()
    psi = 1.0 - quintic_smoothstep((d2 - 4.0 * cut.delta) / (4.0 * cut.delta))
    x0 = dom.config.x0
    return psi, dom.X - x0[0], dom.Y - x0[1]


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multipliers_match_direct_evaluation(dom16, n, seed):
    # oracle: J1 with its own Dirichlet solve of the cutoff temperature
    # source, as against the shared solve of the momentum (L^-1 symmetric),
    # and J2..J4 summed node by node
    dom = dom16 if n == 16 else build_domain(DomainConfig(n_cells=n))
    par = PhysParams(rho0=0.8, rho1=2.0, rho2=1.5, beta0=1.3, beta1=1.0,
                     beta2=2.0, mu=0.7, lam=0.4)
    cut = build_cutoffs(dom)
    s = _random_state(dom, np.random.default_rng(seed))
    u, ut = s.u, s.ut
    rho = par.rho1 * dom.w1 + par.rho2 * dom.w2
    w = dirichlet_inverse(dom, par.rho0 * cut.phi1 * s.theta)
    gx, gy = central_gradient(dom, u)
    hx, hy = cut.h_field[..., 0], cut.h_field[..., 1]
    psi, mx, my = _psi_and_m(dom, cut)
    ref = (-float(np.sum(rho * ut * w)),
           float(np.sum(rho * ut * (hx * gx + hy * gy))),
           par.rho1 * float(np.sum(dom.w1 * ut * cut.phi2 * u)),
           float(np.sum(rho * ut * psi * (mx * gx + my * gy))))
    vals = multiplier_functionals(dom, s, cut, par)
    assert vals[:4] == pytest.approx(ref, rel=1e-12)


def test_observable_row_matches_standalone_functionals(dom16, rng):
    par = PhysParams(rho0=0.8, rho1=2.0, rho2=1.5, beta0=1.3, beta1=1.0,
                     beta2=2.0, mu=0.7, lam=0.4)
    spec = NonlinearitySpec.berger(tension=-1.0, stretch=2.0)
    cut = build_cutoffs(dom16)
    for _ in range(10):
        s = _random_state(dom16, rng)
        row = observable_row(dom16, s, par, spec, 0.5, cutoffs=cut)
        eb = energy(dom16, s, par, spec)
        j1, j2, j3, j4, r = multiplier_functionals(dom16, s, cut, par)
        expected = {
            "kinetic1": eb.kinetic1, "kinetic2": eb.kinetic2,
            "bending1": eb.bending1, "bending2": eb.bending2,
            "thermal": eb.thermal, "potential": eb.potential, "e": eb.e,
            "lyapunov": eb.lyapunov,
            "dissipation": dissipation(dom16, s.theta, par),
            "thermal_grad": par.beta0 * frame_gradient_form(dom16, s.theta,
                                                            s.theta),
            "negnorm": negnorm(dom16, s, par),
            "l2_low": float(np.sum((dom16.w1 + dom16.w2) * s.u * s.u)),
            "j1": j1, "j2": j2, "j3": j3, "j4": j4, "r": r,
            "r_over_e": abs(r) / eb.e,
        }
        for col, val in expected.items():
            assert getattr(row, col) == pytest.approx(val, rel=1e-12), col


ONE_FORMULA_SPECS = {
    "linear": NonlinearitySpec.linear(),
    "berger": NonlinearitySpec.berger(tension=-1.0, stretch=2.0),
    "scalar": NonlinearitySpec.scalar(CubicForce(kappa=1.0, c=0.5),
                                      CubicForce(kappa=2.0, c=-0.3)),
}


@pytest.mark.parametrize("with_cutoffs", [False, True],
                         ids=["no-cutoffs", "cutoffs"])
@pytest.mark.parametrize("spec_name", list(ONE_FORMULA_SPECS))
def test_row_energy_is_energy_bit_for_bit(dom16, rng, spec_name,
                                          with_cutoffs):
    # run_difference takes e_d from the row on sampled steps and from
    # energy on the others: one formula, so the two agree exactly
    par = PhysParams(rho0=0.8, rho1=2.0, rho2=1.5, beta0=1.3, beta1=1.0,
                     beta2=2.0, mu=0.7, lam=0.4)
    spec = ONE_FORMULA_SPECS[spec_name]
    cut = build_cutoffs(dom16) if with_cutoffs else None
    for _ in range(5):
        s1, s2 = _random_state(dom16, rng), _random_state(dom16, rng)
        row = observable_row(dom16, s1, par, spec, 0.5, cutoffs=cut)
        eb = energy(dom16, s1, par, spec)
        for col in ("kinetic1", "kinetic2", "bending1", "bending2",
                    "thermal", "potential", "e", "lyapunov"):
            assert getattr(row, col) == getattr(eb, col), col
        obs = difference_observables(dom16, s1, s2, par)
        assert obs["e_d"] == energy(dom16, s1 - s2, par,
                                    NonlinearitySpec.linear()).e


def _count_sine_products(monkeypatch):
    """Record every dirichlet_inverse call and every ParityBasis product,
    the latter with the basis it was made with."""
    calls = {"dirichlet_inverse": 0, "project": [], "expand": []}

    def counted_inverse(*args, **kwargs):
        calls["dirichlet_inverse"] += 1
        return dirichlet_inverse(*args, **kwargs)

    monkeypatch.setattr(operators, "dirichlet_inverse", counted_inverse)
    monkeypatch.setattr(diagnostics, "dirichlet_inverse", counted_inverse,
                        raising=False)
    for name in ("project", "expand"):
        orig = getattr(operators.ParityBasis, name)

        def counted(self, *args, _orig=orig, _name=name, **kwargs):
            calls[_name].append(self)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(operators.ParityBasis, name, counted)
    return calls


@pytest.mark.parametrize("with_cutoffs", [False, True])
def test_observable_row_stops_at_sine_coefficients(dom16, params, rng,
                                                   monkeypatch, with_cutoffs):
    # the negative norm and J1 are sums over the sine coefficients of the
    # momentum's Dirichlet inverse: no grid solve and no expansion, one
    # projection of the momentum and, with cutoffs, one of the J1 source
    cut = build_cutoffs(dom16) if with_cutoffs else None
    state = _random_state(dom16, rng)
    calls = _count_sine_products(monkeypatch)
    observable_row(dom16, state, params, NonlinearitySpec.linear(), 0.0,
                   cutoffs=cut)
    assert calls["dirichlet_inverse"] == 0
    assert calls["expand"] == []
    basis = sine_basis(dom16.n)
    assert calls["project"] == [basis] * (2 if with_cutoffs else 1)


def test_difference_observables_stop_at_sine_coefficients(dom16, params, rng,
                                                          monkeypatch):
    s1, s2 = _random_state(dom16, rng), _random_state(dom16, rng)
    calls = _count_sine_products(monkeypatch)
    difference_observables(dom16, s1, s2, params)
    assert calls["dirichlet_inverse"] == 0
    assert calls["expand"] == []
    assert calls["project"] == [sine_basis(dom16.n)]


def _gradient_by_hand(domain, u):
    """Central differences on u padded with its mirror images, the clamped
    reflection ghosts."""
    ue = np.pad(u, 1, mode="reflect")
    return ((ue[2:, 1:-1] - ue[:-2, 1:-1]) / (2.0 * domain.h),
            (ue[1:-1, 2:] - ue[1:-1, :-2]) / (2.0 * domain.h))


_ORACLE_SPECS = {
    "linear": NonlinearitySpec.linear(),
    "berger": NonlinearitySpec.berger(tension=-1.0, stretch=2.0),
    "scalar": NonlinearitySpec.scalar(CubicForce(1.0, -0.5),
                                      CubicForce(2.0, 0.3)),
}


@pytest.mark.parametrize("fold", [False, True])
@pytest.mark.parametrize("spec_name", sorted(_ORACLE_SPECS))
@pytest.mark.parametrize("geometry", [(16, 0.25, 0.75), (15, 0.2, 0.8)])
def test_observable_row_matches_explicit_sums(geometry, spec_name, fold,
                                              request):
    # oracle: every column as a plain node sum, the negative norm and J1
    # from the grid solve v = L^-1(rho u_t / h^2); m = n-1 interior nodes
    # per side is odd at n=16 and even at n=15, and fold covers the folded
    # sine products
    if fold:
        request.getfixturevalue("folded")
    n, lo, hi = geometry
    dom = build_domain(DomainConfig(n_cells=n, inner_lo=lo, inner_hi=hi))
    par = PhysParams(rho0=0.8, rho1=2.0, rho2=1.5, beta0=1.3, beta1=1.0,
                     beta2=2.0, mu=0.7, lam=0.4)
    spec = _ORACLE_SPECS[spec_name]
    eta, calib_c = 1e-2, 1.0
    cut = build_cutoffs(dom)
    h2 = dom.h * dom.h
    for seed in range(3):
        s = _random_state(dom, np.random.default_rng(seed))
        u, ut, th = s.u, s.ut, s.theta
        lap = laplacian_clamped(dom, u)
        rho = par.rho1 * dom.w1 + par.rho2 * dom.w2
        v = dirichlet_inverse(dom, rho * ut / h2)
        gx, gy = _gradient_by_hand(dom, u)
        hx, hy = cut.h_field[..., 0], cut.h_field[..., 1]
        psi, mx, my = _psi_and_m(dom, cut)
        j1 = -h2 * par.rho0 * float(np.sum(v * cut.phi1 * th))
        j2 = float(np.sum(rho * ut * (hx * gx + hy * gy)))
        j3 = par.rho1 * float(np.sum(dom.w1 * ut * cut.phi2 * u))
        j4 = float(np.sum(rho * ut * psi * (mx * gx + my * gy)))
        r = (j1 + eta / min(par.beta1, par.beta2) * j2
             + (0.5 * par.mu - eta * calib_c) * j3 + np.sqrt(eta) * j4)
        parts = {
            "kinetic1": 0.5 * par.rho1 * float(np.sum(dom.w1 * ut**2)),
            "kinetic2": 0.5 * par.rho2 * float(np.sum(dom.w2 * ut**2)),
            "bending1": 0.5 * par.beta1 * float(np.sum(dom.w1 * lap**2)),
            "bending2": 0.5 * par.beta2 * float(np.sum(dom.w2 * lap**2)),
            "thermal": 0.5 * par.rho0 * float(np.sum(dom.w1 * th**2)),
        }
        e = sum(parts.values())
        pot = potential(dom, u, spec)
        expected = {
            **parts, "potential": pot, "e": e, "lyapunov": e + pot,
            "dissipation": _dissipation_by_direct_summation(dom, th, par),
            "thermal_grad": _dissipation_by_direct_summation(
                dom, th, PhysParams(beta0=par.beta0, lam=0.0)),
            "negnorm": float(np.sum((dom.w1 + dom.w2) * v * v)),
            "l2_low": float(np.sum((dom.w1 + dom.w2) * u * u)),
            "j1": j1, "j2": j2, "j3": j3, "j4": j4, "r": r,
            "r_over_e": abs(r) / e,
        }
        row = observable_row(dom, s, par, spec, 0.5, cutoffs=cut, eta=eta,
                             calib_c=calib_c)
        for col, val in expected.items():
            assert getattr(row, col) == pytest.approx(val, rel=1e-12), col
        assert negnorm(dom, s, par) == pytest.approx(expected["negnorm"],
                                                     rel=1e-12)


def _poisoned(domain, rng, name, value):
    s = _random_state(domain, rng)
    getattr(s, name)[2, 6] = value  # a frame node off every boundary
    return s


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("case", ["ut/row", "ut/row+cutoffs",
                                  "ut/multipliers", "theta/row+cutoffs",
                                  "theta/multipliers"])
def test_nonfinite_velocity_or_temperature_raises(dom16, params, rng, case,
                                                  value):
    name, call = case.split("/")
    s = _poisoned(dom16, rng, name, value)
    cut = build_cutoffs(dom16)
    with np.errstate(all="ignore"), pytest.raises(SolverError):
        if call == "multipliers":
            multiplier_functionals(dom16, s, cut, params)
        else:
            observable_row(dom16, s, params, NonlinearitySpec.linear(), 0.0,
                           cutoffs=cut if call == "row+cutoffs" else None)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("call", ["negnorm", "difference"])
def test_nonfinite_velocity_raises_in_negnorm_and_difference(dom16, params,
                                                             rng, call,
                                                             value):
    s = _poisoned(dom16, rng, "ut", value)
    with np.errstate(all="ignore"), pytest.raises(SolverError):
        if call == "negnorm":
            negnorm(dom16, s, params)
        else:
            difference_observables(dom16, s, _random_state(dom16, rng),
                                   params)


def test_huge_finite_velocity_raises_no_solver_error(dom16, params, rng):
    # the finiteness check runs on the sine coefficients of the inverse,
    # which stay finite, not on their squared norm, which overflows
    s = _poisoned(dom16, rng, "ut", 1e200)
    cut = build_cutoffs(dom16)
    with np.errstate(all="ignore"):
        assert negnorm(dom16, s, params) == np.inf
        obs = difference_observables(dom16, s, make_state(dom16), params)
        assert obs["negnorm"] == np.inf
        assert np.isfinite(multiplier_functionals(dom16, s, cut, params)[0])
        row = observable_row(dom16, s, params, NonlinearitySpec.linear(),
                             0.0, cutoffs=cut)
    assert row.negnorm == np.inf
    assert np.isfinite(row.j1)


def test_observable_row_columns_are_fresh_copies():
    cols = ObservableRow.columns()
    assert cols == [f.name for f in dataclasses.fields(ObservableRow)]
    cols.append("extra")
    assert "extra" not in ObservableRow.columns()
