import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_clamped
import grid_reference
from grid_reference import apply_k, precondition, thermal_laplacian
from platetx import operators, stepper as stepper_module
from platetx.domain import DomainConfig, build_domain
from platetx.errors import SolverError, StepError
from platetx.experiments import _lyapunov_violations, initial_state
from platetx.fields import PhysParams, make_state
from platetx.nonlinearity import (CubicForce, NonlinearitySpec,
                                  discrete_gradient_force, force)
from platetx.operators import (ClampedPlateHat, FrameThermalSolver,
                               LinearOperator, biharmonic_transmission,
                               cg_solve,
                               coupling_to_heat, coupling_to_plate,
                               laplacian_clamped)
from platetx.stepper import (PlateStepper, SchemeConfig, simulate,
                             stationary_solve)


# the two forces of the shared nonlinear iteration, as parameters
BERGER = NonlinearitySpec.berger(1.0, 1.0)
SCALAR = NonlinearitySpec.scalar(CubicForce(1.0, 0.5), CubicForce(2.0, -1.0))
FORCES = pytest.mark.parametrize("spec", [BERGER, SCALAR],
                                 ids=["berger", "scalar"])


def bump_state(domain, amp=1.0, vel=0.2, heat=0.3):
    u = amp * np.sin(np.pi * domain.X) ** 2 * np.sin(np.pi * domain.Y) ** 2
    th = heat * np.sin(2 * np.pi * domain.X) * np.sin(2 * np.pi * domain.Y)
    th[~domain.theta_free] = 0.0
    return make_state(domain, u=u, ut=vel * u, theta=th)


def test_scheme_config_validation(dom16):
    assert SchemeConfig().validate() == []
    assert SchemeConfig(dt=-0.1).validate()
    assert SchemeConfig(tol_picard=1e-13, tol_inner=1e-12).validate()
    assert SchemeConfig().resolve_dt(dom16) == pytest.approx(dom16.h / 4)
    assert SchemeConfig(dt=0.01).resolve_dt(dom16) == 0.01
    with pytest.raises(SolverError):
        PlateStepper(dom16, PhysParams(), scheme=SchemeConfig(dt=-1.0))


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_scheme_config_rejects_nonfinite_dt(dom8, dt):
    scheme = SchemeConfig(dt=dt)
    assert scheme.validate() == ["dt must be positive and finite"]
    with pytest.raises(SolverError, match="invalid scheme config"):
        PlateStepper(dom8, PhysParams(), scheme=scheme)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["tol_inner", "tol_picard"])
def test_scheme_config_rejects_nonfinite_tolerances(dom8, name, value):
    scheme = SchemeConfig(**{name: value})
    assert scheme.validate() == [
        "solver tolerances must be positive and finite"]
    with pytest.raises(SolverError, match="invalid scheme config"):
        PlateStepper(dom8, PhysParams(), scheme=scheme)


@pytest.mark.parametrize("value", [math.nan, 0])
@pytest.mark.parametrize("name", ["max_picard", "max_cg"])
def test_scheme_config_rejects_bad_iteration_limits(dom8, name, value):
    scheme = SchemeConfig(**{name: value})
    assert scheme.validate() == ["max_picard and max_cg must be >= 1"]
    with pytest.raises(SolverError, match="invalid scheme config"):
        PlateStepper(dom8, PhysParams(), scheme=scheme)


def test_step_preserves_constraints(dom16, params):
    # step builds the new state without re-clamping it
    for spec in (NonlinearitySpec.linear(), NonlinearitySpec.berger(1.0, 1.0)):
        stepper = PlateStepper(dom16, params, spec)
        s = initial_state(dom16, "mixed", 3.0, 0)
        for _ in range(5):
            s, _ = stepper.step(s)
            s.validate(dom16)


def test_per_step_energy_identity_all_variants(dom16, params):
    specs = {
        "linear": NonlinearitySpec.linear(),
        "berger": NonlinearitySpec.berger(1.0, 1.0),
        "scalar": NonlinearitySpec.scalar(CubicForce(1.0, 0.0),
                                          CubicForce(1.0, 0.0)),
    }
    scheme = SchemeConfig()
    for name, spec in specs.items():
        stepper = PlateStepper(dom16, params, spec, scheme)
        traj = simulate(stepper, bump_state(dom16), n_steps=30)
        res = traj.step_series["residual"]
        lyap = traj.step_series["lyapunov"]
        bound = 10.0 * (scheme.tol_inner + scheme.tol_picard)
        assert np.max(np.abs(res)) <= bound * lyap[0], name


def test_step_force_is_the_discrete_gradient(dom16, params):
    # the force a step records is the one its last solve used: zero for the
    # linear problem, the discrete gradient of the step up to the Picard
    # tolerance for the nonlinear ones
    scheme = SchemeConfig()
    s0 = bump_state(dom16)
    _, stats = PlateStepper(dom16, params, scheme=scheme).step(s0)
    assert np.all(stats.force == 0.0)
    for spec in (NonlinearitySpec.berger(1.0, 1.0),
                 NonlinearitySpec.scalar(CubicForce(1.0, 0.5),
                                         CubicForce(2.0, -1.0))):
        s1, stats = PlateStepper(dom16, params, spec, scheme).step(s0)
        g = discrete_gradient_force(dom16, s0.u, s1.u, spec)
        err = np.max(np.abs(stats.force - g))
        assert err <= scheme.tol_picard * np.max(np.abs(g)), spec.variant


@pytest.mark.parametrize("m_bar", [None, 0.7])
def test_apply_k_matches_composed_form(dom16, params, rng, m_bar):
    # one Laplacian and one transpose per apply give the operator that the
    # bending and coupling functions compose
    stepper = PlateStepper(dom16, params)
    dt = stepper.dt
    p = random_clamped(dom16, rng)
    ref = (2.0 / dt) * params.density(dom16) * p
    ref += 0.5 * dt * biharmonic_transmission(dom16, p, params)
    ref += coupling_to_plate(
        dom16, stepper.solve_h(coupling_to_heat(dom16, p, params)), params)
    if m_bar is not None:
        ref -= 0.5 * dt * m_bar * laplacian_clamped(dom16, p)
    ref[dom16.gamma1] = 0.0
    out = apply_k(stepper, p, m_bar)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_apply_k_symmetric(dom16, params, rng):
    stepper = PlateStepper(dom16, params)
    for m_bar in (None, 0.7):
        a, b = random_clamped(dom16, rng), random_clamped(dom16, rng)
        ab = stepper.dot_u(apply_k(stepper, a, m_bar), b)
        ba = stepper.dot_u(a, apply_k(stepper, b, m_bar))
        assert abs(ab - ba) <= 1e-13 * abs(ab)


# inner boxes: centred on n/2 for odd and even n, next to the outer
# boundary, off-centre, and the smallest grid with hi - lo = 1
K_HAT_BOXES = [
    (8, 1 / 4, 3 / 4), (15, 1 / 3, 2 / 3), (16, 1 / 4, 3 / 4),
    (64, 1 / 4, 3 / 4), (16, 1 / 16, 15 / 16), (16, 1 / 16, 1 / 2),
    (4, 1 / 4, 1 / 2), (32, 1 / 2, 3 / 4)]


@pytest.mark.parametrize("m_bar", [None, 0.7])
@pytest.mark.parametrize("contrast", [False, True],
                         ids=["uniform", "contrast"])
@pytest.mark.parametrize("box", K_HAT_BOXES)
def test_apply_k_hat_is_the_projected_apply_k(params, rng, box, contrast,
                                               m_bar):
    # K in sine coefficients is S K S of the grid operator, with the
    # region-contrast term (params) and without it (PhysParams()); the
    # contrast lives on the inner box grown by one node, which reaches
    # gamma1 for an inner square next to the outer boundary
    n, lo, hi = box
    dom = build_domain(DomainConfig(n_cells=n, inner_lo=lo, inner_hi=hi))
    stepper = PlateStepper(dom, params if contrast else PhysParams())
    p = random_clamped(dom, rng)
    want = stepper.to_sine(apply_k(stepper, p, m_bar))
    got = stepper.apply_k_hat(stepper.to_sine(p), m_bar)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("box", [(15, 1 / 3, 2 / 3), (16, 1 / 4, 3 / 4)])
def test_apply_k_hat_symmetric(params, rng, box):
    n, lo, hi = box
    dom = build_domain(DomainConfig(n_cells=n, inner_lo=lo, inner_hi=hi))
    stepper = PlateStepper(dom, params)
    for m_bar in (None, 0.7):
        a = rng.standard_normal((n - 1, n - 1))
        b = rng.standard_normal((n - 1, n - 1))
        ab = stepper.dot_u(stepper.apply_k_hat(a, m_bar), b)
        ba = stepper.dot_u(a, stepper.apply_k_hat(b, m_bar))
        assert abs(ab - ba) <= 1e-13 * abs(ab)


@pytest.mark.parametrize("fold", [False, True], ids=["dense", "folded"])
@pytest.mark.parametrize("lam", [0.0, 1.0, 50.0])
@pytest.mark.parametrize("box", K_HAT_BOXES)
def test_heat_source_hat_is_the_projected_heat_source(params, rng, box, lam,
                                                      fold, request):
    # the thermal solve's right side from the sine coefficients of p, in
    # closed form, is the projection of the grid source mu lap p; the
    # projection folds from n = 99 on, and at every n with the fixture
    if fold:
        request.getfixturevalue("folded")
    n, lo, hi = box
    dom = build_domain(DomainConfig(n_cells=n, inner_lo=lo, inner_hi=hi))
    stepper = PlateStepper(dom, replace(params, lam=lam))
    thermal = stepper._thermal
    p_hat = rng.standard_normal((n - 1, n - 1))
    lap = laplacian_clamped(dom, stepper.from_sine(p_hat))
    want = thermal.basis.project(thermal._w * params.mu * lap)
    got = stepper._heat_source_hat(p_hat)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("box", K_HAT_BOXES + [(128, 1 / 4, 3 / 4)])
def test_couple_hat_is_the_grid_coupling(params, rng, box):
    # the coupling term of a step's right side, C H^-1 rhs, from the Robin
    # coefficients of the thermal solve equals its grid form
    n, lo, hi = box
    dom = build_domain(DomainConfig(n_cells=n, inner_lo=lo, inner_hi=hi))
    stepper = PlateStepper(dom, params)
    rhs = rng.standard_normal((n + 1, n + 1))
    want = stepper.to_sine(
        coupling_to_plate(dom, stepper.solve_h(rhs), params))
    got = stepper._couple_hat(stepper._thermal.project(rhs))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("spec", [NonlinearitySpec.linear(), BERGER],
                         ids=["linear", "berger"])
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("box", K_HAT_BOXES)
def test_step_temperature_is_the_grid_solve(params, box, lam, spec):
    # a step solves for its new temperature on Robin coefficients, from the
    # projected old temperature plus the heat source of p_bar in closed
    # form; th_bar is the grid solve H th_bar = (2 rho0/dt) th + mu lap p_bar
    n, lo, hi = box
    dom = build_domain(DomainConfig(n_cells=n, inner_lo=lo, inner_hi=hi))
    par = replace(params, lam=lam)
    stepper = PlateStepper(dom, par, spec)
    s0 = initial_state(dom, "mixed", 1.0, 0)
    s1, _ = stepper.step(s0)
    th_bar = 0.5 * (s0.theta + s1.theta)
    p_bar = 0.5 * (s0.ut + s1.ut)
    want = stepper.solve_h((2.0 * par.rho0 / stepper.dt) * s0.theta
                           + coupling_to_heat(dom, p_bar, par))
    assert np.max(np.abs(th_bar - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("contrast", [False, True],
                         ids=["uniform", "contrast"])
def test_solve_k_does_no_grid_work(dom16, params, rng, contrast,
                                   monkeypatch):
    # the velocity CG holds no grid array: it takes no clamped Laplacian
    # and makes no sine or Robin transform (a ParityBasis product)
    stepper = PlateStepper(dom16, params if contrast else PhysParams())
    rhs = stepper.to_sine(random_clamped(dom16, rng))
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for module in (operators, stepper_module):
        monkeypatch.setattr(module, "laplacian_clamped",
                            counted("laplacian_clamped",
                                    operators.laplacian_clamped))
    for name in ("expand", "project"):
        monkeypatch.setattr(operators.ParityBasis, name,
                            counted(name, getattr(operators.ParityBasis,
                                                  name)))
    p_hat, it, _ = stepper.solve_k(rhs)
    _, it_warm, _ = stepper.solve_k(rhs + 1e-3 * p_hat, m_bar=0.7, x0=p_hat)
    assert it > 0 and it_warm > 0
    assert calls == []
    # the counters see the grid operator's work
    apply_k(stepper, stepper.from_sine(p_hat))
    assert {"laplacian_clamped", "expand", "project"} <= set(calls)


@pytest.mark.parametrize("m_bar", [None, 0.7, -200.0])
def test_k_precond_is_the_projected_grid_preconditioner(dom16, params, rng,
                                                        m_bar):
    # the preconditioner of the velocity solves is ClampedSinePreconditioner
    # on the grid, taken in sine coefficients
    stepper = PlateStepper(dom16, params)
    pre = stepper._precond
    sym = pre.symbol
    if m_bar is not None and m_bar > 0.0:
        sym = sym + m_bar * stepper._sym_membrane
    r = random_clamped(dom16, rng)
    want = stepper.to_sine(precondition(pre, r, sym))
    got = stepper._k_precond(m_bar)(stepper.to_sine(r))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def grid_solve_k(stepper):
    """A solve_k for stepper that takes and returns sine coefficients but
    runs CG on the grid with apply_k and ClampedSinePreconditioner through
    precondition (grid_reference)."""
    pre = stepper._precond

    def solve_k(rhs, m_bar=None, x0=None, tol=None, r0=None):
        sym = pre.symbol
        if m_bar is not None and m_bar > 0.0:
            sym = sym + m_bar * stepper._sym_membrane
        op = LinearOperator(apply=lambda p: apply_k(stepper, p, m_bar),
                            dot=stepper.dot_u)
        grid = [None if x is None else stepper.from_sine(x) for x in (x0, r0)]
        p, it, r = cg_solve(
            op, stepper.from_sine(rhs),
            tol=stepper.scheme.tol_inner if tol is None else tol,
            max_iter=stepper.scheme.max_cg,
            precond=lambda v: precondition(pre, v, sym),
            x0=grid[0], r0=grid[1])
        return stepper.to_sine(p), it, stepper.to_sine(r)

    return solve_k


@pytest.mark.parametrize("spec", [NonlinearitySpec.linear(),
                                  NonlinearitySpec.berger(1.0, 1.0)],
                         ids=["linear", "berger"])
def test_solver_work_matches_grid_cg(dom16, params, spec):
    # CG on sine coefficients takes the iterations, sweeps and thermal
    # solves of the same CG on the grid, step by step
    def run(grid):
        stepper = PlateStepper(dom16, params, spec)
        if grid:
            stepper.solve_k = grid_solve_k(stepper)
        return simulate(stepper, initial_state(dom16, "mixed", 1.0, 0),
                        n_steps=10)

    coeffs, grid = run(False), run(True)
    for name in ("picard_sweeps", "cg_outer", "h_solves"):
        np.testing.assert_array_equal(coeffs.step_series[name],
                                      grid.step_series[name])
    for a, b in ((coeffs.final.u, grid.final.u),
                 (coeffs.final.ut, grid.final.ut)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("n", [16, 32])
def test_k_precond_exact_for_uniform_uncoupled_plate(n):
    # with mu = 0 and uniform coefficients K is the sine symbol plus the
    # clamped boundary term, which the preconditioner inverts exactly
    dom = build_domain(DomainConfig(n_cells=n))
    params = PhysParams(rho1=1.5, rho2=1.5, beta1=0.8, beta2=0.8, mu=0.0)
    stepper = PlateStepper(dom, params)
    traj = simulate(stepper, initial_state(dom, "mixed", 1.0, 0), n_steps=5)
    assert np.all(traj.step_series["cg_outer"] == 1)


@pytest.mark.parametrize("m_bar", [None, 0.7, 50.0, -200.0])
def test_k_precond_symmetric_positive_definite(dom16, params, rng, m_bar):
    check_k_precond_spd(dom16, params, rng, m_bar)


@pytest.mark.parametrize("m_bar", [None, 0.7, 50.0, -200.0])
@pytest.mark.usefixtures("folded")
def test_k_precond_symmetric_positive_definite_folded(dom16, params, rng,
                                                      m_bar):
    check_k_precond_spd(dom16, params, rng, m_bar)


def check_k_precond_spd(dom16, params, rng, m_bar):
    # the preconditioner of the velocity solves acts on sine coefficients
    stepper = PlateStepper(dom16, params)
    precond = stepper._k_precond(m_bar)
    a = stepper.to_sine(random_clamped(dom16, rng))
    b = stepper.to_sine(random_clamped(dom16, rng))
    ab = stepper.dot_u(precond(a), b)
    ba = stepper.dot_u(a, precond(b))
    assert abs(ab - ba) <= 1e-13 * abs(ab)
    cols = []
    for k in range(a.size):
        e = np.zeros(a.size)
        e[k] = 1.0
        cols.append(precond(e.reshape(a.shape)).ravel())
    mat = np.array(cols).T
    assert np.min(np.linalg.eigvalsh(0.5 * (mat + mat.T))) > 0.0


@pytest.mark.parametrize("spec,limit", [
    (NonlinearitySpec.linear(), 12.0),
    (NonlinearitySpec.berger(1.0, 1.0), 16.0),
])
def test_outer_cg_iterations_per_step(spec, limit):
    # the uncorrected sine symbol took 20.9 (linear) and 27.15 (Berger)
    dom = build_domain(DomainConfig(n_cells=32))
    stepper = PlateStepper(dom, PhysParams(), spec)
    traj = simulate(stepper, initial_state(dom, "mixed", 1.0, 0), n_steps=20)
    assert np.mean(traj.step_series["cg_outer"]) <= limit


def thermal_residual(stepper, r):
    """Max residual of H theta = r on the free dofs, relative to r."""
    dom, params = stepper.domain, stepper.params
    free = dom.theta_free
    th = stepper.solve_h(r)
    assert np.all(th[~free] == 0.0)
    res = ((2.0 * params.rho0 / stepper.dt) * th
           + params.beta0 * thermal_laplacian(dom, th, params) - r)[free]
    return np.max(np.abs(res)) / np.max(np.abs(r[free]))


def test_solve_h_residual(dom16, params, rng):
    stepper = PlateStepper(dom16, params)
    assert thermal_residual(stepper, rng.standard_normal((17, 17))) <= 1e-12


@pytest.mark.usefixtures("folded")
def test_solve_h_residual_folded(dom16, params, rng):
    stepper = PlateStepper(dom16, params)
    assert thermal_residual(stepper, rng.standard_normal((17, 17))) <= 1e-12


def test_solve_h_residual_at_folded_size(params, rng):
    # n=128 takes the folded products without a patch
    dom = build_domain(DomainConfig(n_cells=128))
    assert dom.n + 1 >= operators.FOLD_MIN_SIZE
    stepper = PlateStepper(dom, params)
    assert thermal_residual(stepper, rng.standard_normal((129, 129))) \
        <= 1e-12


@pytest.mark.parametrize("lam", [0.0, 1.0, 50.0])
@pytest.mark.parametrize("box", [(16, 1 / 16, 1 / 2), (4, 1 / 4, 1 / 2),
                                 (32, 1 / 2, 3 / 4), (64, 1 / 4, 3 / 4)])
def test_solve_h_residual_boxes(params, rng, box, lam):
    # off-centre and boundary-adjacent inner squares, hi - lo = 1 at n=4
    n, lo, hi = box
    dom = build_domain(DomainConfig(n_cells=n, inner_lo=lo, inner_hi=hi))
    stepper = PlateStepper(dom, replace(params, lam=lam))
    assert thermal_residual(stepper, rng.standard_normal((n + 1, n + 1))) \
        <= 1e-12


@pytest.mark.parametrize("rho0, dt", [(1e-9, 1.0), (1e-12, 1e-3)])
def test_solve_h_without_robin_or_mass(params, rng, rho0, dt):
    # lam = 0 and (2 rho0/dt) -> 0: the whole-square operator is nearly
    # singular (constant mode), the frame problem is not
    dom = build_domain(DomainConfig(n_cells=32))
    stepper = PlateStepper(dom, replace(params, lam=0.0, rho0=rho0),
                           scheme=SchemeConfig(dt=dt))
    assert thermal_residual(stepper, rng.standard_normal((33, 33))) <= 1e-12


def test_solve_h_symmetric_in_w1(dom16, params, rng):
    stepper = PlateStepper(dom16, params)
    a = rng.standard_normal((17, 17))
    b = rng.standard_normal((17, 17))
    free = dom16.theta_free
    a[~free] = b[~free] = 0.0
    lhs = float(np.sum(dom16.w1 * stepper.solve_h(a) * b))
    rhs = float(np.sum(dom16.w1 * a * stepper.solve_h(b)))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_solve_h_matches_dense_oracle(dom8, params, rng):
    check_solve_h_dense_oracle(dom8, params, rng)


@pytest.mark.usefixtures("folded")
def test_solve_h_matches_dense_oracle_folded(dom8, params, rng):
    check_solve_h_dense_oracle(dom8, params, rng)


def check_solve_h_dense_oracle(dom8, params, rng):
    stepper = PlateStepper(dom8, params)
    idx = np.flatnonzero(dom8.theta_free)
    c = 2.0 * params.rho0 / stepper.dt
    dense = np.empty((idx.size, idx.size))
    for col, k in enumerate(idx):
        e = np.zeros(81)
        e[k] = 1.0
        e = e.reshape(9, 9)
        dense[:, col] = (c * e + params.beta0 * thermal_laplacian(
            dom8, e, params)).ravel()[idx]
    r = rng.standard_normal((9, 9))
    expect = np.linalg.solve(dense, r.ravel()[idx])
    got = stepper.solve_h(r).ravel()[idx]
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("dt, beta0", [(-1e-3, 1.3), (1e-3, 1e308)],
                         ids=["negative-mass", "overflow"])
def test_thermal_solver_rejects_bad_spectrum(dom8, params, dt, beta0):
    with np.errstate(all="ignore"), pytest.raises(SolverError,
                                                  match="thermal solver"):
        FrameThermalSolver(dom8, replace(params, beta0=beta0), dt)


@pytest.mark.parametrize("spec", [NonlinearitySpec.linear(),
                                  NonlinearitySpec.berger(1.0, 1.0)],
                         ids=["linear", "berger"])
def test_folded_and_dense_steps_agree(dom16, params, spec, monkeypatch):
    # the folded products differ from the dense ones by rounding only, so
    # the states do as well, within the solver tolerances
    def run():
        stepper = PlateStepper(dom16, params, spec)
        return simulate(stepper, bump_state(dom16), n_steps=5).final

    dense = run()
    monkeypatch.setattr(operators, "FOLD_MIN_SIZE", 0)
    folded = run()
    for a, b in ((dense.u, folded.u), (dense.ut, folded.ut),
                 (dense.theta, folded.theta)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_dissipation_positive_and_energy_decreases(dom16, params):
    stepper = PlateStepper(dom16, params)
    traj = simulate(stepper, bump_state(dom16), n_steps=40)
    diss = traj.step_series["dissipation_mid"]
    assert np.all(diss >= 0.0)
    lyap = traj.step_series["lyapunov"]
    assert lyap[-1] < lyap[0]
    assert np.all(np.diff(lyap) <= 1e-10 * lyap[0])


def test_mu_zero_conserves_quadratic_energy(dom16):
    p = PhysParams(mu=0.0)
    stepper = PlateStepper(dom16, p)
    traj = simulate(stepper, bump_state(dom16, heat=0.0), n_steps=100)
    e = traj.step_series["energy"]
    assert np.max(np.abs(e - e[0])) <= 1e-11 * e[0]


def test_midpoint_dissipation_matches_state_average(dom16, params):
    # the in-step dissipation record equals D of the averaged temperatures,
    # D through the grid operator of the form
    stepper = PlateStepper(dom16, params)
    s0 = bump_state(dom16)
    s1, stats = stepper.step(s0)
    th_mid = 0.5 * (s0.theta + s1.theta)
    assert stats.dissipation_mid == pytest.approx(
        grid_reference.dissipation(dom16, th_mid, params), rel=1e-12
    )


def test_scheme_second_order_in_dt(dom8, params):
    # dt must resolve the fastest bending mode (~ 8 beta^1/2 / h^2) before
    # the midpoint error enters its asymptotic dt^2 regime
    spec = NonlinearitySpec.berger(1.0, 1.0)
    t_end = 0.0625
    results = []
    for m in (1024, 2048, 4096, 16384):
        stepper = PlateStepper(dom8, params, spec, SchemeConfig(dt=1.0 / m))
        s = bump_state(dom8)
        for _ in range(int(round(t_end * m))):
            s, _ = stepper.step(s)
        results.append(s.u.copy())
    ref = results[-1]
    errs = [np.max(np.abs(r - ref)) for r in results[:-1]]
    for i in range(2):
        order = np.log2(errs[i] / errs[i + 1])
        assert 1.7 <= order <= 2.4


@pytest.mark.parametrize("spec", [NonlinearitySpec.berger(1.0, 50.0),
                                  SCALAR], ids=["berger", "scalar"])
def test_picard_nonconvergence_raises(dom16, params, spec):
    scheme = SchemeConfig(tol_picard=1e-14, tol_inner=1e-14, max_picard=1)
    stepper = PlateStepper(dom16, params, spec, scheme)
    with pytest.raises(StepError) as exc:
        stepper.step(bump_state(dom16, amp=5.0), t=1.5)
    assert exc.value.time == 1.5 + stepper.dt
    # the error carries the work done so far: one (loose) velocity solve,
    # one thermal solve per K-apply plus the one before the sweeps, and the
    # last change of the iterate as its residual
    stats = exc.value.stats
    assert stats.picard_sweeps == 1
    assert stats.cg_outer > 0
    assert stats.cg_inner == stats.cg_outer + 1
    assert exc.value.residual > scheme.tol_picard


def test_inner_solver_failure_carries_partial_stats(dom16, params):
    stepper = PlateStepper(dom16, params, scheme=SchemeConfig(max_cg=2))
    with pytest.raises(StepError) as exc:
        stepper.step(bump_state(dom16))
    assert isinstance(exc.value.__cause__, SolverError)
    stats = exc.value.stats
    assert (stats.picard_sweeps, stats.cg_outer, stats.cg_inner) == (0, 2, 3)


@pytest.mark.parametrize("spec, amplitude", [
    *(pytest.param(BERGER, a, id=str(a))
      for a in (1.0, 3.0, 10.0, 30.0, 100.0)),
    *(pytest.param(SCALAR, a, id=f"scalar-{a}")
      for a in (1.0, 3.0, 10.0, 30.0)),
    pytest.param(SCALAR, 100.0, id="scalar-100.0", marks=pytest.mark.xfail(
        raises=StepError, strict=True,
        reason="needs the Newton step of the scalar discrete gradient "
               "(ROADMAP item 3)"))])
def test_berger_converges_across_amplitudes(spec, amplitude):
    # fixed-point iteration on the membrane coefficient diverged on this
    # data at amplitude 3 (seeds 0, 1) and 10 (seeds 0, 2); the scalar
    # force's sweeps share its iteration (ids scalar-*)
    dom = build_domain(DomainConfig(n_cells=32))
    scheme = SchemeConfig()
    bound = 10.0 * (scheme.tol_inner + scheme.tol_picard)
    for seed in range(3):
        stepper = PlateStepper(dom, PhysParams(), spec, scheme)
        traj = simulate(stepper, initial_state(dom, "mixed", amplitude, seed),
                        n_steps=20)
        res = traj.step_series["residual"]
        lyap0 = traj.step_series["lyapunov"][0]
        assert np.max(np.abs(res)) <= bound * abs(lyap0), seed
        assert _lyapunov_violations(traj, scheme) == 0, seed


def test_berger_near_buckling_converges():
    # tension -200 is past the first buckling load, so the flat state
    # gives way and energy flows from the potential into the plate within
    # a few steps; the identity residual is bounded on the scale of the
    # energy and the potential that exchange it, not of their sum
    dom = build_domain(DomainConfig(n_cells=16))
    scheme = SchemeConfig()
    bound = 10.0 * (scheme.tol_inner + scheme.tol_picard)
    stepper = PlateStepper(dom, PhysParams(),
                           NonlinearitySpec.berger(-200.0, 1.0), scheme)
    traj = simulate(stepper, initial_state(dom, "mixed", 0.1, 0),
                    n_steps=20)
    e, lyap = traj.step_series["energy"], traj.step_series["lyapunov"]
    scale = e + np.abs(lyap - e)
    res = traj.step_series["residual"]
    assert np.all(np.abs(res) <= bound * np.maximum(scale[:-1], scale[1:]))
    assert _lyapunov_violations(traj, scheme) == 0


def test_berger_force_from_the_step_laplacian(dom16, params):
    # the membrane force of every sweep is m_bar * lap(u) with u the start
    # of the step, in sine coefficients, and the recorded force is the last
    # solve's m_bar * lap(u + dt/2 p_bar), bit for bit
    stepper = PlateStepper(dom16, params, NonlinearitySpec.berger(1.0, 1.0))
    solve_k = stepper.solve_k
    calls = []

    def recording_solve_k(rhs, m_bar=None, x0=None, tol=None, r0=None):
        p, it, r = solve_k(rhs, m_bar=m_bar, x0=x0, tol=tol, r0=r0)
        calls.append((rhs, m_bar, p))
        return p, it, r

    stepper.solve_k = recording_solve_k
    s0 = initial_state(dom16, "mixed", 3.0, 0)
    u = s0.u
    _, stats = stepper.step(s0)
    assert len(calls) >= 3
    lap_u = stepper.to_sine(laplacian_clamped(dom16, u))
    rhs0, m0, _ = calls[0]
    for rhs, m_bar, _ in calls[1:]:
        diff = rhs - rhs0 - (m_bar - m0) * lap_u
        assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(rhs0))
    _, m_bar, p_hat = calls[-1]
    p_bar = stepper.from_sine(p_hat)
    ref = m_bar * laplacian_clamped(dom16, u + 0.5 * stepper.dt * p_bar)
    ref[dom16.gamma1] = 0.0
    np.testing.assert_array_equal(stats.force, ref)


@FORCES
def test_step_accepts_only_tight_solves(dom16, params, spec):
    # loose velocity solves steer the nonlinear iteration, but the solve a
    # step accepts was made at tol_inner and meets it at its m_bar (None
    # for scalar forces), as the residual of the grid operator apply_k on
    # the expanded coefficients
    scheme = SchemeConfig()
    stepper = PlateStepper(dom16, params, spec, scheme)
    solve_k = stepper.solve_k
    calls = []

    def recording_solve_k(rhs, m_bar=None, x0=None, tol=None, r0=None):
        p, it, r = solve_k(rhs, m_bar=m_bar, x0=x0, tol=tol, r0=r0)
        calls.append((rhs, m_bar, tol, p))
        return p, it, r

    stepper.solve_k = recording_solve_k
    state = initial_state(dom16, "mixed", 3.0, 0)
    loose = 0
    for _ in range(5):
        calls.clear()
        state, stats = stepper.step(state)
        assert len(calls) == stats.picard_sweeps
        loose += sum(tol > scheme.tol_inner for _, _, tol, _ in calls)
        rhs, m_bar, tol, p = calls[-1]
        assert tol == scheme.tol_inner
        r = apply_k(stepper, stepper.from_sine(p), m_bar)
        r -= stepper.from_sine(rhs)
        rel = math.sqrt(stepper.dot_u(r, r) / stepper.dot_u(rhs, rhs))
        assert rel <= scheme.tol_inner
    assert loose > 0


@FORCES
def test_loose_solves_start_from_their_residual(dom16, params, spec):
    # a loose solve carries in the last solve's recursive residual, moved
    # to its right side and, for Berger, to its coefficient by one
    # Laplacian; it must be the residual of its start, rhs - K(m_bar) x0,
    # up to the recursion's round-off. Solves at tol_inner carry none in
    # and form it themselves
    scheme = SchemeConfig()
    stepper = PlateStepper(dom16, params, spec, scheme)
    solve_k = stepper.solve_k
    calls = []

    def recording_solve_k(rhs, m_bar=None, x0=None, tol=None, r0=None):
        calls.append((rhs, m_bar, x0, tol, r0))
        return solve_k(rhs, m_bar=m_bar, x0=x0, tol=tol, r0=r0)

    stepper.solve_k = recording_solve_k
    state = initial_state(dom16, "mixed", 3.0, 0)
    for _ in range(5):
        state, _ = stepper.step(state)
    carried = 0
    for rhs, m_bar, x0, tol, r0 in calls:
        if x0 is None or tol == scheme.tol_inner:
            assert r0 is None
            continue
        carried += 1
        true = rhs - stepper.apply_k_hat(x0, m_bar)
        err = math.sqrt(stepper.dot_u(r0 - true, r0 - true)
                        / stepper.dot_u(rhs, rhs))
        assert err <= 1e-12
    assert carried > 0


def test_simulate_sampling_and_sinks(dom16, params):
    stepper = PlateStepper(dom16, params)
    seen = []
    traj = simulate(stepper, bump_state(dom16), n_steps=10, stride=3,
                    sinks=[lambda k, t, s, r: seen.append(k)])
    assert seen == [0, 3, 6, 9, 10]
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(10 * stepper.dt)
    assert len(traj.step_series["energy"]) == 11
    assert len(traj.step_series["residual"]) == 10
    assert traj.meta["dt"] == stepper.dt


def test_simulate_keeps_no_samples(params):
    # the sampled states go to the sinks and are not kept, so a stride-1
    # run peaks where a run with one sample does (each n=32 state is 26 kB)
    dom = build_domain(DomainConfig(n_cells=32))
    stepper = PlateStepper(dom, params)
    s0 = bump_state(dom)
    simulate(stepper, s0, n_steps=2)  # fill the per-size caches

    def peak(stride):
        tracemalloc.start()
        try:
            simulate(stepper, s0, n_steps=120, stride=stride)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1) <= peak(120) + 0.5e6


def test_simulate_rejects_nonfinite_initial_energy(dom16, params):
    stepper = PlateStepper(dom16, params)

    def no_step(*args, **kwargs):
        raise AssertionError("simulate stepped a state of infinite energy")

    stepper.step = no_step
    sinks = []
    with np.errstate(all="ignore"), pytest.raises(StepError) as info:
        simulate(stepper, bump_state(dom16, amp=1e200), n_steps=3,
                 sinks=[lambda k, t, s, r: sinks.append(k)])
    exc = info.value
    assert "initial Lyapunov energy is not finite" in str(exc)
    assert exc.time == 0.0
    assert (exc.stats.picard_sweeps, exc.stats.cg_outer,
            exc.stats.cg_inner) == (0, 0, 0)
    assert sinks == []


def test_simulate_solver_work_series(dom16, params):
    # per-step solver work repeats exactly; each CG iteration applies K,
    # and so solves H, once; a warm-started solve at tol_inner forms its
    # true residual with one more K apply, while a loose one recycles the
    # last residual and solves no H; two thermal solves lie outside the
    # sweeps
    def run():
        stepper = PlateStepper(dom16, params,
                               NonlinearitySpec.berger(1.0, 1.0))
        solve_k = stepper.solve_k
        tight = []  # per step, a counter opened by the sink before it

        def recording_solve_k(rhs, m_bar=None, x0=None, tol=None, r0=None):
            if x0 is not None and tol == stepper.scheme.tol_inner:
                tight[-1] += 1
            return solve_k(rhs, m_bar=m_bar, x0=x0, tol=tol, r0=r0)

        stepper.solve_k = recording_solve_k
        traj = simulate(stepper, bump_state(dom16), n_steps=6,
                        sinks=[lambda k, t, s, r: tight.append(0)])
        return traj.step_series, np.array(tight[:-1])

    (first, tight), (second, _) = run(), run()
    for name in ("picard_sweeps", "cg_outer", "h_solves"):
        assert len(first[name]) == 6
        np.testing.assert_array_equal(first[name], second[name])
    assert np.all(first["picard_sweeps"] >= 2)
    assert len(tight) == 6
    np.testing.assert_array_equal(
        first["h_solves"], first["cg_outer"] + tight + 2)


def test_warm_start_deterministic(dom16, params):
    # same inputs give bitwise identical trajectories
    def run():
        stepper = PlateStepper(dom16, params,
                               NonlinearitySpec.berger(1.0, 1.0))
        traj = simulate(stepper, bump_state(dom16), n_steps=5)
        return traj.final.u

    np.testing.assert_array_equal(run(), run())


def test_stationary_zero_guess_zero_root(dom16, params):
    u = stationary_solve(dom16, params, NonlinearitySpec.berger(1.0, 1.0),
                         np.zeros((17, 17)))
    assert np.all(u == 0.0)


def test_stationary_buckled_root_nonzero(dom16, params):
    from platetx.nonlinearity import force

    spec = NonlinearitySpec.berger(tension=-200.0, stretch=1.0)
    guess = 5.0 * np.sin(np.pi * dom16.X) ** 2 * np.sin(np.pi * dom16.Y) ** 2
    u = stationary_solve(dom16, params, spec, guess)
    assert np.max(np.abs(u)) > 0.1
    res = biharmonic_transmission(dom16, u, params)
    res += force(dom16, u, spec)
    res[dom16.gamma1] = 0.0
    h2 = dom16.h**2
    rnorm = np.sqrt(h2 * np.sum(res * res))
    unorm = np.sqrt(h2 * np.sum(u * u))
    assert rnorm <= 1e-9 * (1.0 + unorm)


STATIONARY_SPECS = [NonlinearitySpec.berger(-200.0, 1.5),
                    NonlinearitySpec.scalar(CubicForce(1.0, 0.5),
                                            CubicForce(2.0, -1.0))]


@pytest.mark.parametrize("spec", STATIONARY_SPECS, ids=["berger", "scalar"])
@pytest.mark.parametrize("contrast", [False, True],
                         ids=["uniform", "contrast"])
@pytest.mark.parametrize("box", K_HAT_BOXES)
def test_stationary_jacobian_is_the_projected_grid_jacobian(params, rng, box,
                                                            contrast, spec):
    # the Newton-CG of stationary_solve applies its Jacobian on sine
    # coefficients; it is S J S of the grid Jacobian, for Berger with a
    # membrane coefficient far from 0 and for the pointwise scalar force,
    # with the region contrast of the bending (params) and without it
    n, lo, hi = box
    dom = build_domain(DomainConfig(n_cells=n, inner_lo=lo, inner_hi=hi))
    par = params if contrast else PhysParams()
    u, v = random_clamped(dom, rng), random_clamped(dom, rng)
    sine = operators.sine_basis(n)
    want = sine.project(grid_reference.stationary_jacobian(
        dom, par, spec, u, v)[1:-1, 1:-1])
    apply = stepper_module._stationary_jacobian(
        dom, spec, ClampedPlateHat(dom, par, 0.0, 1.0), u)
    got = apply(sine.project(v[1:-1, 1:-1]))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("spec,contrast", [
    (NonlinearitySpec.berger(-200.0, 1.0), True),
    (NonlinearitySpec.berger(1.0, 1.0), False),
    (NonlinearitySpec.scalar(CubicForce(1.0, 0.5), CubicForce(2.0, -1.0)),
     False),
    (NonlinearitySpec.scalar(CubicForce(1.0, 0.5), CubicForce(2.0, -1.0)),
     True),
], ids=["berger-buckled-contrast", "berger", "scalar", "scalar-contrast"])
def test_stationary_matches_grid_newton(dom16, params, spec, contrast,
                                        monkeypatch):
    # the Newton-CG on sine coefficients takes the Newton steps of the same
    # Newton with its CG on the grid and lands on the same root
    par = params if contrast else PhysParams()
    guess = 5.0 * np.sin(np.pi * dom16.X) ** 2 * np.sin(np.pi * dom16.Y) ** 2
    solves = []

    def counted(*args, **kwargs):
        solves.append(1)
        return cg_solve(*args, **kwargs)

    monkeypatch.setattr(stepper_module, "cg_solve", counted)
    u = stationary_solve(dom16, par, spec, guess)
    want, steps = grid_reference.stationary_solve(dom16, par, spec, guess)
    assert len(solves) == steps > 0
    assert np.max(np.abs(u - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


@pytest.mark.xfail(raises=SolverError, strict=True,
                   reason="the residual test sits below the rounding floor "
                          "of the residual at n=32")
def test_stationary_buckled_root_converges_at_n32():
    # default coefficients, Berger tension -200 and the bump of amplitude 5
    # (run.experiment=stationary, run.amplitude=5): the buckled root is
    # reached at n=16 but Newton stagnates at n=32 with a residual of about
    # 5e-9 against tol (1 + |u|) = 3.3e-9, since a rounding-level change of
    # the root moves the grid residual by more than the tolerance
    dom = build_domain(DomainConfig(n_cells=32))
    spec = NonlinearitySpec.berger(-200.0, 1.0)
    guess = initial_state(dom, "bump", 5.0).u
    u = stationary_solve(dom, PhysParams(), spec, guess)
    res = biharmonic_transmission(dom, u, PhysParams())
    res += force(dom, u, spec)
    res[dom.gamma1] = 0.0
    h2 = dom.h**2
    assert np.sqrt(h2 * np.sum(res * res)) \
        <= 1e-9 * (1.0 + np.sqrt(h2 * np.sum(u * u)))
