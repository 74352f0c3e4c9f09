import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import eigh_tridiagonal

import platetx
from conftest import random_clamped, random_theta
from grid_reference import (CholeskyCapacitance, RobinThermalSolver,
                            RobinToSine, central_gradient, coupling_to_heat,
                            coupling_to_plate, precondition,
                            robin_eigenbasis, thermal_laplacian)
from platetx.domain import DomainConfig, build_domain
from platetx.errors import SolverError
from platetx.fields import PhysParams
from platetx.operators import (ClampedPlateHat, ClampedSinePreconditioner,
                               ParityBasis, biharmonic_transmission,
                               cg_solve, dirichlet_inverse,
                               dirichlet_sine_eigenvalues,
                               frame_gradient_form, gradient_form,
                               laplacian_clamped, laplacian_clamped_transpose,
                               parity_order, sine_basis, sine_matrix,
                               thermal_form, _quasi_definite_inverse,
                               _spd_inverse)


def manufactured(domain):
    return np.sin(np.pi * domain.X) ** 2 * np.sin(np.pi * domain.Y) ** 2


def lap_exact(X, Y):
    return 2 * np.pi**2 * (np.cos(2 * np.pi * X) * np.sin(np.pi * Y) ** 2
                           + np.sin(np.pi * X) ** 2 * np.cos(2 * np.pi * Y))


def bih_exact(X, Y):
    s2x, s2y = np.sin(np.pi * X) ** 2, np.sin(np.pi * Y) ** 2
    return np.pi**4 * (64 * s2x * s2y - 24 * s2x - 24 * s2y + 8)


@pytest.mark.parametrize("n", [8, 16, 64])
def test_laplacian_transpose_exact(n, rng):
    # fields that do not vanish on gamma1 reach the flat stencils' wrapped
    # west and east terms at columns 0 and n
    dom = build_domain(DomainConfig(n_cells=n))
    a = rng.standard_normal((n + 1, n + 1))
    b = rng.standard_normal((n + 1, n + 1))
    lhs = np.sum(laplacian_clamped(dom, a) * b)
    rhs = np.sum(a * laplacian_clamped_transpose(dom, b))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_laplacian_self_adjoint_on_clamped(dom16, rng):
    a = random_clamped(dom16, rng)
    b = random_clamped(dom16, rng)
    lhs = np.sum(laplacian_clamped(dom16, a) * b)
    rhs = np.sum(a * laplacian_clamped(dom16, b))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_summation_by_parts(dom16, rng):
    a = random_clamped(dom16, rng)
    b = random_clamped(dom16, rng)
    lhs = np.sum(dom16.w * laplacian_clamped(dom16, a) * b)
    assert lhs == pytest.approx(-gradient_form(dom16, a, b), rel=1e-12)


def test_laplacian_convergence_order():
    errs = []
    for n in (32, 64, 128):
        dom = build_domain(DomainConfig(n_cells=n))
        err = np.abs(laplacian_clamped(dom, manufactured(dom))
                     - lap_exact(dom.X, dom.Y))
        errs.append(np.max(err))
    for i in range(2):
        order = np.log2(errs[i] / errs[i + 1])
        assert 1.7 <= order <= 2.3


def test_biharmonic_convergence_order():
    p = PhysParams()  # uniform beta
    errs = []
    for n in (32, 64, 128):
        dom = build_domain(DomainConfig(n_cells=n))
        a = biharmonic_transmission(dom, manufactured(dom), p)
        ex = bih_exact(dom.X, dom.Y)
        ex[dom.gamma1] = 0.0
        errs.append(np.max(np.abs(a - ex)))
    for i in range(2):
        order = np.log2(errs[i] / errs[i + 1])
        assert 1.7 <= order <= 2.3


def test_biharmonic_symmetry_positivity(dom16, params, rng):
    h2 = dom16.h**2
    for _ in range(100):
        a = random_clamped(dom16, rng)
        b = random_clamped(dom16, rng)
        ab = h2 * np.sum(biharmonic_transmission(dom16, a, params) * b)
        ba = h2 * np.sum(a * biharmonic_transmission(dom16, b, params))
        assert abs(ab - ba) <= 1e-12 * max(abs(ab), 1.0)
        quad = h2 * np.sum(biharmonic_transmission(dom16, a, params) * a)
        assert quad > 0.0


def test_biharmonic_equals_bending_form(dom16, params, rng):
    a = random_clamped(dom16, rng)
    b = random_clamped(dom16, rng)
    lhs = dom16.h**2 * np.sum(biharmonic_transmission(dom16, a, params) * b)
    form = np.sum(params.bending_coeff(dom16) * laplacian_clamped(dom16, a)
                  * laplacian_clamped(dom16, b))
    assert lhs == pytest.approx(form, rel=1e-11)


def test_thermal_form_symmetric_positive(dom16, params, rng):
    a = random_theta(dom16, rng)
    b = random_theta(dom16, rng)
    assert thermal_form(dom16, a, b, params) == pytest.approx(
        thermal_form(dom16, b, a, params), rel=1e-13
    )
    assert thermal_form(dom16, a, a, params) > 0.0


@pytest.mark.parametrize("cfg", [DomainConfig(n_cells=16),
                                 DomainConfig(n_cells=12, inner_lo=1 / 6,
                                              inner_hi=0.5)])
def test_frame_gradient_form_matches_edge_sums(cfg, rng):
    # the y differences over the flattened array, whose wrapped pairs carry
    # zero weight, against the sums over the (n+1, n) grid of y edges
    dom = build_domain(cfg)
    a = random_theta(dom, rng)
    b = random_theta(dom, rng)
    for x, y in ((a, b), (a, a)):
        want = (np.sum(dom.ce_h * np.diff(x, axis=0) * np.diff(y, axis=0))
                + np.sum(dom.ce_h.T * np.diff(x, axis=1)
                         * np.diff(y, axis=1)))
        assert frame_gradient_form(dom, x, y) == pytest.approx(want,
                                                               rel=1e-14)


def test_thermal_operator_matches_form(dom16, params, rng):
    a = random_theta(dom16, rng)
    b = random_theta(dom16, rng)
    lhs = np.sum(dom16.w1 * thermal_laplacian(dom16, a, params) * b)
    assert lhs == pytest.approx(thermal_form(dom16, a, b, params), rel=1e-12)


def test_thermal_interior_row_is_5point(dom16, params):
    # at a frame-interior node the operator reduces to the standard stencil
    th = np.zeros((17, 17))
    i, j = 2, 8
    th[i, j] = 1.0
    out = thermal_laplacian(dom16, th, params)
    assert out[i, j] == pytest.approx(4.0 / dom16.h**2)
    assert out[i + 1, j] == pytest.approx(-1.0 / dom16.h**2)


def test_thermal_manufactured_convergence():
    # theta = p(x)p(y) vanishes on the interface lines and has zero normal
    # derivative on the outer boundary, matching lam=0
    def p(t):
        return np.sin(4 * np.pi * t) - 0.5 * np.sin(8 * np.pi * t)

    def pdd(t):
        return (-16 * np.pi**2 * np.sin(4 * np.pi * t)
                + 32 * np.pi**2 * np.sin(8 * np.pi * t))

    par = PhysParams(lam=0.0)
    errs = []
    for n in (32, 64, 128):
        dom = build_domain(DomainConfig(n_cells=n))
        th = p(dom.X) * p(dom.Y)
        th[~dom.theta_free] = 0.0
        out = thermal_laplacian(dom, th, par)
        exact = -(pdd(dom.X) * p(dom.Y) + p(dom.X) * pdd(dom.Y))
        errs.append(np.max(np.abs((out - exact)[dom.omega1_interior])))
    for i in range(2):
        order = np.log2(errs[i] / errs[i + 1])
        assert 1.7 <= order <= 2.3


def test_coupling_cancellation(dom16, params, rng):
    h2 = dom16.h**2
    for _ in range(100):
        th = random_theta(dom16, rng)
        ut = random_clamped(dom16, rng)
        c1 = h2 * np.sum(coupling_to_plate(dom16, th, params) * ut)
        c2 = np.sum(dom16.w1 * coupling_to_heat(dom16, ut, params) * th)
        assert abs(c1 - c2) <= 1e-12 * max(abs(c1), 1.0)


def test_coupling_scales_with_mu(dom16, rng):
    th = random_theta(dom16, rng)
    p1 = PhysParams(mu=1.0)
    p2 = PhysParams(mu=2.5)
    np.testing.assert_allclose(
        coupling_to_plate(dom16, th, p2),
        2.5 * coupling_to_plate(dom16, th, p1), rtol=1e-13,
    )
    assert np.all(coupling_to_plate(dom16, th, PhysParams(mu=0.0)) == 0.0)


def test_central_gradient_linear_exact(dom16):
    gx, gy = central_gradient(dom16, 2.0 * dom16.X + 3.0 * dom16.Y)
    interior = ~dom16.gamma1
    assert np.allclose(gx[interior], 2.0)
    assert np.allclose(gy[interior], 3.0)


def _ghosted_by_hand(u):
    """Reference: the clamped reflection-ghost array written out per side."""
    ue = np.zeros((u.shape[0] + 2, u.shape[1] + 2))
    ue[1:-1, 1:-1] = u
    ue[0, 1:-1] = u[1, :]
    ue[-1, 1:-1] = u[-2, :]
    ue[1:-1, 0] = u[:, 1]
    ue[1:-1, -1] = u[:, -2]
    return ue


@pytest.mark.parametrize("n", [8, 64])
def test_clamped_stencils_bit_identical_to_inline_ghosts(n, rng):
    # the flat laplacian_clamped and the ghosted central_gradient must both
    # equal, bit for bit, the stencils on a hand-built ghost array
    dom = build_domain(DomainConfig(n_cells=n))
    h = dom.h
    u = rng.standard_normal((n + 1, n + 1))
    ue = _ghosted_by_hand(u)
    lap = (ue[:-2, 1:-1] + ue[2:, 1:-1] + ue[1:-1, :-2] + ue[1:-1, 2:]
           - 4.0 * ue[1:-1, 1:-1])
    lap /= h * h
    assert np.array_equal(laplacian_clamped(dom, u), lap)
    gx, gy = central_gradient(dom, u)
    assert np.array_equal(gx, (ue[2:, 1:-1] - ue[:-2, 1:-1]) / (2.0 * h))
    assert np.array_equal(gy, (ue[1:-1, 2:] - ue[1:-1, :-2]) / (2.0 * h))


def test_cg_solves_spd_system(dom16, rng):
    # -Laplacian with Dirichlet data is SPD on interior nodes
    h2 = dom16.h**2

    def apply(v):
        out = -laplacian_clamped(dom16, v)
        out[dom16.gamma1] = 0.0
        return out

    rhs = random_clamped(dom16, rng)
    x, iters, r = cg_solve(apply, lambda a, b: h2 * np.sum(a * b), rhs,
                           tol=1e-12, max_iter=2000)
    assert iters > 0
    np.testing.assert_allclose(apply(x), rhs, atol=1e-10)
    np.testing.assert_allclose(r, rhs - apply(x), atol=1e-10)


def _dirichlet_op(domain):
    def apply(v):
        out = -laplacian_clamped(domain, v)
        out[domain.gamma1] = 0.0
        return out

    h2 = domain.h**2
    return apply, lambda a, b: h2 * np.sum(a * b)


def test_cg_preconditions_once_per_iteration(dom16, rng):
    # convergence is tested before the preconditioner is applied, so a
    # solve of k iterations preconditions k times and a start that meets
    # the tolerance not at all
    op = _dirichlet_op(dom16)
    calls = []

    def precond(r):
        calls.append(1)
        return r / 8.0

    rhs = random_clamped(dom16, rng)
    x, iters, r = cg_solve(*op, rhs, tol=1e-8, max_iter=500, precond=precond)
    assert iters > 0
    assert len(calls) == iters
    calls.clear()
    _, again, _ = cg_solve(*op, rhs, tol=1e-8, max_iter=500, precond=precond,
                           x0=x)
    assert again == 0
    assert calls == []
    _, again, _ = cg_solve(*op, rhs, tol=1e-8, max_iter=500, precond=precond,
                           x0=x, r0=r)
    assert again == 0
    assert calls == []


def test_cg_converging_on_last_update_returns(dom16, rng):
    # the residual after the max_iter-th update is tested before giving up
    op = _dirichlet_op(dom16)
    rhs = random_clamped(dom16, rng)
    x, iters, _ = cg_solve(*op, rhs, tol=1e-10, max_iter=500)
    x_last, at_limit, _ = cg_solve(*op, rhs, tol=1e-10, max_iter=iters)
    assert at_limit == iters
    np.testing.assert_array_equal(x_last, x)
    with pytest.raises(SolverError):
        cg_solve(*op, rhs, tol=1e-10, max_iter=iters - 1)


def test_cg_reports_nonconvergence(dom16, rng):
    def apply(v):
        out = -laplacian_clamped(dom16, v)
        out[dom16.gamma1] = 0.0
        return out

    with pytest.raises(SolverError) as exc:
        cg_solve(apply, lambda a, b: np.sum(a * b),
                 random_clamped(dom16, rng), tol=1e-14, max_iter=2)
    assert exc.value.best is not None
    assert exc.value.residual > 0


def test_cg_fails_fast_on_nonfinite(dom16, rng):
    def apply(v):
        out = -laplacian_clamped(dom16, v)
        out[dom16.gamma1] = 0.0
        return out

    def dot(a, b):
        return np.sum(a * b)

    rhs = random_clamped(dom16, rng)
    rhs[3, 3] = np.inf
    with pytest.raises(SolverError) as exc:
        cg_solve(apply, dot, rhs, max_iter=500)
    assert exc.value.iterations == 0
    # a non-finite operator is caught at the first residual it spoils
    with pytest.raises(SolverError) as exc:
        cg_solve(lambda v: np.nan * v, dot, random_clamped(dom16, rng),
                 max_iter=500)
    assert exc.value.iterations == 1


def test_dirichlet_inverse_roundtrip(dom16, rng):
    f = rng.standard_normal((17, 17))
    w = dirichlet_inverse(dom16, f)
    assert np.all(w[dom16.gamma1] == 0.0)
    res = laplacian_clamped(dom16, w)
    mask = ~dom16.gamma1
    np.testing.assert_allclose(res[mask], f[mask], atol=1e-9)


@pytest.mark.parametrize("n", [4, 8, 64, 128])
def test_sine_matrix_is_symmetric_involution(n):
    s = sine_matrix(n)
    assert s.shape == (n - 1, n - 1)
    assert np.array_equal(s, s.T)
    assert np.linalg.norm(s @ s - np.eye(n - 1), 2) <= 1e-13


@pytest.mark.parametrize("n", [8, 16, 64])
def test_sine_matrix_transform_matches_scipy_dst(n, rng):
    # scipy.fft is an independent oracle here; the package does not use it
    x = rng.standard_normal((n - 1, n - 1))
    s = sine_matrix(n)
    want = scipy.fft.dstn(x, type=1, norm="ortho")
    assert np.max(np.abs(s @ x @ s - want)) <= 1e-13 * np.max(np.abs(want))


def test_cached_sine_basis_is_read_only(dom16):
    s = sine_matrix(16)
    lam = dirichlet_sine_eigenvalues(dom16)
    assert sine_matrix(16) is s
    assert dirichlet_sine_eigenvalues(dom16) is lam
    with pytest.raises(ValueError):
        s[0, 0] = 1.0
    with pytest.raises(ValueError):
        lam[0, 0] = 1.0
    with pytest.raises(ValueError):
        lam *= 2.0


@pytest.mark.parametrize("n", [8, 16, 64, 128])
def test_dirichlet_inverse_solves_five_point_laplacian(n):
    dom = build_domain(DomainConfig(n_cells=n))
    f = np.random.default_rng(n).standard_normal((n + 1, n + 1))
    w = dirichlet_inverse(dom, f)
    assert np.all(w[dom.gamma1] == 0.0)
    lap = (w[:-2, 1:-1] + w[2:, 1:-1] + w[1:-1, :-2] + w[1:-1, 2:]
           - 4.0 * w[1:-1, 1:-1]) / dom.h**2
    fi = f[1:-1, 1:-1]
    assert np.max(np.abs(lap - fi)) <= 1e-12 * np.max(np.abs(fi))


def test_import_leaves_scipy_fft_unloaded():
    # a fresh interpreter, since this test module imports scipy.fft itself
    src = str(Path(platetx.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, platetx; print('scipy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_dirichlet_inverse_rejects_nan(dom16):
    f = np.zeros((17, 17))
    f[5, 7] = np.nan
    with pytest.raises(SolverError):
        dirichlet_inverse(dom16, f)


def test_smallest_dirichlet_eigenvalue_matches_sine_formula():
    # inverse power iteration on the inverse Laplacian
    dom = build_domain(DomainConfig(n_cells=32))
    rng = np.random.default_rng(7)
    v = rng.standard_normal((33, 33))
    v[dom.gamma1] = 0.0
    for _ in range(60):
        w = -dirichlet_inverse(dom, v)
        v = w / np.sqrt(np.sum(w * w))
    lam_min = 1.0 / np.sum(v * -dirichlet_inverse(dom, v))
    exact = (8.0 / dom.h**2) * np.sin(np.pi * dom.h / 2) ** 2
    assert abs(lam_min - exact) <= 1e-8 * exact
    assert exact == pytest.approx(np.min(dirichlet_sine_eigenvalues(dom)),
                                  rel=1e-13)


@pytest.mark.parametrize("n", [8, 16])
def test_clamped_sine_preconditioner_inverts_uniform_bending(n, rng):
    # a uniform interior bending weight makes the sine symbol exact on the
    # Dirichlet part, so the Woodbury correction with d = 4 weight/h^6 must
    # give the exact inverse, whatever the (uniform) weight on the clamped
    # boundary
    dom = build_domain(DomainConfig(n_cells=n))
    h2 = dom.h**2
    beta, mass = 1.7, 3.0
    symbol = beta * dirichlet_sine_eigenvalues(dom)**2 + mass
    weight = np.full((n + 1, n + 1), beta * h2)
    weight[dom.gamma1] = 0.3 * h2
    pre = ClampedSinePreconditioner(dom, symbol, 4.0 * 0.3 * h2 / h2**3)
    p = random_clamped(dom, rng)
    kp = laplacian_clamped_transpose(dom, weight * laplacian_clamped(dom, p))
    kp = kp / h2 + mass * p
    kp[dom.gamma1] = 0.0
    out = precondition(pre, kp)
    assert np.all(out[dom.gamma1] == 0.0)
    assert np.max(np.abs(out - p)) <= 1e-12 * np.max(np.abs(p))


@pytest.mark.parametrize("n", [8, 12, 16])
def test_clamped_sine_preconditioner_matches_dense_woodbury(n, rng):
    check_dense_woodbury(n, rng)


@pytest.mark.parametrize("n", [8, 12, 16])
@pytest.mark.usefixtures("folded")
def test_clamped_sine_preconditioner_matches_dense_woodbury_folded(n, rng):
    check_dense_woodbury(n, rng)


def check_dense_woodbury(n, rng):
    # the block-split capacitance solve against the dense Woodbury formula
    # P - P U C^-1 U^T P, C = diag(1/d) + U^T P U, on a random symbol; the
    # odd n - 1 = 11 interior nodes at n=12 give parity blocks of unequal size
    dom = build_domain(DomainConfig(n_cells=n))
    m, h = n - 1, dom.h
    symbol = rng.uniform(0.5, 2.0, (m, m)) * (
        1.0 + dirichlet_sine_eigenvalues(dom)**2)
    d = 4.0 * 0.7 * h * h / h**6
    pre = ClampedSinePreconditioner(dom, symbol, d)

    s1 = np.sqrt(2.0 / n) * np.sin(
        np.pi * np.outer(np.arange(1, n), np.arange(1, n)) / n)
    s1 = s1[:, parity_order(m)]  # the mode order of the symbol
    s2 = np.kron(s1, s1)  # orthonormal 2-D DST-I on row-major interior
    p_dense = s2 @ np.diag(1.0 / symbol.ravel()) @ s2.T
    ring = np.zeros((m * m, 4 * m))
    for j in range(m):  # interior neighbours of the four sides, in order
        for col, (a, b) in enumerate(((0, j), (m - 1, j), (j, 0),
                                      (j, m - 1))):
            ring[a * m + b, col * m + j] = 1.0
    cap = np.eye(4 * m) / d + ring.T @ p_dense @ ring
    pu = p_dense @ ring
    woodbury = p_dense - pu @ np.linalg.solve(cap, pu.T)

    r = random_clamped(dom, rng)
    want = (woodbury @ r[1:-1, 1:-1].ravel()).reshape(m, m)
    got = precondition(pre, r)
    assert np.all(got[dom.gamma1] == 0.0)
    assert np.max(np.abs(got[1:-1, 1:-1] - want)) <= 1e-13 * np.max(
        np.abs(want))


def stepper_symbol(n, lo=0.25, hi=0.75):
    # the velocity solve's symbol and ring weight d = 4 weight/h^6 of a
    # boundary weight (dt/2) 1.3 h^2 (PlateStepper), with the Berger
    # membrane shift m_bar (dt/2) lambda the solve adds
    dom = build_domain(DomainConfig(n_cells=n, inner_lo=lo, inner_hi=hi))
    dt, beta_bar, rho_bar = 0.25 / n, 1.5, 1.2
    lam = dirichlet_sine_eigenvalues(dom)
    symbol = 2.0 * rho_bar / dt + 0.5 * dt * beta_bar * lam**2
    d = 4.0 * (0.5 * dt * 1.3 * dom.h**2) / dom.h**6
    return dom, symbol, d, symbol + 0.7 * 0.5 * dt * lam


@pytest.mark.parametrize("n", [8, 16, 32])
def test_clamped_sine_preconditioner_matches_cholesky_oracle(n, rng):
    # the capacitance inverses built through the Schur complement against
    # Cholesky solves of the same blocks, for the construction symbol and a
    # Berger-shifted one, and on a random symbol
    dom, symbol, d, shifted = stepper_symbol(n)
    m = n - 1
    random_symbol = rng.uniform(0.5, 2.0, (m, m)) * (
        1.0 + dirichlet_sine_eigenvalues(dom)**2)
    for sym, applied in ((symbol, None), (symbol, shifted),
                         (random_symbol, None)):
        pre = ClampedSinePreconditioner(dom, sym, d)
        oracle = CholeskyCapacitance(dom, sym, d)
        r_hat = rng.standard_normal((m, m))
        want = oracle.apply_hat(r_hat, applied)
        got = pre.apply_hat(r_hat, applied)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [7, 8, 16, 32, 64])
def test_clamped_sine_preconditioner_inverts_each_capacitance_block(n):
    # C^-1 C = I on every block, stored padded to the even-mode count ke:
    # the a-unknowns at 0..na-1, the b-unknowns at ke..ke+nb-1; n = 7 has
    # parity blocks of equal size, even n unequal ones
    dom, symbol, d, _ = stepper_symbol(n, 1 / n, 1 - 1 / n)
    pre = ClampedSinePreconditioner(dom, symbol, d)
    oracle = CholeskyCapacitance(dom, symbol, d)
    ke = n - 1 - (n - 1) // 2
    for b, (idx, c) in enumerate(oracle.blocks):
        na = np.count_nonzero(idx < 2 * (n - 1))
        keep = np.r_[0:na, ke:ke + len(idx) - na]
        inv = pre._cinv[b][np.ix_(keep, keep)]
        assert np.max(np.abs(inv @ c - np.eye(len(c)))) <= 1e-12


def test_clamped_sine_preconditioner_rejects_indefinite_capacitance(dom16):
    # a symbol that is not positive makes a capacitance block indefinite
    m = dom16.n - 1
    symbol = np.full((m, m), 1.0)
    symbol[0, 0] = -1e-3
    with pytest.raises(SolverError):
        ClampedSinePreconditioner(dom16, symbol, 4.0 * 0.7 / dom16.h**4)


@pytest.mark.parametrize("d", [0.0, -1.0, math.inf, math.nan])
def test_clamped_sine_preconditioner_rejects_bad_ring_weight(dom16, d):
    m = dom16.n - 1
    with pytest.raises(SolverError, match="ring weight"):
        ClampedSinePreconditioner(dom16, np.ones((m, m)), d)


@pytest.mark.parametrize("nd, nb, size", [(3, 7, 7), (4, 6, 9)],
                         ids=["no-multipliers", "multipliers"])
def test_quasi_definite_inverse_matches_dense_inverse(nd, nb, size, rng):
    # a stack of [[Sigma, X], [X^T, -C]], Sigma diagonal on its first nd
    # rows; Sigma and C diagonally dominant, so both are SPD
    a = 0.3 * rng.standard_normal((3, size, size))
    a += a.swapaxes(1, 2)
    a[:, :nd, :nd] = 0.0
    diag = np.einsum("bii->bi", a)
    diag[...] = rng.uniform(1.0, 2.0, (3, size)) * np.where(
        np.arange(size) < nb, size, -size)
    want = np.linalg.inv(a)
    got = _quasi_definite_inverse(a.copy(), nd, nb, "stack")
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    for bad in (0.0, math.nan):
        diag[1, nd - 1] = bad
        with pytest.raises(SolverError, match="stack: .*diagonal part"):
            _quasi_definite_inverse(a.copy(), nd, nb, "stack")


def random_spd(rng, size):
    """A stack of three SPD matrices of the given size, condition number
    at most about 10."""
    g = rng.standard_normal((3, size, size))
    return g @ g.swapaxes(1, 2) / size + np.eye(size)


@pytest.mark.parametrize("size", [1, 2, 31, 32, 33, 64, 65, 130])
def test_spd_inverse_matches_dense_inverse(size, rng):
    # powers of two, one either side of them, and sizes that split into
    # several powers of two (31 = 16 + 8 + 4 + 2 + 1, 130 = 128 + 2)
    a = random_spd(rng, size)
    want = np.linalg.inv(a)
    got = _spd_inverse(a, "stack")
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(got, got.swapaxes(1, 2))


@pytest.mark.parametrize("size", [2, 33, 65])
def test_spd_inverse_rejects_indefinite_schur_complement(size, rng):
    # the middle matrix keeps a definite leading block, but its last
    # diagonal entry is one less than the Schur complement needs
    a = random_spd(rng, size)
    a11, a12 = a[1, :-1, :-1], a[1, :-1, -1]
    a[1, -1, -1] = a12 @ np.linalg.solve(a11, a12) - 1.0
    assert np.all(np.linalg.eigvalsh(a11) > 0.0)
    with pytest.raises(SolverError, match="stack: capacitance matrix is "
                       "not positive definite"):
        _spd_inverse(a, "stack")


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("scales", ["step", "stationary", "other"])
def test_plate_preconditioner_inverts_its_uniform_plate(n, scales, rng):
    # at equal coefficients in the two regions the plate has no contrast
    # term and its area-mean symbol is its own, so the preconditioner that
    # ClampedPlateHat builds is the exact inverse of its accumulate; the
    # stepper's K (mass 2/dt, bending dt/2), the stationary Jacobian (mass
    # 0, bending 1) and a third pair
    dom = build_domain(DomainConfig(n_cells=n))
    dt = dom.h / 4
    mass, bending = {"step": (2.0 / dt, 0.5 * dt), "stationary": (0.0, 1.0),
                     "other": (3.0, 1.7)}[scales]
    params = PhysParams(rho1=1.3, rho2=1.3, beta1=0.8, beta2=0.8)
    plate = ClampedPlateHat(dom, params, mass, bending)
    pre = plate.preconditioner()
    p_hat = rng.standard_normal((n - 1, n - 1))
    got = pre.apply_hat(plate.accumulate(p_hat, np.zeros_like(p_hat)))
    assert np.max(np.abs(got - p_hat)) <= 1e-12 * np.max(np.abs(p_hat))


@pytest.mark.parametrize("bending", [0.0, -1.0])
def test_plate_preconditioner_needs_positive_bending(dom16, params, bending):
    with pytest.raises(SolverError, match="ring weight"):
        ClampedPlateHat(dom16, params, 1.0, bending).preconditioner()


def parity_bases(n):
    """The two bases that ParityBasis serves, of sizes n-1 and n+1."""
    return {"sine": sine_matrix(n), "robin": robin_eigenbasis(n, 0.4 / n)[1]}


@pytest.mark.parametrize("kind", ["sine", "robin"])
@pytest.mark.parametrize("n", [7, 8, 15, 16, 128])
@pytest.mark.usefixtures("folded")
def test_folded_products_match_dense(n, kind, rng):
    # odd n gives even basis sizes, even n odd ones with a centre row
    b = parity_bases(n)[kind]
    basis = ParityBasis(b)
    b = b[:, parity_order(len(b))]  # the mode order of the products
    x = rng.standard_normal(b.shape)
    for got, want in ((basis.project(x), b.T @ x @ b),
                      (basis.expand(x), b @ x @ b.T)):
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [7, 8, 15, 16, 128])
@pytest.mark.usefixtures("folded")
def test_folded_expand_into_a_view(n, rng):
    # expand writes its result into a strided view, as the interior of a
    # grid field, with the values it returns
    basis = sine_basis(n)
    y = rng.standard_normal((n - 1, n - 1))
    grid = np.zeros((n + 1, n + 1))
    basis.expand(y, out=grid[1:-1, 1:-1])
    np.testing.assert_array_equal(grid[1:-1, 1:-1], basis.expand(y))
    assert np.all(grid[[0, -1]] == 0.0) and np.all(grid[:, [0, -1]] == 0.0)


@pytest.mark.parametrize("box", [(7, 1 / 7, 6 / 7), (8, 1 / 4, 3 / 4),
                                 (15, 1 / 3, 2 / 3), (16, 1 / 4, 3 / 4),
                                 (64, 1 / 4, 3 / 4), (16, 1 / 16, 1 / 2),
                                 (32, 1 / 2, 3 / 4), (4, 1 / 4, 1 / 2)])
def test_robin_to_sine_is_block_diagonal_by_parity(params, box, rng):
    # Phi = S^T G[1:n], and Psi = S_b^T G_b on the closed inner box of a
    # box centred on n/2, vanish off their two parity blocks; the products
    # of both, blocked or dense (an off-centre box), are the dense ones
    n, lo, hi = box
    dom = build_domain(DomainConfig(n_cells=n, inner_lo=lo, inner_hi=hi))
    lo, hi = dom.lo_idx, dom.hi_idx
    s = sine_basis(n).b
    g = RobinThermalSolver(dom, params, dom.h / 4).basis.b
    ks, kg = n - 1 - (n - 1) // 2, n + 1 - (n + 1) // 2
    centred = lo + hi == n
    cases = [(s.T @ g[1:-1], RobinToSine(s, g[1:-1]), True),
             (s[lo - 1:hi].T @ g[lo:hi + 1],
              RobinToSine(s[lo - 1:hi], g[lo:hi + 1], centred=centred),
              centred)]
    for phi, product, blocked in cases:
        if blocked:
            assert np.max(np.abs(phi[:ks, kg:])) <= 1e-14
            assert np.max(np.abs(phi[ks:, :kg])) <= 1e-14
        else:
            assert np.max(np.abs(phi[:ks, kg:])) > 1e-2
        y = rng.standard_normal((n + 1, n + 1))
        x = rng.standard_normal((n - 1, n - 1))
        for got, want in ((product(y), phi @ y @ phi.T),
                          (product.transposed(x), phi.T @ x @ phi)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("lam_h", [0.0, 0.05, 12.5])
@pytest.mark.parametrize("n", [7, 8, 128])
def test_robin_eigenbasis_has_exact_parity(n, lam_h):
    tau, g = robin_eigenbasis(n, lam_h)
    assert np.array_equal(g[::-1, 0::2], g[:, 0::2])
    assert np.array_equal(g[::-1, 1::2], -g[:, 1::2])
    # the eigenpairs of the full tridiagonal matrix, in ascending order
    s = np.ones(n + 1)
    s[[0, -1]] = np.sqrt(2.0)
    diag = np.full(n + 1, 2.0)
    diag[[0, -1]] = 1.0 + lam_h
    diag *= s * s
    off = -s[:-1] * s[1:]
    q = g / s[:, None]
    tq = diag[:, None] * q
    tq[:-1] += off[:, None] * q[1:]
    tq[1:] += off[:, None] * q[:-1]
    scale = np.max(np.abs(tau))
    assert np.max(np.abs(tq - q * tau)) <= 1e-13 * scale
    assert np.max(np.abs(q.T @ q - np.eye(n + 1))) <= 1e-13
    # ascending; at lam_h = 12.5 the two end modes agree to rounding
    assert np.all(np.diff(tau) > -1e-13 * scale)
    assert np.max(np.abs(tau - eigh_tridiagonal(diag, off)[0])) <= \
        1e-13 * scale
