"""Grid forms of operators that the package applies on sine coefficients.

The solvers of platetx run on the interior sine coefficients S p S of
clamped fields. The forms here act on grid arrays, written from the
stencils and the grid operators of platetx.operators; the tests hold the
coefficient forms against them. They read the stencils through the
operators module, so a test that patches one there sees their work.
The thermal operator on the grid, thermal_laplacian, is the oracle of the
form operators.thermal_form, which is where the package takes the
dissipation from.
"""

import numpy as np

from platetx import operators
from platetx.errors import SolverError
from platetx.nonlinearity import berger_coefficient, force
from platetx.stepper import (STATIONARY_CG_TOL, STATIONARY_MAX_NEWTON,
                             STATIONARY_TOL)


def apply_k(stepper, p, m_bar=None):
    """Reduced velocity operator of stepper on clamped p (zero on gamma1):

        K p = (2/dt) rho p + (dt/2) A p + C H^-1 S p - (dt/2) m_bar lap p

    with A = biharmonic_transmission, S = coupling_to_heat and
    C = coupling_to_plate; the m_bar term is the Berger membrane part. One
    Laplacian of p feeds the heat source, the bending flux and the membrane
    term, and one transpose returns bending and coupling together; both
    halves of the coupling pair go through the same L and L^T, so they
    cancel in the energy identity. The thermal solve is stepper.solve_h.
    """
    dom, dt = stepper.domain, stepper.dt
    h2 = dom.h * dom.h
    lap = operators.laplacian_clamped(dom, p)
    th = stepper.solve_h(stepper.params.mu * lap)
    out = operators.laplacian_clamped_transpose(
        dom, 0.5 * dt * stepper.coeff * lap + stepper.params.mu * dom.w1 * th)
    out /= h2
    out += (2.0 / dt) * stepper.params.density(dom) * p
    if m_bar is not None:
        out -= (0.5 * dt * m_bar) * lap
    out[dom.gamma1] = 0.0
    return out


def thermal_laplacian(domain, theta, params):
    """Positive operator of operators.thermal_form with respect to the
    frame weights w1, on the grid: interior frame rows are the standard
    5-point -Laplacian with Dirichlet elimination at gamma0, gamma1 rows
    carry the Robin ghost. The package inverts it (FrameThermalSolver) but
    never applies it."""
    out = np.zeros_like(theta)
    dx = domain.ce_h * (theta[1:, :] - theta[:-1, :])
    out[:-1, :] -= dx
    out[1:, :] += dx
    dy = domain.ce_v * (theta[:, 1:] - theta[:, :-1])
    out[:, :-1] -= dy
    out[:, 1:] += dy
    out += params.lam * domain.bw * theta
    np.divide(out, domain.w1, out=out, where=domain.w1 > 0)
    out[~domain.theta_free] = 0.0
    return out


def dissipation(domain, th, params):
    """D = beta0 <L th, th>_w1 through thermal_laplacian: the operator form
    of diagnostics.dissipation, written independently of thermal_form."""
    return params.beta0 * float(
        np.sum(domain.w1 * thermal_laplacian(domain, th, params) * th))


def precondition(pre, r, symbol=None):
    """ClampedSinePreconditioner pre on a grid array r: P2 r on interior
    nodes (zero on gamma1), the sine part taken at symbol (pre's
    construction symbol unless given), through the two two-sided products
    with S of a plain sine solve."""
    s = operators.sine_basis(len(r) - 1)
    out = np.zeros_like(r)
    s.expand(pre.apply_hat(s.project(r[1:-1, 1:-1]), symbol),
             out=out[1:-1, 1:-1])
    return out


def central_gradient(domain, u):
    """Central-difference gradient with clamped reflection ghosts, the
    central_differences divided by 2h: one (2, n+1, n+1) array of the x
    and y components (gx, gy = ... unpacks it), whose component normal to
    gamma1 is 0.0 there."""
    g = operators.central_differences(u)
    g /= 2.0 * domain.h
    return g


def stationary_jacobian(domain, params, spec, u, v):
    """Jacobian of the stationary residual biharmonic_transmission + force
    at u, applied to clamped v on the grid."""
    h2 = domain.h * domain.h
    out = operators.biharmonic_transmission(domain, v, params)
    if spec.variant == "berger":
        m = berger_coefficient(domain, u, spec)
        lap_v = operators.laplacian_clamped(domain, v)
        lap_u = operators.laplacian_clamped(domain, u)
        dm = 2.0 * spec.stretch * operators.gradient_form(domain, u, v)
        out -= m * lap_v + dm * lap_u
    else:
        fp = (
            domain.w1 * (3.0 * spec.f1.kappa * u**2 + spec.f1.c)
            + domain.w2 * (3.0 * spec.f2.kappa * u**2 + spec.f2.c)
        ) / h2
        out += fp * v
    out[domain.gamma1] = 0.0
    return out


def stationary_solve(domain, params, spec, guess):
    """The damped Newton of platetx.stepper.stationary_solve, with its
    tolerances and step limit, and its CG on the grid: stationary_jacobian
    and the preconditioner through precondition. Returns (root, Newton steps
    taken)."""
    h2 = domain.h * domain.h
    dot = lambda a, b: h2 * float(np.vdot(a, b))
    norm = lambda a: np.sqrt(dot(a, a))
    u = np.array(guess, dtype=float)
    u[domain.gamma1] = 0.0

    def residual(u):
        r = operators.biharmonic_transmission(domain, u, params)
        r += force(domain, u, spec)
        r[domain.gamma1] = 0.0
        return r

    beta_bar = (params.beta1 * float(np.sum(domain.w1))
                + params.beta2 * float(np.sum(domain.w2)))
    pre = operators.ClampedSinePreconditioner(
        domain, beta_bar * operators.dirichlet_sine_eigenvalues(domain)**2
        + 1.0, params.bending_coeff(domain))

    res = residual(u)
    for newton in range(STATIONARY_MAX_NEWTON):
        rnorm = norm(res)
        if rnorm <= STATIONARY_TOL * (1.0 + norm(u)):
            return u, newton
        op = operators.LinearOperator(
            apply=lambda v: stationary_jacobian(domain, params, spec, u, v),
            dot=dot)
        try:
            d = operators.cg_solve(op, -res, tol=STATIONARY_CG_TOL,
                                   max_iter=2000,
                                   precond=lambda r: precondition(pre, r))[0]
        except SolverError as exc:
            if exc.best is None:
                raise
            d = exc.best
        alpha = 1.0
        while alpha > 1e-10:
            u_try = u + alpha * d
            res_try = residual(u_try)
            if norm(res_try) < (1.0 - 1e-4 * alpha) * rnorm:
                u, res = u_try, res_try
                break
            alpha *= 0.5
        else:
            raise SolverError("grid stationary Newton stagnated",
                              best=u, residual=rnorm)
    raise SolverError("grid stationary Newton did not converge", best=u,
                      residual=norm(res))
