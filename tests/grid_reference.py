"""Grid forms of operators that the package applies on sine coefficients.

The solvers of platetx run on the interior sine coefficients S p S of
clamped fields. The forms here act on grid arrays, written from the
stencils and the grid operators of platetx.operators; the tests hold the
coefficient forms against them. They read the stencils through the
operators module, so a test that patches one there sees their work.
The thermal operator on the grid, thermal_laplacian, is the oracle of the
form operators.thermal_form, which is where the package takes the
dissipation from. CholeskyCapacitance is the oracle of
ClampedSinePreconditioner: the same Woodbury inverse with each
capacitance block Cholesky-factored and solved by triangular solves.
CholeskyThermalSolver is the oracle of FrameThermalSolver.solve_projected:
the interface capacitance formed whole on the interface values,
Cholesky-factored and solved by triangular solves, and the lowest mode
restored by a separate Sherman-Morrison step. coupling_to_plate and
coupling_to_heat are the grid forms of FrameThermalSolver's couple_hat and
heat_source_hat, discrete_gradient_force the grid form of the Berger force
that PlateStepper forms on coefficients, and energy_identity_residual
recomputes from a run's states the residuals that simulate records.
"""

import math

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.blas import dtrsv

from platetx import nonlinearity, operators
from platetx.diagnostics import dissipation as package_dissipation, energy
from platetx.errors import SolverError
from platetx.nonlinearity import berger_coefficient, force
from platetx.stepper import (STATIONARY_CG_TOL, STATIONARY_MAX_NEWTON,
                             STATIONARY_TOL)


def coupling_to_plate(domain, theta, params):
    """Weak form of mu*lap(theta) acting on the plate equation: defined so
    <C theta, p>_Omega = mu * sum(w1 * theta * lap p) for clamped p."""
    h2 = domain.h * domain.h
    q = params.mu * domain.w1 * theta
    out = operators.laplacian_clamped_transpose(domain, q) / h2
    out[domain.gamma1] = 0.0
    return out


def coupling_to_heat(domain, ut, params):
    """mu*lap(u_t) restricted to the frame temperature dofs; the exact
    negative adjoint of coupling_to_plate, which is what cancels the
    coupling in the discrete energy identity."""
    out = params.mu * operators.laplacian_clamped(domain, ut)
    out[~domain.theta_free] = 0.0
    return out


def discrete_gradient_force(domain, u_old, u_new, spec):
    """Two-point force G of either variant on the grid, with
    <G, u_new - u_old>_{L^2} = -(Pi(u_new) - Pi(u_old)): for Berger
    M_bar * lap((u_old+u_new)/2) with
    M_bar = tension + (stretch/2)(Q_old + Q_new), Q the gradient_form; a
    scalar force goes to nonlinearity.discrete_gradient_force."""
    if spec.variant != "berger":
        return nonlinearity.discrete_gradient_force(domain, u_old, u_new,
                                                    spec)
    q_old = operators.gradient_form(domain, u_old, u_old)
    q_new = operators.gradient_form(domain, u_new, u_new)
    m_bar = spec.tension + 0.5 * spec.stretch * (q_old + q_new)
    out = m_bar * operators.laplacian_clamped(domain, 0.5 * (u_old + u_new))
    out[domain.gamma1] = 0.0
    return out


def energy_identity_residual(domain, states, dt, params, spec):
    """Per-step residual r_k = L(t_{k+1}) - L(t_k) + dt*D(midpoint_k) of the
    Lyapunov energy, recomputed from the consecutive states of a run with
    time step dt (a stride-1 simulate sink collects them), independently
    of the stepper's own record. Returns (per_step, cumulative) arrays.
    """
    lyap = [energy(domain, s, params, spec).lyapunov for s in states]
    per_step = np.zeros(max(len(states) - 1, 0))
    for k, (a, b) in enumerate(zip(states, states[1:])):
        d_mid = package_dissipation(domain, 0.5 * (a.theta + b.theta),
                                    params)
        per_step[k] = lyap[k + 1] - lyap[k] + dt * d_mid
    return per_step, np.cumsum(per_step)


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
    dom, dt, params = stepper.domain, stepper.dt, stepper.params
    h2 = dom.h * dom.h
    lap = operators.laplacian_clamped(dom, p)
    th = stepper.solve_h(params.mu * lap)
    out = operators.laplacian_clamped_transpose(
        dom, 0.5 * dt * params.bending_coeff(dom) * lap
        + params.mu * dom.w1 * th)
    out /= h2
    density = (params.rho1 * dom.w1 + params.rho2 * dom.w2) / h2
    out += (2.0 / dt) * density * p
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
    dy = domain.ce_h.T * (theta[:, 1:] - theta[:, :-1])
    out[:, :-1] -= dy
    out[:, 1:] += dy
    out += params.lam * np.where(domain.gamma1, domain.h, 0.0) * theta
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


class CholeskyCapacitance:
    """The Woodbury inverse of operators.ClampedSinePreconditioner with
    each of its four capacitance blocks Cholesky-factored and applied by
    two triangular solves (dtrsv). self.blocks lists, per block b =
    2 pk + pl, the positions idx of its unknowns (a_l, then b_k) in the
    stacked ring values (x-side even, x-side odd, y-side even, y-side odd,
    m = n - 1 each) and its capacitance matrix c; apply_hat is the
    preconditioner's."""

    def __init__(self, domain, symbol, d):
        n = domain.n
        m = n - 1
        inv_d = 1.0 / d
        self.symbol = symbol
        w = 1.0 / symbol
        s0 = operators.sine_basis(n).b[0]
        ke = m - m // 2
        parity = (slice(0, ke), slice(ke, m))
        self._ends = np.zeros((2, m))
        for row, par in zip(self._ends, parity):
            row[par] = s0[par]
        self.blocks = []
        self._chol = []
        for pk, kk in enumerate(parity):
            for pl, ll in enumerate(parity):
                wb = w[kk, ll]
                sk, sl = s0[kk], s0[ll]
                na, nb = wb.shape[1], wb.shape[0]
                c = np.zeros((na + nb, na + nb))
                c[np.diag_indices(na + nb)] = inv_d + 2.0 * np.concatenate(
                    ((sk * sk) @ wb, wb @ (sl * sl)))
                c[na:, :na] = 2.0 * wb * np.outer(sk, sl)
                c[:na, na:] = c[na:, :na].T
                idx = np.concatenate((pk * m + np.arange(m)[ll],
                                      (2 + pl) * m + np.arange(m)[kk]))
                self.blocks.append((idx, c))
                self._chol.append(cho_factor(c, lower=True)[0])

    def apply_hat(self, r_hat, symbol=None):
        ends = self._ends
        sym = self.symbol if symbol is None else symbol
        pr = r_hat / sym
        u = np.concatenate((ends @ pr, ends @ pr.T)).ravel()
        z = np.empty_like(u)
        for (idx, _), chol in zip(self.blocks, self._chol):
            z[idx] = dtrsv(chol, dtrsv(chol, u[idx], lower=1), lower=1,
                           trans=1)
        z = z.reshape(4, -1)
        coeff = r_hat - 2.0 * (np.concatenate((ends.T, z[2:].T), axis=1)
                               @ np.concatenate((z[:2], ends)))
        coeff /= sym
        return coeff


class CholeskyThermalSolver:
    """operators.FrameThermalSolver.solve_projected with the capacitance
    matrix C0 = E0^T M0^-1 E0 formed whole on the interface values, x-side
    lo (nodes (lo, j), j = lo..hi), x-side hi, y-side lo (nodes (i, lo),
    i = lo+1..hi-1), y-side hi, Cholesky-factored and solved by two
    triangular solves (dtrsv); the lowest mode phi is restored by
    Sherman-Morrison: with psi = E0^T phi, xi = C0^-1 psi and
    sigma0 = C0^-1 v, gamma = (beta - psi^T sigma0) / (mu_00 + psi^T xi)
    and sigma = sigma0 + gamma xi. self.c0, self.psi and self.mu00 are
    C0, psi and mu_00."""

    def __init__(self, domain, params, dt):
        h = domain.h
        lo, hi = domain.lo_idx, domain.hi_idx
        tau, g = operators.robin_eigenbasis(domain.n, params.lam * h)
        order = operators.parity_order(len(tau))
        tau, g = tau[order], g[:, order]
        mu = (2.0 * params.rho0 / dt) * h * h + params.beta0 * (
            tau[:, None] + tau[None, :])
        self.mu00 = mu[0, 0]
        mu[0, 0] = math.inf
        r = self._r = 1.0 / mu
        ge = self._ge = g[[lo, hi]]
        gj = self._gj = g[lo:hi + 1]
        gi = self._gi = g[lo + 1:hi]
        # x-side a with y-side b, and sides of one kind: sum_kl over the
        # rows of G at both nodes, the k and l roles swapped for y-sides
        xx = [[(gj * ((ga * gb) @ r)) @ gj.T for gb in ge] for ga in ge]
        yy = [[(gi * (r @ (ga * gb))) @ gi.T for gb in ge] for ga in ge]
        xy = [[((gj * gb) @ r.T) @ (gi * ga).T for gb in ge] for ga in ge]
        xy = np.block(xy)
        self.c0 = np.block([[np.block(xx), xy], [xy.T, np.block(yy)]])
        self._chol = cho_factor(self.c0, lower=True)[0]
        self.psi = np.concatenate((np.outer(ge[:, 0], gj[:, 0]).ravel(),
                                   np.outer(ge[:, 0], gi[:, 0]).ravel()))
        self._xi = self._solve_c(self.psi)
        self._denom = self.mu00 + float(self.psi @ self._xi)

    def _solve_c(self, v):
        return dtrsv(self._chol, dtrsv(self._chol, v, lower=1), lower=1,
                     trans=1)

    def solve_projected(self, y):
        r, ge, gj, gi = self._r, self._ge, self._gj, self._gi
        beta = y[0, 0]
        y = y * r
        v = np.concatenate(((ge @ y @ gj.T).ravel(),
                            (ge @ y.T @ gi.T).ravel()))
        sigma = self._solve_c(v)
        gamma = (beta - float(self._xi @ v)) / self._denom
        sigma += gamma * self._xi
        nx = 2 * len(gj)
        # G^T E0 sigma G
        corr = ge.T @ sigma[:nx].reshape(2, -1) @ gj
        corr += (sigma[nx:].reshape(2, -1) @ gi).T @ ge
        y -= corr * r
        y[0, 0] = gamma
        return y


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

    # the bending weight on gamma1 is beta1 h^2/2, so d = 2 beta1/h^4; the
    # symbol keeps a + 1 that stationary_solve's lacks, which moves its CG
    # iterates but not its Newton steps
    beta_bar = (params.beta1 * float(np.sum(domain.w1))
                + params.beta2 * float(np.sum(domain.w2)))
    pre = operators.ClampedSinePreconditioner(
        domain, beta_bar * operators.dirichlet_sine_eigenvalues(domain)**2
        + 1.0, 4.0 * (0.5 * params.beta1 * h2) / h2**3)

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
