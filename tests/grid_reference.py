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
frame_solve solves the frame thermal matrix densely. RobinThermalSolver
is the thermal solver on the 1-D Robin eigenbasis (robin_eigenbasis,
RobinToSine) that platetx ran before FrameThermalSolver moved to sine
coefficients, kept as its oracle; CholeskyThermalSolver is the oracle of
RobinThermalSolver.solve_projected: the interface capacitance formed whole
on the interface values, Cholesky-factored and solved by triangular
solves, and the lowest mode restored by a separate Sherman-Morrison step.
coupling_to_plate and
coupling_to_heat are the grid forms of FrameThermalSolver's couple_hat and
heat_source_hat, discrete_gradient_force the grid form of the Berger force
that PlateStepper forms on coefficients, and energy_identity_residual
recomputes from a run's states the residuals that simulate records.
"""

import math

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import cho_factor
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dpotrf, dpotri, dstevd

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


def frame_solve(domain, params, dt, rhs):
    """theta with (c I + beta0 L) theta = rhs on the free temperature dofs,
    zero elsewhere, c = 2 rho0/dt and L = thermal_laplacian: the frame
    matrix assembled column by column and solved densely."""
    idx = np.flatnonzero(domain.theta_free)
    c = 2.0 * params.rho0 / dt
    dense = np.empty((idx.size, idx.size))
    for col, k in enumerate(idx):
        e = np.zeros(domain.theta_free.size)
        e[k] = 1.0
        e = e.reshape(domain.theta_free.shape)
        dense[:, col] = (c * e + params.beta0 * thermal_laplacian(
            domain, e, params)).ravel()[idx]
    out = np.zeros(domain.theta_free.size)
    out[idx] = np.linalg.solve(dense, np.ravel(rhs)[idx])
    return out.reshape(domain.theta_free.shape)


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
    """RobinThermalSolver.solve_projected with the capacitance
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
        tau, g = robin_eigenbasis(domain.n, params.lam * h)
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
        try:
            d = operators.cg_solve(
                lambda v: stationary_jacobian(domain, params, spec, u, v),
                dot, -res, tol=STATIONARY_CG_TOL, max_iter=2000,
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


def robin_eigenbasis(n: int, lam_h: float):
    """Eigenpairs (tau, G) of the 1-D Robin problem of RobinThermalSolver
    on N = n+1 nodes: tau and Q those of the symmetric tridiagonal matrix
    A^-1/2 T A^-1/2, A = diag(1/2, 1, ..., 1, 1/2) and T = D^T D + lam_h E,
    and G = A^-1/2 Q.

    The matrix is persymmetric (the same Robin term at both ends), so each
    eigenvector is symmetric or antisymmetric about the centre, and each
    family solves a tridiagonal problem on the nodes up to the centre:
    N//2 nodes for the antisymmetric modes, N - N//2 for the symmetric
    ones. The mirror couples the last of those nodes to itself for even N
    (+- the coupling on the diagonal); for odd N the centre node couples
    to both halves, and its coupling is scaled by sqrt 2 to keep the
    problem symmetric. Each problem is solved by LAPACK dstevd, the
    driver that scipy's eigh_tridiagonal picks for it, called directly
    (n >= 3; LinAlgError when it does not converge). G holds the
    symmetric modes at even and the antisymmetric ones at odd columns,
    each family by ascending tau, with exact parity (ParityBasis). The two
    families interlace, so that is the ascending order of tau but for
    pairs that agree to rounding (the two end modes of a large lam_h), and
    mode 0 is the lowest: the constant for lam_h = 0.
    """
    size = n + 1
    half = size // 2
    k = size - half
    r2 = math.sqrt(2.0)
    s = np.full(size, 1.0)  # A^-1/2
    s[[0, -1]] = r2
    diag = np.full(size, 2.0)
    diag[[0, -1]] = 1.0 + lam_h
    diag *= s * s
    off = -s[:-1] * s[1:]
    d_sym, e_sym = diag[:k].copy(), off[:k - 1].copy()
    d_anti, e_anti = diag[:half].copy(), off[:half - 1]
    if size % 2:
        e_sym[-1] *= r2
    else:
        d_sym[-1] += off[half - 1]
        d_anti[-1] -= off[half - 1]
    tau_sym, q_sym, info_sym = dstevd(d_sym, e_sym)
    tau_anti, q_anti, info_anti = dstevd(d_anti, e_anti)
    if info_sym or info_anti:
        raise LinAlgError("Robin eigenproblem did not converge")
    tau = np.empty(size)
    tau[0::2], tau[1::2] = tau_sym, tau_anti
    # the nodes up to the centre carry 1/sqrt 2 of a mode, the centre of
    # odd N all of a symmetric one and nothing of an antisymmetric one
    scale = s[:k] / r2
    scale[half:] = 1.0
    g = np.zeros((size, size))
    g[:k, 0::2] = scale[:, None] * q_sym
    g[:half, 1::2] = scale[:half, None] * q_anti
    g[::-1][:half, 0::2] = g[:half, 0::2]
    g[::-1][:half, 1::2] = -g[:half, 1::2]
    return tau, g


class RobinThermalSolver:
    """The frame solver on the Robin basis, the oracle of
    operators.FrameThermalSolver: exact solve of (c I + beta0 L) theta = rhs
    on the free temperature dofs, with c = 2 rho0/dt and L the operator of
    thermal_form with respect to the frame weights w1 (theta = 0 on
    gamma0).

    Multiplied by the frame weights w1, the system is the restriction of a
    separable matrix on the whole square,

        M = c h^2 A(x)A + beta0 (T(x)A + A(x)T),

    A = diag(1/2, 1, ..., 1, 1/2) and T = D^T D + lam h E (D the 1-D
    difference matrix, E the two end nodes): every free frame node sees
    only full cells and edges, so its row of M is its row of the frame
    matrix. With the eigenpairs (tau, Q) of A^-1/2 T A^-1/2 and
    G = A^-1/2 Q (robin_eigenbasis), the inverse on a nodal grid B is

        M^-1 B = G ((G^T B G) / mu) G^T,
        mu_kl = c h^2 + beta0 (tau_k + tau_l).

    The interface condition theta = 0 on gamma0 comes from a capacitance
    matrix on the 4(hi - lo) interface nodes E0 (Buzbee, Dorr, George and
    Golub, SIAM J. Numer. Anal. 8, 1971): theta = M^-1 (B - E0 sigma) with
    E0^T theta = 0. The interface separates the frame from the inner plate,
    so theta vanishes on the inner nodes as well.

    For lam = 0 the lowest mode phi = g_0 (x) g_0 of M is the constant, and
    mu_00 = c h^2 goes to zero with rho0/dt although the frame problem
    stays well posed; its term in E0^T M^-1 E0 would swamp the others. So
    the capacitance matrix C0 = E0^T M0^-1 E0 is built from M0^-1, the
    inverse without that mode, and the mode is restored by Sherman-Morrison
    in closed form. With psi = E0^T phi, xi = C0^-1 psi and
    d = mu_00 + psi^T xi, the interface values v = E0^T M0^-1 B and
    beta = phi^T B give sigma and the coefficient gamma of phi in theta by
    one product with a bordered inverse, that of [[C0, -psi], [psi^T,
    mu_00]]:

        [sigma; gamma] = [[C0^-1 - xi xi^T/d, xi/d], [-xi^T/d, 1/d]] [v; beta].

    Nothing large enters, for any mu_00 >= 0.

    C0 is taken in orthogonal coordinates of the interface values: the sum
    and the difference of the two x-sides (rows lo and hi) and of the two
    y-sides (columns lo and hi), each over sqrt 2, and along each side the
    sums and differences over sqrt 2 of mirror nodes (j and n - j), a
    centre node alone. For a box centred on n/2 (lo + hi = n) the rows of
    G at mirror nodes agree up to the sign (-1)^k, bit for bit
    (robin_eigenbasis), so a side sum meets only the even modes of its
    normal index (k for the x-sides, l for the y-sides) and a side
    difference only the odd ones, and the mirror sums and differences
    along a side split the other index alike. So C0 splits into four
    blocks, one per pair of parities (a of k, b of l), each of about
    hi - lo unknowns. With e_a = sqrt 2 G[lo] on the modes of parity a,
    J_b and I_a the rotated rows of G along the x-sides on the modes l of
    parity b and along the y-sides on the modes k of parity a, and
    r = 1/mu (r_00 = 0), block (a, b) is

        [[J_b diag(rho) J_b^T,               (J_b o e_b) r_ab^T (I_a o e_a)^T],
         [(I_a o e_a) r_ab (J_b o e_b)^T,    I_a diag(rho') I_a^T]],

    r_ab the quadrant of r on those modes, rho_l = sum_k e_a,k^2 r_kl and
    rho'_k = sum_l r_kl e_b,l^2; psi lies in block (0, 0) alone. For any
    other box the coordinates are the interface values themselves, with
    the rows G[lo] and G[hi] as the two sides, and C0 is one block, built
    by the same products for each pair of sides.

    Each block is inverted once (dpotrf, SolverError when it is not
    positive definite, then dpotri) and stored zero-padded in one array of
    the blocks' inverses, (0, 0) bordered as above. A solve
    is three parts: project, one two-sided product G^T B G with G
    (ParityBasis, size n+1, modes parity-blocked, in the order of self.tau
    and self.basis.b); solve_projected, which takes G^T B G however it was
    formed and returns the coefficients Y of theta = G Y G^T after four
    thin products with the rotated rows for the interface values, one
    gather into the padded blocks, one batched matrix-vector product and
    a rank-four correction of G^T B G / mu, one (N x 4)(4 x N) product of
    preallocated factors; and expand, a second product from Y back to the
    grid. It makes no triangular solve.

    The solver also applies the coupling with the plate on the interior
    sine coefficients p^ = S p S of a clamped p (S = sine_basis(n).b, modes
    parity-blocked), through Phi = S^T G[1:n] and its rows Psi = S_b^T G_b
    at the nodes lo..hi of the closed inner box (RobinToSine, block
    diagonal by parity for a box centred on n/2). The heat source of a
    velocity p is mu L p on the free temperature nodes, L =
    laplacian_clamped, and a temperature theta enters the plate equation as
    C theta = L^T (mu w1 theta)/h^2 (zero on gamma1), so that
    h^2 <C theta, p> = sum w1 theta mu L p: the pair cancels in the
    discrete energy identity. On the free temperature nodes w1 = h^2 A(x)A
    and T G = A G diag(tau), so on interior rows
    L^T (w1 G Y G^T) = -G (tau_k + tau_l) Y G^T; on the box, strictly
    interior, L is the Dirichlet Laplacian, diagonal in sine modes with
    symbol -lambda. The two halves are therefore closed forms:

        heat_source_hat(p^) = project(mu L p)
            = mu [h^2 Psi^T (lambda p^) Psi - (tau + tau) Phi^T p^ Phi],
        couple_hat(y) = S C expand(solve_projected(y)) S
            = -(mu/h^2) Phi ((tau + tau) Y) Phi^T,

    Y the Robin coefficients that solve_projected returns. self.solves
    counts the calls of solve_projected, the thermal solves, whichever path
    makes them.

    Raises SolverError at construction when the spectrum or the capacitance
    matrix is not finite or not positive definite.
    """

    def __init__(self, domain, params, dt):
        h = domain.h
        lo, hi = domain.lo_idx, domain.hi_idx
        tau, g = robin_eigenbasis(domain.n, params.lam * h)
        self.basis = operators.ParityBasis(g)
        tau = self.tau = tau[operators.parity_order(len(tau))]
        g = self.basis.b
        mu = (2.0 * params.rho0 / dt) * h * h + params.beta0 * (
            tau[:, None] + tau[None, :])
        mu00 = mu[0, 0]
        mu[0, 0] = math.inf  # the lowest mode is handled apart
        if not (np.all(np.isfinite(mu.ravel()[1:])) and np.min(mu) > 0.0):
            raise SolverError("thermal solver: eigenvalues not finite and "
                              "positive")
        r = self._r = 1.0 / mu
        self._w = np.where(domain.theta_free, domain.w1, 0.0)
        self._free = domain.theta_free.astype(float)
        # the rows of G at the interface in the coordinates of the class
        # docstring: the two sides e (over k for the x-sides, l for the
        # y-sides), the rows along the x-sides j (lo..hi) and along the
        # y-sides i (lo+1..hi-1); a block lists its modes k and l and its
        # x-side and y-side unknowns as pairs (side, rows of j or i)
        size = len(g)
        if lo + hi == domain.n:
            ke = size - size // 2
            par = (slice(0, ke), slice(ke, size))
            e = np.zeros((2, size))
            e[0, :ke], e[1, ke:] = g[lo, :ke], g[lo, ke:]
            e *= math.sqrt(2.0)
            j, nj = operators._mirror_rows(g[lo:hi + 1], ke)
            # the y-sides' nodes are the x-sides' but the two ends
            i, ni = np.concatenate((j[1:nj], j[nj + 1:])), nj - 1
            rows_j = (slice(0, nj), slice(nj, len(j)))
            rows_i = (slice(0, ni), slice(ni, len(i)))
            blocks = [(par[a], par[b], [(a, rows_j[b])], [(b, rows_i[a])])
                      for a in (0, 1) for b in (0, 1)]
        else:
            e, j, i = g[[lo, hi]], g[lo:hi + 1], g[lo + 1:hi]
            every = slice(None)
            blocks = [(every, every, [(0, every), (1, every)],
                       [(0, every), (1, every)])]
        self._e, self._j, self._i = e, j, i
        self._j_t = np.ascontiguousarray(j.T)
        self._i_t = np.ascontiguousarray(i.T)
        # the interface values are laid out as [x-sides (2, len(j)),
        # y-sides (2, len(i)), beta, 0]; where lists the positions of each
        # block's unknowns there, and of beta last in block 0, and kb the
        # size of the largest block with beta
        nx, ny = 2 * len(j), 2 * len(i)
        at_x = np.arange(nx).reshape(2, -1)
        at_y = np.arange(nx, nx + ny).reshape(2, -1)
        where = [np.concatenate([at_x[s, rows] for s, rows in xs]
                                + [at_y[t, rows] for t, rows in ys])
                 for _, _, xs, ys in blocks]
        sizes = [len(pos) for pos in where]
        where[0] = np.append(where[0], nx + ny)
        kb = max(sizes[0] + 1, max(sizes))
        # C0 block by block (class docstring), the lower triangles, with
        # rho[s, t] = (e_s o e_t) r (r is symmetric): for x-sides s, t of
        # rows a, b (over l) (a * rho[s, t]) b^T, for y-sides alike over k,
        # and for y-side s of rows a, x-side t of rows b
        # ((a o e_t) r) (b o e_s)^T, each on the block's modes
        rho = (e[:, None] * e) @ r
        caps = np.zeros((len(blocks), kb, kb))
        for c, (ks, ls, xs, ys) in zip(caps, blocks):
            rq = r[ks, ls]
            parts = ([(s, j[rows, ls]) for s, rows in xs]
                     + [(t, i[rows, ks]) for t, rows in ys])
            at = 0
            for u, (s, a) in enumerate(parts):
                bt = 0
                for v, (t, b) in enumerate(parts[:u + 1]):
                    if u < len(xs):
                        left, right = a * rho[s, t, ls], b
                    elif v >= len(xs):
                        left, right = a * rho[s, t, ks], b
                    else:
                        left, right = (a * e[t, ks]) @ rq, b * e[s, ls]
                    np.matmul(left, right.T,
                              out=c[at:at + len(a), bt:bt + len(b)])
                    bt += len(b)
                at += len(a)
        if not np.all(np.isfinite(caps)):
            raise SolverError("thermal solver: capacitance matrix is not "
                              "finite")
        # psi in block 0, whose modes start at (0, 0)
        _, _, xs, ys = blocks[0]
        psi = np.concatenate([e[s, 0] * j[rows, 0] for s, rows in xs]
                             + [i[rows, 0] * e[t, 0] for t, rows in ys])
        m0 = sizes[0]
        cinv = self._cinv = np.zeros((len(blocks), kb, kb))
        for inv, c, m in zip(cinv, caps, sizes):
            chol, info = dpotrf(c[:m, :m], lower=1)
            if info != 0:
                raise SolverError("thermal solver: capacitance matrix is not "
                                  f"positive definite (minor {info})")
            # dpotri fills the lower triangle; dpotrf zeroed the upper
            inv[:m, :m] = dpotri(chol, lower=1, overwrite_c=1)[0]
        # each inverse is its lower triangle plus its transpose, the
        # diagonal halved
        cinv += cinv.transpose(0, 2, 1)
        diag = np.arange(kb)
        cinv[:, diag, diag] *= 0.5
        # block 0 bordered (class docstring): its padded inverse minus the
        # outer product of [xi; 1] and [xi; -1], over d
        xi = np.append(cinv[0, :m0, :m0] @ psi, 1.0)
        denom = mu00 + float(psi @ xi[:m0])
        if not (math.isfinite(denom) and denom > 0.0):
            raise SolverError("thermal solver: lowest mode not finite and "
                              "positive")
        cinv[0, :m0 + 1, :m0 + 1] -= np.outer(xi / denom,
                                              np.append(xi[:m0], -1.0))
        # solve_projected's work arrays: the rows e times y and y^T, the
        # interface values with beta and a zero, the gather of each padded
        # block from them (the padding reads the zero) and the positions of
        # the values in the padded blocks, and the factors [e; sigma_y i]^T
        # [sigma_x j; e] of the rank-four correction and its product
        self._edge = np.empty((4, size))
        self._v = np.zeros(nx + ny + 2)
        self._vx = self._v[:nx].reshape(2, -1)
        self._vy = self._v[nx:nx + ny].reshape(2, -1)
        self._gather = np.full((len(blocks), kb, 1), nx + ny + 1)
        for gather, pos in zip(self._gather, where):
            gather[:len(pos), 0] = pos
        scatter = np.empty(nx + ny + 2, dtype=np.intp)
        scatter[self._gather.ravel()] = np.arange(self._gather.size)
        self._scatter = scatter[:-1]
        self._left = np.empty((4, size))
        self._right = np.empty((4, size))
        self._left[:2] = self._right[2:] = e
        self._corr = np.empty((size, size))
        self.solves = 0
        # the coupling with the plate (class docstring): the weights on the
        # Robin coefficients, and Phi and Psi
        tau2 = tau[:, None] + tau[None, :]
        self._heat_hat = -params.mu * tau2
        self._heat_box = (params.mu * (h * h)) * (
            operators.dirichlet_sine_eigenvalues(domain))
        self._couple = (-params.mu / (h * h)) * tau2
        sine = operators.sine_basis(domain.n).b
        self._robin_to_sine = RobinToSine(sine, g[1:-1])
        self._box_to_sine = RobinToSine(sine[lo - 1:hi], g[lo:hi + 1],
                                        centred=lo + hi == domain.n)

    def expand(self, y: np.ndarray) -> np.ndarray:
        """theta = G Y G^T on the free temperature dofs, zero elsewhere,
        from the coefficients Y that solve_projected returns."""
        out = self.basis.expand(y)
        out *= self._free
        return out

    def project(self, rhs: np.ndarray) -> np.ndarray:
        """G^T B G, B = w1 rhs on the free dofs and zero elsewhere: the
        right side of solve_projected."""
        return self.basis.project(self._w * rhs)

    def solve_projected(self, y: np.ndarray) -> np.ndarray:
        """Coefficients Y of theta = G Y G^T (expand), which vanishes
        on the interface and the inner plate up to rounding, from the
        projected right side y = G^T B G (project); y is overwritten with
        Y. Counted in self.solves."""
        self.solves += 1
        r, edge, left, right = self._r, self._edge, self._left, self._right
        v = self._v
        v[-2] = y[0, 0]
        y *= r
        # E0^T M0^-1 B in the rotated coordinates: the side rows times y
        # (x-sides) or y^T (y-sides), then the rows along the sides
        np.matmul(self._e, y, out=edge[:2])
        np.matmul(self._e, y.T, out=edge[2:])
        np.matmul(edge[:2], self._j_t, out=self._vx)
        np.matmul(edge[2:], self._i_t, out=self._vy)
        # [sigma; gamma] from the bordered and the plain block inverses
        z = np.matmul(self._cinv, v[self._gather])
        sigma = z.ravel()[self._scatter]
        nx = self._vx.size
        # G^T E0 sigma G, a sum of four outer products as one product
        np.matmul(sigma[:nx].reshape(2, -1), self._j, out=right[:2])
        np.matmul(sigma[nx:-1].reshape(2, -1), self._i, out=left[2:])
        corr = np.matmul(left.T, right, out=self._corr)
        corr *= r
        y -= corr
        y[0, 0] = sigma[-1]
        return y

    def heat_source_hat(self, p_hat: np.ndarray) -> np.ndarray:
        """project of the heat source mu lap p, from the sine coefficients
        p_hat of a clamped p, in closed form (class docstring): the free
        temperature nodes are the square without the closed inner box, so
        the whole square's -mu (tau + tau) Phi^T p^ Phi loses the box's
        -mu h^2 Psi^T (lambda p^) Psi."""
        y = self._robin_to_sine.transposed(p_hat)
        y *= self._heat_hat
        y += self._box_to_sine.transposed(self._heat_box * p_hat)
        return y

    def couple_hat(self, y: np.ndarray) -> np.ndarray:
        """Sine coefficients of C H^-1 rhs, C the coupling of the temperature
        into the plate equation (class docstring), from the projected right
        side y = project(rhs), which it overwrites: the solve stops at the
        Robin coefficients Y, which take the coupling weights
        -(mu/h^2)(tau + tau) and one product with Phi."""
        th = self.solve_projected(y)
        th *= self._couple
        return self._robin_to_sine(th)


class RobinToSine:
    """Two-sided products with Phi = S^T G, S and G the rows of the sine
    basis (sine_basis(n).b) and of the Robin basis of RobinThermalSolver
    (its basis.b) at the same nodes, both with parity-blocked columns:

        __call__(Y) = Phi Y Phi^T,    transposed(X) = Phi^T X Phi.

    On all interior nodes (S whole, G[1:n]) __call__ takes the
    coefficients Y of a field G Y G^T in the Robin basis to the sine
    coefficients S^T X S of its interior values, and transposed takes the
    sine coefficients of an interior field X to its Robin coefficients
    G^T X G. On the nodes lo..hi of the inner box (S[lo-1:hi], G[lo:hi+1])
    transposed(X) is the part G^T X G that the box contributes.

    When the nodes are symmetric about the centre n/2 (all interior nodes,
    or a box with lo + hi = n: centred), the columns of both are symmetric
    or antisymmetric about it there, so a symmetric column of one basis is
    orthogonal to an antisymmetric column of the other and Phi is block
    diagonal: Phi_e = S_e^T G_e on the symmetric modes, Phi_o = S_o^T G_o
    on the antisymmetric ones. Only the two blocks are built, and a product
    is four GEMMs each half the size of a dense one in one dimension, half
    the flops of a dense two-sided product at every n. Otherwise Phi is
    dense and so are its products.
    """

    def __init__(self, s: np.ndarray, g: np.ndarray, centred: bool = True):
        if not centred:
            self._phi = s.T @ g
            return
        self._phi = None
        ks = s.shape[1] - s.shape[1] // 2
        kg = g.shape[1] - g.shape[1] // 2
        self._e = s[:, :ks].T @ g[:, :kg]
        self._o = s[:, ks:].T @ g[:, kg:]
        self._e_t = np.ascontiguousarray(self._e.T)
        self._o_t = np.ascontiguousarray(self._o.T)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """Phi Y Phi^T."""
        if self._phi is not None:
            return self._phi @ y @ self._phi.T
        fe, fo = self._e, self._o
        ks, kg = fe.shape
        m = ks + len(fo)
        z = np.empty((m, len(y)))
        np.matmul(fe, y[:kg], out=z[:ks])
        np.matmul(fo, y[kg:], out=z[ks:])
        out = np.empty((m, m))
        np.matmul(z[:, :kg], self._e_t, out=out[:, :ks])
        np.matmul(z[:, kg:], self._o_t, out=out[:, ks:])
        return out

    def transposed(self, x: np.ndarray) -> np.ndarray:
        """Phi^T X Phi."""
        if self._phi is not None:
            return self._phi.T @ x @ self._phi
        fe, fo = self._e, self._o
        ks, kg = fe.shape
        size = kg + fo.shape[1]
        z = np.empty((size, len(x)))
        np.matmul(self._e_t, x[:ks], out=z[:kg])
        np.matmul(self._o_t, x[ks:], out=z[kg:])
        out = np.empty((size, size))
        np.matmul(z[:, :ks], fe, out=out[:, :kg])
        np.matmul(z[:, ks:], fo, out=out[:, kg:])
        return out
