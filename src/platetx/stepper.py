"""Implicit-midpoint time integration engineered so the discrete energy
identity holds to solver tolerance, plus a stationary-state solver.

Each step solves the midpoint system for the velocity average p_bar after
eliminating the temperature through the thermal Schur complement (matrix
free, SPD), then recovers the endpoint state from exact update formulas.
The nonlinear force enters as a discrete gradient, so the only energy
residual sources are the linear-solver and Picard tolerances.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .domain import Domain
from .errors import SolverError, StepError
from .fields import PhysParams, State, make_state
from .nonlinearity import (NonlinearitySpec, berger_coefficient,
                           discrete_gradient_force, force)
from .operators import (LinearOperator, biharmonic_transmission, cg_solve,
                        coupling_to_heat, coupling_to_plate,
                        dirichlet_sine_eigenvalues, gradient_form,
                        laplacian_clamped, sine_solve, thermal_form)


@dataclass(frozen=True)
class SchemeConfig:
    """Time step and solver tolerances. dt=None resolves to h/4."""

    dt: float | None = None
    tol_inner: float = 1e-12
    tol_picard: float = 1e-11
    max_picard: int = 50
    max_cg: int = 50000

    def validate(self):
        errs = []
        if self.dt is not None and self.dt <= 0:
            errs.append("dt must be positive")
        if self.tol_inner <= 0 or self.tol_picard <= 0:
            errs.append("solver tolerances must be positive")
        if self.tol_picard < self.tol_inner:
            errs.append("tol_picard must be >= tol_inner")
        if self.max_picard < 1:
            errs.append("max_picard must be >= 1")
        return errs

    def resolve_dt(self, domain: Domain) -> float:
        return self.dt if self.dt is not None else domain.h / 4.0


@dataclass
class StepStats:
    """Solver work of one step and what its last velocity solve used.

    cg_inner counts thermal solves. force is the nonlinear force on the
    right side of the last solve: zero for the linear problem,
    m_bar*lap(u + dt/2*p_bar) with that solve's m_bar for Berger, the last
    sweep's discrete gradient for scalar forces.
    """

    picard_sweeps: int = 0
    cg_outer: int = 0
    cg_inner: int = 0
    dissipation_mid: float = 0.0
    force: np.ndarray | None = None


@dataclass
class Trajectory:
    """Sampled states of one run plus per-step diagnostic series."""

    times: list
    states: list
    stride: int
    meta: dict = field(default_factory=dict)
    step_series: dict = field(default_factory=dict)


class PlateStepper:
    """Advances one trajectory of the coupled transmission system."""

    def __init__(self, domain: Domain, params: PhysParams,
                 spec: NonlinearitySpec | None = None,
                 scheme: SchemeConfig | None = None):
        self.domain = domain
        self.params = params
        self.spec = spec if spec is not None else NonlinearitySpec.linear()
        self.scheme = scheme if scheme is not None else SchemeConfig()
        errs = self.scheme.validate()
        if errs:
            raise SolverError("invalid scheme config: " + "; ".join(errs))
        self.dt = self.scheme.resolve_dt(domain)

        self.h2 = domain.h * domain.h
        self.coeff = params.bending_coeff(domain)
        self.density = params.density(domain)
        self.theta_mask = domain.theta_free.astype(float)

        # H = (2 rho0/dt) I + beta0 L on temperature dofs: small, SPD and
        # constant through the run, so factor it once (w1-weighted symmetric
        # form) and solve directly inside the outer CG
        self._h_lu, self._theta_idx = self._factor_thermal()

        # sine-basis symbol preconditioning the reduced velocity system;
        # area-weighted mean coefficients stand in for the piecewise ones
        area1 = float(np.sum(domain.w1))
        area2 = float(np.sum(domain.w2))
        rho_bar = params.rho1 * area1 + params.rho2 * area2
        beta_bar = params.beta1 * area1 + params.beta2 * area2
        lam = dirichlet_sine_eigenvalues(domain)
        schur = area1 * params.mu**2 * lam**2 / (
            2.0 * params.rho0 / self.dt + params.beta0 * lam
        )
        self._sym_lam = lam
        self._sym_base = (
            2.0 * rho_bar / self.dt + 0.5 * self.dt * (beta_bar * lam**2 + schur)
        )
        self._inner_count = 0

    # -- inner products -----------------------------------------------------

    def dot_u(self, a, b):
        return self.h2 * float(np.sum(a * b))

    # -- thermal half: H theta = rhs ----------------------------------------

    def _factor_thermal(self):
        """Assemble the w1-weighted symmetric matrix of H on the free
        temperature dofs and LU-factor it."""
        dom, params = self.domain, self.params
        n = dom.n
        free = dom.theta_free
        idx = -np.ones((n + 1, n + 1), dtype=np.int64)
        idx[free] = np.arange(int(free.sum()))

        rows, cols, vals = [], [], []

        def add_edge_set(w, ia, ib):
            w = params.beta0 * w.ravel()
            ia, ib = ia.ravel(), ib.ravel()
            act = w > 0
            for da, db in ((ia, ib), (ib, ia)):
                m = act & (da >= 0)
                rows.append(da[m]); cols.append(da[m]); vals.append(w[m])
                m = m & (db >= 0)
                rows.append(da[m]); cols.append(db[m]); vals.append(-w[m])

        add_edge_set(dom.ce_h, idx[:-1, :], idx[1:, :])
        add_edge_set(dom.ce_v, idx[:, :-1], idx[:, 1:])

        diag = (2.0 * params.rho0 / self.dt) * dom.w1
        diag += params.beta0 * params.lam * dom.bw
        k = idx[free]
        rows.append(k); cols.append(k); vals.append(diag[free])

        mat = coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
        ).tocsc()
        return splu(mat), idx

    def solve_h(self, rhs):
        free = self.domain.theta_free
        out = np.zeros_like(rhs)
        out[free] = self._h_lu.solve((self.domain.w1 * rhs)[free])
        self._inner_count += 1
        return out

    # -- reduced velocity system --------------------------------------------

    def apply_k(self, p, m_bar=None):
        dom, dt = self.domain, self.dt
        out = (2.0 / dt) * self.density * p
        out += 0.5 * dt * biharmonic_transmission(dom, p, self.params,
                                                  coeff=self.coeff)
        th = self.solve_h(coupling_to_heat(dom, p, self.params))
        out += coupling_to_plate(dom, th, self.params)
        if m_bar is not None:
            lap = laplacian_clamped(dom, p)
            lap[dom.gamma1] = 0.0
            out -= 0.5 * dt * m_bar * lap
        out[dom.gamma1] = 0.0
        return out

    def _k_precond(self, m_bar):
        sym = self._sym_base
        if m_bar is not None:
            sym = sym + 0.5 * self.dt * m_bar * self._sym_lam
            sym = np.maximum(sym, 0.05 * self._sym_base)

        def precond(r):
            out = np.zeros_like(r)
            out[1:-1, 1:-1] = sine_solve(self.domain, r[1:-1, 1:-1], sym)
            return out

        return precond

    def solve_k(self, rhs, m_bar=None, x0=None):
        op = LinearOperator(apply=lambda p: self.apply_k(p, m_bar),
                            dot=self.dot_u)
        return cg_solve(op, rhs, tol=self.scheme.tol_inner,
                        max_iter=self.scheme.max_cg,
                        precond=self._k_precond(m_bar), x0=x0)

    # -- one step -------------------------------------------------------------

    def step(self, state: State, t: float = 0.0):
        """Advance by dt; returns (new_state, StepStats)."""
        dom, dt, params, spec = self.domain, self.dt, self.params, self.spec
        u = state.u.values
        p = state.ut.values
        th = state.theta.values
        stats = StepStats()
        self._inner_count = 0

        th_rhs = (2.0 * params.rho0 / dt) * th * self.theta_mask
        th_from_old = self.solve_h(th_rhs)
        rhs_fixed = (2.0 / dt) * self.density * p
        rhs_fixed -= biharmonic_transmission(dom, u, params, coeff=self.coeff)
        rhs_fixed -= coupling_to_plate(dom, th_from_old, params)
        rhs_fixed[dom.gamma1] = 0.0

        try:
            if spec.is_linear():
                p_bar, it = self.solve_k(rhs_fixed)
                stats.cg_outer = it
                stats.picard_sweeps = 1
                stats.force = np.zeros_like(u)
            elif spec.variant == "berger":
                q_old = gradient_form(dom, u, u)
                m_bar = spec.tension + spec.stretch * q_old
                p_bar = None
                for sweep in range(self.scheme.max_picard):
                    rhs = rhs_fixed + self._berger_force(u, m_bar)
                    p_bar, it = self.solve_k(rhs, m_bar=m_bar, x0=p_bar)
                    stats.cg_outer += it
                    u_new = u + dt * p_bar
                    q_new = gradient_form(dom, u_new, u_new)
                    m_next = spec.tension + 0.5 * spec.stretch * (q_old + q_new)
                    change = abs(m_next - m_bar)
                    stats.picard_sweeps = sweep + 1
                    if change <= self.scheme.tol_picard * (abs(m_next) + 1.0):
                        break
                    m_bar = m_next
                else:
                    raise StepError(
                        "Picard iteration on the membrane coefficient did "
                        f"not converge in {self.scheme.max_picard} sweeps",
                        time=t, residual=change,
                    )
                stats.force = self._berger_force(u + 0.5 * dt * p_bar, m_bar)
            else:
                u_new = u.copy()
                p_bar = None
                scale = float(np.max(np.abs(u))) + 1.0
                for sweep in range(self.scheme.max_picard):
                    g = discrete_gradient_force(dom, u, u_new, spec, params)
                    p_bar, it = self.solve_k(rhs_fixed + g, x0=p_bar)
                    stats.cg_outer += it
                    u_next = u + dt * p_bar
                    change = float(np.max(np.abs(u_next - u_new)))
                    u_new = u_next
                    stats.picard_sweeps = sweep + 1
                    if change <= self.scheme.tol_picard * scale:
                        break
                else:
                    raise StepError(
                        "Picard iteration on the scalar force did not "
                        f"converge in {self.scheme.max_picard} sweeps",
                        time=t, residual=change,
                    )
                stats.force = g
        except SolverError as exc:
            raise StepError(f"inner solver failed at t={t:g}: {exc}",
                            time=t, residual=exc.residual) from exc

        th_bar = self.solve_h(th_rhs + coupling_to_heat(dom, p_bar, params))
        u_new = u + dt * p_bar
        p_new = 2.0 * p_bar - p
        th_new = 2.0 * th_bar - th

        stats.cg_inner = self._inner_count
        stats.dissipation_mid = params.beta0 * thermal_form(
            dom, th_bar, th_bar, params
        )
        new_state = make_state(dom, u=u_new, ut=p_new, theta=th_new)
        return new_state, stats

    def _berger_force(self, u, m_bar):
        g = m_bar * laplacian_clamped(self.domain, u)
        g[self.domain.gamma1] = 0.0
        return g


def simulate(stepper: PlateStepper, initial: State, n_steps: int,
             stride: int = 1, sinks=(), meta=None) -> Trajectory:
    """Run n_steps steps, sampling states every stride steps.

    Per-step energy, midpoint dissipation and the energy-identity residual
    are recorded for every step regardless of stride; sinks receive
    (step_index, time, state) at each sample. Deterministic given inputs.
    """
    from .diagnostics import energy

    dom, params, spec = stepper.domain, stepper.params, stepper.spec
    dt = stepper.dt
    state = initial.copy()
    state.validate()

    times = [0.0]
    states = [state.copy()]
    e_series = np.empty(n_steps + 1)
    lyap_series = np.empty(n_steps + 1)
    diss_mid = np.empty(n_steps)
    residuals = np.empty(n_steps)
    eb = energy(dom, state, params, spec)
    e_series[0], lyap_series[0] = eb.e, eb.lyapunov

    for sink in sinks:
        sink(0, 0.0, state)

    for k in range(n_steps):
        t_next = (k + 1) * dt
        try:
            state, stats = stepper.step(state, t=k * dt)
        except StepError as exc:
            exc.time = t_next
            raise
        eb = energy(dom, state, params, spec)
        e_series[k + 1], lyap_series[k + 1] = eb.e, eb.lyapunov
        diss_mid[k] = stats.dissipation_mid
        residuals[k] = lyap_series[k + 1] - lyap_series[k] + dt * diss_mid[k]
        if (k + 1) % stride == 0 or k + 1 == n_steps:
            times.append(t_next)
            states.append(state.copy())
            for sink in sinks:
                sink(k + 1, t_next, state)

    traj = Trajectory(times=times, states=states, stride=stride,
                      meta=dict(meta or {}))
    traj.meta.setdefault("dt", dt)
    traj.step_series = {
        "energy": e_series,
        "lyapunov": lyap_series,
        "dissipation_mid": diss_mid,
        "residual": residuals,
    }
    return traj


def stationary_solve(domain: Domain, params: PhysParams,
                     spec: NonlinearitySpec, guess: np.ndarray,
                     tol: float = 1e-9, max_newton: int = 60,
                     cg_tol: float = 1e-10) -> np.ndarray:
    """Damped Newton for the stationary problem beta lap^2 u + F(u) = 0.

    Convergence is certified by the residual only; with several roots
    present no claim is made about which one is returned.
    """
    h2 = domain.h * domain.h
    dot = lambda a, b: h2 * float(np.sum(a * b))
    norm = lambda a: np.sqrt(dot(a, a))
    coeff = params.bending_coeff(domain)
    lam = dirichlet_sine_eigenvalues(domain)

    u = np.array(guess, dtype=float)
    u[domain.gamma1] = 0.0

    def residual(u):
        st = make_state(domain, u=u)
        r = biharmonic_transmission(domain, u, params, coeff=coeff)
        r += force(domain, st, spec, params)
        r[domain.gamma1] = 0.0
        return r

    def jacobian_apply(u, v):
        out = biharmonic_transmission(domain, v, params, coeff=coeff)
        if spec.variant == "berger":
            m = berger_coefficient(domain, u, spec)
            lap_v = laplacian_clamped(domain, v)
            lap_u = laplacian_clamped(domain, u)
            dm = 2.0 * spec.stretch * gradient_form(domain, u, v)
            out -= m * lap_v + dm * lap_u
        else:
            fp = (
                domain.w1 * (3.0 * spec.f1.kappa * u**2 + spec.f1.c)
                + domain.w2 * (3.0 * spec.f2.kappa * u**2 + spec.f2.c)
            ) / h2
            out += fp * v
        out[domain.gamma1] = 0.0
        return out

    beta_bar = params.beta1 * float(np.sum(domain.w1)) + params.beta2 * float(
        np.sum(domain.w2)
    )
    sym = beta_bar * lam**2 + 1.0

    def precond(r):
        out = np.zeros_like(r)
        out[1:-1, 1:-1] = sine_solve(domain, r[1:-1, 1:-1], sym)
        return out

    res = residual(u)
    for _ in range(max_newton):
        rnorm = norm(res)
        if rnorm <= tol * (1.0 + norm(u)):
            return u
        op = LinearOperator(apply=lambda v: jacobian_apply(u, v), dot=dot)
        try:
            d, _ = cg_solve(op, -res, tol=cg_tol, max_iter=2000,
                            precond=precond)
        except SolverError as exc:
            if exc.best is None:
                raise
            d = exc.best  # indefinite Jacobian: best iterate as direction
        alpha = 1.0
        while alpha > 1e-10:
            u_try = u + alpha * d
            res_try = residual(u_try)
            if norm(res_try) < (1.0 - 1e-4 * alpha) * rnorm:
                u, res = u_try, res_try
                break
            alpha *= 0.5
        else:
            raise SolverError(
                "stationary Newton stagnated "
                f"(residual {rnorm:.3e}, tol {tol:g})",
                best=u, residual=rnorm,
            )
    raise SolverError(
        f"stationary Newton did not converge in {max_newton} iterations",
        best=u, residual=norm(res),
    )
