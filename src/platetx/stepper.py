"""Implicit-midpoint time integration engineered so the discrete energy
identity holds to solver tolerance, plus a stationary-state solver.

Each step solves the midpoint system for the velocity average p_bar after
eliminating the temperature through the thermal Schur complement (matrix
free, SPD), then recovers the endpoint state from exact update formulas.
Each CG iteration on the reduced system costs one clamped Laplacian, one
transpose and one thermal solve. The thermal solve is exact and uses no
sparse factorization: operators.FrameThermalSolver, built once per stepper,
inverts the separable whole-square form of the thermal matrix in the 1-D
Robin eigenbasis and imposes theta = 0 on the interface with a capacitance
matrix on the interface nodes. The nonlinear force enters as a discrete
gradient, so the only energy residual sources are the linear-solver and
nonlinear-iteration tolerances.

The reduced system is preconditioned by one object built with the
stepper, operators.ClampedSinePreconditioner: the sine-basis symbol of the
uncoupled plate (mass and bending, with area-weighted mean coefficients
standing in for the piecewise ones) plus the exact diagonal term
4 (dt/2) coeff/h^6 that the clamped reflection ghost adds to the bending
flux on the first interior ring, inverted by the Woodbury formula with a
capacitance matrix that splits into four small Cholesky factors. The
symbol has no term for the thermal coupling: P^-1 K is as well
conditioned without one (condition number 1.24 at n=32 either way). Its
sine transforms are two-sided products with the orthonormal DST-I matrix,
operators.sine_matrix, built once per grid size, as the thermal solve
applies its basis by two-sided products too; both go through
operators.ParityBasis, which folds them by parity on large grids. For
Berger with m_bar > 0 the sine part takes the membrane symbol
(dt/2) m_bar lambda on top, with the capacitance of the base symbol (still
SPD, see the class); for m_bar <= 0 the base preconditioner is used as it
is.

CG (operators.cg_solve) tests the residual before it preconditions, so a
solve of k iterations makes k preconditioner applies and k K applies, plus
one K apply for the true residual of a warm start.

The Berger force depends on the state only through one scalar, the
membrane coefficient m_bar, so its step is a root of a scalar equation in
m_bar, found by secant steps. Velocity solves made while m_bar is still far
off are loose (their tolerance follows the change of m_bar, as in inexact
Newton methods). A loose solve does not form its starting residual: it
recycles the last solve's recursive residual, moved to the new m_bar by one
Laplacian, since K(m_bar) differs from K(0) only by the membrane term. A
step is accepted only from a solve at tol_inner, which forms its true
residual. Scalar forces are iterated to a fixed point of the discrete
gradient.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import Domain
from .errors import SolverError, StepError
from .fields import PhysParams, State
from .nonlinearity import (NonlinearitySpec, berger_coefficient,
                           discrete_gradient_force, force)
from .operators import (ClampedSinePreconditioner, FrameThermalSolver,
                        LinearOperator, biharmonic_transmission, cg_solve,
                        coupling_to_heat, coupling_to_plate,
                        dirichlet_sine_eigenvalues, gradient_form,
                        laplacian_clamped, laplacian_clamped_transpose,
                        thermal_form)

# Relative residual of the first velocity solve of a Berger step, and the
# factor on the relative change of the membrane coefficient that sets the
# later ones (see PlateStepper._berger_solve).
INNER_TOL_START = 1e-2
SIGMA = 1e-2


@dataclass(frozen=True)
class SchemeConfig:
    """Time step and solver tolerances. dt=None resolves to h/4."""

    dt: float | None = None
    tol_inner: float = 1e-12
    tol_picard: float = 1e-11
    max_picard: int = 50
    max_cg: int = 50000

    def validate(self):
        # written as "not (valid)" so that NaN, which fails every
        # comparison, is rejected too
        errs = []
        if self.dt is not None and not 0 < self.dt < math.inf:
            errs.append("dt must be positive and finite")
        if not (0 < self.tol_inner < math.inf
                and 0 < self.tol_picard < math.inf):
            errs.append("solver tolerances must be positive and finite")
        elif self.tol_picard < self.tol_inner:
            errs.append("tol_picard must be >= tol_inner")
        if not (self.max_picard >= 1 and self.max_cg >= 1):
            errs.append("max_picard and max_cg must be >= 1")
        return errs

    def resolve_dt(self, domain: Domain) -> float:
        return self.dt if self.dt is not None else domain.h / 4.0


@dataclass
class StepStats:
    """Solver work of one step and what its last velocity solve used.

    picard_sweeps counts the velocity solves of the nonlinear iteration: for
    Berger every solve of the membrane-coefficient loop, loose ones and the
    final one at tol_inner included; 1 for the linear problem. cg_outer
    counts CG iterations, each one K apply and, since CG tests the residual
    before it preconditions, one preconditioner apply. cg_inner counts
    thermal solves, one per K apply: cg_outer, plus one for the true
    residual of each warm-started solve at tol_inner (a loose Berger solve
    recycles the last residual instead), plus the two of the step outside
    the velocity solves. force is the nonlinear force on the right side of
    the last solve: zero for the linear problem, m_bar*lap(u + dt/2*p_bar)
    with that solve's m_bar for Berger, the last sweep's discrete gradient
    for scalar forces. A StepError carries the counts of the failing step
    up to its failure.
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

        # H = (2 rho0/dt) I + beta0 L on temperature dofs: constant through
        # the run, solved exactly inside the outer CG
        self._thermal = FrameThermalSolver(domain, params, self.dt)
        # pointwise weights of the reduced operator K: mass, bending flux
        # and the plate side of the coupling
        self._k_mass = (2.0 / self.dt) * params.density(domain)
        self._k_bend = 0.5 * self.dt * self.coeff
        self._k_couple = params.mu * domain.w1

        # sine-basis symbol of the reduced velocity system, area-weighted
        # mean coefficients standing in for the piecewise ones; the
        # preconditioner adds the clamped boundary term of the bending flux
        area1 = float(np.sum(domain.w1))
        area2 = float(np.sum(domain.w2))
        rho_bar = params.rho1 * area1 + params.rho2 * area2
        beta_bar = params.beta1 * area1 + params.beta2 * area2
        lam = dirichlet_sine_eigenvalues(domain)
        # Berger membrane symbol per unit m_bar
        self._sym_membrane = 0.5 * self.dt * lam
        symbol = 2.0 * rho_bar / self.dt + 0.5 * self.dt * beta_bar * lam**2
        self._precond = ClampedSinePreconditioner(domain, symbol,
                                                  self._k_bend)
        self._inner_count = 0

    # -- inner products -----------------------------------------------------

    def dot_u(self, a, b):
        return self.h2 * float(np.vdot(a, b))

    # -- thermal half: H theta = rhs ----------------------------------------

    def solve_h(self, rhs):
        """Temperature theta with H theta = rhs on the free temperature dofs
        (zero elsewhere), by the frame solver; rhs is read only there."""
        self._inner_count += 1
        return self._thermal(rhs)

    # -- reduced velocity system --------------------------------------------

    def apply_k(self, p, m_bar=None):
        """Reduced velocity operator on clamped p (zero on gamma1):

            K p = (2/dt) rho p + (dt/2) A p + C H^-1 S p - (dt/2) m_bar lap p

        with A = biharmonic_transmission, S = coupling_to_heat and
        C = coupling_to_plate; the m_bar term is the Berger membrane part.
        One Laplacian of p feeds the heat source, the bending flux and the
        membrane term, and one transpose returns bending and coupling
        together; both halves of the coupling pair go through the same L and
        L^T, so they cancel in the energy identity.
        """
        dom = self.domain
        lap = laplacian_clamped(dom, p)
        th = self.solve_h(self.params.mu * lap)
        out = laplacian_clamped_transpose(
            dom, self._k_bend * lap + self._k_couple * th)
        out /= self.h2
        out += self._k_mass * p
        if m_bar is not None:
            out -= (0.5 * self.dt * m_bar) * lap
        out[dom.gamma1] = 0.0
        return out

    def _k_precond(self, m_bar):
        """Preconditioner of K(m_bar): the boundary-corrected sine inverse,
        with the membrane symbol (dt/2) m_bar lambda added to the sine part
        for m_bar > 0 and the capacitance of the linear operator kept (SPD
        for every m_bar, see ClampedSinePreconditioner)."""
        if m_bar is None or m_bar <= 0.0:
            return self._precond
        sym = self._precond.symbol + m_bar * self._sym_membrane
        return lambda r: self._precond(r, sym)

    def solve_k(self, rhs, m_bar=None, x0=None, tol=None, r0=None):
        """K p = rhs by preconditioned CG to relative residual tol
        (tol_inner unless given), started from x0 with residual r0 when
        given (see cg_solve); returns (p, iterations, final residual)."""
        op = LinearOperator(apply=lambda p: self.apply_k(p, m_bar),
                            dot=self.dot_u)
        return cg_solve(op, rhs,
                        tol=self.scheme.tol_inner if tol is None else tol,
                        max_iter=self.scheme.max_cg,
                        precond=self._k_precond(m_bar), x0=x0, r0=r0)

    # -- one step -------------------------------------------------------------

    def step(self, state: State, t: float = 0.0):
        """Advance by dt; returns (new_state, StepStats)."""
        dom, dt, params, spec = self.domain, self.dt, self.params, self.spec
        u, p, th = state.u, state.ut, state.theta
        stats = StepStats()
        self._inner_count = 0

        th_rhs = (2.0 * params.rho0 / dt) * th
        th_from_old = self.solve_h(th_rhs)
        rhs_fixed = self._k_mass * p
        rhs_fixed -= biharmonic_transmission(dom, u, params, coeff=self.coeff)
        rhs_fixed -= coupling_to_plate(dom, th_from_old, params)
        rhs_fixed[dom.gamma1] = 0.0

        try:
            if spec.is_linear():
                p_bar, it, _ = self.solve_k(rhs_fixed)
                stats.cg_outer = it
                stats.picard_sweeps = 1
                stats.force = np.zeros_like(u)
            elif spec.variant == "berger":
                p_bar, m_bar = self._berger_solve(u, rhs_fixed, stats, t)
                stats.force = self._berger_force(
                    laplacian_clamped(dom, u + 0.5 * dt * p_bar), m_bar)
            else:
                u_new = u.copy()
                p_bar = None
                scale = float(np.max(np.abs(u))) + 1.0
                for sweep in range(self.scheme.max_picard):
                    g = discrete_gradient_force(dom, u, u_new, spec)
                    p_bar, it, _ = self.solve_k(rhs_fixed + g, x0=p_bar)
                    stats.cg_outer += it
                    u_next = u + dt * p_bar
                    change = float(np.max(np.abs(u_next - u_new)))
                    u_new = u_next
                    stats.picard_sweeps = sweep + 1
                    if change <= self.scheme.tol_picard * scale:
                        break
                else:
                    raise self._step_error(
                        "Picard iteration on the scalar force did not "
                        f"converge in {self.scheme.max_picard} sweeps",
                        t, change, stats,
                    )
                stats.force = g
        except SolverError as exc:
            stats.cg_outer += exc.iterations or 0
            raise self._step_error(f"inner solver failed at t={t:g}: {exc}",
                                   t, exc.residual, stats) from exc

        th_bar = self.solve_h(th_rhs + coupling_to_heat(dom, p_bar, params))
        stats.cg_inner = self._inner_count
        stats.dissipation_mid = params.beta0 * thermal_form(
            dom, th_bar, th_bar, params
        )
        # p_bar vanishes on gamma1 and th_bar off the free temperature
        # nodes, so the new state is clamped as it is built
        return State(u + dt * p_bar, 2.0 * p_bar - p, 2.0 * th_bar - th), stats

    def _berger_solve(self, u, rhs_fixed, stats, t):
        """Velocity average p_bar and membrane coefficient m_bar of a Berger
        step: the root of f(m) = phi(m) - m, where phi(m) is the coefficient
        at the average of the gradient forms of u and u + dt*p_bar(m).

        Secant steps on the scalar f, with the plain value phi(m) when the
        secant is undefined. Each evaluation of phi is one velocity solve,
        warm-started from the last one and loose while m is far off: its
        tolerance eta starts at INNER_TOL_START and follows SIGMA times the
        relative change of m down to tol_inner. CG tests each residual
        before it preconditions, so a loose solve whose start already meets
        eta costs no preconditioner apply and, with its residual recycled,
        no K apply.

        A loose solve (eta > tol_inner) starts from the recursive residual r
        that the last solve returned, recycled to the new coefficient: with
        K(m) = K(0) - (dt/2) m lap on free nodes,

            r_new = r + (rhs_new - rhs) + (dt/2) (m_new - m) lap(p_bar),

        one Laplacian instead of a K apply. A solve at tol_inner forms its
        true residual rhs - K p_bar, so a coefficient is accepted only from
        a solve checked against its true residual at tol_inner; one that
        passes the test at a looser eta is solved again at tol_inner and
        tested again.
        """
        dom, dt, spec, scheme = self.domain, self.dt, self.spec, self.scheme
        q_old = gradient_form(dom, u, u)
        lap_u = laplacian_clamped(dom, u)  # u is fixed through the step
        m_bar = spec.tension + spec.stretch * q_old
        rhs = rhs_fixed + self._berger_force(lap_u, m_bar)
        p_bar = r0 = None
        eta = max(scheme.tol_inner, INNER_TOL_START)
        prev = None  # (m, f) at the last coefficient the iteration left
        for sweep in range(scheme.max_picard):
            p_bar, it, r = self.solve_k(rhs, m_bar=m_bar, x0=p_bar, tol=eta,
                                        r0=r0)
            stats.cg_outer += it
            stats.picard_sweeps = sweep + 1
            u_new = u + dt * p_bar
            q_new = gradient_form(dom, u_new, u_new)
            phi = spec.tension + 0.5 * spec.stretch * (q_old + q_new)
            f = phi - m_bar
            change = abs(f)
            if change <= scheme.tol_picard * (abs(phi) + 1.0):
                if eta == scheme.tol_inner:
                    return p_bar, m_bar
                eta = scheme.tol_inner
                r0 = None
                continue
            eta = max(scheme.tol_inner,
                      min(eta, SIGMA * change / (abs(phi) + 1.0)))
            m_next = phi
            if prev is not None and f != prev[1]:
                secant = m_bar - f * (m_bar - prev[0]) / (f - prev[1])
                if np.isfinite(secant):
                    m_next = secant
            prev = (m_bar, f)
            rhs_next = rhs_fixed + self._berger_force(lap_u, m_next)
            r0 = None
            if eta > scheme.tol_inner:
                r0 = r + (rhs_next - rhs) + self._berger_force(
                    laplacian_clamped(dom, p_bar), 0.5 * dt * (m_next - m_bar))
            m_bar, rhs = m_next, rhs_next
        raise self._step_error(
            "membrane coefficient iteration did not converge in "
            f"{scheme.max_picard} sweeps", t, change, stats)

    def _berger_force(self, lap, m_bar):
        """Berger force m_bar * lap on free nodes, from a clamped Laplacian."""
        g = m_bar * lap
        g[self.domain.gamma1] = 0.0
        return g

    def _step_error(self, message, t, residual, stats):
        """StepError carrying the partial work of the failing step."""
        stats.cg_inner = self._inner_count
        return StepError(message, time=t, residual=residual, stats=stats)


def simulate(stepper: PlateStepper, initial: State, n_steps: int,
             stride: int = 1, sinks=(), meta=None) -> Trajectory:
    """Run n_steps steps, sampling states every stride steps.

    Per-step energy, midpoint dissipation, the energy-identity residual and
    the solver work of each step (Picard sweeps, outer CG iterations,
    thermal solves) are recorded for every step regardless of stride; sinks
    receive (step_index, time, state) at each sample. Deterministic given
    inputs. Raises StepError at time 0, with no solver work, when the
    Lyapunov energy of the initial state is not finite.
    """
    from .diagnostics import energy

    dom, params, spec = stepper.domain, stepper.params, stepper.spec
    dt = stepper.dt
    state = initial.copy()
    state.validate(dom)

    times = [0.0]
    states = [state.copy()]
    e_series = np.empty(n_steps + 1)
    lyap_series = np.empty(n_steps + 1)
    diss_mid = np.empty(n_steps)
    residuals = np.empty(n_steps)
    work = {name: np.empty(n_steps, dtype=np.int64)
            for name in ("picard_sweeps", "cg_outer", "h_solves")}
    eb = energy(dom, state, params, spec)
    if not math.isfinite(eb.lyapunov):
        # no step could balance it; fail before the first one
        raise StepError("initial Lyapunov energy is not finite "
                        f"({eb.lyapunov})", time=0.0, stats=StepStats())
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
        work["picard_sweeps"][k] = stats.picard_sweeps
        work["cg_outer"][k] = stats.cg_outer
        work["h_solves"][k] = stats.cg_inner
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
        **work,
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
    dot = lambda a, b: h2 * float(np.vdot(a, b))
    norm = lambda a: np.sqrt(dot(a, a))
    coeff = params.bending_coeff(domain)

    u = np.array(guess, dtype=float)
    u[domain.gamma1] = 0.0

    def residual(u):
        r = biharmonic_transmission(domain, u, params, coeff=coeff)
        r += force(domain, u, spec)
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
    precond = ClampedSinePreconditioner(
        domain, beta_bar * dirichlet_sine_eigenvalues(domain)**2 + 1.0, coeff)

    res = residual(u)
    for _ in range(max_newton):
        rnorm = norm(res)
        if rnorm <= tol * (1.0 + norm(u)):
            return u
        op = LinearOperator(apply=lambda v: jacobian_apply(u, v), dot=dot)
        try:
            d = cg_solve(op, -res, tol=cg_tol, max_iter=2000,
                         precond=precond)[0]
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
