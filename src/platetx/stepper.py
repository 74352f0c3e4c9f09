"""Implicit-midpoint time integration engineered so the discrete energy
identity holds to solver tolerance, plus a stationary-state solver.

Each step solves the midpoint system for the velocity average p_bar after
eliminating the temperature through the thermal Schur complement (matrix
free, SPD), then recovers the endpoint state from exact update formulas.
The thermal solve is exact and uses no sparse factorization:
operators.FrameThermalSolver, built once per stepper, inverts the separable
whole-square form of the thermal matrix in the 1-D Robin eigenbasis and
imposes theta = 0 on the interface with a capacitance matrix on the
interface nodes. The nonlinear force enters as a discrete gradient, so the
only energy residual sources are the linear-solver and nonlinear-iteration
tolerances.

The reduced system is solved on the interior sine coefficients
p^ = S p S of the velocity (S the orthonormal DST-I of operators.sine_basis,
modes in parity-blocked order), so its inner product, its tolerances and
its CG are those of the grid, and it holds no grid array. Each CG iteration
forms the right side of its thermal solve on the Robin basis in closed form,
from two parity-blocked products with Phi = S^T G[1:n] and with its rows
Psi on the inner box, makes the solve up to its Robin coefficients and
takes those back with one product with Phi (PlateStepper.apply_k_hat).
The plate's mass, bending and region contrast are operators.ClampedPlateHat.
The coupling term of a step's right side takes the same path, and so does
the new temperature: the projection of the old one, formed once, plus the
heat source of p_bar in closed form, solved and expanded to the grid once.

The reduced system is preconditioned by one object built with the
stepper, operators.ClampedSinePreconditioner: the sine-basis symbol of the
uncoupled plate (mass and bending, with area-weighted mean coefficients
standing in for the piecewise ones) plus the exact diagonal term
4 (dt/2) coeff/h^6 that the clamped reflection ghost adds to the bending
flux on the first interior ring, inverted by the Woodbury formula with a
capacitance matrix that splits into four small Cholesky factors. On sine
coefficients it makes no transform. The symbol has no term for the
thermal coupling: P^-1 K is as well conditioned without one (condition
number 1.24 at n=32 either way). For Berger with m_bar > 0 the sine part
takes the membrane symbol (dt/2) m_bar lambda on top, with the
capacitance of the base symbol (still SPD, see the class); for
m_bar <= 0 the base preconditioner is used as it is.

CG (operators.cg_solve) tests the residual before it preconditions, so a
solve of k iterations makes k preconditioner applies and k K applies, plus
one K apply for the true residual of a warm start.

Both forces go through one inexact nonlinear iteration
(PlateStepper._solve): its velocity solves are loose while the iterate is
far off, as in inexact Newton methods, and start from a recycled residual;
a step is accepted only from a solve at tol_inner against its true
residual. The Berger force depends on the state only through its membrane
coefficient m_bar, so its iterate is m_bar, moved by secant steps; a
scalar force's is the end displacement, a fixed point of the discrete
gradient. The linear problem makes one solve at tol_inner.

stationary_solve runs its Newton-CG on the same sine coefficients, with
ClampedPlateHat at mass 0 in its Jacobian and a ClampedSinePreconditioner;
its residual and line search stay on the grid.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .domain import Domain
from .errors import SolverError, StepError
from .fields import PhysParams, State
from .nonlinearity import (NonlinearitySpec, berger_coefficient,
                           discrete_gradient_force, force)
from .operators import (ClampedPlateHat, ClampedSinePreconditioner,
                        FrameThermalSolver, LinearOperator, RobinToSine,
                        biharmonic_transmission, cg_solve,
                        dirichlet_sine_eigenvalues, laplacian_clamped,
                        sine_basis, thermal_form)

# Relative residual of the first velocity solve of a nonlinear step, and
# the factor on the relative change of the iterate that sets the later
# ones (see PlateStepper._solve).
INNER_TOL_START = 1e-2
SIGMA = 1e-2

# stationary_solve: the relative residual it stops at, its Newton steps and
# the relative residual of each Newton step's CG.
STATIONARY_TOL = 1e-9
STATIONARY_MAX_NEWTON = 60
STATIONARY_CG_TOL = 1e-10


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

    picard_sweeps counts the velocity solves of the nonlinear iteration of
    either force, loose ones and the final one at tol_inner included; 1 for
    the linear problem. cg_outer counts CG iterations, each one K apply and,
    since CG tests the residual before it preconditions, one preconditioner
    apply. cg_inner counts thermal solves, one per K apply (in sine
    coefficients, where the solve stops at its Robin coefficients):
    cg_outer, plus one for the true residual of each warm-started solve at
    tol_inner (a loose solve recycles the last residual instead), plus the
    two of the step outside the velocity solves: the coupling term of its
    right side, in coefficients as in a K apply, and th_bar, from the same
    projected right side plus the heat source in coefficients, expanded to
    the grid.
    force is the nonlinear force on the right side of the last solve: zero
    for the linear problem, m_bar*lap(u + dt/2*p_bar) with that solve's
    m_bar for Berger, the discrete gradient at that solve's iterate for
    scalar forces.
    A StepError carries the counts of the failing step up to its failure.
    """

    picard_sweeps: int = 0
    cg_outer: int = 0
    cg_inner: int = 0
    dissipation_mid: float = 0.0
    force: np.ndarray | None = None


# A force's part of a step's nonlinear iteration (PlateStepper._solve): the
# first iterate; sweep(x), the coefficients of the right side at the iterate
# x and its membrane coefficient (None without one); advance(x, p_hat), the
# next iterate after the solve p_hat at x, the change and its scale;
# force(x, p_bar), StepStats.force at x; the tolerance of the first solve.
_Iteration = namedtuple("_Iteration", "start sweep advance force eta_start",
                        defaults=(INNER_TOL_START,))


@dataclass
class Trajectory:
    """What simulate keeps of a run: sample times, per-step series and the
    final state. The sampled states go to the sinks and are not kept."""

    times: list
    final: State
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
        # the mass on the grid, for the right side of a step
        self._k_mass = (2.0 / self.dt) * params.density(domain)

        # sine-basis symbol of the reduced velocity system, area-weighted
        # mean coefficients standing in for the piecewise ones; the
        # preconditioner adds the clamped boundary term of the bending flux
        area1 = float(np.sum(domain.w1))
        area2 = float(np.sum(domain.w2))
        rho_bar = params.rho1 * area1 + params.rho2 * area2
        beta_bar = params.beta1 * area1 + params.beta2 * area2
        lam = self._lam = dirichlet_sine_eigenvalues(domain)
        # Berger membrane symbol per unit m_bar
        self._sym_membrane = 0.5 * self.dt * lam
        symbol = 2.0 * rho_bar / self.dt + 0.5 * self.dt * beta_bar * lam**2
        self._precond = ClampedSinePreconditioner(domain, symbol,
                                                  0.5 * self.dt * self.coeff)
        self._inner_count = 0

        # K in sine coefficients (apply_k_hat): the plate's mass and
        # bending, and the heat source and the coupling weights on the
        # Robin coefficients of the thermal solve
        self._sine = sine_basis(domain.n)
        self._plate = ClampedPlateHat(domain, params, 2.0 / self.dt,
                                      0.5 * self.dt)
        tau = self._thermal.tau
        tau2 = tau[:, None] + tau[None, :]
        self._heat_hat = -params.mu * tau2
        self._heat_box = (params.mu * self.h2) * lam
        self._k_couple_hat = (-params.mu / self.h2) * tau2
        g = self._thermal.basis.b
        self._robin_to_sine = RobinToSine(self._sine.b, g[1:-1])
        # the closed inner box, nodes lo..hi, where the thermal solve reads
        # no source: rows lo-1..hi-1 of S and lo..hi of G
        lo, hi = domain.lo_idx, domain.hi_idx
        self._box_to_sine = RobinToSine(self._sine.b[lo - 1:hi], g[lo:hi + 1],
                                        centred=lo + hi == domain.n)

    # -- inner products -----------------------------------------------------

    def dot_u(self, a, b):
        """Discrete L^2 product of clamped fields, or of their interior
        sine coefficients: S is orthonormal, so the two agree."""
        return self.h2 * float(np.vdot(a, b))

    def to_sine(self, x):
        """Sine coefficients of the interior values of a grid field, in the
        parity-blocked mode order of operators.sine_basis."""
        return self._sine.project(x[1:-1, 1:-1])

    def from_sine(self, x_hat):
        """The clamped grid field (zero on gamma1) whose interior values
        have the sine coefficients x_hat."""
        out = np.zeros((self.domain.n + 1, self.domain.n + 1))
        self._sine.expand(x_hat, out=out[1:-1, 1:-1])
        return out

    # -- thermal half: H theta = rhs ----------------------------------------

    def solve_h(self, rhs):
        """Temperature theta with H theta = rhs on the free temperature dofs
        (zero elsewhere), by the frame solver; rhs is read only there.
        Counted as a thermal solve. step solves on Robin coefficients; this
        grid form is kept for the tests and for perfbench/spans.py."""
        self._inner_count += 1
        return self._thermal(rhs)

    # -- reduced velocity system --------------------------------------------

    def apply_k_hat(self, p_hat, m_bar=None):
        """K in sine coefficients: S K S on the coefficients p_hat of the
        interior of a clamped p (to_sine), S orthonormal, for the reduced
        velocity operator

            K p = (2/dt) rho p + (dt/2) A p + C H^-1 S p - (dt/2) m_bar lap p

        (A = biharmonic_transmission, S = coupling_to_heat and
        C = coupling_to_plate; the m_bar term is the Berger membrane part):

            K^ p^ = P^ p^ - (mu/h^2) Phi ((tau + tau) theta^) Phi^T
                    + (dt/2) m_bar lambda p^,

        - P^ the plate, operators.ClampedPlateHat at mass 2/dt and bending
          dt/2, and lambda the sine symbol of the Dirichlet -Laplacian;
        - theta^ the Robin coefficients of H^-1 (mu lap p) (the thermal
          solve from the right side of _heat_source_hat, before its
          expansion), tau the Robin eigenvalues and Phi = S^T G[1:n]
          (operators.RobinToSine): on interior rows
          L^T (w1 G Y G^T) = -G (tau_k + tau_l) Y G^T, since w1 = h^2 A(x)A
          on the free temperature nodes and T G = A G diag(tau) there.

        It makes no transform and holds no grid array.
        """
        return self._k_hat(p_hat, self._k_diagonal(m_bar))

    def _k_diagonal(self, m_bar):
        if m_bar is None:
            return self._plate.diagonal
        return self._plate.diagonal + m_bar * self._sym_membrane

    def _k_hat(self, p_hat, diag):
        """apply_k_hat with its diagonal sigma + (dt/2) m_bar lambda."""
        out = self._couple_hat(self._heat_source_hat(p_hat))
        return self._plate.accumulate(p_hat, out, diag)

    def _heat_source_hat(self, p_hat):
        """FrameThermalSolver.project of the heat source
        coupling_to_heat(p) = mu lap p, from the sine coefficients p_hat of
        a clamped p, in closed form.

        The free temperature nodes are the square without the closed inner
        box (nodes lo..hi), and on them w1 = h^2 A(x)A. On the whole square,
        by the identity of apply_k_hat transposed, G^T (h^2 A(x)A mu lap p) G
        is -mu (tau + tau) Phi^T p^ Phi. The box, strictly interior, takes
        away mu G_b^T (h^2 lap p)_b G_b = -mu h^2 Psi^T (lambda p^) Psi,
        since lap is the Dirichlet Laplacian there, diagonal in sine modes;
        S_b and G_b are the rows of S and G at the box nodes and
        Psi = S_b^T G_b, block diagonal by parity for a box centred on
        n/2. So

            G^T (w1 mu lap p) G = mu [h^2 Psi^T (lambda p^) Psi
                                      - (tau + tau) Phi^T p^ Phi].
        """
        y = self._robin_to_sine.transposed(p_hat)
        y *= self._heat_hat
        y += self._box_to_sine.transposed(self._heat_box * p_hat)
        return y

    def _couple_hat(self, y):
        """Sine coefficients of C H^-1 rhs, C = coupling_to_plate, from the
        projected right side y = G^T (w1 rhs) G of the thermal solve
        (FrameThermalSolver.project), which it overwrites: the solve stops
        at the Robin coefficients theta^, which take the coupling weights
        -(mu/h^2)(tau + tau) and one product with Phi (see apply_k_hat).
        Counted as a thermal solve."""
        self._inner_count += 1
        th = self._thermal.solve_projected(y)
        th *= self._k_couple_hat
        return self._robin_to_sine(th)

    def _k_precond(self, m_bar):
        """Preconditioner of K(m_bar) in sine coefficients: the
        boundary-corrected sine inverse, with the membrane symbol
        (dt/2) m_bar lambda added to the sine part for m_bar > 0 and the
        capacitance of the linear operator kept (SPD for every m_bar, see
        ClampedSinePreconditioner)."""
        pre = self._precond
        sym = pre.symbol
        if m_bar is not None and m_bar > 0.0:
            sym = sym + m_bar * self._sym_membrane
        return lambda r: pre.apply_hat(r, sym)

    def solve_k(self, rhs, m_bar=None, x0=None, tol=None, r0=None):
        """K p = rhs in sine coefficients (apply_k_hat, to_sine) by
        preconditioned CG to relative residual tol (tol_inner unless
        given), started from x0 with residual r0 when given (see cg_solve);
        returns (p, iterations, final residual), all coefficients."""
        diag = self._k_diagonal(m_bar)
        op = LinearOperator(apply=lambda p: self._k_hat(p, diag),
                            dot=self.dot_u)
        return cg_solve(op, rhs,
                        tol=self.scheme.tol_inner if tol is None else tol,
                        max_iter=self.scheme.max_cg,
                        precond=self._k_precond(m_bar), x0=x0, r0=r0)

    # -- one step -------------------------------------------------------------

    def step(self, state: State, t: float = 0.0):
        """Advance from time t by dt; returns (new_state, StepStats). A
        StepError carries the end time t + dt of the failing step."""
        dom, dt, params = self.domain, self.dt, self.params
        u, p, th = state.u, state.ut, state.theta
        stats = StepStats()
        self._inner_count = 0

        # the projected thermal right side of the old temperature: the
        # coupling term's, and with the heat source of p_bar the new one's
        y = self._thermal.project((2.0 * params.rho0 / dt) * th)
        rhs_fixed = self._k_mass * p
        rhs_fixed -= biharmonic_transmission(dom, u, params, coeff=self.coeff)
        rhs_fixed = self.to_sine(rhs_fixed)
        rhs_fixed -= self._couple_hat(y.copy())

        iteration = self._iteration(u, rhs_fixed)
        try:
            p_hat, x = self._solve(iteration, stats)
        except SolverError as exc:
            stats.cg_outer += exc.iterations or 0
            stats.cg_inner = self._inner_count
            raise StepError(f"the step to t={t + dt:g} failed: {exc}",
                            time=t + dt, residual=exc.residual,
                            stats=stats) from exc
        p_bar = self.from_sine(p_hat)
        stats.force = iteration.force(x, p_bar)

        y += self._heat_source_hat(p_hat)
        self._inner_count += 1
        th_bar = self._thermal.expand(self._thermal.solve_projected(y))
        stats.cg_inner = self._inner_count
        stats.dissipation_mid = params.beta0 * thermal_form(
            dom, th_bar, th_bar, params
        )
        # p_bar vanishes on gamma1 and th_bar off the free temperature
        # nodes, so the new state is clamped as it is built
        return State(u + dt * p_bar, 2.0 * p_bar - p, 2.0 * th_bar - th), stats

    def _iteration(self, u, rhs_fixed):
        """_Iteration of a step from u, rhs_fixed the coefficients of the
        right side without the force. Berger: the iterate is m_bar with the
        last (m, f), the next a secant step on f(m) = phi(m) - m, phi(m) the
        coefficient at the mean gradient form q(v) = h^2 sum lambda v^2 of u
        and u + dt*p_bar(m) (or phi(m), where the secant is undefined).
        Scalar: the iterate is the end displacement u_new."""
        dom, dt, spec = self.domain, self.dt, self.spec
        if spec.is_linear():
            return _Iteration(None, lambda x: (rhs_fixed, None),
                              lambda x, p_hat: (x, 0.0, 1.0),
                              lambda x, p_bar: np.zeros_like(u), eta_start=0.0)
        if spec.variant == "berger":
            lam = self._lam
            u_hat = self.to_sine(u)
            lam_u = lam * u_hat  # -lap u, fixed through the step
            q_old = self.h2 * float(np.vdot(u_hat, lam_u))

            def advance(x, p_hat):
                m_bar, prev = x
                u_new = u_hat + dt * p_hat
                q_new = self.h2 * float(np.vdot(u_new, lam * u_new))
                phi = spec.tension + 0.5 * spec.stretch * (q_old + q_new)
                f = phi - m_bar
                m_next = phi
                if prev is not None and f != prev[1]:
                    secant = m_bar - f * (m_bar - prev[0]) / (f - prev[1])
                    if np.isfinite(secant):
                        m_next = secant
                return (m_next, (m_bar, f)), abs(f), abs(phi) + 1.0

            def force(x, p_bar):
                out = x[0] * laplacian_clamped(dom, u + 0.5 * dt * p_bar)
                out[dom.gamma1] = 0.0
                return out
            return _Iteration((spec.tension + spec.stretch * q_old, None),
                              lambda x: (rhs_fixed - x[0] * lam_u, x[0]),
                              advance, force)

        scale = float(np.max(np.abs(u))) + 1.0
        grad = None  # the discrete gradient of the last sweep

        def sweep(u_new):
            nonlocal grad
            grad = discrete_gradient_force(dom, u, u_new, spec)
            return rhs_fixed + self.to_sine(grad), None

        def advance(u_new, p_hat):
            u_next = u + dt * self.from_sine(p_hat)
            return u_next, float(np.max(np.abs(u_next - u_new))), scale
        # _solve accepts the iterate of its last sweep
        return _Iteration(u, sweep, advance, lambda u_new, p_bar: grad)

    def _solve(self, iteration, stats):
        """Coefficients of the velocity average p_bar of a step and the
        accepted iterate, by inexact nonlinear iteration (Eisenstat and
        Walker, SIAM J. Sci. Comput. 17, 1996): each sweep is one velocity
        solve, warm-started from the last, to a tolerance eta that starts at
        iteration.eta_start and follows SIGMA times the relative change of
        the iterate down to tol_inner. A loose solve starts from the last
        solve's recursive residual r, recycled to the new iterate (K changes
        only by the membrane term) by one pointwise product:

            r_new = r + (rhs_new - rhs) - (dt/2) (m_new - m) lambda p_bar.

        An iterate is accepted only from a solve at tol_inner, which forms
        its true residual; one that passes at a looser eta is solved again.
        Raises SolverError after max_picard sweeps.
        """
        scheme = self.scheme
        x = iteration.start
        rhs, m_bar = iteration.sweep(x)
        p_hat = r0 = None
        eta = max(scheme.tol_inner, iteration.eta_start)
        for sweep in range(scheme.max_picard):
            p_hat, it, r = self.solve_k(rhs, m_bar=m_bar, x0=p_hat, tol=eta,
                                        r0=r0)
            stats.cg_outer += it
            stats.picard_sweeps = sweep + 1
            x_next, change, scale = iteration.advance(x, p_hat)
            if change <= scheme.tol_picard * scale:
                if eta == scheme.tol_inner:
                    return p_hat, x
                eta, r0 = scheme.tol_inner, None
                continue
            eta = max(scheme.tol_inner, min(eta, SIGMA * change / scale))
            rhs_next, m_next = iteration.sweep(x_next)
            r0 = None
            if eta > scheme.tol_inner:
                r0 = r + (rhs_next - rhs)
                if m_bar is not None:
                    r0 -= ((0.5 * self.dt * (m_next - m_bar)) * self._lam
                           * p_hat)
            x, rhs, m_bar = x_next, rhs_next, m_next
        raise SolverError(f"the {self.spec.variant} force iteration did not "
                          f"converge in {scheme.max_picard} sweeps",
                          residual=change)


def steps(stepper: PlateStepper, state: State, n_steps: int):
    """The time loop: yields (k, t, state, stats) after each of n_steps
    steps, state the one at t = k*dt and stats the work of the step that
    reached it. A StepError carries the end time k*dt of the failing step,
    the t of its sample ((k-1)*dt + dt can differ by an ulp)."""
    dt = stepper.dt
    for k in range(1, n_steps + 1):
        try:
            state, stats = stepper.step(state, t=(k - 1) * dt)
        except StepError as exc:
            exc.time = k * dt
            raise
        yield k, k * dt, state, stats


def simulate(stepper: PlateStepper, initial: State, n_steps: int,
             stride: int = 1, sinks=()) -> Trajectory:
    """Run n_steps steps, passing a sample to the sinks every stride steps.

    Per-step energy, midpoint dissipation, the energy-identity residual and
    the solver work of each step (Picard sweeps, outer CG iterations,
    thermal solves) are recorded for every step regardless of stride; sinks
    receive (k, t, state, residual_cum) at each sample, residual_cum the sum
    of the residuals up to step k, and keep what they need. Deterministic
    given inputs. Raises StepError at time 0, with no solver work, when the
    Lyapunov energy of the initial state is not finite.
    """
    from .diagnostics import energy

    dom, params, spec = stepper.domain, stepper.params, stepper.spec
    dt = stepper.dt
    state = initial.copy()
    state.validate(dom)

    times = [0.0]
    e_series = np.empty(n_steps + 1)
    lyap_series = np.empty(n_steps + 1)
    diss_mid = np.empty(n_steps)
    residuals = np.empty(n_steps)
    work = np.empty((3, n_steps), dtype=np.int64)
    eb = energy(dom, state, params, spec)
    if not math.isfinite(eb.lyapunov):
        # no step could balance it; fail before the first one
        raise StepError("initial Lyapunov energy is not finite "
                        f"({eb.lyapunov})", time=0.0, stats=StepStats())
    e_series[0], lyap_series[0] = eb.e, eb.lyapunov
    res_cum = 0.0

    for sink in sinks:
        sink(0, 0.0, state, res_cum)

    for k, t, state, stats in steps(stepper, state, n_steps):
        eb = energy(dom, state, params, spec)
        e_series[k], lyap_series[k] = eb.e, eb.lyapunov
        diss_mid[k - 1] = stats.dissipation_mid
        work[:, k - 1] = stats.picard_sweeps, stats.cg_outer, stats.cg_inner
        residuals[k - 1] = (lyap_series[k] - lyap_series[k - 1]
                            + dt * diss_mid[k - 1])
        res_cum += residuals[k - 1]
        if k % stride == 0 or k == n_steps:
            times.append(t)
            for sink in sinks:
                sink(k, t, state, res_cum)

    series = {"energy": e_series, "lyapunov": lyap_series,
              "dissipation_mid": diss_mid, "residual": residuals}
    series.update(zip(("picard_sweeps", "cg_outer", "h_solves"), work))
    return Trajectory(times=times, final=state, meta={"dt": dt},
                      step_series=series)


def stationary_solve(domain: Domain, params: PhysParams,
                     spec: NonlinearitySpec, guess: np.ndarray) -> np.ndarray:
    """Damped Newton for the stationary problem beta lap^2 u + F(u) = 0, to
    relative residual STATIONARY_TOL in STATIONARY_MAX_NEWTON steps.

    Each Newton step is a preconditioned CG on the interior sine
    coefficients (_stationary_jacobian), preconditioned by
    ClampedSinePreconditioner.apply_hat on the symbol beta_bar lambda^2 + 1.
    The residual and the line search stay on the grid, so convergence is
    certified independently of the coefficient path. With several roots
    present no claim is made about which one is returned.
    """
    h2 = domain.h * domain.h
    dot = lambda a, b: h2 * float(np.vdot(a, b))
    norm = lambda a: np.sqrt(dot(a, a))
    coeff = params.bending_coeff(domain)
    sine = sine_basis(domain.n)
    plate = ClampedPlateHat(domain, params, 0.0, 1.0)

    u = np.array(guess, dtype=float)
    u[domain.gamma1] = 0.0

    def residual(u):
        r = biharmonic_transmission(domain, u, params, coeff=coeff)
        r += force(domain, u, spec)
        r[domain.gamma1] = 0.0
        return r

    beta_bar = params.beta1 * float(np.sum(domain.w1)) + params.beta2 * float(
        np.sum(domain.w2)
    )
    precond = ClampedSinePreconditioner(domain, beta_bar * plate.lam**2 + 1.0,
                                        coeff)

    res = residual(u)
    for _ in range(STATIONARY_MAX_NEWTON):
        rnorm = norm(res)
        if rnorm <= STATIONARY_TOL * (1.0 + norm(u)):
            return u
        op = LinearOperator(
            apply=_stationary_jacobian(domain, spec, plate, u), dot=dot)
        try:
            d_hat = cg_solve(op, sine.project(-res[1:-1, 1:-1]),
                             tol=STATIONARY_CG_TOL,
                             max_iter=2000, precond=precond.apply_hat)[0]
        except SolverError as exc:
            if exc.best is None:
                raise
            d_hat = exc.best  # indefinite Jacobian: best iterate as direction
        d = np.zeros_like(u)
        sine.expand(d_hat, out=d[1:-1, 1:-1])
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
                f"(residual {rnorm:.3e}, tol {STATIONARY_TOL:g})",
                best=u, residual=rnorm,
            )
    raise SolverError(
        "stationary Newton did not converge in "
        f"{STATIONARY_MAX_NEWTON} iterations",
        best=u, residual=norm(res),
    )


def _stationary_jacobian(domain: Domain, spec: NonlinearitySpec,
                         plate: ClampedPlateHat, u: np.ndarray):
    """The stationary Jacobian at the grid field u on sine coefficients v^:
    the bending, plate (ClampedPlateHat at mass 0 and bending 1), plus the
    derivative of the force. For Berger, F(u) = -M(u) lap u, that is
    M(u) lambda v^ and the rank-one 2 stretch h^2 <lambda u^, v^> lambda u^;
    for scalar forces the pointwise fp = (w1 f1'(u) + w2 f2'(u))/h^2, one
    expansion of v^ to the grid and one projection per apply."""
    h2 = domain.h * domain.h
    sine = sine_basis(domain.n)
    if spec.variant == "berger":
        lam_u = plate.lam * sine.project(u[1:-1, 1:-1])
        diag = plate.diagonal + berger_coefficient(domain, u, spec) * plate.lam
        dm = 2.0 * spec.stretch * h2

        def apply(v):
            out = (dm * float(np.vdot(lam_u, v))) * lam_u
            return plate.accumulate(v, out, diag)
        return apply

    ui = u[1:-1, 1:-1]
    fp = (domain.w1[1:-1, 1:-1] * (3.0 * spec.f1.kappa * ui**2 + spec.f1.c)
          + domain.w2[1:-1, 1:-1] * (3.0 * spec.f2.kappa * ui**2 + spec.f2.c)
          ) / h2

    def apply(v):
        return plate.accumulate(v, sine.project(fp * sine.expand(v)))
    return apply
