"""Implicit-midpoint time integration engineered so the discrete energy
identity holds to solver tolerance, plus a stationary-state solver.

Each step solves the midpoint system for the velocity average p_bar after
eliminating the temperature through the thermal Schur complement (matrix
free, SPD), then recovers the endpoint state from exact update formulas.
The thermal solve is exact and uses no sparse factorization:
operators.FrameThermalSolver, built once per stepper, works on the sine
coefficients of the interior temperature and its values on the outer
boundary. On the interior the thermal matrix is diagonal in sine modes,
and a capacitance matrix on the boundary values and the interface
multipliers imposes the Robin rows and theta = 0 on the interface; for an
inner box centred on the square it splits into parity blocks, whose
inverses it applies as one batched product. The nonlinear force enters as
a discrete gradient, so the only energy residual sources are the
linear-solver and nonlinear-iteration tolerances.

The reduced system is solved on the interior sine coefficients
p^ = S p S of the velocity (S the orthonormal DST-I of operators.sine_basis,
modes in parity-blocked order), so its inner product, its tolerances and
its CG are those of the grid, and it holds no grid array. The stepper only
composes K (PlateStepper.apply_k_hat) from the two objects that own its
halves: operators.ClampedPlateHat, the plate's mass, bending and region
contrast, and FrameThermalSolver, whose heat_source_hat and couple_hat
form the thermal solve's right side and take its solution back to the
plate in closed form. The plate part of a step's right side,
(2/dt) rho p - A u, is two more ClampedPlateHat, from the sine coefficients
of u and p. The coupling term of the right side takes the thermal path of a
K apply, and so does the new temperature: the projected old one plus the
heat source of p_bar, solved and expanded to the grid once, as p_bar is. A
step applies no grid stencil to the plate, and its thermal solves are the
change of FrameThermalSolver.solves across it. The time loop (steps)
carries the coefficients of u, p and the projected temperature from step
to step (Carry, formed by the step's own update formulas), so only its
first step projects a grid field; they agree with the projections of the
grid state to about 1e-15 of each field's largest value
(PlateStepper.step).

The reduced system is preconditioned by the plate's own
ClampedSinePreconditioner (ClampedPlateHat.preconditioner), built once with
the stepper: the sine-basis symbol of the uncoupled plate (mass and
bending, with area-weighted mean coefficients standing in for the
piecewise ones) plus the exact diagonal term that the clamped reflection
ghost adds to the bending flux on the first interior ring, the plate's
ring weight d, inverted by the Woodbury formula with a capacitance matrix
that splits into four parity blocks, each inverted once through a
half-size Schur complement. On sine coefficients it makes no transform.
The symbol has no term for the thermal coupling: P^-1 K is as well
conditioned without one (condition number 1.24 at n=32 either way). For
Berger with m_bar > 0 the sine part takes the membrane symbol
(dt/2) m_bar lambda on top, with the capacitance of the base symbol (still
SPD, see the class); for m_bar <= 0 the base preconditioner is used as it
is.

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
ClampedPlateHat at mass 0 and bending 1 in its Jacobian and preconditioned
by that plate's preconditioner; its residual and line search stay on the
grid.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .diagnostics import dissipation, energy
from .domain import Domain
from .errors import SolverError, StepError
from .fields import PhysParams, State
from .nonlinearity import (NonlinearitySpec, berger_coefficient,
                           discrete_gradient_force, force)
from .operators import (ClampedPlateHat, FrameThermalSolver,
                        biharmonic_transmission, cg_solve, sine_basis)

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

# CG iterations of one velocity solve
MAX_CG = 50000


@dataclass(frozen=True)
class SchemeConfig:
    """Time step and solver tolerances. dt=None resolves to h/4."""

    dt: float | None = None
    tol_inner: float = 1e-12
    tol_picard: float = 1e-11
    max_picard: int = 50

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
        if not self.max_picard >= 1:
            errs.append("max_picard must be >= 1")
        return errs

    def resolve_dt(self, h: float) -> float:
        """The time step on a grid of spacing h: dt, or h/4 when dt is
        unset (None, or 0, which validate rejects)."""
        return self.dt or h / 4.0

    def identity_bound(self) -> float:
        """The per-step energy-identity residual that the tolerances admit,
        relative to the Lyapunov energy: the gate of
        experiments._lyapunov_violations and of verify's short run."""
        return 10.0 * (self.tol_inner + self.tol_picard)


# The coefficients of a state that a step reads: the sine coefficients of u
# and u_t (PlateStepper.to_sine) and y = FrameThermalSolver.project(c theta),
# c = 2 rho0/dt (see PlateStepper.step).
Carry = namedtuple("Carry", "u_hat ut_hat y")


@dataclass
class StepStats:
    """Solver work of one step and what its last velocity solve used.

    picard_sweeps counts the velocity solves of the nonlinear iteration of
    either force, loose ones and the final one at tol_inner included; 1 for
    the linear problem. cg_outer counts CG iterations, each one K apply and,
    since CG tests the residual before it preconditions, one preconditioner
    apply. cg_inner counts thermal solves, the change of
    FrameThermalSolver.solves across the step: one per K apply, that is
    cg_outer, plus one for the true residual of each warm-started solve at
    tol_inner (a loose solve recycles the last residual instead), plus the
    two of the step outside the velocity solves, the coupling term of its
    right side and th_bar.
    dissipation_mid is diagnostics.dissipation of th_bar, the midpoint
    dissipation D of the step's energy identity.
    force holds the sine coefficients (PlateStepper.to_sine) of the
    nonlinear force of the last solve: zero for the linear problem, those
    of m_bar*lap(u + dt/2*p_bar) with that solve's m_bar for Berger (its
    right side's -m_bar lambda u^ and the membrane term of K, formed as
    -m_bar lambda u^ - (dt/2) m_bar lambda p^), those of the discrete
    gradient at that solve's iterate for scalar forces.
    p_bar holds the sine coefficients of the velocity average p_bar, the
    last solve's result, which the difference work term reads with force.
    carry holds the Carry of the new state, formed from the step's own
    coefficients rather than projected from its grid fields; steps passes it
    to the next step, which overwrites its arrays (see PlateStepper.step).
    A StepError carries the counts of the failing step up to its failure.
    """

    picard_sweeps: int = 0
    cg_outer: int = 0
    cg_inner: int = 0
    dissipation_mid: float = 0.0
    force: np.ndarray | None = None
    p_bar: np.ndarray | None = None
    carry: Carry | None = None



# A force's part of a step's nonlinear iteration (PlateStepper._solve): the
# first iterate; sweep(x), the sine coefficients of the force on the right
# side at the iterate x and its membrane coefficient (None without one);
# advance(x, p_hat), the next iterate after the solve p_hat at x, the change
# and its scale; the tolerance of the first solve.
_Iteration = namedtuple("_Iteration", "start sweep advance eta_start",
                        defaults=(INNER_TOL_START,))


def _gradient_form(h2, lam, v_hat):
    """q(v) = h^2 sum lambda v^2 of sine coefficients v^, lambda the
    eigenvalues of -lap: the Berger step's |grad v|^2."""
    return h2 * float(np.vdot(v_hat, lam * v_hat))


def _mean_coefficient(spec, q1, q2):
    """The Berger step's membrane coefficient between gradient forms q1 and
    q2, m_bar = tension + (stretch/2)(q1 + q2); its force from a^ to b^ is
    -m_bar lambda (a^ + b^)/2."""
    return spec.tension + 0.5 * spec.stretch * (q1 + q2)


@dataclass
class Trajectory:
    """What simulate keeps of a run: the final state, the time step dt and
    the per-step series (step_series, one entry per step and, for the
    energies, one more for the initial state). Sample k of the run is at
    t = k*dt; the sampled states go to the sinks and are not kept."""

    final: State
    dt: float
    step_series: dict


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
        self.dt = self.scheme.resolve_dt(domain.h)

        self.h2 = domain.h * domain.h

        # H = (2 rho0/dt) I + beta0 L on temperature dofs: constant through
        # the run, solved exactly inside the outer CG, with its coupling to
        # the plate on sine coefficients (the thermal half of K)
        self._thermal = FrameThermalSolver(domain, params, self.dt)

        # the plate half of K (apply_k_hat), and the Berger membrane symbol
        # per unit m_bar that K and its preconditioner add
        self._sine = sine_basis(domain.n)
        self._plate = ClampedPlateHat(domain, params, 2.0 / self.dt,
                                      0.5 * self.dt)
        lam = self._lam = self._plate.lam
        self._sym_membrane = 0.5 * self.dt * lam
        # the right side of a step, (2/dt) rho p - A u, in sine coefficients
        self._mass_hat = ClampedPlateHat(domain, params, 2.0 / self.dt, 0.0)
        self._bend_hat = ClampedPlateHat(domain, params, 0.0, -1.0)
        # the plate's preconditioner, built last: its set-up makes the
        # largest temporaries, and freeing them last leaves a glibc heap
        # that the time loop regrows with a quarter fewer page faults at
        # n=128 than building it right after the plate
        self._precond = self._plate.preconditioner()

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
        Counted as a thermal solve. step solves on sine coefficients; this
        grid form is kept for the tests and for perfbench/spans.py."""
        th = self._thermal
        return th.expand(th.solve_projected(th.project(rhs)))

    # -- reduced velocity system --------------------------------------------

    def apply_k_hat(self, p_hat, m_bar=None):
        """K in sine coefficients: S K S on the coefficients p_hat of the
        interior of a clamped p (to_sine), S orthonormal, for the reduced
        velocity operator

            K p = (2/dt) rho p + (dt/2) A p + C H^-1 S p - (dt/2) m_bar lap p

        (A = biharmonic_transmission, S p = mu lap p the heat source on the
        free temperature nodes and C its adjoint, the coupling of the
        temperature into the plate equation (FrameThermalSolver); the m_bar
        term is the Berger membrane part):

            K^ p^ = P^ p^ + couple_hat(heat_source_hat(p^))
                    + (dt/2) m_bar lambda p^,

        P^ the plate, operators.ClampedPlateHat at mass 2/dt and bending
        dt/2, lambda the sine symbol of the Dirichlet -Laplacian, and
        couple_hat and heat_source_hat the thermal half, in closed form on
        the coordinates of the thermal solve (FrameThermalSolver).

        It makes no transform and holds no grid array.
        """
        return self._k_hat(p_hat, self._k_diagonal(m_bar))

    def _k_diagonal(self, m_bar):
        if m_bar is None:
            return self._plate.diagonal
        return self._plate.diagonal + m_bar * self._sym_membrane

    def _k_hat(self, p_hat, diag):
        """apply_k_hat with its diagonal sigma + (dt/2) m_bar lambda."""
        th = self._thermal
        out = th.couple_hat(th.heat_source_hat(p_hat))
        return self._plate.accumulate(p_hat, out, diag)

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
        returns (p, iterations, final residual), all coefficients.

        tol bounds the residual of the coefficients. The residual of the
        grid operator K on the expanded p, K from_sine(p) - from_sine(rhs),
        carries the rounding of the expansion, which K amplifies by up to
        its condition number (about 1/h^2): at n=128 it sits about twice
        above tol_inner."""
        diag = self._k_diagonal(m_bar)
        return cg_solve(lambda p: self._k_hat(p, diag), self.dot_u, rhs,
                        tol=self.scheme.tol_inner if tol is None else tol,
                        max_iter=MAX_CG,
                        precond=self._k_precond(m_bar), x0=x0, r0=r0)

    # -- one step -------------------------------------------------------------

    def step(self, state: State, t: float = 0.0, carry: Carry | None = None):
        """Advance from time t by dt; returns (new_state, StepStats). A
        StepError carries the end time t + dt of the failing step.

        The step reads state through its Carry: the sine coefficients u^ and
        p^ of u and u_t, and y = FrameThermalSolver.project(c theta),
        c = 2 rho0/dt, the thermal right side of the coupling term and,
        with the heat source of p_bar, of th_bar. Without a carry it
        projects them from the grid; with one, the StepStats.carry of the
        step that reached state, it makes no grid projection. Either way it
        forms the new state's Carry from its own coefficients, written over
        the given carry's arrays (on success only; the frame solver's calls
        before that only read y, so the step copies nothing for them):

            u^_new = u^ + dt p_bar^,   p^_new = 2 p_bar^ - p^,
            y_new = 2 c W Y_bar - y,

        Y_bar the coordinates of th_bar (solve_projected) and W their
        weights (FrameThermalSolver.weight): th_bar vanishes off the free
        temperature nodes, so project(c th_bar) = c W Y_bar up to rounding.
        The grid state stays u + dt p_bar, 2 p_bar - p and 2 th_bar - th,
        so the two are roundings of the same running sums; over 4000 linear
        steps at n=16 they differ by at most 1.2e-15 of each field's
        largest value, an offset set in the first 400 steps.

        The step's midpoint dissipation, StepStats.dissipation_mid, is
        diagnostics.dissipation of th_bar, the function that
        experiments.run_difference also applies to the midpoint temperature
        of a difference of two trajectories.
        """
        dom, dt, params = self.domain, self.dt, self.params
        thermal = self._thermal
        u, p, th = state.u, state.ut, state.theta
        stats = StepStats()
        solves = thermal.solves

        c = 2.0 * params.rho0 / dt
        if carry is None:
            carry = Carry(self.to_sine(u), self.to_sine(p),
                          thermal.project(c * th))
        u_hat, p_old_hat, y = carry
        rhs_fixed = -thermal.couple_hat(y)
        self._mass_hat.accumulate(p_old_hat, rhs_fixed)
        self._bend_hat.accumulate(u_hat, rhs_fixed)

        iteration = self._iteration(u, u_hat)
        try:
            p_hat, g, m_bar = self._solve(iteration, rhs_fixed, stats)
        except SolverError as exc:
            stats.cg_outer += exc.iterations or 0
            stats.cg_inner = thermal.solves - solves
            raise StepError(f"the step to t={t + dt:g} failed: {exc}",
                            time=t + dt, residual=exc.residual,
                            stats=stats) from exc
        if m_bar is not None:
            # with the membrane term of K: the force at u + dt/2 p_bar
            g = g - (0.5 * dt * m_bar) * self._lam * p_hat
        stats.force = g
        stats.p_bar = p_hat

        y_bar = thermal.solve_projected(y + thermal.heat_source_hat(p_hat))
        th_bar = thermal.expand(y_bar)
        stats.cg_inner = thermal.solves - solves
        stats.dissipation_mid = dissipation(dom, th_bar, params)
        u_hat += dt * p_hat
        np.subtract(2.0 * p_hat, p_old_hat, out=p_old_hat)
        np.subtract((2.0 * c) * thermal.weight * y_bar, y, out=y)
        stats.carry = carry
        p_bar = self.from_sine(p_hat)
        # p_bar vanishes on gamma1 and th_bar off the free temperature
        # nodes, so the new state is clamped as it is built
        return State(u + dt * p_bar, 2.0 * p_bar - p, 2.0 * th_bar - th), stats

    def _iteration(self, u, u_hat):
        """_Iteration of a step from u, u_hat its sine coefficients. Linear:
        the force is zero. Berger: the iterate is m_bar with the last
        (m, f), the next a secant step on f(m) = phi(m) - m, phi(m) the
        coefficient at the mean gradient form q(v) = h^2 sum lambda v^2 of u
        and u + dt*p_bar(m) (or phi(m), where the secant is undefined), and
        the force -m_bar lambda u^. Scalar: the iterate is the end
        displacement u_new, the force the discrete gradient from u to it."""
        dom, dt, spec = self.domain, self.dt, self.spec
        if spec.is_linear():
            return _Iteration(None, lambda x: (np.zeros_like(u_hat), None),
                              lambda x, p_hat: (x, 0.0, 1.0), eta_start=0.0)
        if spec.variant == "berger":
            lam = self._lam
            lam_u = lam * u_hat  # -lap u, fixed through the step
            q_old = _gradient_form(self.h2, lam, u_hat)

            def advance(x, p_hat):
                m_bar, prev = x
                q_new = _gradient_form(self.h2, lam, u_hat + dt * p_hat)
                phi = _mean_coefficient(spec, q_old, q_new)
                f = phi - m_bar
                m_next = phi
                if prev is not None and f != prev[1]:
                    secant = m_bar - f * (m_bar - prev[0]) / (f - prev[1])
                    if np.isfinite(secant):
                        m_next = secant
                return (m_next, (m_bar, f)), abs(f), abs(phi) + 1.0
            return _Iteration((_mean_coefficient(spec, q_old, q_old), None),
                              lambda x: (-x[0] * lam_u, x[0]), advance)

        scale = float(np.max(np.abs(u))) + 1.0

        def sweep(u_new):
            return self.to_sine(discrete_gradient_force(dom, u, u_new,
                                                        spec)), None

        def advance(u_new, p_hat):
            u_next = u + dt * self.from_sine(p_hat)
            return u_next, float(np.max(np.abs(u_next - u_new))), scale
        return _Iteration(u, sweep, advance)

    def _solve(self, iteration, rhs_fixed, stats):
        """Coefficients of the velocity average p_bar of a step, with the
        force and the m_bar of its last sweep (iteration.sweep), by inexact
        nonlinear iteration (Eisenstat and Walker, SIAM J. Sci. Comput. 17,
        1996): each sweep is one velocity solve on rhs_fixed plus its force,
        warm-started from the last, to a tolerance eta that starts at
        iteration.eta_start and follows SIGMA times the relative change of
        the iterate down to tol_inner. A loose solve starts from the last
        solve's recursive residual r, recycled to the new iterate (K changes
        only by the membrane term) by one pointwise product:

            r_new = r + (g_new - g) - (dt/2) (m_new - m) lambda p_bar,

        g and g_new the forces of the two sweeps.

        An iterate is accepted only from a solve at tol_inner, which forms
        its true residual; one that passes at a looser eta is solved again.
        Raises SolverError after max_picard sweeps.
        """
        scheme = self.scheme
        x = iteration.start
        g, m_bar = iteration.sweep(x)
        p_hat = r0 = None
        eta = max(scheme.tol_inner, iteration.eta_start)
        for sweep in range(scheme.max_picard):
            p_hat, it, r = self.solve_k(rhs_fixed + g, m_bar=m_bar, x0=p_hat,
                                        tol=eta, r0=r0)
            stats.cg_outer += it
            stats.picard_sweeps = sweep + 1
            x_next, change, scale = iteration.advance(x, p_hat)
            if change <= scheme.tol_picard * scale:
                if eta == scheme.tol_inner:
                    return p_hat, g, m_bar
                eta, r0 = scheme.tol_inner, None
                continue
            eta = max(scheme.tol_inner, min(eta, SIGMA * change / scale))
            g_next, m_next = iteration.sweep(x_next)
            r0 = None
            if eta > scheme.tol_inner:
                r0 = r + (g_next - g)
                if m_bar is not None:
                    r0 -= ((0.5 * self.dt * (m_next - m_bar)) * self._lam
                           * p_hat)
            x, g, m_bar = x_next, g_next, m_next
        raise SolverError(f"the {self.spec.variant} force iteration did not "
                          f"converge in {scheme.max_picard} sweeps",
                          residual=change)


def steps(stepper: PlateStepper, state: State, n_steps: int):
    """The time loop: yields (k, t, state, stats) after each of n_steps
    steps, state the one at t = k*dt and stats the work of the step that
    reached it. A StepError carries the end time k*dt of the failing step,
    the t of its sample ((k-1)*dt + dt can differ by an ulp).

    Each step after the first starts from the stats.carry of the last, so
    only the first projects its state from the grid (PlateStepper.step);
    the carry's arrays are reused from step to step, and a stats.carry
    already yielded holds the coefficients of the latest state."""
    dt = stepper.dt
    carry = None
    for k in range(1, n_steps + 1):
        try:
            state, stats = stepper.step(state, (k - 1) * dt, carry)
        except StepError as exc:
            exc.time = k * dt
            raise
        carry = stats.carry
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
    dom, params, spec = stepper.domain, stepper.params, stepper.spec
    dt = stepper.dt
    state = initial.copy()
    state.validate(dom)

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
            for sink in sinks:
                sink(k, t, state, res_cum)

    series = {"energy": e_series, "lyapunov": lyap_series,
              "dissipation_mid": diss_mid, "residual": residuals}
    series.update(zip(("picard_sweeps", "cg_outer", "h_solves"), work))
    return Trajectory(state, dt, series)


def stationary_solve(domain: Domain, params: PhysParams,
                     spec: NonlinearitySpec, guess: np.ndarray) -> np.ndarray:
    """Damped Newton for the stationary problem beta lap^2 u + F(u) = 0, to
    relative residual STATIONARY_TOL in STATIONARY_MAX_NEWTON steps.

    Each Newton step is a preconditioned CG on the interior sine
    coefficients (_stationary_jacobian), preconditioned by the
    ClampedPlateHat.preconditioner of its plate at mass 0 and bending 1,
    whose symbol is beta_bar lambda^2.
    The residual and the line search stay on the grid, so convergence is
    certified independently of the coefficient path. With several roots
    present no claim is made about which one is returned.
    """
    h2 = domain.h * domain.h
    dot = lambda a, b: h2 * float(np.vdot(a, b))
    norm = lambda a: np.sqrt(dot(a, a))
    sine = sine_basis(domain.n)
    plate = ClampedPlateHat(domain, params, 0.0, 1.0)
    precond = plate.preconditioner()

    u = np.array(guess, dtype=float)
    u[domain.gamma1] = 0.0

    def residual(u):
        r = biharmonic_transmission(domain, u, params)
        r += force(domain, u, spec)
        r[domain.gamma1] = 0.0
        return r

    res = residual(u)
    for _ in range(STATIONARY_MAX_NEWTON):
        rnorm = norm(res)
        if rnorm <= STATIONARY_TOL * (1.0 + norm(u)):
            return u
        try:
            d_hat = cg_solve(_stationary_jacobian(domain, spec, plate, u),
                             dot, sine.project(-res[1:-1, 1:-1]),
                             tol=STATIONARY_CG_TOL,
                             max_iter=2000, precond=precond.apply_hat)[0]
        except SolverError as exc:
            if exc.best is None:
                raise
            d_hat = exc.best  # indefinite Jacobian: last iterate as direction
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
    fp = (domain.w1[1:-1, 1:-1] * spec.f1.derivative(ui)
          + domain.w2[1:-1, 1:-1] * spec.f2.derivative(ui)) / h2

    def apply(v):
        return plate.accumulate(v, sine.project(fp * sine.expand(v)))
    return apply
