"""Functionals evaluated on discrete states: energy split, dissipation,
energy-identity residuals, the multiplier functionals J1..J4 and their
combination R, and the lower-order observables of the two-trajectory
stabilizability machinery.

An observable row computes each intermediate of its sample once, with the
private helpers that the public functionals use as well: one clamped
Laplacian of u, one central gradient of u, one set of edge differences of
theta, one rho*u_t product, and one inverse Dirichlet
Laplacian v = L^-1(density*u_t). The last serves both the negative-order
norm and J1: the 5-point Dirichlet Laplacian is symmetric on the interior
nodes, so is its inverse, and the pairing of u_t with L^-1 of the J1 source
equals the pairing of v with that source.
"""

import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .domain import CutoffSet, Domain
from .errors import ConfigurationError, SolverError, UsageError
from .fields import PhysParams, State
from .nonlinearity import NonlinearitySpec, potential
from .operators import (central_gradient, dirichlet_inverse,
                        laplacian_clamped, thermal_laplacian)


@dataclass
class EnergyBreakdown:
    """Quadratic energy split by region plus the nonlinear potential.

    e is the purely quadratic energy; lyapunov = e + potential is the
    quantity that is non-increasing along trajectories.
    """

    kinetic1: float = 0.0
    kinetic2: float = 0.0
    bending1: float = 0.0
    bending2: float = 0.0
    thermal: float = 0.0
    potential: float = 0.0

    @property
    def e(self):
        return (self.kinetic1 + self.kinetic2 + self.bending1
                + self.bending2 + self.thermal)

    @property
    def lyapunov(self):
        return self.e + self.potential


def energy(domain: Domain, state: State, params: PhysParams,
           spec: NonlinearitySpec) -> EnergyBreakdown:
    """Discrete energy split; the quadratic parts use the region quadrature
    weights, the bending parts the clamped-ghost Laplacian."""
    return _energy(domain, state, params, spec,
                   laplacian_clamped(domain, state.u))


def _wsum(w: np.ndarray, a: np.ndarray) -> float:
    """sum(w * a) over the grid, as one dot product."""
    return float(np.dot(w.ravel(), a.ravel()))


def _energy(domain, state, params, spec, lap_u) -> EnergyBreakdown:
    """The energy split, with lap u = laplacian_clamped(u) given."""
    ut2 = state.ut * state.ut
    lap2 = lap_u * lap_u
    th = state.theta
    return EnergyBreakdown(
        kinetic1=0.5 * params.rho1 * _wsum(domain.w1, ut2),
        kinetic2=0.5 * params.rho2 * _wsum(domain.w2, ut2),
        bending1=0.5 * params.beta1 * _wsum(domain.w1, lap2),
        bending2=0.5 * params.beta2 * _wsum(domain.w2, lap2),
        thermal=0.5 * params.rho0 * _wsum(domain.w1, th * th),
        potential=potential(domain, state.u, spec),
    )


def dissipation(domain: Domain, th: np.ndarray, params: PhysParams) -> float:
    """D = beta0 * (gradient integral of theta over the frame plus the Robin
    line term), evaluated through the operator so it cross-checks the
    edge-form implementation."""
    l_th = thermal_laplacian(domain, th, params)
    return params.beta0 * float(np.sum(domain.w1 * l_th * th))


def thermal_gradient(domain: Domain, th: np.ndarray,
                     params: PhysParams) -> float:
    """beta0 * gradient integral of the temperature th only (no Robin
    term)."""
    dx = th[1:, :] - th[:-1, :]
    dy = th[:, 1:] - th[:, :-1]
    return params.beta0 * (_wsum(domain.ce_h, dx * dx)
                           + _wsum(domain.ce_v, dy * dy))


def _robin_dissipation(domain: Domain, th: np.ndarray,
                       params: PhysParams) -> float:
    """beta0 * lam * line integral of theta^2 over gamma1: with
    thermal_gradient, the dissipation in the edge form thermal_form."""
    return params.beta0 * params.lam * _wsum(domain.bw, th * th)


def energy_identity_residual(domain: Domain, trajectory, params: PhysParams,
                             spec: NonlinearitySpec):
    """Per-step residual r_k = L(t_{k+1}) - L(t_k) + dt*D(midpoint_k) of the
    Lyapunov energy, recomputed from the sampled states.

    Requires every step to be sampled (stride 1). Returns (per_step,
    cumulative) arrays.
    """
    if trajectory.stride != 1:
        raise UsageError(
            "energy_identity_residual needs a stride-1 trajectory; the "
            "midpoint dissipation is not recoverable from subsampled states"
        )
    states = trajectory.states
    if len(states) < 2:
        return np.zeros(0), np.zeros(0)
    dt = trajectory.meta["dt"]
    lyap = np.array(
        [energy(domain, s, params, spec).lyapunov for s in states]
    )
    per_step = np.empty(len(states) - 1)
    for k in range(len(states) - 1):
        th_mid = 0.5 * (states[k].theta + states[k + 1].theta)
        d_mid = dissipation(domain, th_mid, params)
        per_step[k] = lyap[k + 1] - lyap[k] + dt * d_mid
    return per_step, np.cumsum(per_step)


def multiplier_functionals(domain: Domain, state: State, cutoffs: CutoffSet,
                           params: PhysParams, eta: float = 1e-2,
                           calib_c: float = 1.0):
    """The four multiplier functionals and their weighted combination R.

    J1 pairs the velocity with the inverse Dirichlet Laplacian of the
    cutoff temperature source; J2 uses the boundary vector field, J3 the
    interface cutoff, J4 the radial field damped by psi. The combination is
    R = J1 + (eta/min(beta1,beta2)) J2 + (mu/2 - eta*calib_c) J3
        + sqrt(eta) J4,
    valid only while the J3 weight stays positive.

    L^-1 is symmetric on the interior nodes, so J1 is evaluated as
    -h^2 sum(v * rho0 phi1 theta) with v = L^-1(density u_t), the solve
    negnorm makes: one Dirichlet solve, which raises SolverError for a
    non-finite velocity. A non-finite J1 source (temperature) raises
    SolverError too.
    """
    rho_ut, v = _momentum_inverse(domain, params, state.ut)
    return _multipliers(domain, state, cutoffs, params, eta, calib_c, rho_ut,
                        v, central_gradient(domain, state.u))


def _multipliers(domain, state, cutoffs, params, eta, calib_c, rho_ut, v,
                 grad):
    """J1..J4 and R from the shared intermediates rho_ut and v of
    _momentum_inverse and grad, the central gradient of u."""
    j3_weight = 0.5 * params.mu - eta * calib_c
    if j3_weight <= 0.0:
        raise ConfigurationError(
            f"multiplier weight mu/2 - eta*C = {j3_weight:g} must be "
            "positive; decrease eta or the calibration constant"
        )
    u = state.u
    h2 = domain.h * domain.h

    # interior nodes only, where L^-1 reads its source: a temperature that
    # is not finite there makes J1 non-finite
    source = cutoffs.phi1 * state.theta
    j1 = -h2 * params.rho0 * float(np.vdot(v[1:-1, 1:-1],
                                           source[1:-1, 1:-1]))
    if not math.isfinite(j1):
        raise SolverError("multiplier J1 is not finite (non-finite "
                          "temperature)")

    # J2 and J4 pair rho u_t grad u with the vector fields h and psi m, one
    # dot product per component
    gx, gy = grad
    px, py = rho_ut * gx, rho_ut * gy
    hx, hy = np.moveaxis(cutoffs.h_field, -1, 0)
    j2 = _wsum(hx, px) + _wsum(hy, py)

    j3 = params.rho1 * _wsum(domain.w1, state.ut * cutoffs.phi2 * u)

    j4 = _wsum(cutoffs.psi_m[0], px) + _wsum(cutoffs.psi_m[1], py)

    r = (j1 + (eta / min(params.beta1, params.beta2)) * j2
         + j3_weight * j3 + np.sqrt(eta) * j4)
    return j1, j2, j3, j4, r


def _momentum_inverse(domain: Domain, params: PhysParams, ut: np.ndarray):
    """rho * u_t, with the region quadrature weights in rho (units rho h^2),
    and v = L^-1(density * u_t), the one Dirichlet solve of a sample; raises
    SolverError for a non-finite velocity."""
    rho_ut = (params.rho1 * domain.w1 + params.rho2 * domain.w2) * ut
    return rho_ut, dirichlet_inverse(domain, rho_ut / (domain.h * domain.h))


def negnorm(domain: Domain, state: State, params: PhysParams) -> float:
    """Squared L^2 norm of the inverse Dirichlet Laplacian applied to the
    rho-weighted velocity (the negative-order norm of the momentum).

    The inverse v is one direct sine-basis solve, the same v that J1 pairs
    with its source in an observable row; a non-finite velocity raises
    SolverError."""
    _, v = _momentum_inverse(domain, params, state.ut)
    return _negnorm(domain, v)


def _negnorm(domain: Domain, v: np.ndarray) -> float:
    return _wsum(domain.w, v * v)


def l2_low(domain: Domain, state: State) -> float:
    """Squared composite L^2 norm of the displacement."""
    return _wsum(domain.w, state.u * state.u)


def difference_observables(domain: Domain, s1: State, s2: State,
                           params: PhysParams) -> dict:
    """Lower-order and energy observables of the difference d = s1 - s2.

    The quadratic energy of d uses the linear spec (the difference system
    carries the nonlinearity as a source, not a potential).
    """
    d = s1 - s2
    eb = energy(domain, d, params, NonlinearitySpec.linear())
    return {
        "e_d": eb.e,
        "l2_low": l2_low(domain, d),
        "negnorm": negnorm(domain, d, params),
        "thermal_grad": thermal_gradient(domain, d.theta, params),
    }


@dataclass
class ObservableRow:
    """One time sample of every logged diagnostic; serializes as one CSV
    line in the fixed column order below."""

    t: float = 0.0
    kinetic1: float = 0.0
    kinetic2: float = 0.0
    bending1: float = 0.0
    bending2: float = 0.0
    thermal: float = 0.0
    potential: float = 0.0
    e: float = 0.0
    lyapunov: float = 0.0
    dissipation: float = 0.0
    residual_cum: float = 0.0
    j1: float = 0.0
    j2: float = 0.0
    j3: float = 0.0
    j4: float = 0.0
    r: float = 0.0
    r_over_e: float = 0.0
    negnorm: float = 0.0
    l2_low: float = 0.0
    thermal_grad: float = 0.0

    @classmethod
    def columns(cls):
        return [f.name for f in dc_fields(cls)]

    @classmethod
    def csv_header(cls):
        return ",".join(cls.columns())

    def to_csv_line(self):
        return ",".join(
            format(getattr(self, c), ".17g") for c in self.columns()
        )


def observable_row(domain: Domain, state: State, params: PhysParams,
                   spec: NonlinearitySpec, t: float,
                   cutoffs: CutoffSet | None = None,
                   eta: float = 1e-2, calib_c: float = 1.0,
                   residual_cum: float = 0.0) -> ObservableRow:
    """Assemble a full row for one sample; multiplier functionals are only
    evaluated when cutoffs are supplied.

    Every intermediate is computed once: laplacian_clamped gives lap u,
    central_gradient the gradient of u, thermal_gradient plus the Robin
    term gives the dissipation in the edge form, and the one Dirichlet
    solve v serves negnorm and J1 (see multiplier_functionals)."""
    th = state.theta
    eb = _energy(domain, state, params, spec,
                 laplacian_clamped(domain, state.u))
    rho_ut, v = _momentum_inverse(domain, params, state.ut)
    tgrad = thermal_gradient(domain, th, params)
    row = ObservableRow(
        t=t,
        kinetic1=eb.kinetic1, kinetic2=eb.kinetic2,
        bending1=eb.bending1, bending2=eb.bending2,
        thermal=eb.thermal, potential=eb.potential,
        e=eb.e, lyapunov=eb.lyapunov,
        dissipation=tgrad + _robin_dissipation(domain, th, params),
        residual_cum=residual_cum,
        negnorm=_negnorm(domain, v),
        l2_low=l2_low(domain, state),
        thermal_grad=tgrad,
    )
    if cutoffs is not None:
        j1, j2, j3, j4, r = _multipliers(
            domain, state, cutoffs, params, eta, calib_c, rho_ut, v,
            central_gradient(domain, state.u))
        row.j1, row.j2, row.j3, row.j4, row.r = j1, j2, j3, j4, r
        row.r_over_e = abs(r) / eb.e if eb.e > 0 else 0.0
    return row
