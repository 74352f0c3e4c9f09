"""Functionals evaluated on discrete states: energy split, dissipation,
energy-identity residuals, the multiplier functionals J1..J4 and their
combination R, and the lower-order observables of the two-trajectory
stabilizability machinery.
"""

from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .domain import CutoffSet, Domain
from .errors import ConfigurationError, UsageError
from .fields import PhysParams, State, inner_l2
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
    ut = state.ut.values
    th = state.theta.values
    lap_u = laplacian_clamped(domain, state.u.values)
    return EnergyBreakdown(
        kinetic1=0.5 * params.rho1 * float(np.sum(domain.w1 * ut * ut)),
        kinetic2=0.5 * params.rho2 * float(np.sum(domain.w2 * ut * ut)),
        bending1=0.5 * params.beta1 * float(np.sum(domain.w1 * lap_u * lap_u)),
        bending2=0.5 * params.beta2 * float(np.sum(domain.w2 * lap_u * lap_u)),
        thermal=0.5 * params.rho0 * float(np.sum(domain.w1 * th * th)),
        potential=potential(domain, state, spec),
    )


def dissipation(domain: Domain, state, params: PhysParams) -> float:
    """D = beta0 * (gradient integral of theta over the frame plus the Robin
    line term), evaluated through the operator so it cross-checks the
    edge-form implementation."""
    th = state.theta.values if isinstance(state, State) else np.asarray(state)
    l_th = thermal_laplacian(domain, th, params)
    return params.beta0 * float(np.sum(domain.w1 * l_th * th))


def thermal_gradient(domain: Domain, state, params: PhysParams) -> float:
    """beta0 * gradient integral only (no Robin term)."""
    th = state.theta.values if isinstance(state, State) else np.asarray(state)
    dx = th[1:, :] - th[:-1, :]
    dy = th[:, 1:] - th[:, :-1]
    return params.beta0 * float(
        np.sum(domain.ce_h * dx * dx) + np.sum(domain.ce_v * dy * dy)
    )


def energy_identity_residual(trajectory, params: PhysParams,
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
    dom = states[0].domain
    dt = trajectory.meta["dt"]
    lyap = np.array(
        [energy(dom, s, params, spec).lyapunov for s in states]
    )
    per_step = np.empty(len(states) - 1)
    for k in range(len(states) - 1):
        th_mid = 0.5 * (states[k].theta.values + states[k + 1].theta.values)
        d_mid = dissipation(dom, th_mid, params)
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
    """
    j3_weight = 0.5 * params.mu - eta * calib_c
    if j3_weight <= 0.0:
        raise ConfigurationError(
            f"multiplier weight mu/2 - eta*C = {j3_weight:g} must be "
            "positive; decrease eta or the calibration constant"
        )
    u = state.u.values
    ut = state.ut.values
    th = state.theta.values
    rho = params.rho1 * domain.w1 + params.rho2 * domain.w2

    source = params.rho0 * cutoffs.phi1 * th
    w = dirichlet_inverse(domain, source)
    j1 = -float(np.sum(rho * ut * w))

    gx, gy = central_gradient(domain, u)
    hdot = cutoffs.h_field[..., 0] * gx + cutoffs.h_field[..., 1] * gy
    j2 = float(np.sum(rho * ut * hdot))

    j3 = params.rho1 * float(np.sum(domain.w1 * ut * cutoffs.phi2 * u))

    mdot = cutoffs.m_field[..., 0] * gx + cutoffs.m_field[..., 1] * gy
    j4 = float(np.sum(rho * ut * cutoffs.psi * mdot))

    r = (j1 + (eta / min(params.beta1, params.beta2)) * j2
         + j3_weight * j3 + np.sqrt(eta) * j4)
    return j1, j2, j3, j4, r


def negnorm(domain: Domain, state: State, params: PhysParams) -> float:
    """Squared L^2 norm of the inverse Dirichlet Laplacian applied to the
    rho-weighted velocity (the negative-order norm of the momentum).

    The inverse is one direct sine-basis solve; a non-finite velocity
    raises SolverError."""
    src = params.density(domain) * state.ut.values
    w = dirichlet_inverse(domain, src)
    return inner_l2(domain, w, w)


def l2_low(domain: Domain, state: State) -> float:
    """Squared composite L^2 norm of the displacement."""
    return inner_l2(domain, state.u, state.u)


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
        "thermal_grad": thermal_gradient(domain, d, params),
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
    evaluated when cutoffs are supplied (they need inner solves)."""
    eb = energy(domain, state, params, spec)
    row = ObservableRow(
        t=t,
        kinetic1=eb.kinetic1, kinetic2=eb.kinetic2,
        bending1=eb.bending1, bending2=eb.bending2,
        thermal=eb.thermal, potential=eb.potential,
        e=eb.e, lyapunov=eb.lyapunov,
        dissipation=dissipation(domain, state, params),
        residual_cum=residual_cum,
        negnorm=negnorm(domain, state, params),
        l2_low=l2_low(domain, state),
        thermal_grad=thermal_gradient(domain, state, params),
    )
    if cutoffs is not None:
        j1, j2, j3, j4, r = multiplier_functionals(
            domain, state, cutoffs, params, eta=eta, calib_c=calib_c
        )
        row.j1, row.j2, row.j3, row.j4, row.r = j1, j2, j3, j4, r
        row.r_over_e = abs(r) / eb.e if eb.e > 0 else 0.0
    return row
