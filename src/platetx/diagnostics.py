"""Functionals evaluated on discrete states: energy split, dissipation,
energy-identity residuals, the multiplier functionals J1..J4 and their
combination R, and the lower-order observables of the two-trajectory
stabilizability machinery.

An observable row computes each intermediate of its sample once, with the
private helpers that the public functionals use as well: one clamped
Laplacian of u, one set of central differences of u, one set of edge
differences of theta, one rho*u_t product, and one sine projection of it.

The inverse Dirichlet Laplacian v = L^-1(density*u_t) of the momentum stays
in sine coefficients, v^ = S(rho u_t)S / lambda (S the orthonormal 2-D
DST-I of sine_basis, lambda the Dirichlet eigenvalues, v^ the coefficients
of -v/h^2), and is never expanded to the grid. v^ serves both the
negative-order norm and J1. S is orthonormal, so a sum over the interior
nodes, where v lives, is the same sum over the coefficients. The 5-point
Dirichlet Laplacian is symmetric on those nodes, so is its inverse, and the
pairing of u_t with L^-1 of the J1 source equals the pairing of v with that
source. The two regions' quadrature weights are the rows of one stack
(Domain.w12), so each pair of region sums in the energy is one product.
"""

import functools
import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .domain import CutoffSet, Domain
from .errors import ConfigurationError, SolverError
from .fields import PhysParams, State
from .nonlinearity import NonlinearitySpec, potential
from .operators import (central_differences, dirichlet_sine_eigenvalues,
                        frame_gradient_form, gamma1_form, laplacian_clamped,
                        sine_basis, thermal_form)


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


def _region_sums(domain: Domain, a: np.ndarray):
    """(sum(w1 * a), sum(w2 * a)), as one product with the weight stack."""
    s1, s2 = domain.w12.reshape(2, -1) @ a.ravel()
    return float(s1), float(s2)


def _energy(domain, state, params, spec, lap_u) -> EnergyBreakdown:
    """The energy split, with lap u = laplacian_clamped(u) given."""
    ut = state.ut
    k1, k2 = _region_sums(domain, ut * ut)
    b1, b2 = _region_sums(domain, lap_u * lap_u)
    th = state.theta
    return EnergyBreakdown(
        kinetic1=0.5 * params.rho1 * k1,
        kinetic2=0.5 * params.rho2 * k2,
        bending1=0.5 * params.beta1 * b1,
        bending2=0.5 * params.beta2 * b2,
        thermal=0.5 * params.rho0 * _wsum(domain.w1, th * th),
        potential=potential(domain, state.u, spec),
    )


def dissipation(domain: Domain, th: np.ndarray, params: PhysParams) -> float:
    """D = beta0 * thermal_form(th, th): the gradient integral of theta over
    the frame plus the Robin line term over gamma1, the form whose operator
    the stepper's thermal solve inverts."""
    return params.beta0 * thermal_form(domain, th, th, params)


def thermal_gradient(domain: Domain, th: np.ndarray,
                     params: PhysParams) -> float:
    """beta0 * the gradient part of thermal_form(th, th) (no Robin
    term)."""
    return params.beta0 * frame_gradient_form(domain, th, th)


def energy_identity_residual(domain: Domain, states, dt: float,
                             params: PhysParams, spec: NonlinearitySpec):
    """Per-step residual r_k = L(t_{k+1}) - L(t_k) + dt*D(midpoint_k) of the
    Lyapunov energy, recomputed from the consecutive states of a run with
    time step dt (a stride-1 simulate sink collects them), independently
    of the stepper's own record. Returns (per_step, cumulative) arrays.
    """
    lyap = [energy(domain, s, params, spec).lyapunov for s in states]
    per_step = np.zeros(max(len(states) - 1, 0))
    for k, (a, b) in enumerate(zip(states, states[1:])):
        d_mid = dissipation(domain, 0.5 * (a.theta + b.theta), params)
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

    L^-1 is symmetric on the interior nodes, so J1 is
    -h^2 sum(v * rho0 phi1 theta) with v = L^-1(density u_t), the inverse
    that negnorm takes. The sum is taken on sine coefficients, which the
    orthonormal S leaves unchanged: J1 = rho0 <v^, S(phi1 theta)S> with
    v^ = S(rho u_t)S / lambda the coefficients of -v/h^2. That is two
    projections and no expansion. A non-finite velocity (checked on v^)
    raises SolverError, and then a non-finite J1 source (temperature) does.
    J2 and J4 each pair the vector field, stacked (2, n+1, n+1), with
    rho u_t times the central differences of u in one dot product.
    """
    rho_ut, v_hat = _momentum_inverse(domain, params, state.ut)
    return _multipliers(domain, state, cutoffs, params, eta, calib_c, rho_ut,
                        v_hat, central_differences(state.u))


def _multipliers(domain, state, cutoffs, params, eta, calib_c, rho_ut,
                 v_hat, diffs):
    """J1..J4 and R from the shared intermediates rho_ut and v_hat of
    _momentum_inverse and diffs, the central differences of u (2h times
    its central gradient; scaled in place)."""
    j3_weight = 0.5 * params.mu - eta * calib_c
    if j3_weight <= 0.0:
        raise ConfigurationError(
            f"multiplier weight mu/2 - eta*C = {j3_weight:g} must be "
            "positive; decrease eta or the calibration constant"
        )
    u, th = state.u, state.theta

    # interior nodes only, where L^-1 reads its source: a temperature that
    # is not finite there makes J1 non-finite
    source = cutoffs.phi1 * th
    j1 = params.rho0 * float(np.vdot(
        v_hat, sine_basis(domain.n).project(source[1:-1, 1:-1])))
    if not math.isfinite(j1):
        raise SolverError("multiplier J1 is not finite (non-finite "
                          "temperature)")

    # J2 and J4 pair rho u_t grad u = p / 2h with the vector fields h and
    # psi m, each stacked (2, n+1, n+1) like p: one dot product each, the
    # 1/2h applied to the two sums
    p = diffs
    p *= rho_ut
    inv_2h = 0.5 / domain.h
    j2 = float(np.vdot(np.moveaxis(cutoffs.h_field, -1, 0), p)) * inv_2h

    j3 = params.rho1 * _wsum(domain.w1, state.ut * cutoffs.phi2 * u)

    j4 = float(np.vdot(cutoffs.psi_m, p)) * inv_2h

    r = (j1 + (eta / min(params.beta1, params.beta2)) * j2
         + j3_weight * j3 + np.sqrt(eta) * j4)
    return j1, j2, j3, j4, r


def _momentum_inverse(domain: Domain, params: PhysParams, ut: np.ndarray):
    """rho * u_t, with the region quadrature weights in rho (units rho h^2),
    and v^ = S(rho u_t)S / lambda on the interior nodes, the sine
    coefficients of -h^2 v with v = L^-1(density * u_t) (one projection
    with sine_basis, in its parity-blocked mode order); raises SolverError
    for a non-finite velocity."""
    rho_ut = (np.array([params.rho1, params.rho2])
              @ domain.w12.reshape(2, -1)).reshape(ut.shape)
    rho_ut *= ut
    v_hat = sine_basis(domain.n).project(rho_ut[1:-1, 1:-1])
    v_hat /= dirichlet_sine_eigenvalues(domain)
    if not np.isfinite(v_hat).all():
        raise SolverError("Dirichlet inverse is not finite (non-finite "
                          "source)")
    return rho_ut, v_hat


def negnorm(domain: Domain, state: State, params: PhysParams) -> float:
    """Squared L^2 norm of the inverse Dirichlet Laplacian applied to the
    rho-weighted velocity (the negative-order norm of the momentum).

    With v = L^-1(density u_t): v vanishes on gamma1 and the weight is h^2
    on the interior nodes, so the norm is h^2 sum(v^2) there, which the
    orthonormal S turns into |v^|^2 / h^2 with the sine coefficients
    v^ = S(rho u_t)S / lambda of the pairing with J1: one projection and
    no expansion. A non-finite velocity raises SolverError."""
    _, v_hat = _momentum_inverse(domain, params, state.ut)
    return _negnorm(domain, v_hat)


def _negnorm(domain: Domain, v_hat: np.ndarray) -> float:
    return float(np.vdot(v_hat, v_hat)) / (domain.h * domain.h)


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
        return list(_field_names(cls))

    @classmethod
    def csv_header(cls):
        return ",".join(_field_names(cls))

    def to_csv_line(self):
        return ",".join(
            format(getattr(self, c), ".17g") for c in _field_names(type(self))
        )


@functools.cache
def _field_names(cls) -> tuple:
    """The field names of a dataclass in order, built once per class."""
    return tuple(f.name for f in dc_fields(cls))


def observable_row(domain: Domain, state: State, params: PhysParams,
                   spec: NonlinearitySpec, t: float,
                   cutoffs: CutoffSet | None = None,
                   eta: float = 1e-2, calib_c: float = 1.0,
                   residual_cum: float = 0.0) -> ObservableRow:
    """Assemble a full row for one sample; multiplier functionals are only
    evaluated when cutoffs are supplied.

    Every intermediate is computed once: laplacian_clamped gives lap u,
    central_differences 2h times the gradient of u, the gradient part of
    thermal_form gives thermal_grad and, with the Robin part, the
    dissipation (bit for bit as dissipation does), and the sine
    coefficients v^ of the one Dirichlet inverse serve negnorm and J1 (see
    multiplier_functionals). A row makes one sine projection, two with
    cutoffs, and no expansion to the grid."""
    th = state.theta
    eb = _energy(domain, state, params, spec,
                 laplacian_clamped(domain, state.u))
    rho_ut, v_hat = _momentum_inverse(domain, params, state.ut)
    grad = frame_gradient_form(domain, th, th)
    row = ObservableRow(
        t=t,
        kinetic1=eb.kinetic1, kinetic2=eb.kinetic2,
        bending1=eb.bending1, bending2=eb.bending2,
        thermal=eb.thermal, potential=eb.potential,
        e=eb.e, lyapunov=eb.lyapunov,
        dissipation=params.beta0 * (grad + params.lam
                                    * gamma1_form(domain, th, th)),
        residual_cum=residual_cum,
        negnorm=_negnorm(domain, v_hat),
        l2_low=l2_low(domain, state),
        thermal_grad=params.beta0 * grad,
    )
    if cutoffs is not None:
        j1, j2, j3, j4, r = _multipliers(
            domain, state, cutoffs, params, eta, calib_c, rho_ut, v_hat,
            central_differences(state.u))
        row.j1, row.j2, row.j3, row.j4, row.r = j1, j2, j3, j4, r
        row.r_over_e = abs(r) / eb.e if eb.e > 0 else 0.0
    return row
