"""Functionals evaluated on discrete states: energy split, dissipation,
the multiplier functionals J1..J4 and their combination R, and the
lower-order observables of the two-trajectory stabilizability machinery.
The energy-identity residual of each step is simulate's
(Trajectory.step_series["residual"]).

An observable row computes each intermediate of its sample once, with the
private helpers that the public functionals use as well: one clamped
5-point sum of u, one set of central differences of u, one set of edge
differences of theta, one rho*u_t product, and one sine projection of it.
Its grid sums are two matrix products of stacked weights with stacked
pointwise products. The region weights (Domain.w12, frame and inner
square) against u_t^2, (lap u)^2, theta^2 and u^2 give the kinetic,
bending and thermal parts of the energy and l2_low; the weight stack of
the cutoffs (CutoffSet.weights) against u_t u and rho u_t grad u gives
J3, J2 and J4. energy takes the first product too, so a row's energy
columns equal energy's bit for bit. On seeded states at n=64 (2-core Intel
Xeon, one BLAS thread) a row with cutoffs takes about 175-195 us, 0.89-0.90
of the time of separate multiply-and-reduce passes for each sum.

The inverse Dirichlet Laplacian v = L^-1(density*u_t) of the momentum stays
in sine coefficients, v^ = S(rho u_t)S / lambda (S the orthonormal 2-D
DST-I of sine_basis, lambda the Dirichlet eigenvalues, v^ the coefficients
of -v/h^2), and is never expanded to the grid. v^ serves both the
negative-order norm and J1. S is orthonormal, so a sum over the interior
nodes, where v lives, is the same sum over the coefficients. The 5-point
Dirichlet Laplacian is symmetric on those nodes, so is its inverse, and the
pairing of u_t with L^-1 of the J1 source equals the pairing of v with that
source.
"""

import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .domain import CutoffSet, Domain
from .errors import ConfigurationError, SolverError
from .fields import PhysParams, State
from .nonlinearity import NonlinearitySpec, potential
from .operators import (central_differences, clamped_five_point,
                        dirichlet_sine_eigenvalues, frame_gradient_form,
                        gamma1_form, sine_basis, thermal_form)


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
    return _energy(domain, state, params, spec)[0]


def _energy(domain, state, params, spec):
    """The energy split and l2_low. The sums of u_t^2, (h^2 lap u)^2,
    theta^2 and u^2 (lap the clamped Laplacian) against the weights of the
    frame (row 0) and of the inner square (row 1) are one (2, 4) product
    of the weight stack Domain.w12 with the stacked squares; the 1/h^4 of
    the bending parts is applied to their two sums."""
    sq = np.empty((4,) + state.u.shape)
    clamped_five_point(state.u, out=sq[1])
    for out, a in zip(sq, (state.ut, sq[1], state.theta, state.u)):
        np.multiply(a, a, out=out)
    (k1, b1, th1, l1), (k2, b2, _, l2) = (
        domain.w12.reshape(2, -1) @ sq.reshape(4, -1).T).tolist()
    return EnergyBreakdown(
        kinetic1=0.5 * params.rho1 * k1,
        kinetic2=0.5 * params.rho2 * k2,
        bending1=0.5 * params.beta1 * b1 / domain.h ** 4,
        bending2=0.5 * params.beta2 * b2 / domain.h ** 4,
        thermal=0.5 * params.rho0 * th1,
        potential=potential(domain, state.u, spec),
    ), l1 + l2


def dissipation(domain: Domain, th: np.ndarray, params: PhysParams) -> float:
    """D = beta0 * thermal_form(th, th): the gradient integral of theta over
    the frame plus the Robin line term over gamma1, the form whose operator
    the stepper's thermal solve inverts."""
    return params.beta0 * thermal_form(domain, th, th, params)


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
    J3, J2 and J4 are one product: the weight stack of the cutoffs (w1 phi2
    and the x and y components of h and psi m) against u_t u and the x and
    y components of rho u_t times the central differences of u.
    """
    return _multipliers(domain, state, cutoffs, params, eta, calib_c,
                        *_momentum_inverse(domain, params, state.ut))


def _multipliers(domain, state, cutoffs, params, eta, calib_c, rho_ut,
                 v_hat):
    """J1..J4 and R from the shared intermediates rho_ut and v_hat of
    _momentum_inverse."""
    j3_weight = 0.5 * params.mu - eta * calib_c
    if j3_weight <= 0.0:
        raise ConfigurationError(
            f"multiplier weight mu/2 - eta*C = {j3_weight:g} must be "
            "positive; decrease eta or the calibration constant"
        )

    # interior nodes only, where L^-1 reads its source: a temperature that
    # is not finite there makes J1 non-finite
    source = cutoffs.phi1 * state.theta
    j1 = params.rho0 * float(np.vdot(
        v_hat, sine_basis(domain.n).project(source[1:-1, 1:-1])))
    if not math.isfinite(j1):
        raise SolverError("multiplier J1 is not finite (non-finite "
                          "temperature)")

    # the rows of cutoffs.weights against u_t u and rho u_t grad u = p / 2h
    # (p = rho u_t times the central differences): J3 is the first row's
    # sum, J2 and J4 each add the x and y rows of h and of psi m, and the
    # 1/2h is applied to those sums
    fields = np.empty((3,) + rho_ut.shape)
    np.multiply(state.ut, state.u, out=fields[0])
    central_differences(state.u, out=fields[1:])
    fields[1:] *= rho_ut
    (j3, _, _), (_, hx, _), (_, _, hy), (_, mx, _), (_, _, my) = (
        cutoffs.weights.reshape(5, -1) @ fields.reshape(3, -1).T).tolist()
    inv_2h = 0.5 / domain.h
    j2 = (hx + hy) * inv_2h
    j3 *= params.rho1
    j4 = (mx + my) * inv_2h

    r = (j1 + (eta / min(params.beta1, params.beta2)) * j2
         + j3_weight * j3 + math.sqrt(eta) * j4)
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


def difference_observables(domain: Domain, s1: State, s2: State,
                           params: PhysParams) -> dict:
    """Lower-order and energy observables of the difference d = s1 - s2:
    the columns e (as "e_d"), l2_low, negnorm and thermal_grad of d's
    observable_row without cutoffs. The row takes the linear spec, so e_d
    is the quadratic energy of d (the difference system carries the
    nonlinearity as a source, not a potential).
    """
    row = observable_row(domain, s1 - s2, params, NonlinearitySpec.linear(),
                         0.0)
    return {"e_d": row.e, "l2_low": row.l2_low, "negnorm": row.negnorm,
            "thermal_grad": row.thermal_grad}


@dataclass
class ObservableRow:
    """One time sample of every logged diagnostic, in the fixed column order
    of the CSV below (columns())."""

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


def observable_row(domain: Domain, state: State, params: PhysParams,
                   spec: NonlinearitySpec, t: float,
                   cutoffs: CutoffSet | None = None,
                   eta: float = 1e-2, calib_c: float = 1.0,
                   residual_cum: float = 0.0) -> ObservableRow:
    """Assemble a full row for one sample; multiplier functionals are only
    evaluated when cutoffs are supplied.

    Every intermediate is computed once: clamped_five_point gives h^2 lap u
    (the 1/h^4 of its square is applied to the two bending sums),
    central_differences 2h times the gradient of u, the gradient part of
    thermal_form gives thermal_grad and, with the Robin part, the
    dissipation (bit for bit as dissipation does), and the sine
    coefficients v^ of the one Dirichlet inverse serve negnorm and J1 (see
    multiplier_functionals). A row makes one sine projection, two with
    cutoffs, and no expansion to the grid."""
    th = state.theta
    eb, l2 = _energy(domain, state, params, spec)
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
        l2_low=l2,
        thermal_grad=params.beta0 * grad,
    )
    if cutoffs is not None:
        row.j1, row.j2, row.j3, row.j4, row.r = _multipliers(
            domain, state, cutoffs, params, eta, calib_c, rho_ut, v_hat)
        row.r_over_e = abs(row.r) / eb.e if eb.e > 0 else 0.0
    return row
