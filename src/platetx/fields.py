"""The 3-component state (displacement, velocity and frame temperature as
plain arrays) and the physical parameters."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError


@dataclass(frozen=True)
class PhysParams:
    """Strictly positive material coefficients plus the cooling rate lam>=0.

    rho1/beta1 belong to the thermoelastic frame, rho2/beta2 to the inner
    isothermal plate, rho0/beta0 to the heat equation, mu couples them.
    """

    rho0: float = 1.0
    rho1: float = 1.0
    rho2: float = 1.0
    beta0: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    mu: float = 1.0
    lam: float = 1.0

    def validate(self):
        # written as "not (valid)" so that NaN, which fails every
        # comparison, is rejected too
        errs = []
        for name in ("rho0", "rho1", "rho2", "beta0", "beta1", "beta2"):
            if not 0 < getattr(self, name) < math.inf:
                errs.append(f"{name} must be strictly positive and finite")
        if not 0 <= self.mu < math.inf:
            errs.append("mu must be nonnegative and finite")
        if not 0 <= self.lam < math.inf:
            errs.append("lam must be nonnegative and finite")
        return errs

    def bending_coeff(self, domain):
        """beta-weighted quadrature coefficient per node (units beta*h^2)."""
        return self.beta1 * domain.w1 + self.beta2 * domain.w2


@dataclass
class State:
    """Phase-space point: composite displacement u on Omega, its velocity,
    and the frame temperature (zero on the interface), as float arrays of
    the grid shape."""

    u: np.ndarray
    ut: np.ndarray
    theta: np.ndarray

    def validate(self, domain):
        """Raise UsageError unless u and ut vanish on gamma1 and theta
        vanishes on gamma0 and outside the frame."""
        for ok, what in (
            (np.all(self.u[domain.gamma1] == 0.0), "u not clamped"),
            (np.all(self.ut[domain.gamma1] == 0.0), "ut not clamped"),
            (np.all(self.theta[domain.gamma0] == 0.0),
             "theta != 0 on gamma0"),
            (np.all(self.theta[~domain.omega1_all] == 0.0),
             "theta != 0 outside the frame"),
        ):
            if not ok:
                raise UsageError(f"invalid state: {what}")

    def copy(self):
        return State(self.u.copy(), self.ut.copy(), self.theta.copy())

    def __sub__(self, other):
        return State(self.u - other.u, self.ut - other.ut,
                     self.theta - other.theta)


def make_state(domain, u=None, ut=None, theta=None) -> State:
    """Build a valid State from raw arrays (missing components are zero).

    Each component is copied, so the caller's arrays are never written,
    and then clamped: u and ut to zero on gamma1, theta to zero off the
    free temperature nodes."""
    shape = (domain.n + 1, domain.n + 1)
    u, ut, theta = (np.zeros(shape) if x is None else np.array(x, dtype=float)
                    for x in (u, ut, theta))
    for x in (u, ut, theta):
        if x.shape != shape:
            raise UsageError(
                f"field shape {x.shape} does not match grid {shape}")
    u[domain.gamma1] = 0.0
    ut[domain.gamma1] = 0.0
    theta[~domain.theta_free] = 0.0
    return State(u, ut, theta)
