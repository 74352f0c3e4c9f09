"""Grid functions, the 5-component state, physical parameters and the
discrete inner products of the transmission energy space."""

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .errors import UsageError


def region_mask(domain: Domain, region: str):
    if region == "omega":
        return np.ones_like(domain.gamma1, dtype=bool)
    if region == "omega1":
        return domain.omega1_all
    if region == "omega2":
        return domain.omega2_all
    raise UsageError(f"unknown region {region!r}")


def region_weights(domain: Domain, region: str):
    if region == "omega":
        return domain.w
    if region == "omega1":
        return domain.w1
    if region == "omega2":
        return domain.w2
    raise UsageError(f"unknown region {region!r}")


@dataclass
class Field:
    """A scalar grid function restricted to a region.

    Values outside the region are hard zeros; every arithmetic operation
    re-applies the mask so zero padding can never leak.
    """

    domain: Domain
    region: str
    values: np.ndarray

    @classmethod
    def zeros(cls, domain, region="omega"):
        return cls(domain, region, np.zeros((domain.n + 1, domain.n + 1)))

    @classmethod
    def from_values(cls, domain, values, region="omega"):
        values = np.asarray(values, dtype=float)
        if values.shape != (domain.n + 1, domain.n + 1):
            raise UsageError(
                f"field shape {values.shape} does not match grid "
                f"{(domain.n + 1, domain.n + 1)}"
            )
        return cls(domain, region, values * region_mask(domain, region))

    def _check_compatible(self, other):
        if other.domain is not self.domain:
            raise UsageError("fields live on different domains")
        if other.region != self.region:
            raise UsageError(f"region mismatch: {self.region} vs {other.region}")

    def copy(self):
        return Field(self.domain, self.region, self.values.copy())

    def __add__(self, other):
        self._check_compatible(other)
        return Field(self.domain, self.region, self.values + other.values)

    def __sub__(self, other):
        self._check_compatible(other)
        return Field(self.domain, self.region, self.values - other.values)

    def __mul__(self, scalar):
        return Field(self.domain, self.region, self.values * float(scalar))

    __rmul__ = __mul__

    def pointwise(self, other):
        self._check_compatible(other)
        return Field(self.domain, self.region, self.values * other.values)

    def to_csv(self, path):
        """Flat debugging dump: node index, x, y, value."""
        dom = self.domain
        with open(path, "w") as f:
            f.write("index,x,y,value\n")
            flat = self.values.ravel()
            for k, (x, y, v) in enumerate(
                zip(dom.X.ravel(), dom.Y.ravel(), flat)
            ):
                f.write(f"{k},{x:.17g},{y:.17g},{v:.17g}\n")


def inner_l2(domain: Domain, a, b, region="omega") -> float:
    """Trapezoid-weighted discrete L^2 pairing over a region.

    Accepts Fields or raw arrays; Fields must carry a region compatible with
    the requested one.
    """
    av = a.values if isinstance(a, Field) else np.asarray(a)
    bv = b.values if isinstance(b, Field) else np.asarray(b)
    for f in (a, b):
        if isinstance(f, Field) and f.region not in ("omega", region):
            raise UsageError(
                f"cannot integrate a {f.region} field over {region}"
            )
    return float(np.sum(region_weights(domain, region) * av * bv))


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
        errs = []
        for name in ("rho0", "rho1", "rho2", "beta0", "beta1", "beta2"):
            if getattr(self, name) <= 0:
                errs.append(f"{name} must be strictly positive")
        if self.mu < 0:
            errs.append("mu must be nonnegative")
        if self.lam < 0:
            errs.append("lam must be nonnegative")
        return errs

    def bending_coeff(self, domain):
        """beta-weighted quadrature coefficient per node (units beta*h^2)."""
        return self.beta1 * domain.w1 + self.beta2 * domain.w2

    def density(self, domain):
        """Pointwise effective density (rho1 / rho2, blended on gamma0)."""
        h2 = domain.h * domain.h
        return (self.rho1 * domain.w1 + self.rho2 * domain.w2) / h2


def h2t_inner(domain: Domain, a, b, params: PhysParams) -> float:
    """Transmission bending inner product: sum of the beta-weighted products
    of discrete Laplacians over both regions (clamped ghost extension)."""
    from .operators import laplacian_clamped

    av = a.values if isinstance(a, Field) else np.asarray(a)
    bv = b.values if isinstance(b, Field) else np.asarray(b)
    la = laplacian_clamped(domain, av)
    lb = la if bv is av else laplacian_clamped(domain, bv)
    return float(np.sum(params.bending_coeff(domain) * la * lb))


@dataclass
class State:
    """Phase-space point: composite displacement u on Omega, its velocity,
    and the frame temperature (zero on the interface)."""

    u: Field
    ut: Field
    theta: Field

    @classmethod
    def zeros(cls, domain):
        return cls(
            u=Field.zeros(domain, "omega"),
            ut=Field.zeros(domain, "omega"),
            theta=Field.zeros(domain, "omega1"),
        )

    @property
    def domain(self):
        return self.u.domain

    def validate(self):
        """Raise UsageError unless u and ut vanish on gamma1 and theta
        vanishes on gamma0 and outside the frame."""
        dom = self.domain
        for ok, what in (
            (np.all(self.u.values[dom.gamma1] == 0.0), "u not clamped"),
            (np.all(self.ut.values[dom.gamma1] == 0.0), "ut not clamped"),
            (np.all(self.theta.values[dom.gamma0] == 0.0),
             "theta != 0 on gamma0"),
            (np.all(self.theta.values[~dom.omega1_all] == 0.0),
             "theta != 0 outside the frame"),
        ):
            if not ok:
                raise UsageError(f"invalid state: {what}")

    def clamp(self):
        """Force the boundary traces; used when building states from raw data."""
        dom = self.domain
        self.u.values[dom.gamma1] = 0.0
        self.ut.values[dom.gamma1] = 0.0
        self.theta.values[~dom.theta_free] = 0.0
        return self

    def copy(self):
        return State(self.u.copy(), self.ut.copy(), self.theta.copy())

    def __sub__(self, other):
        return State(self.u - other.u, self.ut - other.ut, self.theta - other.theta)


def make_state(domain, u=None, ut=None, theta=None) -> State:
    """Build a valid State from raw arrays (missing components are zero)."""
    s = State.zeros(domain)
    if u is not None:
        s.u = Field.from_values(domain, u, "omega")
    if ut is not None:
        s.ut = Field.from_values(domain, ut, "omega")
    if theta is not None:
        s.theta = Field.from_values(domain, theta, "omega1")
    return s.clamp()
