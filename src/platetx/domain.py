"""Computational geometry: a unit square split into an inner isothermal
square and a surrounding thermoelastic frame, with grid-aligned interface."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def quintic_smoothstep(t):
    """C^2 ramp: 0 for t<=0, 1 for t>=1, 6t^5-15t^4+10t^3 between."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


@dataclass(frozen=True)
class DomainConfig:
    """Grid resolution and inner-square placement on the unit square.

    The interface must fall on grid lines strictly inside the square, so
    n_cells*inner_lo and n_cells*inner_hi have to be integers with
    0 < n_cells*inner_lo < n_cells*inner_hi < n_cells.
    """

    n_cells: int = 32
    inner_lo: float = 0.25
    inner_hi: float = 0.75
    x0: tuple = (0.5, 0.5)

    def validate(self):
        errs = []
        if self.n_cells < 4:
            errs.append("n_cells must be an integer >= 4")
        if not (0.0 < self.inner_lo < self.inner_hi < 1.0):
            errs.append("require 0 < inner_lo < inner_hi < 1")
        for name, frac in (("inner_lo", self.inner_lo), ("inner_hi", self.inner_hi)):
            v = self.n_cells * frac
            if abs(v - round(v)) > 1e-9:
                errs.append(
                    f"interface misaligned: n_cells*{name} = {v} is not an integer"
                )
        lo, hi = (round(self.n_cells * f)
                  for f in (self.inner_lo, self.inner_hi))
        if not errs and not 0 < lo < hi < self.n_cells:
            errs.append(f"inner_lo and inner_hi give interface lines {lo} and "
                        f"{hi}, not strictly inside 0..n_cells={self.n_cells}")
        return errs

    def check(self):
        errs = self.validate()
        if errs:
            raise ConfigurationError("; ".join(errs))


@dataclass(frozen=True)
class GeometryReport:
    """Outcome of the parameter/geometry hypothesis checks."""

    min_m_dot_nu_gamma0: float
    params_ok: bool

    @property
    def star_ok(self):
        return self.min_m_dot_nu_gamma0 > 0.0


class Domain:
    """Immutable grid geometry: node masks, quadrature weights, normals.

    Nodes are indexed [i, j] with x = i*h, y = j*h. Masks partition the
    (n+1)^2 nodes into frame interior, inner interior, interface (gamma0)
    and outer boundary (gamma1); gamma2 is empty by construction.
    """

    def __init__(self, config: DomainConfig):
        config.check()
        self.config = config
        n = config.n_cells
        self.n = n
        self.h = 1.0 / n
        self.x = np.linspace(0.0, 1.0, n + 1)
        self.X, self.Y = np.meshgrid(self.x, self.x, indexing="ij")

        lo = int(round(n * config.inner_lo))
        hi = int(round(n * config.inner_hi))
        self.lo_idx, self.hi_idx = lo, hi

        idx = np.arange(n + 1)
        I, J = np.meshgrid(idx, idx, indexing="ij")
        on_outer = (I == 0) | (I == n) | (J == 0) | (J == n)
        in_box = (I >= lo) & (I <= hi) & (J >= lo) & (J <= hi)
        on_box_edge = in_box & ((I == lo) | (I == hi) | (J == lo) | (J == hi))

        self.gamma1 = on_outer
        self.gamma0 = on_box_edge
        self.omega2_interior = in_box & ~on_box_edge
        self.omega1_interior = ~on_outer & ~in_box
        self.omega1_all = self.omega1_interior | self.gamma0 | self.gamma1
        # temperature dofs: frame nodes minus the Dirichlet interface
        self.theta_free = self.omega1_interior | self.gamma1

        # cell ownership: cell [i,i+1]x[j,j+1] belongs to the inner square
        # iff fully inside [lo,hi]^2 (interface is grid aligned)
        ci, cj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        self.cell_inner = (ci >= lo) & (ci < hi) & (cj >= lo) & (cj < hi)

        # w1 and w2 are views of the two rows of one stack, so a pair of
        # weighted sums over the regions is one product
        self.w12 = self._node_weights()
        self.w1, self.w2 = self.w12
        self.w = self.w1 + self.w2
        self.bw = np.where(self.gamma1, self.h, 0.0)  # gamma1 line quadrature

        self.ce_h, self.ce_v = self._frame_edge_weights()
        self.nu = self._gamma0_normals()

    def _node_weights(self):
        """Per-region trapezoid weights, stacked as (2, n+1, n+1): each cell
        of the frame (row 0) or of the inner square (row 1) gives h^2/4 to
        its four corner nodes."""
        n = self.n
        q = self.h * self.h / 4.0
        w12 = np.zeros((2, n + 1, n + 1))
        frame = (~self.cell_inner).astype(float)
        inner = self.cell_inner.astype(float)
        for arr, cells in zip(w12, (frame, inner)):
            arr[:-1, :-1] += q * cells
            arr[1:, :-1] += q * cells
            arr[:-1, 1:] += q * cells
            arr[1:, 1:] += q * cells
        return w12

    def _frame_edge_weights(self):
        """Fraction (0, 1/2 or 1) of each grid edge's transverse extent lying
        in the frame region; drives the H^1_D gradient form."""
        n = self.n
        frame = ~self.cell_inner
        # horizontal edges: node (i,j) -- (i+1,j); adjacent cells (i,j-1),(i,j)
        ce_h = np.zeros((n, n + 1))
        ce_h[:, 1:] += 0.5 * frame
        ce_h[:, :-1] += 0.5 * frame
        # vertical edges: node (i,j) -- (i,j+1); adjacent cells (i-1,j),(i,j)
        ce_v = np.zeros((n + 1, n))
        ce_v[1:, :] += 0.5 * frame
        ce_v[:-1, :] += 0.5 * frame
        return ce_h, ce_v

    def _gamma0_normals(self):
        """Unit outward normal for the inner region at each gamma0 node.

        Axis aligned; the four inner-square corners are assigned to their
        x-face so every interface node carries exactly one normal.
        """
        n, lo, hi = self.n, self.lo_idx, self.hi_idx
        nu = np.zeros((n + 1, n + 1, 2))
        ii, jj = np.where(self.gamma0)
        for i, j in zip(ii, jj):
            if i == lo:
                nu[i, j] = (-1.0, 0.0)
            elif i == hi:
                nu[i, j] = (1.0, 0.0)
            elif j == lo:
                nu[i, j] = (0.0, -1.0)
            else:
                nu[i, j] = (0.0, 1.0)
        return nu

    @property
    def gamma0_gamma1_gap(self):
        """Shortest distance between the interface and the outer boundary."""
        return min(self.config.inner_lo, 1.0 - self.config.inner_hi)

    def dist_to_inner_box(self):
        """Distance from every node to the closed inner square (0 inside)."""
        lo, hi = self.config.inner_lo, self.config.inner_hi
        dx = np.maximum(np.maximum(lo - self.X, self.X - hi), 0.0)
        dy = np.maximum(np.maximum(lo - self.Y, self.Y - hi), 0.0)
        return np.hypot(dx, dy)

    def dist_to_gamma0(self):
        """Distance from every node to the interface curve."""
        lo, hi = self.config.inner_lo, self.config.inner_hi
        out = self.dist_to_inner_box()
        inside = out == 0.0
        d_in = np.minimum(
            np.minimum(self.X - lo, hi - self.X),
            np.minimum(self.Y - lo, hi - self.Y),
        )
        return np.where(inside, np.maximum(d_in, 0.0), out)


@dataclass
class CutoffSet:
    """Smooth multiplier weights: phi_i vanish near the interface, psi covers
    a neighborhood of the inner region, h_field is -nu on the outer boundary,
    m_field is x - x0, psi_m is psi * m_field by component. The x and y
    components of h_field and psi_m are each contiguous, for the unit-stride
    dot products of the J2 and J4 multipliers."""

    delta: float
    phi1: np.ndarray
    phi2: np.ndarray
    psi: np.ndarray
    h_field: np.ndarray  # (n+1, n+1, 2), a view of (2, n+1, n+1)
    m_field: np.ndarray  # (n+1, n+1, 2)
    psi_m: np.ndarray  # (2, n+1, n+1)


def build_domain(config: DomainConfig) -> Domain:
    return Domain(config)


def check_hypotheses(domain: Domain, params, x0=None) -> GeometryReport:
    """Evaluate the star-shape condition on the interface and the coefficient
    ordering rho1 >= rho2, beta1 <= beta2. Failures are reported, not raised."""
    if x0 is None:
        x0 = domain.config.x0
    m = np.stack([domain.X - x0[0], domain.Y - x0[1]], axis=-1)
    mdotnu = np.sum(m * domain.nu, axis=-1)
    params_ok = (params.rho1 >= params.rho2) and (params.beta1 <= params.beta2)
    return GeometryReport(
        min_m_dot_nu_gamma0=float(mdotnu[domain.gamma0].min()),
        params_ok=params_ok,
    )


def default_cutoff_delta(domain: Domain) -> float:
    """Transition width for the cutoffs, in physical length.

    Kept grid independent (a tenth of the interface-to-boundary gap) so the
    multiplier functionals converge under refinement; the 8*delta support of
    psi then always fits between gamma0 and gamma1.
    """
    return domain.gamma0_gamma1_gap / 10.0


def build_cutoffs(domain: Domain, delta: float | None = None) -> CutoffSet:
    if delta is None:
        delta = default_cutoff_delta(domain)
    if not 0.0 < delta < math.inf:
        raise ConfigurationError(
            f"cutoff width must be positive and finite, got delta = {delta:g}"
        )
    gap = domain.gamma0_gamma1_gap
    if not 8.0 * delta < gap:
        raise ConfigurationError(
            f"cutoff width too large: psi needs 8*delta = {8 * delta:g} < "
            f"{gap:g} (gamma0-to-gamma1 gap)"
        )

    d0 = domain.dist_to_gamma0()
    phi = []
    for i in (1, 2):
        p = quintic_smoothstep((d0 - i * delta) / (i * delta))
        p = np.where(domain.omega1_all, p, 0.0)
        phi.append(p)

    d2 = domain.dist_to_inner_box()
    psi = 1.0 - quintic_smoothstep((d2 - 4.0 * delta) / (4.0 * delta))

    # boundary field h = -nu on gamma1, damped inward per face; the four
    # outer corners blend both face values
    wgt = 0.25
    ramp = quintic_smoothstep
    hx = ramp((wgt - domain.X) / wgt) - ramp((wgt - (1.0 - domain.X)) / wgt)
    hy = ramp((wgt - domain.Y) / wgt) - ramp((wgt - (1.0 - domain.Y)) / wgt)
    h_field = np.moveaxis(np.stack([hx, hy]), 0, -1)

    x0 = domain.config.x0
    m = np.stack([domain.X - x0[0], domain.Y - x0[1]])

    return CutoffSet(
        delta=delta,
        phi1=phi[0],
        phi2=phi[1],
        psi=psi,
        h_field=h_field,
        m_field=np.moveaxis(m, 0, -1).copy(),
        psi_m=psi * m,
    )
