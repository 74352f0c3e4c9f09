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
    """Immutable grid geometry: node masks, quadrature weights and frame
    edge weights.

    Nodes are indexed [i, j] with x = i*h, y = j*h. Masks partition the
    (n+1)^2 nodes into frame interior, interface (gamma0), outer boundary
    (gamma1) and the inner interior, the nodes outside omega1_all; gamma2 is
    empty by construction.
    """

    def __init__(self, config: DomainConfig):
        config.check()
        self.config = config
        n = config.n_cells
        self.n = n
        self.h = 1.0 / n
        # the values of np.linspace(0, 1, n + 1); X and Y those of
        # np.meshgrid(x, x, indexing="ij"), by two broadcast copies
        x = self.x = np.arange(n + 1.0) * (1.0 / n)
        x[-1] = 1.0
        self.X, self.Y = np.empty((2, n + 1, n + 1))
        self.X[...] = x[:, None]
        self.Y[...] = x

        lo = int(round(n * config.inner_lo))
        hi = int(round(n * config.inner_hi))
        self.lo_idx, self.hi_idx = lo, hi

        # rows and columns 0 and n, and lo and hi of the box nodes lo..hi
        box = slice(lo, hi + 1)
        on_outer = np.zeros((n + 1, n + 1), dtype=bool)
        on_outer[::n] = True
        on_outer[:, ::n] = True
        in_box = np.zeros_like(on_outer)
        in_box[box, box] = True
        on_box_edge = np.zeros_like(on_outer)
        on_box_edge[lo:hi + 1:hi - lo, box] = True
        on_box_edge[box, lo:hi + 1:hi - lo] = True

        self.gamma1 = on_outer
        self.gamma0 = on_box_edge
        self.omega1_interior = ~on_outer & ~in_box
        self.omega1_all = self.omega1_interior | self.gamma0 | self.gamma1
        # temperature dofs: frame nodes minus the Dirichlet interface
        self.theta_free = self.omega1_interior | self.gamma1

        # w1 and w2 are views of the two rows of one stack, so a pair of
        # weighted sums over the regions is one product
        self.w12 = self._node_weights()
        self.w1, self.w2 = self.w12

        # ce_v_flat: the y-edge weights ce_h.T on the pairs of flat
        # neighbours k, k+1 of the grid, zero on the pairs that wrap from
        # column n to the next row, for the y edges as unit-stride
        # differences of the flattened array
        self.ce_h, self.ce_v_flat = self._frame_edge_weights()

    def _node_weights(self):
        """Per-region trapezoid weights, stacked as (2, n+1, n+1): each cell
        of the frame (row 0) or of the inner square (row 1) gives h^2/4 to
        its four corner nodes. A node's weight is h^2/4 times the number of
        its cells, which along each axis is 1 or 2 (the square) or 0, 1 or
        2 (the inner square's lo..hi); that product of integers is exactly
        the sum of the h^2/4 it receives."""
        n, lo, hi = self.n, self.lo_idx, self.hi_idx
        cells = np.full(n + 1, 2.0)
        cells[::n] = 1.0
        inner_cells = np.zeros(n + 1)
        inner_cells[lo:hi + 1] = 2.0
        inner_cells[lo:hi + 1:hi - lo] = 1.0
        w12 = np.empty((2, n + 1, n + 1))
        np.outer(inner_cells, inner_cells, out=w12[1])
        np.subtract(np.outer(cells, cells), w12[1], out=w12[0])
        w12 *= self.h * self.h / 4.0
        return w12

    def _frame_edge_weights(self):
        """Fraction (0, 1/2 or 1) of each grid edge's transverse extent lying
        in the frame region; drives the H^1_D gradient form. ce_h is of the
        edges (i,j) -- (i+1,j), between the cells (i,j-1) and (i,j): 1/2 on
        the outer boundary and along the inner square's sides j = lo, hi,
        0 inside it. The weights of the edges (i,j) -- (i,j+1) are its
        transpose, the inner square being a square; they fill the first n
        columns of an (n+1, n+1) array whose last column is zero, and
        ce_v_flat is that array flattened, without its last entry."""
        n, lo, hi = self.n, self.lo_idx, self.hi_idx
        ce_h = np.ones((n, n + 1))
        ce_h[:, ::n] = 0.5
        ce_h[lo:hi, lo:hi + 1:hi - lo] = 0.5
        ce_h[lo:hi, lo + 1:hi] = 0.0
        ce_v = np.zeros((n + 1, n + 1))
        ce_v[:, :n] = ce_h.T
        return ce_h, ce_v.ravel()[:-1]

    @property
    def gamma0_gamma1_gap(self):
        """Shortest distance between the interface and the outer boundary."""
        return min(self.config.inner_lo, 1.0 - self.config.inner_hi)

    def dist_to_inner_box(self):
        """Distance from every node to the closed inner square (0 inside):
        the hypotenuse of the distances along x and along y to the square's
        span, which the two axes share."""
        lo, hi = self.config.inner_lo, self.config.inner_hi
        gap = np.maximum(np.maximum(lo - self.x, self.x - hi), 0.0)
        return np.hypot(gap[:, None], gap)

    def dist_to_gamma0(self, box_dist=None):
        """Distance from every node to the interface curve; box_dist, when
        given, is dist_to_inner_box(), which is not recomputed."""
        lo, hi = self.config.inner_lo, self.config.inner_hi
        out = self.dist_to_inner_box() if box_dist is None else box_dist
        inside = out == 0.0
        depth = np.minimum(self.x - lo, hi - self.x)
        d_in = np.minimum(depth[:, None], depth)
        return np.where(inside, np.maximum(d_in, 0.0), out)


@dataclass
class CutoffSet:
    """Smooth multiplier weights: phi_i vanish near the interface, h_field is
    -nu on the outer boundary, psi_m is psi (x - x0) by component, with psi
    1 on a neighborhood of the inner region and 0 near gamma1.

    weights stacks the grid weights of the J3, J2 and J4 multipliers as
    (5, n+1, n+1): w1 phi2, the x and y components of h_field, and those of
    psi_m; h_field and psi_m are views of its rows. One product of the
    stack with the stacked fields of a sample gives all three sums."""

    delta: float
    phi1: np.ndarray
    phi2: np.ndarray
    h_field: np.ndarray  # (n+1, n+1, 2), a view of weights[1:3]
    psi_m: np.ndarray  # (2, n+1, n+1), a view of weights[3:]
    weights: np.ndarray  # (5, n+1, n+1)


def build_domain(config: DomainConfig) -> Domain:
    return Domain(config)


def check_hypotheses(domain: Domain, params) -> GeometryReport:
    """Evaluate the star-shape condition on the interface about x0 =
    domain.config.x0, the centre of the cutoffs' psi m, and the coefficient
    ordering rho1 >= rho2, beta1 <= beta2. Failures are reported, not raised.

    The interface is the box x[lo]..x[hi] squared, whose outward normal nu
    is -e_k on its side x_k = x[lo] and e_k on x_k = x[hi], k = 1, 2. So
    (x - x0).nu is constant along each side, x0_k - x[lo] or x[hi] - x0_k,
    and its least value over gamma0 is the least of these four differences,
    a corner counting for both of its sides. Each is one rounded
    subtraction, the same double as the product of x - x0 with the unit
    normal at any node of that side, so the closed form is exact."""
    lo, hi = domain.x[domain.lo_idx], domain.x[domain.hi_idx]
    params_ok = (params.rho1 >= params.rho2) and (params.beta1 <= params.beta2)
    return GeometryReport(
        min_m_dot_nu_gamma0=float(min(min(c - lo, hi - c)
                                      for c in domain.config.x0)),
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

    d2 = domain.dist_to_inner_box()
    d0 = domain.dist_to_gamma0(d2)
    phi1, phi2 = (np.where(domain.omega1_all,
                           quintic_smoothstep((d0 - i * delta) / (i * delta)),
                           0.0) for i in (1, 2))

    psi = 1.0 - quintic_smoothstep((d2 - 4.0 * delta) / (4.0 * delta))

    # the weights of J3, J2 and J4 as the rows of one stack: w1 phi2, then
    # the x and y components of h and of psi m
    weights = np.empty((5,) + psi.shape)
    np.multiply(domain.w1, phi2, out=weights[0])

    # boundary field h = -nu on gamma1, damped inward per face; the four
    # outer corners blend both face values. Each component varies along
    # its own axis only, by the same ramp on the shared coordinate x.
    x, wgt = domain.x, 0.25
    ramp_x = (quintic_smoothstep((wgt - x) / wgt)
              - quintic_smoothstep((wgt - (1.0 - x)) / wgt))
    weights[1] = ramp_x[:, None]
    weights[2] = ramp_x

    # psi (x - x0) by component
    np.multiply(psi, (x - domain.config.x0[0])[:, None], out=weights[3])
    np.multiply(psi, x - domain.config.x0[1], out=weights[4])

    return CutoffSet(
        delta=delta,
        phi1=phi1,
        phi2=phi2,
        h_field=weights[1:3].transpose(1, 2, 0),
        psi_m=weights[3:],
        weights=weights,
    )
