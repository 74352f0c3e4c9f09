from dataclasses import replace

import numpy as np
import pytest

from platetx.domain import (DomainConfig, build_cutoffs, build_domain,
                            check_hypotheses, default_cutoff_delta,
                            quintic_smoothstep)
from platetx.errors import ConfigurationError
from platetx.fields import PhysParams
from platetx.operators import gamma1_form


def test_misaligned_interface_rejected():
    cfg = DomainConfig(n_cells=10, inner_lo=0.26, inner_hi=0.75)
    assert any("misaligned" in e for e in cfg.validate())
    with pytest.raises(ConfigurationError):
        build_domain(cfg)


def test_too_coarse_rejected():
    assert DomainConfig(n_cells=2).validate()


def test_gamma0_node_count_n8():
    # inner square [1/4,3/4]^2 on n=8: 5x5 box, 16 boundary nodes
    dom = build_domain(DomainConfig(n_cells=8))
    assert int(np.sum(dom.gamma0)) == 16


def test_single_inner_interior_node_n4():
    dom = build_domain(DomainConfig(n_cells=4))
    assert int(np.sum(~dom.omega1_all)) == 1


def test_masks_partition(dom16):
    # the inner interior is what the frame nodes leave
    total = (dom16.gamma1.astype(int) + dom16.gamma0.astype(int)
             + dom16.omega1_interior.astype(int)
             + (~dom16.omega1_all).astype(int))
    assert np.all(total == 1)


def test_weights_sum_to_areas(dom16):
    assert np.sum(dom16.w1) + np.sum(dom16.w2) == pytest.approx(1.0, abs=1e-14)
    assert np.sum(dom16.w2) == pytest.approx(0.25, abs=1e-14)
    # the line quadrature of gamma1 (gamma1_form, weight h at each of its
    # 4n nodes, corners included) measures the perimeter
    ones = np.ones((17, 17))
    assert gamma1_form(dom16, ones, ones) == pytest.approx(4.0, abs=1e-14)


def test_interior_weights_full(dom16):
    w = dom16.w1 + dom16.w2
    assert np.all(w[dom16.omega1_interior] == pytest.approx(dom16.h**2))
    assert np.all(w[~dom16.omega1_all] == pytest.approx(dom16.h**2))


def test_star_shape_centered(dom16, params):
    rep = check_hypotheses(dom16, params)
    assert rep.star_ok
    assert rep.min_m_dot_nu_gamma0 == pytest.approx(0.25, abs=1e-14)


def test_star_shape_corner_origin_fails(params):
    dom = build_domain(DomainConfig(n_cells=16, x0=(0.0, 0.0)))
    rep = check_hypotheses(dom, params)
    assert not rep.star_ok
    assert rep.min_m_dot_nu_gamma0 == pytest.approx(-0.25, abs=1e-14)


def test_param_ordering_flag(dom16):
    good = PhysParams(rho1=2.0, rho2=1.0, beta1=1.0, beta2=2.0)
    bad = PhysParams(rho1=1.0, rho2=2.0)
    assert check_hypotheses(dom16, good).params_ok
    assert not check_hypotheses(dom16, bad).params_ok


def test_smoothstep_endpoints():
    assert quintic_smoothstep(-1.0) == 0.0
    assert quintic_smoothstep(0.0) == 0.0
    assert quintic_smoothstep(1.0) == 1.0
    assert quintic_smoothstep(0.5) == pytest.approx(0.5)
    # C^1 at the ends: tiny arguments stay tiny at cubic order
    assert quintic_smoothstep(1e-4) < 1e-10


def test_cutoffs_supports(dom16):
    cut = build_cutoffs(dom16)
    # phi_i vanish on a neighborhood of gamma0 and equal 1 far away
    assert np.all(cut.phi1[dom16.gamma0] == 0.0)
    assert np.all(cut.phi2[dom16.gamma0] == 0.0)
    assert np.all(cut.phi1[~dom16.omega1_all] == 0.0)
    assert cut.phi1[0, 0] == 1.0
    # psi is 1 on the inner region and vanishes before gamma1, so psi_m is
    # m = x - x0 there and 0 on gamma1
    m = np.stack([dom16.X - 0.5, dom16.Y - 0.5])
    for inner in (~dom16.omega1_all, dom16.gamma0):
        assert np.array_equal(cut.psi_m[:, inner], m[:, inner])
    assert np.all(cut.psi_m[:, dom16.gamma1] == 0.0)
    assert 0.0 < cut.delta
    assert 8 * cut.delta < dom16.gamma0_gamma1_gap


def test_cutoff_width_guard(dom16):
    with pytest.raises(ConfigurationError):
        build_cutoffs(dom16, delta=dom16.gamma0_gamma1_gap / 4.0)


@pytest.mark.parametrize("delta", [0.0, -0.01, np.inf, np.nan])
def test_cutoff_width_must_be_positive_and_finite(dom16, delta):
    with pytest.raises(ConfigurationError, match="positive and finite"):
        build_cutoffs(dom16, delta=delta)


def test_default_delta_grid_independent():
    d32 = default_cutoff_delta(build_domain(DomainConfig(n_cells=32)))
    d64 = default_cutoff_delta(build_domain(DomainConfig(n_cells=64)))
    assert d32 == d64


def test_h_field_matches_boundary_normal(dom16):
    cut = build_cutoffs(dom16)
    # h = -nu on gamma1: points into the domain on each face
    assert cut.h_field[0, 8, 0] == pytest.approx(1.0)
    assert cut.h_field[-1, 8, 0] == pytest.approx(-1.0)
    assert cut.h_field[8, 0, 1] == pytest.approx(1.0)
    assert cut.h_field[8, -1, 1] == pytest.approx(-1.0)


def test_m_field_is_x_minus_x0():
    # psi_m = psi m with psi = 1 on the inner box, where it shows m = x - x0
    # about the configured x0
    dom = build_domain(DomainConfig(n_cells=16, x0=(0.375, 0.625)))
    cut = build_cutoffs(dom)
    box = slice(dom.lo_idx, dom.hi_idx + 1)
    assert np.allclose(cut.psi_m[0, box, box], dom.X[box, box] - 0.375,
                       rtol=0.0, atol=1e-15)
    assert np.allclose(cut.psi_m[1, box, box], dom.Y[box, box] - 0.625,
                       rtol=0.0, atol=1e-15)


def test_distance_fields(dom16):
    d0 = dom16.dist_to_gamma0()
    assert np.all(d0[dom16.gamma0] == 0.0)
    assert d0[0, 0] == pytest.approx(np.hypot(0.25, 0.25))
    d2 = dom16.dist_to_inner_box()
    assert np.all(d2[~dom16.omega1_all] == 0.0)
    assert d2[0, 8] == pytest.approx(0.25)


@pytest.mark.parametrize("n", [4, 8, 12, 16, 36, 64, 100, 128, 256])
def test_coordinates_equal_linspace_and_meshgrid(n):
    # Domain forms x and the grids X, Y without linspace and meshgrid;
    # bit for bit their values, and C-contiguous like meshgrid's copies
    dom = build_domain(DomainConfig(n_cells=n))
    x = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(x, x, indexing="ij")
    for got, want in ((dom.x, x), (dom.X, X), (dom.Y, Y)):
        assert np.array_equal(got, want) and got.flags.c_contiguous


def grid_cutoffs(dom, delta):
    """The cutoffs on the 2-D coordinate grids X and Y, every formula
    evaluated node by node: phi1, phi2, h_field and psi_m."""
    lo, hi = dom.config.inner_lo, dom.config.inner_hi
    X, Y = dom.X, dom.Y
    dx = np.maximum(np.maximum(lo - X, X - hi), 0.0)
    dy = np.maximum(np.maximum(lo - Y, Y - hi), 0.0)
    d2 = np.hypot(dx, dy)
    d_in = np.minimum(np.minimum(X - lo, hi - X), np.minimum(Y - lo, hi - Y))
    d0 = np.where(d2 == 0.0, np.maximum(d_in, 0.0), d2)
    phi = [np.where(dom.omega1_all,
                    quintic_smoothstep((d0 - i * delta) / (i * delta)), 0.0)
           for i in (1, 2)]
    psi = 1.0 - quintic_smoothstep((d2 - 4.0 * delta) / (4.0 * delta))
    ramp, wgt = quintic_smoothstep, 0.25
    hx = ramp((wgt - X) / wgt) - ramp((wgt - (1.0 - X)) / wgt)
    hy = ramp((wgt - Y) / wgt) - ramp((wgt - (1.0 - Y)) / wgt)
    x0 = dom.config.x0
    m = np.stack([X - x0[0], Y - x0[1]])
    return phi[0], phi[1], np.moveaxis(np.stack([hx, hy]), 0, -1), psi * m


@pytest.mark.parametrize("x0", [(0.5, 0.5), (0.375, 0.625)],
                         ids=["centre", "off-centre"])
@pytest.mark.parametrize("n", [8, 16, 64])
def test_cutoffs_equal_their_grid_formulas(n, x0):
    # build_cutoffs forms each axis's terms on the 1-D coordinate and
    # broadcasts them; bit for bit the node-by-node values
    dom = build_domain(DomainConfig(n_cells=n, x0=x0))
    cut = build_cutoffs(dom)
    got = (cut.phi1, cut.phi2, cut.h_field, cut.psi_m)
    for name, g, w in zip(("phi1", "phi2", "h_field", "psi_m"), got,
                          grid_cutoffs(dom, cut.delta)):
        assert g.shape == w.shape and np.array_equal(g, w), name


def mask_oracle(dom):
    # the masks, the cell ownership, the node and edge weights and the
    # gamma0 normals from index grids and loops over cells and interface
    # nodes
    n, lo, hi = dom.n, dom.lo_idx, dom.hi_idx
    idx = np.arange(n + 1)
    i, j = np.meshgrid(idx, idx, indexing="ij")
    on_outer = (i == 0) | (i == n) | (j == 0) | (j == n)
    in_box = (i >= lo) & (i <= hi) & (j >= lo) & (j <= hi)
    on_edge = in_box & ((i == lo) | (i == hi) | (j == lo) | (j == hi))
    ci, cj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    nu = np.zeros((n + 1, n + 1, 2))
    for a, b in zip(*np.where(on_edge)):
        if a == lo:
            nu[a, b] = (-1.0, 0.0)
        elif a == hi:
            nu[a, b] = (1.0, 0.0)
        elif b == lo:
            nu[a, b] = (0.0, -1.0)
        else:
            nu[a, b] = (0.0, 1.0)
    # each cell gives h^2/4 to its corners, and half its side to an edge
    cell_inner = (ci >= lo) & (ci < hi) & (cj >= lo) & (cj < hi)
    q = dom.h * dom.h / 4.0
    w12 = np.zeros((2, n + 1, n + 1))
    for arr, cells in zip(w12, ((~cell_inner).astype(float),
                                cell_inner.astype(float))):
        for di in (0, 1):
            for dj in (0, 1):
                arr[di:n + di, dj:n + dj] += q * cells
    ce_h = np.zeros((n, n + 1))
    ce_h[:, 1:] += 0.5 * ~cell_inner
    ce_h[:, :-1] += 0.5 * ~cell_inner
    ce_v = np.zeros((n + 1, n))
    ce_v[1:, :] += 0.5 * ~cell_inner
    ce_v[:-1, :] += 0.5 * ~cell_inner
    return {
        "w12": w12,
        "ce_h": ce_h,
        "ce_v": ce_v,
        "gamma1": on_outer,
        "gamma0": on_edge,
        "omega2_interior": in_box & ~on_edge,
        "omega1_interior": ~on_outer & ~in_box,
        "nu": nu,
    }


@pytest.mark.parametrize("cfg", [DomainConfig(n_cells=16),
                                 DomainConfig(n_cells=12, inner_lo=1 / 6,
                                              inner_hi=0.5),
                                 DomainConfig(n_cells=4)])
def test_geometry_matches_index_grid_oracle(cfg):
    dom = build_domain(cfg)
    oracle = mask_oracle(dom)
    # the least (x - x0).nu over gamma0 of the oracle's normals, about
    # points inside and outside the box, is the closed form's to the bit
    nu = oracle.pop("nu")
    for x0 in ((0.5, 0.5), (0.3, 0.45), (0.0, 0.0), (0.9, 0.2)):
        m = np.stack([dom.X - x0[0], dom.Y - x0[1]], axis=-1)
        want = np.sum(m * nu, axis=-1)[oracle["gamma0"]].min()
        got = check_hypotheses(build_domain(replace(cfg, x0=x0)),
                               PhysParams()).min_m_dot_nu_gamma0
        assert got == want, x0
    # the y-edge weights are ce_h transposed, and the inner interior is what
    # the frame nodes leave
    derived = {"ce_v": dom.ce_h.T, "omega2_interior": ~dom.omega1_all}
    for name, want in oracle.items():
        got = derived[name] if name in derived else getattr(dom, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name
    # ce_v_flat is ce_v with a zero weight on each wrapped pair
    wrapped = np.zeros((cfg.n_cells + 1, cfg.n_cells + 1))
    wrapped[:, :-1] = oracle["ce_v"]
    assert np.array_equal(dom.ce_v_flat, wrapped.ravel()[:-1])
