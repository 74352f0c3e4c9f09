import numpy as np
import pytest

from platetx.domain import (DomainConfig, build_cutoffs, build_domain,
                            check_hypotheses, default_cutoff_delta,
                            quintic_smoothstep)
from platetx.errors import ConfigurationError
from platetx.fields import PhysParams


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
    assert int(np.sum(dom.omega2_interior)) == 1


def test_masks_partition(dom16):
    total = (dom16.gamma1.astype(int) + dom16.gamma0.astype(int)
             + dom16.omega1_interior.astype(int)
             + dom16.omega2_interior.astype(int))
    assert np.all(total == 1)


def test_weights_sum_to_areas(dom16):
    assert np.sum(dom16.w1) + np.sum(dom16.w2) == pytest.approx(1.0, abs=1e-14)
    assert np.sum(dom16.w2) == pytest.approx(0.25, abs=1e-14)
    # boundary line quadrature measures the perimeter (corner nodes carry
    # h/2 from each adjacent face, i.e. h total, same as edge nodes)
    assert np.sum(dom16.bw) == pytest.approx(4.0, abs=1e-14)


def test_interior_weights_full(dom16):
    assert np.all(dom16.w[dom16.omega1_interior] == pytest.approx(dom16.h**2))
    assert np.all(dom16.w[dom16.omega2_interior] == pytest.approx(dom16.h**2))


def test_star_shape_centered(dom16, params):
    rep = check_hypotheses(dom16, params)
    assert rep.star_ok
    assert rep.min_m_dot_nu_gamma0 == pytest.approx(0.25, abs=1e-14)


def test_star_shape_corner_origin_fails(dom16, params):
    rep = check_hypotheses(dom16, params, x0=(0.0, 0.0))
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
    assert np.all(cut.phi1[dom16.omega2_interior] == 0.0)
    assert cut.phi1[0, 0] == 1.0
    # psi is 1 on the inner region and vanishes before gamma1
    assert np.all(cut.psi[dom16.omega2_interior] == 1.0)
    assert np.all(cut.psi[dom16.gamma0] == 1.0)
    assert np.all(cut.psi[dom16.gamma1] == 0.0)
    assert 0.0 < cut.delta
    assert 8 * cut.delta < dom16.gamma0_gamma1_gap


def test_cutoff_width_guard(dom16):
    with pytest.raises(ConfigurationError):
        build_cutoffs(dom16, delta=dom16.gamma0_gamma1_gap / 4.0)


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


def test_m_field_is_x_minus_x0(dom16):
    cut = build_cutoffs(dom16)
    assert cut.m_field[0, 0, 0] == pytest.approx(-0.5)
    assert cut.m_field[-1, -1, 1] == pytest.approx(0.5)


def test_normals_unit_and_outward(dom16):
    nrm = np.linalg.norm(dom16.nu[dom16.gamma0], axis=-1)
    assert np.all(np.abs(nrm - 1.0) < 1e-14)
    assert np.all(np.linalg.norm(dom16.nu[~dom16.gamma0], axis=-1) == 0.0)


def test_distance_fields(dom16):
    d0 = dom16.dist_to_gamma0()
    assert np.all(d0[dom16.gamma0] == 0.0)
    assert d0[0, 0] == pytest.approx(np.hypot(0.25, 0.25))
    d2 = dom16.dist_to_inner_box()
    assert np.all(d2[dom16.omega2_interior] == 0.0)
    assert d2[0, 8] == pytest.approx(0.25)
