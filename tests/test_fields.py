import math

import numpy as np
import pytest

from conftest import random_clamped
from platetx.errors import UsageError
from platetx.fields import (Field, PhysParams, State, h2t_inner, inner_l2,
                            make_state)


def test_field_masks_region(dom16):
    ones = np.ones((17, 17))
    f = Field.from_values(dom16, ones, "omega2")
    assert np.all(f.values[~dom16.omega2_all] == 0.0)
    assert np.all(f.values[dom16.omega2_all] == 1.0)


def test_field_shape_checked(dom16):
    with pytest.raises(UsageError):
        Field.from_values(dom16, np.zeros((5, 5)))


def test_arithmetic_reapplies_mask(dom16):
    f = Field.from_values(dom16, np.ones((17, 17)), "omega1")
    g = 2.0 * f + f
    assert np.all(g.values[dom16.omega2_interior] == 0.0)
    assert g.values[1, 1] == 3.0


def test_region_mismatch_raises(dom16):
    f1 = Field.zeros(dom16, "omega1")
    f2 = Field.zeros(dom16, "omega2")
    with pytest.raises(UsageError):
        _ = f1 + f2
    with pytest.raises(UsageError):
        inner_l2(dom16, f2, f2, region="omega1")


def test_inner_l2_constant_measures_area(dom16):
    ones = np.ones((17, 17))
    assert inner_l2(dom16, ones, ones, "omega") == pytest.approx(1.0)
    assert inner_l2(dom16, ones, ones, "omega2") == pytest.approx(0.25)
    assert inner_l2(dom16, ones, ones, "omega1") == pytest.approx(0.75)


def test_inner_l2_single_node(dom16):
    # one interior inner-plate node: weight h^2
    v = np.zeros((17, 17))
    v[8, 8] = 1.0
    assert inner_l2(dom16, v, v, "omega2") == pytest.approx(dom16.h**2)


def test_params_validation():
    assert PhysParams().validate() == []
    assert PhysParams(rho1=-1.0).validate()
    assert PhysParams(lam=-0.1).validate()
    assert PhysParams(mu=0.0).validate() == []


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name",
                         ["rho0", "rho1", "rho2", "beta0", "beta1", "beta2"])
def test_params_reject_nonfinite_density_and_conductivity(name, value):
    errs = PhysParams(**{name: value}).validate()
    assert errs == [f"{name} must be strictly positive and finite"]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["mu", "lam"])
def test_params_reject_nonfinite_coupling_and_robin(name, value):
    errs = PhysParams(**{name: value}).validate()
    assert errs == [f"{name} must be nonnegative and finite"]


def test_h2t_inner_symmetric(dom16, params, rng):
    a = random_clamped(dom16, rng)
    b = random_clamped(dom16, rng)
    assert h2t_inner(dom16, a, b, params) == pytest.approx(
        h2t_inner(dom16, b, a, params), rel=1e-13
    )
    assert h2t_inner(dom16, a, a, params) > 0.0


def test_state_validate_and_clamp(dom16, rng):
    s = make_state(dom16, u=rng.standard_normal((17, 17)),
                   ut=rng.standard_normal((17, 17)),
                   theta=rng.standard_normal((17, 17)))
    s.validate()
    assert np.all(s.u.values[dom16.gamma1] == 0.0)
    assert np.all(s.theta.values[dom16.gamma0] == 0.0)
    assert np.all(s.theta.values[dom16.omega2_interior] == 0.0)


def test_state_validate_rejects_unclamped(dom16):
    s = State.zeros(dom16)
    s.u.values[0, 5] = 1.0
    with pytest.raises(UsageError):
        s.validate()
    s = State.zeros(dom16)
    s.theta.values[dom16.gamma0] = 1.0
    with pytest.raises(UsageError):
        s.validate()


def test_state_zeros_and_sub(dom16):
    a = State.zeros(dom16)
    b = State.zeros(dom16)
    d = a - b
    assert np.all(d.u.values == 0.0)


def test_field_csv_roundtrip(dom16, tmp_path):
    f = Field.from_values(dom16, np.arange(17 * 17, dtype=float).reshape(17, 17))
    path = tmp_path / "f.csv"
    f.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,x,y,value"
    assert len(lines) == 17 * 17 + 1
