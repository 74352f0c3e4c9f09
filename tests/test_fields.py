import math

import numpy as np
import pytest

import platetx
from platetx.errors import UsageError
from platetx.fields import PhysParams, make_state


def test_make_state_copies_and_clamps(dom16, rng):
    u, ut, theta = (rng.standard_normal((17, 17)) for _ in range(3))
    inputs = [a.copy() for a in (u, ut, theta)]
    s = make_state(dom16, u=u, ut=ut, theta=theta)
    for given, before in zip((u, ut, theta), inputs):
        assert np.array_equal(given, before)
        for arr in (s.u, s.ut, s.theta):
            assert not np.shares_memory(arr, given)
    assert np.all(s.u[dom16.gamma1] == 0.0)
    assert np.all(s.ut[dom16.gamma1] == 0.0)
    assert np.all(s.theta[~dom16.theta_free] == 0.0)
    free = ~dom16.gamma1
    assert np.array_equal(s.u[free], u[free])
    assert np.array_equal(s.theta[dom16.theta_free], theta[dom16.theta_free])


def test_make_state_shape_checked(dom16):
    for name in ("u", "ut", "theta"):
        with pytest.raises(UsageError, match="does not match grid"):
            make_state(dom16, **{name: np.zeros((5, 5))})


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


def test_state_validate_and_clamp(dom16, rng):
    s = make_state(dom16, u=rng.standard_normal((17, 17)),
                   ut=rng.standard_normal((17, 17)),
                   theta=rng.standard_normal((17, 17)))
    s.validate(dom16)
    assert np.all(s.u[dom16.gamma1] == 0.0)
    assert np.all(s.theta[dom16.gamma0] == 0.0)
    assert np.all(s.theta[~dom16.omega1_all] == 0.0)


def test_state_validate_rejects_unclamped(dom16):
    s = make_state(dom16)
    s.u[0, 5] = 1.0
    with pytest.raises(UsageError, match="u not clamped"):
        s.validate(dom16)
    s = make_state(dom16)
    s.theta[dom16.gamma0] = 1.0
    with pytest.raises(UsageError, match="theta != 0 on gamma0"):
        s.validate(dom16)


def test_state_zeros_and_sub(dom16):
    a = make_state(dom16)
    b = make_state(dom16)
    d = a - b
    assert np.all(d.u == 0.0)



def test_public_names_resolve():
    missing = [name for name in platetx.__all__
               if not hasattr(platetx, name)]
    assert missing == []
