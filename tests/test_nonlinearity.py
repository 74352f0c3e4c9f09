import numpy as np
import pytest

from conftest import random_clamped
from grid_reference import discrete_gradient_force
from platetx import nonlinearity
from platetx.errors import UsageError
from platetx.nonlinearity import CubicForce, NonlinearitySpec, force, potential
from test_acceptance import potential_lower_bound
from platetx.operators import gradient_form, laplacian_clamped


def test_cubic_force_antiderivative():
    f = CubicForce(kappa=2.0, c=-1.0)
    s = np.linspace(-2, 2, 9)
    eps = 1e-6
    num = (f.antiderivative(s + eps) - f.antiderivative(s - eps)) / (2 * eps)
    np.testing.assert_allclose(num, f(s), atol=1e-6)


def test_cubic_force_derivative():
    f = CubicForce(kappa=2.0, c=-1.0)
    s = np.linspace(-2, 2, 9)
    eps = 1e-6
    num = (f(s + eps) - f(s - eps)) / (2 * eps)
    np.testing.assert_allclose(num, f.derivative(s), atol=1e-6)


def test_cubic_force_validation():
    assert CubicForce(kappa=-1.0).validate()
    assert CubicForce(kappa=0.0, c=1.0).validate()  # no superlinear growth
    assert CubicForce(kappa=0.0, c=0.0).validate() == []
    assert CubicForce(kappa=1.0, c=-5.0).validate() == []


def test_spec_validation():
    assert NonlinearitySpec.berger(stretch=0.0).validate()
    assert NonlinearitySpec.berger(tension=-3.0, stretch=1.0).validate() == []
    assert NonlinearitySpec(variant="weird").validate()
    assert NonlinearitySpec.linear().is_linear()
    assert not NonlinearitySpec.berger().is_linear()


@pytest.mark.parametrize("tension, stretch", [(2.0, 3.0), (-200.0, 1.0)])
def test_membrane_law(rng, tension, stretch):
    # the coefficient is M = tension + stretch*q at equal forms, bit for
    # bit, and the secant of the potential over (q2 - q1)/2
    spec = NonlinearitySpec.berger(tension=tension, stretch=stretch)
    for q1, q2 in rng.uniform(0.0, 50.0, size=(50, 2)):
        assert spec.membrane_coefficient(q1, q1) == tension + stretch * q1
        rise = spec.membrane_potential(q2) - spec.membrane_potential(q1)
        secant = spec.membrane_coefficient(q1, q2) * (q2 - q1) / 2.0
        terms = abs(tension) * (q1 + q2) + stretch * (q1 * q1 + q2 * q2)
        assert abs(rise - secant) <= 1e-14 * terms


def test_discrete_gradient_force_rejects_berger(dom16, rng):
    # the Berger step forms its force on sine coefficients; the grid form
    # is the test oracle grid_reference.discrete_gradient_force
    u = random_clamped(dom16, rng)
    with pytest.raises(UsageError):
        nonlinearity.discrete_gradient_force(
            dom16, u, u, NonlinearitySpec.berger(1.0, 1.0))


def test_berger_force_formula(dom16, rng):
    u = random_clamped(dom16, rng)
    spec = NonlinearitySpec.berger(tension=1.0, stretch=1.0)
    out = force(dom16, u, spec)
    m = spec.tension + spec.stretch * gradient_form(dom16, u, u)
    expect = -m * laplacian_clamped(dom16, u)
    expect[dom16.gamma1] = 0.0
    np.testing.assert_allclose(out, expect, rtol=1e-13)


def test_scalar_force_pure_regions(dom16):
    # cubic only on the frame: force vanishes at inner-interior nodes
    spec = NonlinearitySpec.scalar(f1=CubicForce(1.0, 0.0))
    u = np.ones((17, 17))
    u[dom16.gamma1] = 0.0
    out = force(dom16, u, spec)
    assert np.all(out[~dom16.omega1_all] == 0.0)
    assert out[2, 8] == pytest.approx(1.0)  # f1(1) at a frame node


def test_zero_force_for_linear_spec(dom16, rng):
    u = random_clamped(dom16, rng)
    out = force(dom16, u, NonlinearitySpec.linear())
    assert np.all(out == 0.0)
    assert potential(dom16, u, NonlinearitySpec.linear()) == 0.0


def test_scalar_potential_skips_zero_force_bitwise(dom16, rng):
    # a zero force is not evaluated; the result must still equal the full
    # two-region sum bit for bit
    u = 3.0 * random_clamped(dom16, rng)
    zero, cubic = CubicForce(), CubicForce(1.0, -0.5)
    for f1, f2 in ((cubic, zero), (zero, cubic), (cubic, CubicForce(2.0, 1.0))):
        spec = NonlinearitySpec.scalar(f1, f2)
        full = float(np.sum(dom16.w1 * f1.antiderivative(u))
                     + np.sum(dom16.w2 * f2.antiderivative(u)))
        assert potential(dom16, u, spec) == full


def test_berger_potential_value(dom16, rng):
    u = random_clamped(dom16, rng)
    spec = NonlinearitySpec.berger(tension=-2.0, stretch=0.5)
    q = gradient_form(dom16, u, u)
    expect = 0.5 * (-2.0) * q + 0.25 * 0.5 * q * q
    assert potential(dom16, u, spec) == pytest.approx(expect)


def test_potential_lower_bounds_berger(dom16, rng):
    spec = NonlinearitySpec.berger(tension=-3.0, stretch=2.0)
    bound = potential_lower_bound(dom16, spec)
    assert bound == pytest.approx(-9.0 / 8.0)
    for _ in range(200):
        u = 3.0 * random_clamped(dom16, rng)
        assert potential(dom16, u, spec) >= bound
    assert potential_lower_bound(
        dom16, NonlinearitySpec.berger(tension=1.0)
    ) == 0.0


def test_potential_lower_bounds_scalar(dom16, rng):
    spec = NonlinearitySpec.scalar(f1=CubicForce(1.0, -4.0),
                                   f2=CubicForce(2.0, -2.0))
    bound = potential_lower_bound(dom16, spec)
    # per-region minima -c^2/(4 kappa) times region area
    assert bound == pytest.approx(-4.0 * 0.75 - 0.5 * 0.25)
    for _ in range(200):
        u = 3.0 * random_clamped(dom16, rng)
        assert potential(dom16, u, spec) >= bound


def test_discrete_gradient_increment_identity(dom16, rng):
    specs = (NonlinearitySpec.berger(tension=-2.0, stretch=1.5),
             NonlinearitySpec.scalar(CubicForce(1.0, 0.5),
                                     CubicForce(2.0, -1.0)))
    for spec in specs:
        for _ in range(200):
            u1 = random_clamped(dom16, rng)
            u2 = random_clamped(dom16, rng)
            g = discrete_gradient_force(dom16, u1, u2, spec)
            lhs = float(np.sum((dom16.w1 + dom16.w2) * g * (u2 - u1)))
            dpi = potential(dom16, u2, spec) - potential(dom16, u1, spec)
            assert abs(lhs + dpi) <= 1e-12 * (abs(dpi) + 1.0)


def test_discrete_gradient_consistent_at_coincident(dom16, rng):
    for spec in (NonlinearitySpec.berger(1.0, 1.0),
                 NonlinearitySpec.scalar(CubicForce(1.0, 0.3))):
        u = random_clamped(dom16, rng)
        g = discrete_gradient_force(dom16, u, u, spec)
        f = force(dom16, u, spec)
        np.testing.assert_allclose(g, -f, atol=1e-13)


def test_discrete_gradient_tiny_increment_stable(dom16, rng):
    # the difference quotient must not blow up when u_new ~ u_old
    spec = NonlinearitySpec.scalar(CubicForce(1.0, 0.5))
    u = random_clamped(dom16, rng)
    g = discrete_gradient_force(dom16, u, u + 1e-15 * u, spec)
    assert np.all(np.isfinite(g))
