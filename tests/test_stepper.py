import numpy as np
import pytest

from platetx.diagnostics import dissipation
from platetx.errors import SolverError, StepError
from platetx.fields import PhysParams, make_state
from platetx.nonlinearity import (CubicForce, NonlinearitySpec,
                                  discrete_gradient_force)
from platetx.operators import biharmonic_transmission
from platetx.stepper import (PlateStepper, SchemeConfig, simulate,
                             stationary_solve)


def bump_state(domain, amp=1.0, vel=0.2, heat=0.3):
    u = amp * np.sin(np.pi * domain.X) ** 2 * np.sin(np.pi * domain.Y) ** 2
    th = heat * np.sin(2 * np.pi * domain.X) * np.sin(2 * np.pi * domain.Y)
    th[~domain.theta_free] = 0.0
    return make_state(domain, u=u, ut=vel * u, theta=th)


def test_scheme_config_validation(dom16):
    assert SchemeConfig().validate() == []
    assert SchemeConfig(dt=-0.1).validate()
    assert SchemeConfig(tol_picard=1e-13, tol_inner=1e-12).validate()
    assert SchemeConfig().resolve_dt(dom16) == pytest.approx(dom16.h / 4)
    assert SchemeConfig(dt=0.01).resolve_dt(dom16) == 0.01
    with pytest.raises(SolverError):
        PlateStepper(dom16, PhysParams(), scheme=SchemeConfig(dt=-1.0))


def test_step_preserves_constraints(dom16, params):
    stepper = PlateStepper(dom16, params)
    s, _ = stepper.step(bump_state(dom16))
    s.validate()


def test_per_step_energy_identity_all_variants(dom16, params):
    specs = {
        "linear": NonlinearitySpec.linear(),
        "berger": NonlinearitySpec.berger(1.0, 1.0),
        "scalar": NonlinearitySpec.scalar(CubicForce(1.0, 0.0),
                                          CubicForce(1.0, 0.0)),
    }
    scheme = SchemeConfig()
    for name, spec in specs.items():
        stepper = PlateStepper(dom16, params, spec, scheme)
        traj = simulate(stepper, bump_state(dom16), n_steps=30)
        res = traj.step_series["residual"]
        lyap = traj.step_series["lyapunov"]
        bound = 10.0 * (scheme.tol_inner + scheme.tol_picard)
        assert np.max(np.abs(res)) <= bound * lyap[0], name


def test_step_force_is_the_discrete_gradient(dom16, params):
    # the force a step records is the one its last solve used: zero for the
    # linear problem, the discrete gradient of the step up to the Picard
    # tolerance for the nonlinear ones
    scheme = SchemeConfig()
    s0 = bump_state(dom16)
    _, stats = PlateStepper(dom16, params, scheme=scheme).step(s0)
    assert np.all(stats.force == 0.0)
    for spec in (NonlinearitySpec.berger(1.0, 1.0),
                 NonlinearitySpec.scalar(CubicForce(1.0, 0.5),
                                         CubicForce(2.0, -1.0))):
        s1, stats = PlateStepper(dom16, params, spec, scheme).step(s0)
        g = discrete_gradient_force(dom16, s0.u.values, s1.u.values, spec,
                                    params)
        err = np.max(np.abs(stats.force - g))
        assert err <= scheme.tol_picard * np.max(np.abs(g)), spec.variant


def test_dissipation_positive_and_energy_decreases(dom16, params):
    stepper = PlateStepper(dom16, params)
    traj = simulate(stepper, bump_state(dom16), n_steps=40)
    diss = traj.step_series["dissipation_mid"]
    assert np.all(diss >= 0.0)
    lyap = traj.step_series["lyapunov"]
    assert lyap[-1] < lyap[0]
    assert np.all(np.diff(lyap) <= 1e-10 * lyap[0])


def test_mu_zero_conserves_quadratic_energy(dom16):
    p = PhysParams(mu=0.0)
    stepper = PlateStepper(dom16, p)
    traj = simulate(stepper, bump_state(dom16, heat=0.0), n_steps=100)
    e = traj.step_series["energy"]
    assert np.max(np.abs(e - e[0])) <= 1e-11 * e[0]


def test_midpoint_dissipation_matches_state_average(dom16, params):
    # the in-step dissipation record equals D of the averaged temperatures
    stepper = PlateStepper(dom16, params)
    s0 = bump_state(dom16)
    s1, stats = stepper.step(s0)
    th_mid = 0.5 * (s0.theta.values + s1.theta.values)
    assert stats.dissipation_mid == pytest.approx(
        dissipation(dom16, th_mid, params), rel=1e-12
    )


def test_scheme_second_order_in_dt(dom8, params):
    # dt must resolve the fastest bending mode (~ 8 beta^1/2 / h^2) before
    # the midpoint error enters its asymptotic dt^2 regime
    spec = NonlinearitySpec.berger(1.0, 1.0)
    t_end = 0.0625
    results = []
    for m in (1024, 2048, 4096, 16384):
        stepper = PlateStepper(dom8, params, spec, SchemeConfig(dt=1.0 / m))
        s = bump_state(dom8)
        for _ in range(int(round(t_end * m))):
            s, _ = stepper.step(s)
        results.append(s.u.values.copy())
    ref = results[-1]
    errs = [np.max(np.abs(r - ref)) for r in results[:-1]]
    for i in range(2):
        order = np.log2(errs[i] / errs[i + 1])
        assert 1.7 <= order <= 2.4


def test_picard_nonconvergence_raises(dom16, params):
    spec = NonlinearitySpec.berger(1.0, 50.0)
    scheme = SchemeConfig(tol_picard=1e-14, tol_inner=1e-14, max_picard=1)
    stepper = PlateStepper(dom16, params, spec, scheme)
    with pytest.raises(StepError) as exc:
        stepper.step(bump_state(dom16, amp=5.0), t=1.5)
    assert exc.value.time == 1.5


def test_simulate_sampling_and_sinks(dom16, params):
    stepper = PlateStepper(dom16, params)
    seen = []
    traj = simulate(stepper, bump_state(dom16), n_steps=10, stride=3,
                    sinks=[lambda k, t, s: seen.append(k)])
    assert seen == [0, 3, 6, 9, 10]
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(10 * stepper.dt)
    assert len(traj.step_series["energy"]) == 11
    assert len(traj.step_series["residual"]) == 10
    assert traj.meta["dt"] == stepper.dt


def test_warm_start_deterministic(dom16, params):
    # same inputs give bitwise identical trajectories
    def run():
        stepper = PlateStepper(dom16, params,
                               NonlinearitySpec.berger(1.0, 1.0))
        traj = simulate(stepper, bump_state(dom16), n_steps=5)
        return traj.states[-1].u.values

    np.testing.assert_array_equal(run(), run())


def test_stationary_zero_guess_zero_root(dom16, params):
    u = stationary_solve(dom16, params, NonlinearitySpec.berger(1.0, 1.0),
                         np.zeros((17, 17)))
    assert np.all(u == 0.0)


def test_stationary_buckled_root_nonzero(dom16, params):
    from platetx.nonlinearity import force

    spec = NonlinearitySpec.berger(tension=-200.0, stretch=1.0)
    guess = 5.0 * np.sin(np.pi * dom16.X) ** 2 * np.sin(np.pi * dom16.Y) ** 2
    u = stationary_solve(dom16, params, spec, guess)
    assert np.max(np.abs(u)) > 0.1
    res = biharmonic_transmission(dom16, u, params)
    res += force(dom16, make_state(dom16, u=u), spec, params)
    res[dom16.gamma1] = 0.0
    h2 = dom16.h**2
    rnorm = np.sqrt(h2 * np.sum(res * res))
    unorm = np.sqrt(h2 * np.sum(u * u))
    assert rnorm <= 1e-9 * (1.0 + unorm)
