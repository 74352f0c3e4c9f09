from pathlib import Path

import numpy as np
import pytest

from platetx.config import parse_config
from platetx.domain import DomainConfig, build_domain
from platetx.experiments import (DIFFERENCE_COLUMNS, initial_state, run_decay,
                                 run_difference, run_experiment, run_probe,
                                 run_simulate, run_stationary, run_verify,
                                 verify_suite)
from platetx.fields import PhysParams
from platetx.diagnostics import ObservableRow, energy
from platetx.errors import StepError
from platetx.nonlinearity import NonlinearitySpec


BASE = "domain.n_cells=8\nrun.t_max=0.25\nrun.stride=4\n"


@pytest.fixture(autouse=True)
def out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PLATETX_OUT", str(tmp_path))
    return tmp_path


def test_initial_data_channels():
    dom = build_domain(DomainConfig(n_cells=16))
    p = PhysParams()
    spec = NonlinearitySpec.linear()
    eb = energy(dom, initial_state(dom, "bump", 1.0), p, spec)
    assert eb.bending1 > 0 and eb.kinetic1 == 0 and eb.thermal == 0
    eb = energy(dom, initial_state(dom, "kick", 1.0), p, spec)
    assert eb.kinetic2 > 0 and eb.kinetic1 == 0 and eb.bending1 == 0
    eb = energy(dom, initial_state(dom, "spot", 1.0), p, spec)
    assert eb.thermal > 0 and eb.kinetic1 == 0 and eb.bending1 == 0
    eb = energy(dom, initial_state(dom, "mixed", 1.0, seed=2), p, spec)
    assert eb.kinetic1 > 0 and eb.bending1 > 0 and eb.thermal > 0


def test_kick_supported_in_inner_plate():
    dom = build_domain(DomainConfig(n_cells=16))
    s = initial_state(dom, "kick", 1.0)
    assert np.all(s.ut[~dom.omega2_interior] == 0.0)


def test_simulate_report(out_env):
    cfg = parse_config(BASE)
    out = run_simulate(cfg)
    summary = out["summary"]
    assert summary["lyapunov_violations"] == 0
    series = out["trajectory"].step_series
    assert summary["cg_outer_total"] == int(np.sum(series["cg_outer"])) > 0
    assert summary["picard_max"] == 1
    assert summary["h_solves_total"] == int(np.sum(series["h_solves"]))
    csv_path, txt_path = out["paths"]
    lines = Path(csv_path).read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header.startswith("t,")
    # defaulted keys are echoed into the metadata block
    assert any("(default)" in l for l in lines if l.startswith("#"))
    assert any(l.startswith("# config_hash=") for l in lines)


@pytest.mark.parametrize("stride", [1, 3])
def test_residual_cum_is_running_sum_of_step_residuals(out_env, stride):
    # each row's residual_cum is the cumulative sum of the per-step series
    # at its step, bit for bit
    cfg = parse_config("domain.n_cells=8\nrun.t_max=0.3\nrun.initial=mixed\n"
                       f"nonlinearity.variant=berger\nrun.stride={stride}\n")
    out = run_simulate(cfg)
    traj = out["trajectory"]
    cum = np.concatenate(([0.0], np.cumsum(traj.step_series["residual"])))
    lines = [l.split(",") for l in
             Path(out["paths"][0]).read_text().splitlines()
             if not l.startswith("#")]
    col = {name: i for i, name in enumerate(lines[0])}
    rows = np.array(lines[1:], dtype=float)
    steps = np.rint(rows[:, col["t"]] / traj.meta["dt"]).astype(int)
    assert list(steps) == [0, *range(stride, len(cum) - 1, stride),
                           len(cum) - 1]
    np.testing.assert_array_equal(rows[:, col["residual_cum"]], cum[steps])


@pytest.mark.parametrize("experiment", ["simulate", "difference"])
def test_csv_loads_with_the_readme_recipe(out_env, experiment):
    # the README's recipe: genfromtxt with names=True on the lines that are
    # not comments (with comments="#" it takes the names from the first
    # comment line and fails)
    cfg = parse_config(BASE + "run.initial=mixed\n"
                       f"run.experiment={experiment}\n")
    path = run_experiment(cfg)["paths"][0]
    with open(path) as f:
        data = np.genfromtxt([l for l in f if not l.startswith("#")],
                             delimiter=",", names=True)
    columns = {"simulate": ObservableRow.columns(),
               "difference": list(DIFFERENCE_COLUMNS)}[experiment]
    assert list(data.dtype.names) == columns
    assert len(data) > 1 and np.all(np.isfinite(data["t"]))


@pytest.mark.parametrize("experiment", ["simulate", "difference"])
def test_step_error_time_is_end_of_failing_step(out_env, experiment):
    # one Berger sweep never reaches an accepted solve, so the first step
    # fails; both experiments report the time the step was to reach
    cfg = parse_config(BASE + "nonlinearity.variant=berger\n"
                       "nonlinearity.tension=1\nscheme.max_picard=1\n"
                       f"run.experiment={experiment}\n")
    with pytest.raises(StepError) as info:
        run_experiment(cfg)
    assert info.value.time == 1.0 / 32  # dt = h/4 at n=8
    assert info.value.stats.picard_sweeps == 1


def test_decay_zero_initial_data(out_env):
    cfg = parse_config(BASE + "run.amplitude=0\n")
    out = run_decay(cfg)
    assert out["summary"]["flattened"]
    assert out["summary"]["distance_to_stationary"] == 0.0


def test_decay_linear_reports_ratio(out_env):
    cfg = parse_config(BASE + "run.experiment=decay\nrun.t_max=1.0\n")
    out = run_decay(cfg)
    s = out["summary"]
    assert 0.0 < s["energy_ratio"] < 1.0
    assert s["lyapunov_violations"] == 0
    txt = Path(out["paths"][1]).read_text()
    for key in ("cg_outer_total", "picard_max", "h_solves_total"):
        assert f"{key}={s[key]}\n" in txt


def test_decay_mu_zero_conserves(out_env):
    cfg = parse_config(BASE + "params.mu=0.0\n")
    out = run_simulate(cfg)
    traj = out["trajectory"]
    e = traj.step_series["energy"]
    assert np.max(np.abs(e - e[0])) <= 1e-9 * e[0]


def test_difference_identical_states_zero(out_env):
    cfg = parse_config(BASE + "difference.perturbation=0\n".replace("0", "1e-300"))
    out = run_difference(cfg)
    assert out["summary"]["e_d_initial"] <= 1e-200


def test_difference_linear_fit(out_env):
    cfg = parse_config(
        "domain.n_cells=16\nrun.t_max=1.0\nrun.stride=4\n"
        "difference.perturbation=0.1\n"
    )
    out = run_difference(cfg)
    s = out["summary"]
    assert s["contraction"]
    assert s["fit_r2"] > 0.95
    assert s["omega_r"] > 0
    assert abs(s["balance_cum_rel"]) < 1e-8


def test_difference_berger_balance(out_env):
    cfg = parse_config(
        "domain.n_cells=16\nrun.t_max=0.5\nrun.stride=4\n"
        "nonlinearity.variant=berger\nnonlinearity.tension=1.0\n"
        "difference.perturbation=0.5\n"
    )
    out = run_difference(cfg)
    e0 = out["summary"]["e_d_initial"]
    assert abs(out["summary"]["balance_cum"]) <= 1e-6 * e0


def test_probe_sweep(out_env):
    cfg = parse_config(BASE + "run.experiment=probe\nprobe.parameter=lam\n"
                       "probe.values=0,1,10\n")
    out = run_probe(cfg)
    assert len(out["results"]) == 3
    assert all(r["dissipation_min"] >= 0.0 for r in out["results"])


def test_probe_mu_trend(out_env):
    # energy retained at T grows monotonically as the coupling shrinks
    cfg = parse_config("domain.n_cells=8\nrun.t_max=1.0\nrun.stride=8\n"
                       "run.experiment=probe\nprobe.parameter=mu\n"
                       "probe.values=1.0,0.5,0.1,0.0\n")
    out = run_probe(cfg)
    ratios = [r["energy_ratio"] for r in out["results"]]
    assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert out["results"][-1]["energy_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_stationary_experiment(out_env):
    cfg = parse_config(BASE + "run.experiment=stationary\n"
                       "nonlinearity.variant=berger\n"
                       "nonlinearity.tension=-200\nrun.amplitude=5\n")
    out = run_stationary(cfg)
    assert out["summary"]["nonzero"]


def test_verify_suite_passes(out_env):
    cfg = parse_config("domain.n_cells=8\n")
    checks = verify_suite(cfg)
    assert all(ok for _, ok, _ in checks)
    out = run_verify(cfg)
    assert out["summary"]["passed"]


def test_determinism_byte_identical(out_env):
    cfg_text = BASE + "run.seed=3\nrun.initial=mixed\n"
    first = run_experiment(parse_config(cfg_text))
    data1 = Path(first["paths"][0]).read_bytes()
    second = run_experiment(parse_config(cfg_text))
    data2 = Path(second["paths"][0]).read_bytes()
    assert data1 == data2
