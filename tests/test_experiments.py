from pathlib import Path

import numpy as np
import pytest

from platetx.config import parse_config
from platetx.domain import DomainConfig, build_domain
from platetx.experiments import (initial_state, run_decay, run_difference,
                                 run_experiment, run_probe, run_simulate,
                                 run_stationary, run_verify, verify_suite)
from platetx.fields import PhysParams
from platetx.diagnostics import energy
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
    assert np.all(s.ut.values[~dom.omega2_interior] == 0.0)


def test_simulate_report(out_env):
    cfg = parse_config(BASE)
    out = run_simulate(cfg)
    assert out["summary"]["lyapunov_violations"] == 0
    csv_path, txt_path = out["paths"]
    lines = Path(csv_path).read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header.startswith("t,")
    # defaulted keys are echoed into the metadata block
    assert any("(default)" in l for l in lines if l.startswith("#"))
    assert any(l.startswith("# config_hash=") for l in lines)


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
