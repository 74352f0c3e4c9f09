import os
from pathlib import Path

import pytest

from platetx.cli import main


@pytest.fixture(autouse=True)
def out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PLATETX_OUT", str(tmp_path / "out"))
    return tmp_path


def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_missing_config_exit_2(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.cfg")])
    assert code == 2
    assert "error-category: config-io" in capsys.readouterr().err


def test_invalid_config_exit_3(tmp_path, capsys):
    path = write_cfg(tmp_path, "domain.n_cells=3\nbogus=1\n")
    code = main(["run", path])
    assert code == 3
    err = capsys.readouterr().err
    assert "error-category: config-invalid" in err
    assert "bogus" in err


def test_run_simulate_success(tmp_path, capsys):
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=0.1\n")
    code = main(["run", path])
    assert code == 0
    out = capsys.readouterr().out
    assert "lyapunov_violations=0" in out
    assert "wrote " in out


def test_verify_exit_0(tmp_path, capsys):
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.experiment=verify\n")
    assert main(["run", path]) == 0
    assert "passed=True" in capsys.readouterr().out


def test_override_reflected_in_metadata(tmp_path, capsys):
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=0.1\n")
    code = main(["run", path, "--override", "scheme.dt=0.001"])
    assert code == 0
    out = capsys.readouterr().out
    csv_path = [l.split(" ", 1)[1] for l in out.splitlines()
                if l.startswith("wrote ") and l.endswith(".csv")][0]
    content = Path(csv_path).read_text()
    assert "# scheme.dt=0.001" in content
    # an overridden key is no longer marked as defaulted
    assert "# scheme.dt=0.001 (default)" not in content


def test_solver_failure_exit_4(tmp_path, capsys):
    # Picard cannot converge in one sweep at this amplitude and tolerance
    path = write_cfg(
        tmp_path,
        "domain.n_cells=8\nrun.t_max=0.1\nrun.amplitude=50\n"
        "nonlinearity.variant=berger\nscheme.max_picard=1\n"
        "scheme.tol_picard=1e-14\nscheme.tol_inner=1e-14\n",
    )
    code = main(["run", path])
    assert code == 4
    assert "error-category: solver-error" in capsys.readouterr().err


def test_overflow_keeps_error_category_first(tmp_path, capsys):
    # the energy of this state overflows; NumPy's overflow warnings must not
    # print ahead of the error-category line (under this suite's
    # filterwarnings=error a warning would surface as exit 1)
    path = write_cfg(tmp_path, "domain.n_cells=16\nrun.t_max=0.1\n")
    code = main(["run", path, "--override", "run.amplitude=1e200"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error-category: solver-error\n")


def test_thermal_solver_failure_exit_4(tmp_path, capsys):
    # beta0 times the largest 1-D eigenvalue overflows the thermal spectrum
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=0.1\n")
    code = main(["run", path, "--override", "params.beta0=1e308"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error-category: solver-error\n")
    assert "thermal solver" in err


@pytest.mark.parametrize("override", ["params.mu=nan", "run.t_max=inf",
                                      "scheme.dt=nan"])
def test_nonfinite_value_exit_3(tmp_path, capsys, override):
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=0.1\n")
    code = main(["run", path, "--override", override])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error-category: config-invalid\n")
    assert override.split("=")[0] in err


def test_unexpected_failure_exit_1(tmp_path, capsys):
    # the step count overflows any array before a byte is allocated
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=1e300\n")
    code = main(["run", path])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error-category: internal\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("parameter,values,bad", [
    ("rho2", "1,0", "probe.values=0: rho2 must be strictly positive"),
    ("mu", "-1", "probe.values=-1: mu must be nonnegative"),
])
def test_invalid_probe_value_exit_3(tmp_path, capsys, parameter, values, bad):
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=0.1\n"
                     "run.experiment=probe\n"
                     f"probe.parameter={parameter}\nprobe.values={values}\n")
    code = main(["run", path])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error-category: config-invalid\n")
    assert bad in err


def test_cutoff_width_fails_only_experiments_that_use_it(tmp_path, capsys):
    # the default domain's gap is 0.25, so 8*0.05 is too wide for the cutoffs
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=0.1\n"
                     "diag.cutoff_delta=0.05\n")
    assert main(["run", path, "--override", "run.experiment=difference"]) == 0
    capsys.readouterr()
    assert main(["run", path, "--override", "run.experiment=simulate"]) == 3
    assert capsys.readouterr().err.startswith(
        "error-category: config-invalid\n")


def test_bad_override_exit_3(tmp_path, capsys):
    path = write_cfg(tmp_path, "domain.n_cells=8\n")
    code = main(["run", path, "--override", "scheme.dt=zero"])
    assert code == 3


def test_outputs_under_env_dir(tmp_path):
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=0.1\n")
    assert main(["run", path]) == 0
    out_dir = os.environ["PLATETX_OUT"]
    assert any(f.endswith(".csv") for f in os.listdir(out_dir))
