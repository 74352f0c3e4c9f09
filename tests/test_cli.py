import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import platetx
from platetx import cli, config, operators
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


def test_verify_exit_0_on_a_nearly_orthogonal_coupling_pair(tmp_path,
                                                           capsys):
    # the coupling pair of this box and seed is about 1e-7 of the product
    # of its norms, which a check relative to the pair's value failed
    path = write_cfg(tmp_path, "domain.n_cells=64\ndomain.inner_hi=0.5\n"
                     "run.seed=14\nrun.experiment=verify\n")
    assert main(["run", path]) == 0
    assert "passed=True" in capsys.readouterr().out


def test_failed_check_exit_5(tmp_path, capsys, monkeypatch):
    couple_hat = operators.FrameThermalSolver.couple_hat
    monkeypatch.setattr(operators.FrameThermalSolver, "couple_hat",
                        lambda self, y: -couple_hat(self, y))
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.experiment=verify\n")
    assert main(["run", path]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error-category: verify-failed\n")


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


def test_unexpected_failure_exit_1(tmp_path, capsys, monkeypatch):
    # a failure that is none of the package's errors keeps the exit contract
    def broken(cfg):
        raise RuntimeError("broken experiment")

    monkeypatch.setattr(cli, "run_experiment", broken)
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=0.1\n")
    code = main(["run", path])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error-category: internal\n")
    assert "RuntimeError: broken experiment" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override,key", [
    ("domain.inner_lo=1e-300", "inner_lo"),
    ("domain.inner_hi=0.999999999999", "inner_hi"),
    ("run.seed=-1", "run.seed"),
    ("run.t_max=1e300", "run.t_max"),
])
def test_rejected_before_the_run_exit_3(tmp_path, capsys, override, key):
    # past validation each would fail inside the run (exit 1): a box index
    # of 0 or n, a seed default_rng rejects, a step count no series can hold
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.initial=mixed\n")
    code = main(["run", path, "--override", override])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error-category: config-invalid\n")
    assert key in err


HOSTILE_FLOATS = ("nan", "inf", "-inf", "-1", "0", "1e300", "1e-300", "abc",
                  "")
HOSTILE_INTS = ("-1", "0", "1e20", "abc", "")


def _sweep_cases():
    """(key, value, experiment, variant) for every float and integer key
    of the schema but domain.n_cells (a huge grid tests resources, not the
    contract), each key with one experiment that reads it: the only one
    for the keys one experiment reads, a seeded choice otherwise."""
    rng = random.Random(0)
    cases = []
    for key, (_, conv) in config.SCHEMA.items():
        if conv in (config._float, config._auto_float):
            values = HOSTILE_FLOATS
        elif conv is config._int and key != "domain.n_cells":
            values = HOSTILE_INTS
        else:
            continue
        section = key.split(".")[0]
        readers = {"diag": ("simulate", "decay"), "probe": ("probe",),
                   "difference": ("difference",)}.get(section,
                                                      config.EXPERIMENTS)
        variant = "linear"
        if key in ("nonlinearity.tension", "nonlinearity.stretch"):
            variant = "berger"
        elif key.startswith("nonlinearity.f"):
            variant = "scalar"
        experiment = rng.choice(readers)
        cases.extend((key, v, experiment, variant) for v in values)
    return cases


def test_hostile_values_never_exit_1(tmp_path, capsys):
    # every run either works or fails with its documented exit code
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=0.0625\n"
                     "run.initial=mixed\n")
    internal = []
    for key, value, experiment, variant in _sweep_cases():
        code = main(["run", path, "--override", f"{key}={value}",
                     "--override", f"run.experiment={experiment}",
                     "--override", f"nonlinearity.variant={variant}"])
        err = capsys.readouterr().err
        if code == 1:
            internal.append((key, value, experiment, err.splitlines()[1:]))
    assert internal == []


EXTREME_OVERRIDES = [
    *((16, (f"params.{k}=1e308",))
      for k in ("rho1", "beta1", "beta2", "rho0", "beta0", "mu")),
    (16, ("scheme.dt=1e300",)), (16, ("scheme.dt=1e-300",)),
    (16, ("run.amplitude=1e200",)),
    (16, ("nonlinearity.variant=berger", "nonlinearity.tension=1e308")),
    (16, ("nonlinearity.variant=berger", "nonlinearity.tension=-1e308")),
    (16, ("params.beta1=1e308", "run.experiment=stationary")),
    (128, ("scheme.dt=1e300", "run.t_max=1e300")),
]


@pytest.mark.parametrize(
    "n,overrides", EXTREME_OVERRIDES,
    ids=[f"n{n}-" + "-".join(o) for n, o in EXTREME_OVERRIDES])
def test_extreme_values_never_exit_1(tmp_path, capsys, n, overrides):
    # finite values that overflow inside the run either run or fail with
    # their exit code; the plate preconditioner's ring weight
    # d = 2 (dt/2) beta1/h^4 overflows for beta1=1e308, and at n=128 for
    # dt=1e300, which is a solver failure
    path = write_cfg(tmp_path, f"domain.n_cells={n}\nrun.t_max=0.0625\n"
                     "run.initial=mixed\n")
    code = main(["run", path]
                + [arg for o in overrides for arg in ("--override", o)])
    err = capsys.readouterr().err
    assert code in (0, 3, 4), err
    if code:
        category = {3: "config-invalid", 4: "solver-error"}[code]
        assert err.startswith(f"error-category: {category}\n")
    if "params.beta1=1e308" in overrides or n == 128:
        assert code == 4
        assert "ring weight" in err


@pytest.mark.parametrize("dt", ["0.1", "1e300"])
def test_t_max_below_one_step_exit_3(tmp_path, capsys, dt):
    # a run takes whole steps, so one this short would end past t_max, at
    # t = dt
    path = write_cfg(tmp_path, "domain.n_cells=16\nrun.t_max=0.0625\n")
    assert main(["run", path, "--override", f"scheme.dt={dt}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error-category: config-invalid\n")
    assert "run.t_max" in err and "scheme.dt" in err


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


@pytest.mark.parametrize("delta", ["0", "-0.01"])
def test_nonpositive_cutoff_width_exit_3(tmp_path, capsys, delta):
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=0.1\n"
                     f"diag.cutoff_delta={delta}\n")
    assert main(["run", path]) == 3
    assert capsys.readouterr().err.startswith(
        "error-category: config-invalid\n")


def test_bad_override_exit_3(tmp_path, capsys):
    path = write_cfg(tmp_path, "domain.n_cells=8\n")
    code = main(["run", path, "--override", "scheme.dt=zero"])
    assert code == 3


@pytest.mark.parametrize("argv", [[], ["frob"], ["run"],
                                  ["run", "x.cfg", "--override"]],
                         ids=["no-command", "unknown-command", "no-config",
                              "override-without-value"])
def test_usage_error_exit_3(capsys, argv):
    # argparse's own handling would print the usage first and exit 2, the
    # code of an unreadable config
    code = main(argv)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error-category: config-invalid\n")
    assert "usage: platetx" in err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exit_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: platetx")


def test_outputs_under_env_dir(tmp_path):
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=0.1\n")
    assert main(["run", path]) == 0
    out_dir = os.environ["PLATETX_OUT"]
    assert any(f.endswith(".csv") for f in os.listdir(out_dir))


RUNTIME_RUNS = """
import sys
from platetx import cli
experiments = ["simulate", "decay", "difference", "probe", "stationary",
               "verify"]
for experiment in experiments:
    override = ["--override", "run.experiment=" + experiment]
    if experiment == "simulate":
        override += ["--override", "nonlinearity.variant=berger"]
    code = cli.main(["run", sys.argv[1]] + override)
    print(f"exit {experiment} {code}")
print("scipy", *sorted(m for m in sys.modules
                       if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_loads_no_scipy(tmp_path):
    # every experiment at n=8, Berger simulate among them, in a fresh
    # interpreter (this test process has scipy loaded by other test
    # modules): numpy is the one runtime dependency
    path = write_cfg(tmp_path, "domain.n_cells=8\nrun.t_max=0.1\n")
    src = str(Path(platetx.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PLATETX_OUT=str(tmp_path / "out"))
    out = subprocess.run([sys.executable, "-c", RUNTIME_RUNS, path], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=300)
    lines = out.stdout.splitlines()
    exits = [line for line in lines if line.startswith("exit ")]
    assert exits == [f"exit {e} 0" for e in ("simulate", "decay",
                                             "difference", "probe",
                                             "stationary", "verify")]
    assert lines[-1] == "scipy"
