import dataclasses

import pytest

from platetx.config import SCHEMA, parse_config
from platetx.domain import DomainConfig
from platetx.errors import ConfigurationError
from platetx.fields import PhysParams
from platetx.stepper import SchemeConfig


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg.experiment == "simulate"
    assert cfg.domain_config.n_cells == 32
    assert cfg.scheme.dt is None
    assert set(cfg.defaulted) == set(SCHEMA)


def test_unknown_key_reported():
    with pytest.raises(ConfigurationError) as exc:
        parse_config("domain.cells=16\n")
    assert "unknown key" in str(exc.value)


def test_all_violations_collected():
    text = "domain.n_cells=3\nparams.rho1=-1\nrun.stride=0\nbogus.key=1\n"
    with pytest.raises(ConfigurationError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert "bogus.key" in msg
    # structural violation (unknown key) reported together with parse pass
    assert msg.count("\n") >= 0


def test_semantic_violations_collected_together():
    text = "domain.n_cells=3\nparams.rho1=-1\nrun.stride=0\n"
    with pytest.raises(ConfigurationError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert "n_cells" in msg
    assert "rho1" in msg
    assert "stride" in msg


def test_berger_stretch_positivity_via_alias():
    text = "nonlinearity.variant=berger\nparams.gamma=-1\n"
    with pytest.raises(ConfigurationError) as exc:
        parse_config(text)
    assert "positive" in str(exc.value)
    cfg = parse_config("nonlinearity.variant=berger\nparams.gamma=2.5\n"
                       "params.Gamma=-3\n")
    assert cfg.spec.stretch == 2.5
    assert cfg.spec.tension == -3.0


def test_type_errors_reported_with_key():
    with pytest.raises(ConfigurationError) as exc:
        parse_config("domain.n_cells=many\n")
    assert "domain.n_cells" in str(exc.value)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\ndomain.n_cells=16  # trailing\n")
    assert cfg.domain_config.n_cells == 16


def test_round_trip():
    text = ("domain.n_cells=16\nnonlinearity.variant=berger\n"
            "scheme.dt=0.001\nrun.experiment=decay\nrun.t_max=2.5\n")
    cfg = parse_config(text)
    cfg2 = parse_config(cfg.serialize())
    assert cfg2.values == cfg.values
    assert cfg2.hash() == cfg.hash()
    assert cfg2.defaulted == []  # serialization pins every key


def test_hash_sensitive_to_values():
    a = parse_config("domain.n_cells=16\n")
    b = parse_config("domain.n_cells=32\n")
    assert a.hash() != b.hash()
    # default and explicitly-set default value hash identically
    c = parse_config("domain.n_cells=32\nrun.stride=10\n")
    assert b.hash() == c.hash()


def test_overrides_apply_last():
    cfg = parse_config("domain.n_cells=16\n",
                       overrides=["domain.n_cells=8", "run.seed=5"])
    assert cfg.domain_config.n_cells == 8
    assert cfg.seed == 5


def test_multiplier_positivity_asserted_when_forced():
    with pytest.raises(ConfigurationError) as exc:
        parse_config("params.mu=0.0\ndiag.multipliers=on\n")
    assert "mu/2" in str(exc.value)
    # auto mode simply disables the functionals
    cfg = parse_config("params.mu=0.0\n")
    assert not cfg.multipliers_enabled()
    assert parse_config("").multipliers_enabled()


def test_scheme_tolerance_invariant():
    with pytest.raises(ConfigurationError):
        parse_config("scheme.tol_inner=1e-10\nscheme.tol_picard=1e-12\n")


def test_default_config_helper():
    cfg = parse_config("")
    assert cfg.validate() == []
    assert cfg.n_steps(0.01) == 400


@pytest.mark.parametrize("section, cls", [("domain", DomainConfig),
                                          ("params", PhysParams),
                                          ("scheme", SchemeConfig)])
def test_section_keys_are_the_dataclass_fields(section, cls):
    # RunConfig builds each of these dataclasses from its section's keys,
    # so a field without a key, or a key without a field, fails here
    keys = {k.split(".")[1] for k in SCHEMA if k.split(".")[0] == section}
    assert keys == {f.name for f in dataclasses.fields(cls)}
