"""Flat key=value run configuration.

One key per line, section-prefixed (domain.n_cells=64), '#' comments.
Parsing validates everything and reports every violation at once, not just
the first. A canonical serialization plus its hash make runs reproducible:
identical hash means identical inputs, and the experiment layer guarantees
identical outputs.
"""

import dataclasses
import hashlib
import math

from .domain import DomainConfig
from .errors import ConfigurationError
from .fields import PhysParams
from .nonlinearity import CubicForce, NonlinearitySpec
from .stepper import SchemeConfig

EXPERIMENTS = ("simulate", "decay", "difference", "probe", "stationary",
               "verify")
INITIAL_KINDS = ("bump", "kick", "spot", "mixed")
# most steps a run may take (t_max/dt): the per-step series of simulate then
# hold 7 numbers per step, 560 MB
MAX_STEPS = 10**7

# key -> (default string, converter). "auto" survives as None for keys with
# derived defaults (dt, cutoff width, multiplier switch).


def _float(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("not a finite number")
    return v


def _int(s):
    v = _float(s)
    if v != int(v):
        raise ValueError("not an integer")
    return int(v)


def _auto_float(s):
    return None if s == "auto" else _float(s)


def _choice(options):
    def conv(s):
        if s not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return s
    return conv


def _tristate(s):
    if s == "auto":
        return None
    if s in ("on", "true", "1", "yes"):
        return True
    if s in ("off", "false", "0", "no"):
        return False
    raise ValueError("expected on/off/auto")


def _float_list(s):
    return tuple(_float(v) for v in s.split(",") if v.strip() != "")


SCHEMA = {
    "domain.n_cells": ("32", _int),
    "domain.inner_lo": ("0.25", _float),
    "domain.inner_hi": ("0.75", _float),
    "domain.x0": ("0.5,0.5", _float_list),
    "params.rho0": ("1.0", _float),
    "params.rho1": ("1.0", _float),
    "params.rho2": ("1.0", _float),
    "params.beta0": ("1.0", _float),
    "params.beta1": ("1.0", _float),
    "params.beta2": ("1.0", _float),
    "params.mu": ("1.0", _float),
    "params.lam": ("1.0", _float),
    "nonlinearity.variant": ("linear", _choice(("linear", "berger", "scalar"))),
    "nonlinearity.tension": ("0.0", _float),
    "nonlinearity.stretch": ("1.0", _float),
    "nonlinearity.f1_kappa": ("0.0", _float),
    "nonlinearity.f1_c": ("0.0", _float),
    "nonlinearity.f2_kappa": ("0.0", _float),
    "nonlinearity.f2_c": ("0.0", _float),
    "scheme.dt": ("auto", _auto_float),
    "scheme.tol_inner": ("1e-12", _float),
    "scheme.tol_picard": ("1e-11", _float),
    "scheme.max_picard": ("50", _int),
    "run.experiment": ("simulate", _choice(EXPERIMENTS)),
    "run.out_dir": ("out", str),
    "run.stride": ("10", _int),
    "run.t_max": ("4.0", _float),
    "run.seed": ("0", _int),
    "run.initial": ("bump", _choice(INITIAL_KINDS)),
    "run.amplitude": ("1.0", _float),
    "diag.eta": ("0.01", _float),
    "diag.calib_c": ("1.0", _float),
    "diag.cutoff_delta": ("auto", _auto_float),
    "diag.multipliers": ("auto", _tristate),
    "probe.parameter": ("mu", _choice(("mu", "lam", "rho2"))),
    "probe.values": ("1.0,0.5,0.1,0.0", _float_list),
    "difference.perturbation": ("0.001", _float),
}

# historical spellings of the membrane coefficients
ALIASES = {
    "params.gamma": "nonlinearity.stretch",
    "params.Gamma": "nonlinearity.tension",
}


class RunConfig:
    """Fully validated run description built from the flat key table.

    A domain, params or scheme key section.field of SCHEMA is the field of
    DomainConfig, PhysParams or SchemeConfig, so the table is the only list
    of their parts."""

    def __init__(self, typed, defaulted):
        # canonical string table
        self.values = {k: _canonical_value(v) for k, v in typed.items()}
        self.defaulted = defaulted    # keys the user did not set
        groups = {}
        for key, v in typed.items():
            section, name = key.split(".")
            groups.setdefault(section, {})[name] = v
        self.domain_config = DomainConfig(**groups["domain"])
        self.params = PhysParams(**groups["params"])
        self.scheme = SchemeConfig(**groups["scheme"])
        nl = groups["nonlinearity"]
        if nl["variant"] == "linear":
            self.spec = NonlinearitySpec.linear()
        elif nl["variant"] == "berger":
            self.spec = NonlinearitySpec.berger(nl["tension"], nl["stretch"])
        else:
            self.spec = NonlinearitySpec.scalar(
                f1=CubicForce(nl["f1_kappa"], nl["f1_c"]),
                f2=CubicForce(nl["f2_kappa"], nl["f2_c"]),
            )
        self.experiment = typed["run.experiment"]
        self.out_dir = typed["run.out_dir"]
        self.stride = typed["run.stride"]
        self.t_max = typed["run.t_max"]
        self.seed = typed["run.seed"]
        self.initial = typed["run.initial"]
        self.amplitude = typed["run.amplitude"]
        self.eta = typed["diag.eta"]
        self.calib_c = typed["diag.calib_c"]
        self.cutoff_delta = typed["diag.cutoff_delta"]
        self.multipliers = typed["diag.multipliers"]
        self.probe_parameter = typed["probe.parameter"]
        self.probe_values = typed["probe.values"]
        self.perturbation = typed["difference.perturbation"]

    def multipliers_enabled(self):
        """Auto mode turns the multiplier functionals on exactly when the
        J3 weight mu/2 - eta*C is positive."""
        if self.multipliers is not None:
            return self.multipliers
        return 0.5 * self.params.mu - self.eta * self.calib_c > 0.0

    def validate(self):
        errs = []
        errs.extend(self.domain_config.validate())
        errs.extend(self.params.validate())
        errs.extend(self.spec.validate())
        errs.extend(self.scheme.validate())
        if len(self.domain_config.x0) != 2:
            errs.append("domain.x0 must be two comma-separated floats")
        if self.stride < 1:
            errs.append("run.stride must be >= 1")
        # an invalid dt or n_cells is reported above
        dt = self.scheme.resolve_dt(1.0 / max(self.domain_config.n_cells, 1))
        if self.t_max <= 0:
            errs.append("run.t_max must be positive")
        elif self.t_max < dt:
            # a run takes whole steps: with t_max below one it would take
            # none, or one that ends past t_max
            errs.append(f"run.t_max = {self.t_max:g} is less than one time "
                        f"step, scheme.dt = {dt:g}")
        elif not self.t_max / dt <= MAX_STEPS:
            errs.append(f"run.t_max/scheme.dt = {self.t_max / dt:.3g} steps; "
                        f"at most {MAX_STEPS:g} are allowed")
        if self.seed < 0:
            errs.append("run.seed must be >= 0")
        if self.eta <= 0:
            errs.append("diag.eta must be positive")
        if self.multipliers is True:
            if 0.5 * self.params.mu - self.eta * self.calib_c <= 0.0:
                errs.append(
                    "diag.multipliers=on requires mu/2 - eta*calib_c > 0; "
                    "decrease diag.eta or diag.calib_c"
                )
        if not self.probe_values:
            errs.append("probe.values must not be empty")
        if self.experiment == "probe":
            base = set(self.params.validate())
            for v in self.probe_values:
                probed = dataclasses.replace(
                    self.params, **{self.probe_parameter: v})
                errs.extend(f"probe.values={v:g}: {e}"
                            for e in probed.validate() if e not in base)
        if self.perturbation == 0.0:
            errs.append("difference.perturbation must be nonzero")
        return errs

    def serialize(self):
        """Canonical text: every key, sorted, one per line."""
        lines = [f"{k}={self.values[k]}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def hash(self):
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]

    def n_steps(self, dt):
        return int(round(self.t_max / dt))


def _canonical_value(val):
    """The canonical string of a converted value; converting it gives the
    value back."""
    if isinstance(val, bool):
        return "on" if val else "off"
    if val is None:
        return "auto"
    if isinstance(val, float):
        return format(val, ".17g")
    if isinstance(val, tuple):
        return ",".join(format(v, ".17g") for v in val)
    return str(val)


def parse_config(text, overrides=()):
    """Parse config text plus override pairs into a validated RunConfig.

    Collects every violation (unknown keys, malformed values, invariant
    failures) into a single ConfigurationError.
    """
    raw = {}
    violations = []
    lines = list(text.splitlines())
    lines.extend(overrides)
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            violations.append(f"line {lineno}: expected key=value, got {body!r}")
            continue
        key, val = body.split("=", 1)
        key, val = key.strip(), val.strip()
        key = ALIASES.get(key, key)
        if key not in SCHEMA:
            violations.append(f"unknown key {key!r}")
            continue
        raw[key] = val

    typed = {}
    defaulted = []
    for key, (default, conv) in SCHEMA.items():
        if key not in raw:
            typed[key] = conv(default)
            defaulted.append(key)
            continue
        try:
            typed[key] = conv(raw[key])
        except ValueError as exc:
            violations.append(f"{key}: cannot parse {raw[key]!r} ({exc})")

    cfg = None
    if not violations:
        cfg = RunConfig(typed, defaulted)
        violations.extend(cfg.validate())
    if violations:
        raise ConfigurationError("\n".join(violations))
    return cfg
