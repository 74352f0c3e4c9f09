"""Command line interface.

Usage: platetx run <config-path> [--override key=value]...

Exit codes:
  0  success
  1  internal error
  2  config file unreadable          (category config-io)
  3  config invalid                  (category config-invalid)
  4  solver or time-step failure     (category solver-error)
  5  built-in verification failed    (category verify-failed)

On failure the first stderr line is machine parsable:
  error-category: <category>
"""

import argparse
import sys

import numpy as np

from .config import parse_config
from .errors import ConfigurationError, SolverError, StepError
from .experiments import run_experiment


def _fail(category, message, code):
    print(f"error-category: {category}", file=sys.stderr)
    print(message, file=sys.stderr)
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="platetx",
        description="Transmission-plate simulator and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the experiment named in the config")
    run.add_argument("config", help="path to a flat key=value config file")
    run.add_argument("--override", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override one config key (repeatable)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        with open(args.config, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        return _fail("config-io", f"cannot read {args.config}: {exc}", 2)

    try:
        # floating-point overflow and invalid values are caught by the
        # solvers' finite checks; NumPy's own warnings would print ahead of
        # the error-category line
        with np.errstate(all="ignore"):
            cfg = parse_config(text, overrides=args.override)
            result = run_experiment(cfg)
    except ConfigurationError as exc:
        return _fail("config-invalid", str(exc), 3)
    except (SolverError, StepError) as exc:
        return _fail("solver-error", str(exc), 4)
    except Exception as exc:  # any other failure keeps the exit contract
        return _fail("internal", f"{type(exc).__name__}: {exc}", 1)

    summary = result["summary"]
    for k, v in summary.items():
        print(f"{k}={v}")
    for path in result.get("paths", ()):
        print(f"wrote {path}")
    if cfg.experiment == "verify" and not summary["passed"]:
        return _fail("verify-failed", "one or more invariant checks failed", 5)
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
