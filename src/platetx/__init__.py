"""Energy-consistent finite-difference simulator for a thermoelastic plate
coupled to an isothermal plate across an interior interface."""

from .config import RunConfig, parse_config
from .diagnostics import (EnergyBreakdown, ObservableRow, dissipation,
                          energy, multiplier_functionals)
from .domain import (CutoffSet, Domain, DomainConfig, build_cutoffs,
                     build_domain, check_hypotheses)
from .errors import (ConfigurationError, PlateError, SolverError, StepError,
                     UsageError)
from .fields import PhysParams, State, make_state
from .nonlinearity import (CubicForce, NonlinearitySpec,
                           discrete_gradient_force, force, potential)
from .stepper import (PlateStepper, SchemeConfig, Trajectory, simulate,
                      stationary_solve)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "CubicForce", "CutoffSet", "Domain",
    "DomainConfig", "EnergyBreakdown", "NonlinearitySpec",
    "ObservableRow", "PhysParams", "PlateError", "PlateStepper", "RunConfig",
    "SchemeConfig", "SolverError", "State", "StepError", "Trajectory",
    "UsageError", "build_cutoffs", "build_domain", "check_hypotheses",
    "discrete_gradient_force", "dissipation", "energy", "force",
    "make_state", "multiplier_functionals", "parse_config", "potential",
    "simulate", "stationary_solve",
]
