"""Exception types shared across the package."""


class PlateError(Exception):
    """Base class for package errors."""


class ConfigurationError(PlateError):
    """Invalid domain, cutoff or run configuration."""


class UsageError(PlateError):
    """API misuse: region mismatch, wrong variant, bad stride."""


class SolverError(PlateError):
    """Iterative solver did not reach its tolerance.

    Carries the last iterate (best) and achieved residual so callers can
    inspect the failure. The last iterate is the best one in the energy
    norm only for an SPD operator; after a CG breakdown on an indefinite
    one its residual can exceed that of the start."""

    def __init__(self, message, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


class StepError(PlateError):
    """Time step failed (nonlinear iteration non-convergence or inner solver
    failure).

    Carries the solver work the failing step did before it failed, as a
    partial StepStats (sweeps, outer CG iterations, thermal solves)."""

    def __init__(self, message, time=None, residual=None, stats=None):
        super().__init__(message)
        self.time = time
        self.residual = residual
        self.stats = stats
