"""Exception hierarchy shared across the package."""


class NoisyflowError(Exception):
    """Base class for all package errors."""


class DomainError(NoisyflowError):
    """Invalid domain geometry (nonpositive lengths, bad bounds)."""


class ResolutionError(NoisyflowError, ValueError):
    """Grid resolution below the minimum or above the cap, or too coarse for the circle oracle.

    A ValueError for SweepConfig.n.
    """


class FieldEvaluationError(NoisyflowError):
    """A vector field produced a non-finite sample."""


class PositivityError(NoisyflowError):
    """A quantity required to be strictly positive is not."""


class CatalogError(NoisyflowError, ValueError):
    """Unknown builtin system name or incompatible grid kind; a ValueError for SweepConfig.system."""


class AssemblyError(NoisyflowError):
    """Operator assembly failed (non-SPD diffusion, non-finite Peclet)."""


class SolveError(NoisyflowError):
    """Linear solve or time integration failed."""


class BoundaryError(NoisyflowError):
    """Drift incompatible with the reflecting boundary (B.n != 0)."""


class DegenerateError(NoisyflowError):
    """The 1D periodic oracle system is singular (zero net drift)."""


class FitError(NoisyflowError):
    """Decay-rate fit impossible (too few samples or chi^2 underflow)."""


class ConfigError(NoisyflowError):
    """Configuration file parse or validation failure.

    Carries a list of (line, key, message) tuples in ``locations`` so the
    CLI can print every problem at once.
    """

    def __init__(self, message, locations=None):
        super().__init__(message)
        self.locations = list(locations or [])
