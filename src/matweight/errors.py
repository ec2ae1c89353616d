"""Exception types shared across the package."""


class MatweightError(Exception):
    """Base class for all package-specific errors."""


class DegenerateMatrixError(MatweightError):
    """A matrix expected to be positive definite has an eigenvalue at or below tolerance."""


class SingularityError(MatweightError):
    """A weight was evaluated exactly at one of its singular points."""


class IntegrabilityError(MatweightError):
    """A cube integral diverged (or failed to stabilize) under refinement."""


class InvalidExponentError(MatweightError, ValueError):
    """An exponent parameter is outside the admissible range."""


class InvalidVariantError(MatweightError, ValueError):
    """A variant was requested outside its admissible parameter regime."""


class InvalidWeightError(MatweightError, ValueError):
    """A weight's parameters are outside its definition."""


class InvalidArgumentError(MatweightError, ValueError):
    """An argument does not fit its operation: an empty or mismatched box, window,
    grid or array shape, a non-positive dilation, a nonzero mean where zero is required."""


class OutOfDomainError(MatweightError):
    """No cube, or no dilation of one, fits inside the working domain."""


class ResolutionError(MatweightError):
    """A dyadic level is not resolvable on the grid at hand."""


class ScaleRangeError(MatweightError):
    """A filter-bank scale is outside the resolvable range."""


class CoverageError(MatweightError):
    """A reducing family or weight does not cover the requested cubes."""


class FitError(MatweightError):
    """An ellipsoid fit is ill-posed or unconverged; cloud is its index in a stack."""

    def __init__(self, message, cloud=None):
        super().__init__(message)
        self.cloud = cloud


class ConfigError(MatweightError, ValueError):
    """An experiment configuration failed validation."""
