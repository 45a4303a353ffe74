"""Exception hierarchy for phase-space Gaussian state computations."""


class GaussCohError(Exception):
    """Base class for all library errors."""


class ShapeError(GaussCohError):
    """Array dimensions are inconsistent with an m-mode object."""


class NonFiniteError(GaussCohError):
    """An input array holds a NaN or an infinite entry."""


class NotSymmetricError(GaussCohError):
    """A matrix required to be symmetric deviates beyond tolerance."""


class UncertaintyViolationError(GaussCohError):
    """Covariance matrix violates the uncertainty relation.

    ``value`` carries the lowest eigenvalue of a V that is not positive
    definite, or else the lowest symplectic eigenvalue.
    """

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class NotCompletelyPositiveError(GaussCohError):
    """Channel matrices fail the complete-positivity condition."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NotFaithfulError(GaussCohError):
    """A reference (or its image) has a mode collapsed to the vacuum."""


class InvariantViolationError(GaussCohError):
    """Internal consistency check failed on a supposedly valid object."""


class NumericError(GaussCohError):
    """A numerical routine failed to produce a trustworthy result."""
