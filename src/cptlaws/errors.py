"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CptLawsError(Exception):
    """Base class for every package-specific error."""


class ParseError(CptLawsError):
    """A run-log line could not be decoded."""


class ValidationError(CptLawsError, ValueError):
    """Input data violates a structural invariant."""


class DomainError(CptLawsError, ValueError):
    """A numeric argument lies outside the operation's domain."""


class UnreachableLossError(DomainError):
    """Requested loss is at or below the law's floor for the given inputs."""


class NoCrossoverError(DomainError):
    """Frontiers with equal exponents but different coefficients never meet."""


class AllocationRegimeError(DomainError):
    """Law parameters admit no interior compute-optimal allocation."""


class InterpolationRangeError(DomainError):
    """Query lies outside the interpolated curve's range."""


class FitError(CptLawsError):
    """Base class for fitting failures."""


class UnidentifiableDataError(FitError):
    """Data lacks the variation needed to pin down the law parameters."""


class FitFailureError(FitError):
    """No optimizer start converged."""
