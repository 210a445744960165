"""Exception taxonomy shared across the package."""

from __future__ import annotations


class ShrinkerLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ShrinkerLabError, ValueError):
    """A point, variable or form lies outside the chart a model supports."""


class RegularityError(ShrinkerLabError, ValueError):
    """A level radius violates the regularity margin r^2 > 4*sup_S."""


class CompletenessError(ShrinkerLabError, ValueError):
    """A spectral catalog was asked about eigenvalues beyond its horizon."""


class NumericError(ShrinkerLabError, RuntimeError):
    """A numerical kernel (eigensolver, linear solve) failed; carries diagnostics."""


class ConfigError(ShrinkerLabError, ValueError):
    """Malformed configuration input; message locates the offending entry."""

