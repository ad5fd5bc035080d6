"""Exception types shared across the package."""


class QuarticLabError(Exception):
    """Base class for package errors."""


class DomainError(QuarticLabError):
    """An argument lies outside the mathematical domain of an operation."""


class NotPositiveDefinite(QuarticLabError):
    """A covariance or factorization that must be positive (semi)definite is not.

    `pivot_index` is the 0-based row of the offending pivot when known.
    """

    def __init__(self, message, pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


class ConfigError(QuarticLabError):
    """An experiment or CLI configuration is malformed."""
