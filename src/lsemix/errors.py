"""Exception hierarchy shared across the package.

Every error raised by lsemix derives from :class:`LsemixError`, so callers can
catch the package's failures with a single handler while still distinguishing
the semantic categories below.
"""

from __future__ import annotations

__all__ = [
    "LsemixError",
    "ParameterError",
    "DomainError",
    "NonIntegrableError",
    "UnsupportedGeneratorError",
    "SingularTransformError",
    "IncomparableFamiliesError",
    "UsageError",
    "ScenarioError",
]


class LsemixError(Exception):
    """Base class for all package errors."""


class ParameterError(LsemixError, ValueError):
    """A distribution, generator, or mixing parameter is outside its domain."""


class DomainError(LsemixError, ValueError):
    """A function argument lies outside the mathematical domain (e.g. u < 0)."""


class NonIntegrableError(LsemixError, ValueError):
    """A required integral or expectation does not exist / is not finite."""


class UnsupportedGeneratorError(LsemixError, ValueError):
    """The requested operation is only available for specific generator families."""


class SingularTransformError(LsemixError, ValueError):
    """An affine transform matrix is rank deficient."""


class IncomparableFamiliesError(LsemixError, ValueError):
    """Order comparison requested between distributions with different
    generator, alpha/beta map, or mixing law."""


class UsageError(LsemixError, ValueError):
    """Arguments are structurally invalid (dimension mismatch, zero direction,
    negative weights, and similar caller mistakes)."""


class ScenarioError(LsemixError, ValueError):
    """A scenario configuration document failed validation."""
