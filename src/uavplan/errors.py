"""Exception types shared across the package.

CLI exit codes: NumericError maps to 3, every other UavplanError to 2.
"""


class UavplanError(Exception):
    """Base class for package errors."""


class ConfigurationError(UavplanError, ValueError):
    """Invalid configuration or arguments (bad sizes, missing artifacts)."""


class ConsistencyError(UavplanError, ValueError):
    """Cross-object mismatch, e.g. a tour referencing unknown hotspots."""


class DegenerateWordError(UavplanError, ValueError):
    """A word cannot be formed (fewer than two visited vertices)."""


class TrainingError(UavplanError, ValueError):
    """Empty or unusable training inputs."""


class NumericError(UavplanError, ArithmeticError):
    """Numerical failure (non-PSD covariance, persistent singularity)."""
