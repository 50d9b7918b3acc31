"""Exception types shared across the package, each with the CLI's exit code and label."""


class SplitGasError(Exception):
    """Base class for all package errors."""


class ConfigError(SplitGasError):
    """Invalid physical configuration or scenario file."""

    exit_code, label = 2, "configuration error"


class ConvergenceError(SplitGasError):
    """A numerical procedure did not converge to the requested tolerance."""

    exit_code, label = 3, "non-convergence"


class DetectionError(SplitGasError):
    """A feature-detection step (front, recurrence) found nothing."""

    exit_code, label = 4, "detection failure"
