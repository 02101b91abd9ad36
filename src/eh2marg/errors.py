"""Exception types raised across the package."""


class Eh2MargError(Exception):
    """Base class for all errors raised by this package."""


class GimbalLockError(Eh2MargError):
    """Pitch angle entered the singular band around +/- pi/2."""


class NonFiniteState(Eh2MargError, ArithmeticError):
    """A filter or integration step produced a NaN or infinite state."""


class ConfigError(Eh2MargError):
    """Invalid scenario configuration or malformed config file."""


class SynthesisFailure(Eh2MargError):
    """Gain synthesis preconditions failed or the Riccati solve broke down."""


class UnstableClosedLoop(Eh2MargError):
    """A + L Cy is not Hurwitz; the error-system H2 norm is unbounded."""


class NonConvergence(Eh2MargError):
    """A matrix-equation solve did not meet its residual tolerance."""


class InnovationCovSingular(Eh2MargError):
    """EKF innovation covariance H P- H^T + R is numerically singular."""


class DegenerateSample(Eh2MargError):
    """IMU sample unusable for initialization (e.g. free-fall accelerometer)."""


class LengthMismatch(Eh2MargError):
    """Aligned time series have different lengths."""
