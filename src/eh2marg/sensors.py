"""Forward simulation of MARG sensors: gyro, accelerometer, magnetometer.

Measurements are truth plus zero-mean Gaussian noise; the gyro additionally
carries a bias that evolves as a random walk.  All randomness flows through
a caller-owned :class:`numpy.random.Generator` — the module never touches
global RNG state.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .kinematics import dcm_body_from_inertial

__all__ = ["ImuSample", "ImuStream", "NoiseParams", "WorldConstants", "simulate_imu_stream"]

#: Largest relative deviation of a sample interval from the first one that
#: still counts as evenly spaced (float rounding of ``arange(n) / rate``).
_SPACING_RTOL = 1e-6


def _vector3(values: ArrayLike, name: str) -> NDArray[np.float64]:
    arr = np.asarray(values, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr!r}")
    return arr


@dataclass(frozen=True)
class NoiseParams:
    """Per-axis sensor noise standard deviations.

    Defaults are MPU-9250-like values; override via configuration.
    """

    n_w: float = 0.005  # gyro white noise, rad/s
    n_b: float = 1e-4  # bias random walk, rad/s^2
    n_a: float = 0.02  # accelerometer noise, m/s^2
    n_m: float = 0.005  # magnetometer noise, normalized units

    def __post_init__(self) -> None:
        for name in ("n_w", "n_b", "n_a", "n_m"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class WorldConstants:
    """Inertial-frame reference vectors sensed by the accelerometer and magnetometer."""

    g_inertial: NDArray[np.float64] = field(
        default_factory=lambda: np.array([0.0, 0.0, 9.81])
    )
    h_inertial: NDArray[np.float64] = field(
        default_factory=lambda: np.array([0.48, 0.0, 0.58])
    )

    def __post_init__(self) -> None:
        g = _vector3(self.g_inertial, "g_inertial")
        h = _vector3(self.h_inertial, "h_inertial")
        object.__setattr__(self, "g_inertial", g)
        object.__setattr__(self, "h_inertial", h)
        if np.linalg.norm(g) == 0.0:
            raise ValueError("g_inertial must be nonzero")
        if np.linalg.norm(h) == 0.0:
            raise ValueError("h_inertial must be nonzero")
        cross = np.linalg.norm(np.cross(g, h))
        if cross <= 1e-10 * np.linalg.norm(g) * np.linalg.norm(h):
            raise ValueError("h_inertial must not be parallel to g_inertial")

    def reference_rows(self) -> NDArray[np.float64]:
        """g and h as the rows of a (2, 3) array, the form the measurement model takes."""
        return np.stack([self.g_inertial, self.h_inertial])


@dataclass(frozen=True)
class ImuSample:
    """One timestamped gyro/accel/mag measurement triple."""

    t: float
    omega_m: NDArray[np.float64]
    a_m: NDArray[np.float64]
    m_m: NDArray[np.float64]

    def __post_init__(self) -> None:
        t = float(self.t)
        if not np.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "omega_m", _vector3(self.omega_m, "omega_m"))
        object.__setattr__(self, "a_m", _vector3(self.a_m, "a_m"))
        object.__setattr__(self, "m_m", _vector3(self.m_m, "m_m"))

    def stacked_measurement(self) -> NDArray[np.float64]:
        """Accel and mag stacked into the 6-vector consumed by the filters."""
        return np.concatenate([self.a_m, self.m_m])


@dataclass(frozen=True)
class ImuStream:
    """A dense IMU sample stream as column arrays (one row per sample)."""

    t: NDArray[np.float64]
    omega_m: NDArray[np.float64]
    a_m: NDArray[np.float64]
    m_m: NDArray[np.float64]
    bias_true: NDArray[np.float64]

    def __len__(self) -> int:
        return self.t.shape[0]

    def sample(self, k: int) -> ImuSample:
        return ImuSample(
            t=float(self.t[k]),
            omega_m=self.omega_m[k],
            a_m=self.a_m[k],
            m_m=self.m_m[k],
        )


def simulate_imu_stream(
    t: NDArray[np.float64],
    angles: NDArray[np.float64],
    body_rates: NDArray[np.float64],
    w: WorldConstants,
    p: NoiseParams,
    rng: np.random.Generator,
) -> ImuStream:
    """Simulate a full sensor stream along a true trajectory.

    Noise is drawn in four contiguous blocks (gyro white, bias-walk
    increments, accel white, mag white) so streams are reproducible for a
    given generator state.  The gyro sample at index k carries the bias
    accumulated over the preceding k steps (zero at the first sample).

    Parameters
    ----------
    t : numpy.ndarray, shape (n,)
        Sample times, strictly increasing and evenly spaced.
    angles : numpy.ndarray, shape (n, 3)
        True Euler angles per sample.
    body_rates : numpy.ndarray, shape (n, 3)
        True body angular velocity per sample.
    w, p : WorldConstants, NoiseParams
    rng : numpy.random.Generator

    Raises
    ------
    ValueError
        If there are fewer than two samples, or ``t`` is not strictly
        increasing and evenly spaced (the bias walk scales with one dt).
    """
    t = np.asarray(t, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    body_rates = np.asarray(body_rates, dtype=np.float64)
    n = t.shape[0]
    if n < 2:
        raise ValueError("stream needs at least two samples")
    steps = np.diff(t)
    dt = float(steps[0])
    if not np.all(steps > 0.0):
        raise ValueError("t must be strictly increasing")
    if np.max(np.abs(steps - dt)) > _SPACING_RTOL * dt:
        raise ValueError("t must be evenly spaced")

    gyro_white = rng.standard_normal((n, 3))
    walk = rng.standard_normal((n, 3))
    accel_white = rng.standard_normal((n, 3))
    mag_white = rng.standard_normal((n, 3))

    bias = np.zeros((n, 3))
    bias[1:] = np.sqrt(dt) * p.n_b * np.cumsum(walk[:-1], axis=0)

    omega_m = body_rates + bias + p.n_w * gyro_white
    R = dcm_body_from_inertial(angles)
    a_m = R @ w.g_inertial + p.n_a * accel_white
    m_m = R @ w.h_inertial + p.n_m * mag_white
    return ImuStream(t=t, omega_m=omega_m, a_m=a_m, m_m=m_m, bias_true=bias)
