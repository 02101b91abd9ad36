"""Forward simulation of MARG sensors: gyro, accelerometer, magnetometer.

Measurements are truth plus zero-mean Gaussian noise; the gyro additionally
carries a bias that evolves as a random walk.  All randomness flows through
a caller-owned :class:`numpy.random.Generator` — the module never touches
global RNG state.  :meth:`ImuStream.sample` copies a row of the stream into
the read-only 9-vector an :class:`ImuSample` keeps, and checks it once,
without the sample's constructor.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import LengthMismatch
from .kinematics import _Container, _frozen, _rotate, _rotation_table, _sin_cos

__all__ = ["ImuSample", "ImuStream", "NoiseParams", "WorldConstants", "simulate_imu_stream"]

#: Largest relative deviation of a sample interval from the first one that
#: still counts as evenly spaced (float rounding of ``arange(n) / rate``).
_SPACING_RTOL = 1e-6


def _finite(values: "NDArray[np.float64] | list[float]") -> bool:
    """Whether every entry of an array, or of a list of floats, is finite,
    tested on Python floats: the filter steps check a few small arrays or
    the floats of one state per call, and np.all(np.isfinite(arr)) costs
    more there than the tests themselves."""
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    return all(map(math.isfinite, values))


def _floats3(values: ArrayLike, name: str) -> list[float]:
    """The entries of a finite 3-vector as Python floats."""
    arr = np.asarray(values, dtype=np.float64).reshape(3)
    floats = arr.tolist()
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{name} must be finite, got {arr!r}")
    return floats


@dataclass(frozen=True)
class NoiseParams(_Container):
    """Per-axis sensor noise levels, one per sensor.

    Defaults are MPU-9250-like values; override via configuration.  Each
    accel/mag channel is paired with its standard deviation here, once, in
    read-only arrays, for the design model's Dw and the EKF's update.  Both
    square every field, so each must be >= 0 and at most about 1.34e154.

    The three consumers read the fields in different units; nothing
    converts between them (ROADMAP item 2 proposes one convention):

    * :func:`simulate_imu_stream` draws ``n_w``, ``n_a`` and ``n_m`` as
      per-sample standard deviations at the IMU rate.  It draws ``n_b`` as a
      random-walk intensity: the bias moves by n_b * sqrt(dt) * N(0, 1) per
      step, so ``n_b`` is in rad/s/sqrt(s).
    * :func:`~eh2marg.linearization.nominal_model`, the gain design, reads
      every field as a white-noise intensity: each scales a unit-intensity
      channel of Bw or Dw.
    * The EKF reads ``n_w`` and ``n_b`` as intensities, through Qd =
      dt Bw Bw^T, and ``n_a`` and ``n_m`` as per-sample standard
      deviations, through R = diag(n_a^2, n_a^2, n_a^2, n_m^2, n_m^2, n_m^2).
    """

    n_w: float = 0.005  # gyro white noise; per sample: rad/s
    n_b: float = 1e-4  # gyro bias random walk; rad/s/sqrt(s)
    n_a: float = 0.02  # accelerometer white noise; per sample: m/s^2
    n_m: float = 0.005  # magnetometer white noise; per sample: normalized units

    def __post_init__(self) -> None:
        for name in ("n_w", "n_b", "n_a", "n_m"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not (value >= 0.0 and math.isfinite(value * value)):
                raise ValueError(f"{name} must be >= 0 with a finite square, got {value!r}")
        std = _frozen([self.n_a] * 3 + [self.n_m] * 3)
        r = _frozen(std**2)
        object.__setattr__(self, "_std", std)
        object.__setattr__(self, "_variances", (r, _frozen(np.diag(r))))

    def measurement_std(self) -> NDArray[np.float64]:
        """(n_a, n_a, n_a, n_m, n_m, n_m), read-only; the same array on every call."""
        return self._std

    def measurement_variances(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """r, the squares of :meth:`measurement_std`, and R = diag(r), read-only."""
        return self._variances


@dataclass(frozen=True, eq=False)
class WorldConstants(_Container):
    """Inertial-frame reference vectors sensed by the accelerometer and magnetometer.

    The vectors are copied on construction into the rows of one read-only
    (2, 3) array, of which ``g_inertial`` and ``h_inertial`` are views, and
    checked once.  The measurement model's rotation table for them is built
    here too: :meth:`rotation_table` returns it to the filter steps.  Two
    worlds are equal, and hash equal, when their vectors are: the hash reads
    the tuple of the six floats taken at construction, so -0.0 and 0.0,
    which compare equal, hash equal too.
    """

    g_inertial: NDArray[np.float64] = field(
        default_factory=lambda: np.array([0.0, 0.0, 9.81])
    )
    h_inertial: NDArray[np.float64] = field(
        default_factory=lambda: np.array([0.48, 0.0, 0.58])
    )

    def __post_init__(self) -> None:
        rows = _frozen(
            [_floats3(self.g_inertial, "g_inertial"), _floats3(self.h_inertial, "h_inertial")]
        )
        g, h = rows
        object.__setattr__(self, "g_inertial", g)
        object.__setattr__(self, "h_inertial", h)
        if not g.any():
            raise ValueError("g_inertial must be nonzero")
        if not h.any():
            raise ValueError("h_inertial must be nonzero")
        # Each row scaled by its largest |entry|: no norm under- or overflows.
        g1, h1 = rows / np.abs(rows).max(axis=1, keepdims=True)
        if np.linalg.norm(np.cross(g1, h1)) <= 1e-10 * np.linalg.norm(g1) * np.linalg.norm(h1):
            raise ValueError("h_inertial must not be parallel to g_inertial")
        object.__setattr__(self, "_table", _rotation_table(rows))
        # Over the floats, not the bytes: hash(-0.0) == hash(0.0).
        object.__setattr__(self, "_key", tuple(rows.ravel().tolist()))

    def __hash__(self) -> int:
        return hash(self._key)

    def rotation_table(self) -> NDArray[np.float64]:
        """The read-only (24, 27) table of
        :func:`~eh2marg.kinematics._rotation_table` for the rows [g; h]:
        h = [R g; R h] and its Jacobian from the trigonometric products of
        an attitude.  The same array on every call."""
        return self._table


@dataclass(frozen=True, eq=False)
class ImuSample(_Container):
    """One timestamped gyro/accel/mag measurement triple.

    The three vectors are copied on construction into one read-only
    9-vector [a_m; m_m; omega_m], of which they are views.  Its first six
    entries are the vector :meth:`stacked_measurement` returns, built once
    here rather than per filter step.
    """

    t: float
    omega_m: NDArray[np.float64]
    a_m: NDArray[np.float64]
    m_m: NDArray[np.float64]

    def __post_init__(self) -> None:
        t = float(self.t)
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
        omega_m = _floats3(self.omega_m, "omega_m")
        self._keep(t, np.array(_floats3(self.a_m, "a_m") + _floats3(self.m_m, "m_m") + omega_m))

    def _keep(self, t: float, row: NDArray[np.float64]) -> "ImuSample":
        """Keep a finite float ``t`` and a fresh 9-vector [a_m; m_m; omega_m] of finite floats."""
        row.flags.writeable = False
        self.__dict__.update(t=t, omega_m=row[6:], a_m=row[:3], m_m=row[3:6], _y=row[:6])
        return self

    def stacked_measurement(self) -> NDArray[np.float64]:
        """Accel and mag stacked into the read-only 6-vector consumed by the
        filters; the same array on every call."""
        return self._y


@dataclass(frozen=True, eq=False)
class ImuStream(_Container):
    """A dense IMU sample stream as column arrays (one row per sample).

    The shapes are checked once, here: ``t`` is (n,) with n >= 2 and the
    other four columns are (n, 3).  Finiteness is checked per sample, by
    :meth:`sample`.  Unlike the other containers it keeps its columns as
    given, not as read-only copies, to save memory.

    Raises
    ------
    LengthMismatch
        If a column has another shape.
    """

    t: NDArray[np.float64]
    omega_m: NDArray[np.float64]
    a_m: NDArray[np.float64]
    m_m: NDArray[np.float64]
    bias_true: NDArray[np.float64]

    def __post_init__(self) -> None:
        shapes = {f.name: np.shape(getattr(self, f.name)) for f in fields(self)}
        n = shapes["t"][0] if len(shapes["t"]) == 1 else 0
        if n < 2 or any(shape != (n, 3) for name, shape in shapes.items() if name != "t"):
            raise LengthMismatch(
                "ImuStream needs t of shape (n,) with n >= 2 and (n, 3) columns, got "
                + ", ".join(f"{name} {shape}" for name, shape in shapes.items())
            )

    def __len__(self) -> int:
        return self.t.shape[0]

    def sample(self, k: int) -> ImuSample:
        """Sample k, its row copied into the sample's 9-vector and checked
        once; a row that is not finite raises the constructor's ValueError."""
        t = float(self.t[k])
        values = np.concatenate((self.a_m[k], self.m_m[k], self.omega_m[k]), dtype=np.float64)
        if not (math.isfinite(t) and _finite(values)):
            return ImuSample(t, self.omega_m[k], self.a_m[k], self.m_m[k])
        return object.__new__(ImuSample)._keep(t, values)


def simulate_imu_stream(
    t: NDArray[np.float64],
    angles: NDArray[np.float64],
    body_rates: NDArray[np.float64],
    w: WorldConstants,
    p: NoiseParams,
    rng: "np.random.Generator",
) -> ImuStream:
    """Simulate a full sensor stream along a true trajectory.

    Noise is drawn in four contiguous blocks (gyro white, bias-walk
    increments, accel white, mag white) so streams are reproducible for a
    given generator state; each block is scaled in place and dropped once
    used.  The gyro sample at index k carries the bias
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
    LengthMismatch
        If ``angles`` or ``body_rates`` is not (n, 3).
    """
    t = np.asarray(t, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    body_rates = np.asarray(body_rates, dtype=np.float64)
    n = t.shape[0]
    if n < 2:
        raise ValueError("stream needs at least two samples")
    if angles.shape != (n, 3) or body_rates.shape != (n, 3):
        shapes = f"{angles.shape} and {body_rates.shape}"
        raise LengthMismatch(f"angles/body_rates must have shape ({n}, 3), got {shapes}")
    steps = np.diff(t)
    dt = float(steps[0])
    if not np.all(steps > 0.0):
        raise ValueError("t must be strictly increasing")
    if np.max(np.abs(steps - dt)) > _SPACING_RTOL * dt:
        raise ValueError("t must be evenly spaced")

    # Each block is drawn in that order, scaled in place (x * s is s * x
    # bit for bit), added in place and dropped, so at most one is alive.
    gyro_noise = rng.standard_normal((n, 3))
    gyro_noise *= p.n_w
    walk = rng.standard_normal((n, 3))
    bias = np.zeros((n, 3))
    bias[1:] = np.sqrt(dt) * p.n_b * np.cumsum(walk[:-1], axis=0)
    del walk
    omega_m = body_rates + bias
    omega_m += gyro_noise
    del gyro_noise

    s, c = _sin_cos(angles.T)
    a_m, m_m = (np.stack(_rotate(s, c, r.tolist()), axis=-1) for r in (w.g_inertial, w.h_inertial))
    for measured, std in ((a_m, p.n_a), (m_m, p.n_m)):
        noise = rng.standard_normal((n, 3))
        noise *= std
        measured += noise
        del noise
    return ImuStream(t=t, omega_m=omega_m, a_m=a_m, m_m=m_m, bias_true=bias)
