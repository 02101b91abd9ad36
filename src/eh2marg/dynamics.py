"""Nonlinear process and measurement models of the attitude/bias state.

State ``x = [Phi; b]`` stacks the 3-2-1 Euler angles and the gyro bias.  The
noise-free process model is ``Phi_dot = T(Phi) (omega_m - b)``, ``b_dot = 0``;
the measurement model maps gravity and the Earth magnetic vector into the
body frame.  Integration is fixed-step classical RK4 with the gyro sample
held constant across the step.

The array-level functions (:func:`process_model`, :func:`measurement_model`,
:func:`rk4_step`, :func:`checked_state`) take a plain ``(6,)`` state array
or an ``(N, 6)`` stack of states that advance together; both filters and
dead reckoning (:func:`integrate_step`) are built on them.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import NonFiniteState
from .kinematics import (
    EulerAngles,
    _check_gimbal,
    _matvec,
    dcm_body_from_inertial,
    kinematic_matrix,
    wrap_angle,
)
from .sensors import WorldConstants, _vector3

__all__ = [
    "EulerState",
    "Measurement6",
    "checked_state",
    "integrate_step",
    "measurement",
    "measurement_model",
    "process_model",
    "rk4_step",
    "state_derivative",
]

@dataclass(frozen=True)
class EulerState:
    """Filter state: attitude plus gyro bias."""

    attitude: EulerAngles = field(default_factory=EulerAngles.zero)
    bias: NDArray[np.float64] = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        object.__setattr__(self, "bias", _vector3(self.bias, "bias"))

    @classmethod
    def from_vector(cls, x: ArrayLike) -> "EulerState":
        arr = np.asarray(x, dtype=np.float64).reshape(6)
        return cls(attitude=EulerAngles.from_array(arr[:3]), bias=arr[3:])

    def as_vector(self) -> NDArray[np.float64]:
        return np.concatenate([self.attitude.as_array(), self.bias])


@dataclass(frozen=True)
class Measurement6:
    """Stacked accelerometer/magnetometer output y in R^6."""

    accel: NDArray[np.float64]
    mag: NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "accel", _vector3(self.accel, "accel"))
        object.__setattr__(self, "mag", _vector3(self.mag, "mag"))

    def stacked(self) -> NDArray[np.float64]:
        return np.concatenate([self.accel, self.mag])


def process_model(x: NDArray[np.float64], omega: NDArray[np.float64]) -> NDArray[np.float64]:
    """f(x, omega) = [T(Phi)(omega - b); 0] for a state x = [Phi; b], (6,) or (N, 6).

    Raises
    ------
    GimbalLockError
        Propagated from the rate transformation.
    """
    f = np.zeros(x.shape)
    f[..., :3] = _matvec(kinematic_matrix(x[..., :3]), omega - x[..., 3:])
    return f


def measurement_model(
    angles: NDArray[np.float64], references: NDArray[np.float64]
) -> NDArray[np.float64]:
    """h(Phi) = [R g; R h] for the (2, 3) rows [g; h] of
    :meth:`~eh2marg.sensors.WorldConstants.reference_rows`; (3,) angles give
    a (6,) vector and (N, 3) angles an (N, 6) stack."""
    h = references @ dcm_body_from_inertial(angles).mT
    return h.reshape(h.shape[:-2] + (6,))


def rk4_step(
    f: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    x: NDArray[np.float64],
    dt: float,
) -> NDArray[np.float64]:
    """One classical RK4 step of x_dot = f(x); the attitude is re-wrapped after.

    ``x`` is one (6,) state or an (N, 6) stack that ``f`` maps row by row.

    Raises
    ------
    GimbalLockError
        If a stage (through ``f``) or the result (of any row) enters the
        gimbal guard band.
    NonFiniteState
        If the result is not finite.
    """
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return checked_state(x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def checked_state(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Wrap the attitude of a new state (or stack) in place and reject an unusable one.

    Raises
    ------
    GimbalLockError
        If the pitch (of any row) lies in the gimbal guard band.
    NonFiniteState
        If any entry is NaN or infinite.
    """
    x[..., :3] = wrap_angle(x[..., :3])
    _check_gimbal(x)
    if not np.isfinite(x).all():
        raise NonFiniteState(f"state became non-finite: {x!r}")
    return x


def state_derivative(x: EulerState, omega_m: ArrayLike) -> NDArray[np.float64]:
    """Noise-free state derivative, stacked as ``[Phi_dot; b_dot]`` with b_dot = 0.

    Raises
    ------
    GimbalLockError
        Propagated from the rate transformation.
    """
    return process_model(x.as_vector(), _vector3(omega_m, "omega_m"))


def measurement(x: EulerState, w: WorldConstants) -> Measurement6:
    """Noise-free measurement h(x): gravity and magnetic vector in the body frame.

    The gyro bias does not enter h.
    """
    y = measurement_model(x.attitude.as_array(), w.reference_rows())
    return Measurement6(accel=y[:3], mag=y[3:])


def integrate_step(x: EulerState, omega_m: ArrayLike, dt: float) -> EulerState:
    """One classical RK4 step of the process model; attitude re-wrapped after.

    Parameters
    ----------
    x : EulerState
        State at the start of the step.
    omega_m : array_like, shape (3,)
        Gyro sample, held constant over the step (zero-order hold).
    dt : float
        Step length in seconds, > 0.

    Raises
    ------
    GimbalLockError
        If any internal RK4 stage enters the gimbal guard band.
    NonFiniteState
        If the integrated state is not finite.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    omega = _vector3(omega_m, "omega_m")
    return EulerState.from_vector(rk4_step(lambda xs: process_model(xs, omega), x.as_vector(), dt))
