"""Nonlinear process and measurement models of the attitude/bias state.

State ``x = [Phi; b]`` stacks the 3-2-1 Euler angles and the gyro bias.  The
noise-free process model is ``Phi_dot = T(Phi) (omega_m - b)``, ``b_dot = 0``;
the measurement model maps gravity and the Earth magnetic vector into the
body frame.  Integration is fixed-step classical RK4 with the gyro sample
held constant across the step.

The array-level functions (:func:`process_model`, :func:`rk4_step`,
:func:`checked_state`) take a plain ``(6,)`` state array or an ``(N, 6)``
stack of states that advance together.  The process model applies T(Phi)
to vectors without building it as a matrix.  h(Phi) has no function of
its own: it is the world's constant table
(:meth:`~eh2marg.sensors.WorldConstants.rotation_table`) applied to
trigonometric products of Phi, which
:func:`~eh2marg.linearization.jacobians_measurement` evaluates with Cy and
the extended-H2 filter with its gain folded in.  :func:`rk4_step` takes
its first stage from a caller that already holds it, and ends in
:func:`checked_state`, which rejects a non-finite result before it wraps
the attitude and checks the pitch.  Both filters are built on these
functions.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import NonFiniteState
from .kinematics import (
    EulerAngles,
    _check_gimbal,
    _euler_rates,
    _sin_cos,
)
from .sensors import _finite, _vector3

__all__ = [
    "EulerState",
    "checked_state",
    "process_model",
    "rk4_step",
]

@dataclass(frozen=True)
class EulerState:
    """Filter state: attitude plus gyro bias.

    Every construction checks the state: the attitude through
    :class:`~eh2marg.kinematics.EulerAngles`, and a finite (3,) bias.  The
    public filter steps build one per step, so the checks run on Python
    floats rather than through one numpy call per value.
    """

    attitude: EulerAngles = field(default_factory=EulerAngles.zero)
    bias: NDArray[np.float64] = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        object.__setattr__(self, "bias", _vector3(self.bias, "bias"))

    @classmethod
    def from_vector(cls, x: ArrayLike) -> "EulerState":
        arr = np.asarray(x, dtype=np.float64).reshape(6)
        phi, theta, psi, *_ = arr.tolist()
        return cls(attitude=EulerAngles(phi, theta, psi), bias=arr[3:])

    def as_vector(self) -> NDArray[np.float64]:
        a = self.attitude
        return np.array([a.phi, a.theta, a.psi, *self.bias.tolist()])


def process_model(x: NDArray[np.float64], omega: NDArray[np.float64]) -> NDArray[np.float64]:
    """f(x, omega) = [T(Phi)(omega - b); 0] for a state x = [Phi; b], (6,) or (N, 6).

    Raises
    ------
    GimbalLockError
        If the pitch (of any row) is in the guard band, where T is singular.
    """
    _check_gimbal(x)
    s, c = _sin_cos(x[..., :3])
    rates = _euler_rates(s, c, omega - x[..., 3:])
    if x.ndim == 1:
        return np.array([*rates, 0.0, 0.0, 0.0])
    f = np.zeros(x.shape)
    f.T[0], f.T[1], f.T[2] = rates
    return f


def rk4_step(
    f: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    x: NDArray[np.float64],
    dt: float,
    k1: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """One classical RK4 step of x_dot = f(x); the attitude is re-wrapped after.

    ``x`` is one (6,) state or an (N, 6) stack that ``f`` maps row by row.
    ``k1``, when given, is f(x), which a caller may already hold.

    Raises
    ------
    GimbalLockError
        If a stage (through ``f``) or the result (of any row) enters the
        gimbal guard band.
    NonFiniteState
        If the result is not finite.
    """
    if k1 is None:
        k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return checked_state(x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def checked_state(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Reject a non-finite new state (or stack), then wrap its attitude in
    place, as :func:`~eh2marg.kinematics.wrap_angle` does, and check the pitch.

    Finiteness comes first, so a NaN or infinite entry is reported as it
    came out of the step, and no infinite angle is wrapped (that would warn
    and turn it into NaN).

    Raises
    ------
    NonFiniteState
        If any entry is NaN or infinite.
    GimbalLockError
        If the pitch (of any row) lies in the gimbal guard band.
    """
    if not _finite(x):
        raise NonFiniteState(f"state became non-finite: {x!r}")
    x[..., :3] = np.pi - (np.pi - x[..., :3]) % (2.0 * np.pi)
    _check_gimbal(x)
    return x
