"""Nonlinear process and measurement models of the attitude/bias state.

State ``x = [Phi; b]`` stacks the 3-2-1 Euler angles and the gyro bias.  The
noise-free process model is ``Phi_dot = T(Phi) (omega_m - b)``, ``b_dot = 0``;
the measurement model maps gravity and the Earth magnetic vector into the
body frame.  Integration is fixed-step classical RK4 with the gyro sample
held constant across the step.

The array-level functions (:func:`process_model`, :func:`rk4_step`,
:func:`checked_state`) take a plain ``(6,)`` state array or a ``(6, N)``
stack of states that advance together, component-major as in
:mod:`~eh2marg.kinematics`: ``x[:3]`` is the attitude of one state or the
three length-N attitude rows of a stack.  Since b_dot = 0, a step may hold
the body rates u = omega - b fixed and integrate the attitude alone: the
functions also take a ``(3,)`` attitude or a ``(3, N)`` stack of them,
which carry no bias.  The process model applies T(Phi)
to vectors without building it as a matrix.  h(Phi) has no function of
its own: it is the world's constant table
(:meth:`~eh2marg.sensors.WorldConstants.rotation_table`) applied to
trigonometric products of Phi, which
:func:`~eh2marg.linearization.jacobians_measurement` evaluates with Cy and
the extended-H2 filter with its gain folded in.  :func:`rk4_step` takes
its first stage from a caller that already holds it, and ends in
:func:`checked_state`, which rejects a non-finite result before it wraps
the attitude and checks the pitch.  Both filters are built on these
functions.  A state that checked_state has passed holds everything
:class:`EulerState` checks, so the public filter steps wrap it in one with
``EulerState._from_checked``, which checks nothing again; every other
construction runs the full checks.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import NonFiniteState
from .kinematics import (
    EulerAngles,
    _Container,
    _check_gimbal,
    _euler_rates,
    _frozen,
    _sin_cos,
    _wrapped,
)
from .sensors import _finite, _floats3

__all__ = [
    "EulerState",
    "checked_state",
    "process_model",
    "rk4_step",
]

@dataclass(frozen=True)
class EulerState(_Container):
    """Filter state: attitude plus gyro bias.

    Every public construction checks the state: the attitude through
    :class:`~eh2marg.kinematics.EulerAngles`, and a finite (3,) bias.  It
    keeps [phi, theta, psi, b] as one read-only (6,) vector, of which
    ``bias`` is a view; the public filter steps step from it, and build
    the new state with :meth:`_from_checked` from a vector that
    :func:`checked_state` has just passed, which is kept as it is.
    """

    attitude: EulerAngles = field(default_factory=EulerAngles.zero)
    bias: NDArray[np.float64] = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        a = self.attitude
        x = _frozen([a.phi, a.theta, a.psi, *_floats3(self.bias, "bias")])
        self.__dict__.update(bias=x[3:], _vector=x)

    @classmethod
    def from_vector(cls, x: ArrayLike) -> "EulerState":
        arr = np.asarray(x, dtype=np.float64).reshape(6)
        phi, theta, psi, *_ = arr.tolist()
        return cls(attitude=EulerAngles(phi, theta, psi), bias=arr[3:])

    @classmethod
    def _from_checked(cls, x: NDArray[np.float64]) -> "EulerState":
        """The state :meth:`from_vector` builds from a (6,) float64 ``x``
        that :func:`checked_state` has just returned, without its checks:
        checked_state has found every entry finite, wrapped roll and yaw
        into (-pi, pi] and kept the pitch outside the gimbal band, which is
        all they test.  ``x`` is fresh, so it is marked read-only and kept
        as the state's vector, where from_vector keeps a copy."""
        x.flags.writeable = False
        phi, theta, psi = x[:3].tolist()
        # One __dict__ update costs less than object.__setattr__ per field.
        attitude = object.__new__(EulerAngles)
        attitude.__dict__.update(phi=phi, theta=theta, psi=psi)
        state = object.__new__(cls)
        state.__dict__.update(attitude=attitude, bias=x[3:], _vector=x)
        return state

    def as_vector(self) -> NDArray[np.float64]:
        """[phi, theta, psi, b], a new writable copy of the state's vector."""
        return self._vector.copy()


def process_model(x: NDArray[np.float64], omega: NDArray[np.float64]) -> NDArray[np.float64]:
    """f(x, omega) = [T(Phi)(omega - b); 0] for a state x = [Phi; b], (6,) or (6, N),
    with omega (3,) or (3, N).

    For an attitude x = Phi alone, (3,) or (3, N), omega is taken as the
    body rates, and f is the attitude rows T(Phi) omega.

    Raises
    ------
    GimbalLockError
        If the pitch (of any member) is in the guard band, where T is singular.
    """
    _check_gimbal(x)
    s, c = _sin_cos(x[:3])
    if len(x) == 3:
        return np.array(_euler_rates(s, c, omega))
    f = np.zeros(x.shape)
    f[:3] = _euler_rates(s, c, omega - x[3:])
    return f


def rk4_step(
    f: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    x: NDArray[np.float64],
    dt: float,
    k1: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """One classical RK4 step of x_dot = f(x); the attitude is re-wrapped after.

    ``x`` is one state or attitude, or a stack of them, that ``f`` maps
    member by member.  ``k1``, when given, is f(x), which a caller may
    already hold.

    Raises
    ------
    GimbalLockError
        If a stage (through ``f``) or the result (of any member) enters the
        gimbal guard band.
    NonFiniteState
        If the result is not finite.
    """
    if k1 is None:
        k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return checked_state(x + dt / 6.0 * (k1 + (k2 + k2) + (k3 + k3) + k4))


def checked_state(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Reject a non-finite new state, attitude or stack, then wrap its
    attitude in place, as :func:`~eh2marg.kinematics.wrap_angle` does, and
    check the pitch.

    Finiteness comes first, so a NaN or infinite entry is reported as it
    came out of the step, and no infinite angle is wrapped (that would warn
    and turn it into NaN).  A stack is reported one member per line.

    Raises
    ------
    NonFiniteState
        If any entry is NaN or infinite.
    GimbalLockError
        If the pitch (of any member) lies in the gimbal guard band.
    """
    if not _finite(x):
        raise NonFiniteState(f"state became non-finite: {x.T!r}")
    x[:3] = _wrapped(x[:3])
    _check_gimbal(x)
    return x
