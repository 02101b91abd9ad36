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
its first stage from a caller that already holds it, runs its stage and
final sums with numpy's overflow and invalid-value warnings off, and ends
in :func:`checked_state`, which rejects a non-finite result, with one
``np.isfinite`` count over the array, before it wraps the attitude and
checks the pitch: a stack whose sums overflow raises NonFiniteState, not a
RuntimeWarning.  Both filters are built on these
functions.  One state's filter steps run them on the six Python floats of
the state instead: :func:`_rk4_floats` and :func:`_checked_floats` are
:func:`rk4_step` and :func:`checked_state` operation for operation, so bit
for bit, and :func:`_held_rates` is the process model at body rates held
over the step; only each stage's sines and cosines stay numpy calls.  A
state that checked_state has passed holds everything
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
    _check_pitch,
    _euler_rates,
    _frozen,
    _sin_cos,
    _wrapped,
    _wrapped_float,
)
from .sensors import _finite, _floats3

__all__ = [
    "EulerState",
    "checked_state",
    "process_model",
    "rk4_step",
]

@dataclass(frozen=True, eq=False)
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


# The decorator sets the error state per call: about 0.6 us against 1.4 us
# for a ``with np.errstate`` block (numpy 2.4, x86-64).
@np.errstate(over="ignore", invalid="ignore")
def rk4_step(
    f: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    x: NDArray[np.float64],
    dt: float,
    k1: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """One classical RK4 step of x_dot = f(x); the attitude is re-wrapped after.

    ``x`` is one state or attitude, or a stack of them, that ``f`` maps
    member by member.  ``k1``, when given, is f(x), which a caller may
    already hold.  The stages and the final sum run with numpy's overflow
    and invalid-value warnings off: a result they make infinite or NaN
    raises NonFiniteState from :func:`checked_state` instead.

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
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise NonFiniteState(f"state became non-finite: {x.T!r}")
    x[:3] = _wrapped(x[:3])
    _check_gimbal(x)
    return x


def _held_rates(u: list[float]) -> Callable[..., tuple]:
    """f(x) = [T(Phi) u; 0] on the six floats of one state, for body rates u
    (three floats) held over a step: :func:`process_model`'s attitude rows of
    Phi at u, bit for bit, and zero bias rates."""

    def f(p0: float, p1: float, p2: float, *bias: float) -> tuple:
        _check_pitch(p1)
        s, c = _sin_cos(np.array((p0, p1, p2)))
        r0, r1, r2 = _euler_rates(s, c, u)
        return r0, r1, r2, 0.0, 0.0, 0.0

    return f


def _rk4_floats(
    f: Callable[..., tuple], x: list[float], dt: float, k1: "list[float] | tuple"
) -> list[float]:
    """:func:`rk4_step` on the six Python floats of one state, given
    k1 = f(x), ending in :func:`_checked_floats`: the same stage sums,
    operation for operation, so the same bits.  ``f`` takes a stage's six
    floats as arguments and returns six; ``dt`` is a Python float.  The sums
    are written out: a comprehension per stage costs about twice as much
    at six entries (Python 3.11)."""
    half, sixth = 0.5 * dt, dt / 6.0
    x0, x1, x2, x3, x4, x5 = x
    a0, a1, a2, a3, a4, a5 = k1
    b0, b1, b2, b3, b4, b5 = f(
        x0 + half * a0, x1 + half * a1, x2 + half * a2,
        x3 + half * a3, x4 + half * a4, x5 + half * a5,
    )
    c0, c1, c2, c3, c4, c5 = f(
        x0 + half * b0, x1 + half * b1, x2 + half * b2,
        x3 + half * b3, x4 + half * b4, x5 + half * b5,
    )
    d0, d1, d2, d3, d4, d5 = f(
        x0 + dt * c0, x1 + dt * c1, x2 + dt * c2, x3 + dt * c3, x4 + dt * c4, x5 + dt * c5
    )
    return _checked_floats(
        [
            x0 + sixth * (a0 + (b0 + b0) + (c0 + c0) + d0),
            x1 + sixth * (a1 + (b1 + b1) + (c1 + c1) + d1),
            x2 + sixth * (a2 + (b2 + b2) + (c2 + c2) + d2),
            x3 + sixth * (a3 + (b3 + b3) + (c3 + c3) + d3),
            x4 + sixth * (a4 + (b4 + b4) + (c4 + c4) + d4),
            x5 + sixth * (a5 + (b5 + b5) + (c5 + c5) + d5),
        ]
    )


def _checked_floats(x: list[float]) -> list[float]:
    """:func:`checked_state` on the six Python floats of one state, bit for
    bit, with the same errors: ``x`` is wrapped in place and returned."""
    if not _finite(x):
        raise NonFiniteState(f"state became non-finite: {np.array(x)!r}")
    x[0], x[1], x[2] = _wrapped_float(x[0]), _wrapped_float(x[1]), _wrapped_float(x[2])
    _check_pitch(x[1])
    return x
