"""3-2-1 Euler-angle attitude kinematics.

Provides the Euler-rate transformation matrix ``T`` mapping body angular
rates to Euler-angle rates, the body-from-inertial direction cosine matrix
of the 3-2-1 (yaw-pitch-roll) sequence, and angle-wrapping utilities.  The
rate transformation is singular at pitch +/- 90 degrees ("gimbal lock"); all
operations that evaluate it fail loudly inside a guard band of
``EPS_GIMBAL`` radians around the singularity instead of returning huge
``tan``/``sec`` values.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import GimbalLockError

__all__ = [
    "EPS_GIMBAL",
    "EulerAngles",
    "angle_error",
    "attitude_matrices",
    "dcm_body_from_inertial",
    "euler_rates",
    "kinematic_matrix",
    "kinematic_matrix_inverse",
    "wrap_angle",
]

#: Half-width (rad) of the exclusion band around theta = +/- pi/2.
EPS_GIMBAL = 1e-6


def wrap_angle(angle: ArrayLike) -> NDArray[np.float64] | float:
    """Wrap angle(s) to the interval (-pi, pi].

    Parameters
    ----------
    angle : array_like
        Angle or array of angles in radians.

    Returns
    -------
    numpy.ndarray or float
        Wrapped angle(s), same shape as the input.
    """
    wrapped = np.pi - (np.pi - np.asarray(angle, dtype=np.float64)) % (2.0 * np.pi)
    if np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class EulerAngles:
    """Attitude as 3-2-1 Euler angles (roll, pitch, yaw), in radians.

    Attributes
    ----------
    phi : float
        Roll angle, wrapped to (-pi, pi].
    theta : float
        Pitch angle, strictly inside (-pi/2, pi/2).
    psi : float
        Yaw angle, wrapped to (-pi, pi].
    """

    phi: float
    theta: float
    psi: float

    def __post_init__(self) -> None:
        for name in ("phi", "theta", "psi"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("phi", "psi"):
            value = getattr(self, name)
            if not (-np.pi < value <= np.pi):
                raise ValueError(
                    f"{name} must lie in (-pi, pi], got {value!r}; use wrap_angle"
                )
        if not (-np.pi / 2.0 < self.theta < np.pi / 2.0):
            raise ValueError(
                f"theta must lie strictly inside (-pi/2, pi/2), got {self.theta!r}"
            )

    @classmethod
    def zero(cls) -> "EulerAngles":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, values: ArrayLike) -> "EulerAngles":
        arr = np.asarray(values, dtype=np.float64).reshape(3)
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))

    def as_array(self) -> NDArray[np.float64]:
        return np.array([self.phi, self.theta, self.psi])


def _check_gimbal(x: NDArray[np.float64]) -> None:
    """Raise GimbalLockError if the pitch ``x[..., 1]`` is in the guard band.

    ``x`` is an attitude (3,) or a state (6,), or an (n, 3) / (n, 6) stack,
    which is rejected when any of its rows is in the band.
    """
    if x.ndim > 1:
        theta = x[:, 1]
        bad = np.abs(wrap_angle(theta)) >= np.pi / 2.0 - EPS_GIMBAL
        if bad.any():
            raise GimbalLockError(
                f"pitch {theta[bad]!r} rad of rows {np.flatnonzero(bad).tolist()} is "
                f"within {EPS_GIMBAL} rad of the +/- pi/2 singularity"
            )
        return
    theta = float(x[1])
    if abs(math.pi - (math.pi - theta) % (2.0 * math.pi)) >= math.pi / 2.0 - EPS_GIMBAL:
        raise GimbalLockError(
            f"pitch {theta!r} rad is within {EPS_GIMBAL} rad of the +/- pi/2 singularity"
        )


def _as_angles(e: "EulerAngles | ArrayLike") -> NDArray[np.float64]:
    return e.as_array() if isinstance(e, EulerAngles) else np.asarray(e, dtype=np.float64)


def _sin_cos(e: "EulerAngles | ArrayLike") -> tuple:
    """Sines and cosines of (phi, theta, psi), unpackable in that order.

    A single attitude yields Python floats, which keep the per-step scalar
    arithmetic cheap; an (n, 3) stack yields one length-n array per angle,
    so the same expressions evaluate the whole stack.
    """
    a = _as_angles(e)
    if a.ndim == 1:
        return np.sin(a).tolist(), np.cos(a).tolist()
    return np.sin(a).T, np.cos(a).T


def _matrix(rows: list, like: "list | NDArray[np.float64]") -> NDArray[np.float64]:
    """A matrix from nested entries, or an (n, ...) stack of them.

    ``like`` is a sine/cosine from :func:`_sin_cos`: a list means the entries
    are Python floats and one matrix is built; an array means the entries
    are length-n arrays (or constants) that fill an (n, ...) stack.
    """
    if isinstance(like, list):
        return np.array(rows)
    shape, entries = [len(rows)], rows
    while isinstance(entries[0], list):
        shape.append(len(entries[0]))
        entries = [v for row in entries for v in row]
    m = np.empty((len(like[0]), len(entries)))
    for j, v in enumerate(entries):
        m[:, j] = v
    return m.reshape(-1, *shape)


def _rate_matrix(s: ArrayLike, c: ArrayLike) -> NDArray[np.float64]:
    (sp, st, _), (cp, ct, _) = s, c
    tt = st / ct
    sec = 1.0 / ct
    return _matrix(
        [
            [1.0, tt * sp, tt * cp],
            [0.0, cp, -sp],
            [0.0, sec * sp, sec * cp],
        ],
        s,
    )


def _dcm(s: ArrayLike, c: ArrayLike) -> NDArray[np.float64]:
    (sp, st, ss), (cp, ct, cs) = s, c
    return _matrix(
        [
            [ct * cs, ct * ss, -st],
            [sp * st * cs - cp * ss, sp * st * ss + cp * cs, sp * ct],
            [cp * st * cs + sp * ss, cp * st * ss - sp * cs, cp * ct],
        ],
        s,
    )


def _matvec(A: NDArray[np.float64], v: NDArray[np.float64]) -> NDArray[np.float64]:
    """``A @ v`` for one vector, or row by row for an (n, k) stack of vectors.

    A is one matrix or an (n, m, k) stack.  Each row goes through the same
    matrix-vector product as a single vector, so a stacked result equals the
    row-wise results bit for bit.
    """
    return A @ v if v.ndim == 1 else (A @ v[..., None])[..., 0]


def kinematic_matrix(e: "EulerAngles | ArrayLike") -> NDArray[np.float64]:
    """Rate transformation matrix ``T`` with Euler rates = T @ body rates.

    Parameters
    ----------
    e : EulerAngles or array_like, shape (3,) or (n, 3)
        Current attitude, or a stack of attitudes.

    Returns
    -------
    numpy.ndarray, shape (3, 3) or (n, 3, 3)

    Raises
    ------
    GimbalLockError
        If the pitch (of any row) is within ``EPS_GIMBAL`` of +/- pi/2.
    """
    a = _as_angles(e)
    _check_gimbal(a)
    return _rate_matrix(*_sin_cos(a))


def kinematic_matrix_inverse(e: "EulerAngles | ArrayLike") -> NDArray[np.float64]:
    """Inverse of :func:`kinematic_matrix`, mapping Euler rates to body rates.

    Unlike ``T`` itself this map is defined for all attitudes; no gimbal
    guard is needed.  An (n, 3) angle array gives an (n, 3, 3) stack.
    """
    s, c = _sin_cos(e)
    (sp, st, _), (cp, ct, _) = s, c
    return _matrix(
        [
            [1.0, 0.0, -st],
            [0.0, cp, sp * ct],
            [0.0, -sp, cp * ct],
        ],
        s,
    )


def dcm_body_from_inertial(e: "EulerAngles | ArrayLike") -> NDArray[np.float64]:
    """Direction cosine matrix of the 3-2-1 sequence, R = R1(phi) R2(theta) R3(psi).

    Maps inertial-frame vectors into the body frame: ``v_body = R @ v_inertial``.

    Parameters
    ----------
    e : EulerAngles or array_like, shape (3,) or (n, 3)
        Attitude of the body frame, or a series of attitudes.

    Returns
    -------
    numpy.ndarray, shape (3, 3) or (n, 3, 3)
        Orthonormal rotation matrix (or stack) with determinant +1.
    """
    return _dcm(*_sin_cos(e))


def attitude_matrices(
    e: "EulerAngles | ArrayLike",
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """:func:`kinematic_matrix` and :func:`dcm_body_from_inertial` of one
    attitude, or of an (n, 3) stack, from a single sine/cosine evaluation.

    Raises
    ------
    GimbalLockError
        If the pitch (of any row) is within ``EPS_GIMBAL`` of +/- pi/2.
    """
    a = _as_angles(e)
    _check_gimbal(a)
    s, c = _sin_cos(a)
    return _rate_matrix(s, c), _dcm(s, c)


def euler_rates(e: EulerAngles, omega_body: ArrayLike) -> NDArray[np.float64]:
    """Euler-angle rates for the given body angular velocity.

    Raises
    ------
    GimbalLockError
        Propagated from :func:`kinematic_matrix`.
    """
    omega = np.asarray(omega_body, dtype=np.float64).reshape(3)
    return kinematic_matrix(e) @ omega


def angle_error(a: EulerAngles, b: EulerAngles) -> NDArray[np.float64]:
    """Component-wise wrapped difference a - b, each component in (-pi, pi]."""
    return wrap_angle(a.as_array() - b.as_array())
