"""3-2-1 Euler-angle attitude kinematics.

Provides the rate transformation ``T(Phi)``, mapping body angular rates to
Euler-angle rates, and its inverse; the body-from-inertial direction cosine
matrix ``R(Phi)`` of the 3-2-1 (yaw-pitch-roll) sequence; and angle
wrapping.  The filter steps apply T and R to vectors through two private
maps on the sines and cosines from :func:`_sin_cos`, :func:`_euler_rates`
and :func:`_rotate`, and build no 3x3 matrix; only the Jacobians build T
(:func:`_rate_matrix`).  :func:`_rotate_rows` rotates several references
in one pass over interleaved rows, as a small stack costs per numpy call,
not per element.  T is singular at pitch +/- 90 degrees ("gimbal lock");
every caller that evaluates it first checks the pitch with
:func:`_check_gimbal`, which fails loudly inside a guard band of
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
    "dcm_body_from_inertial",
    "kinematic_matrix_inverse",
    "wrap_angle",
]

#: Half-width (rad) of the exclusion band around theta = +/- pi/2.
EPS_GIMBAL = 1e-6

#: Smallest |pitch| (rad) in the exclusion band.
_GIMBAL_BOUND = np.pi / 2.0 - EPS_GIMBAL
#: Margin (rad) far above the rounding error of wrap_angle near +/- pi/2.
_GIMBAL_SLACK = 1e-12
#: The condition a rejected pitch fails, as GimbalLockError states it.
_GIMBAL_BAND = f"does not wrap to inside (-pi/2 + {EPS_GIMBAL}, pi/2 - {EPS_GIMBAL}) rad"


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
        # Tests on Python floats with math: a filter step builds one of these.
        for name in ("phi", "theta", "psi"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("phi", "psi"):
            value = getattr(self, name)
            if not (-math.pi < value <= math.pi):
                raise ValueError(
                    f"{name} must lie in (-pi, pi], got {value!r}; use wrap_angle"
                )
        if not (-math.pi / 2.0 < self.theta < math.pi / 2.0):
            raise ValueError(
                f"theta must lie strictly inside (-pi/2, pi/2), got {self.theta!r}"
            )

    @classmethod
    def zero(cls) -> "EulerAngles":
        return cls(0.0, 0.0, 0.0)

    def as_array(self) -> NDArray[np.float64]:
        return np.array([self.phi, self.theta, self.psi])


def _check_gimbal(x: NDArray[np.float64]) -> None:
    """Raise GimbalLockError if the pitch ``x[..., 1]`` is in the guard band.

    ``x`` is an attitude (3,) or a state (6,), or an (n, 3) / (n, 6) stack,
    which is rejected when any of its rows is in the band.
    """
    if x.ndim > 1:
        theta = x[:, 1]
        # Wrapping moves a pitch inside (-pi, pi] by at most a few ulp, so a
        # stack whose every |pitch| is below the band by _GIMBAL_SLACK passes
        # without it; only a stack that could touch the band is wrapped.
        if np.abs(theta).max(initial=0.0) < _GIMBAL_BOUND - _GIMBAL_SLACK:
            return
        bad = np.abs(wrap_angle(theta)) >= _GIMBAL_BOUND
        if bad.any():
            raise GimbalLockError(
                f"pitch {theta[bad]!r} rad of rows {np.flatnonzero(bad).tolist()} {_GIMBAL_BAND}"
            )
        return
    theta = float(x[1])
    if abs(math.pi - (math.pi - theta) % (2.0 * math.pi)) >= _GIMBAL_BOUND:
        raise GimbalLockError(f"pitch {theta!r} rad {_GIMBAL_BAND}")


def _sin_cos(e: "EulerAngles | ArrayLike") -> tuple:
    """Sines and cosines of (phi, theta, psi), unpackable in that order.

    A single attitude yields Python floats, which keep the per-step scalar
    arithmetic cheap; an (n, 3) stack yields one length-n array per angle,
    so the same expressions evaluate the whole stack.
    """
    a = e.as_array() if isinstance(e, EulerAngles) else np.asarray(e, dtype=np.float64)
    if a.ndim == 1:
        return np.sin(a).tolist(), np.cos(a).tolist()
    return np.sin(a).T, np.cos(a).T


def _matrix(rows: "list | tuple", like: "list | NDArray[np.float64]") -> NDArray[np.float64]:
    """A vector or matrix from (nested) entries, or an (n, ...) stack of them.

    ``like`` is a sine/cosine from :func:`_sin_cos`: a list means the entries
    are Python floats and one array is built; an array means the entries
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
    """T(Phi) as a matrix, for the Jacobians; :func:`_euler_rates` applies it."""
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


def _euler_rates(s: ArrayLike, c: ArrayLike, w: NDArray[np.float64]) -> tuple:
    """T(Phi) w: the Euler rates of the body rates w, component by component.

    ``w`` is (3,) for the floats of one attitude or (n, 3) for a stack; the
    three components come back as floats or length-n arrays.
    """
    (sp, st, _), (cp, ct, _) = s, c
    w0, w1, w2 = w.tolist() if w.ndim == 1 else w.T
    u = sp * w1 + cp * w2
    psi_dot = u / ct
    return w0 + st * psi_dot, cp * w1 - sp * w2, psi_dot


def _rotate(s: ArrayLike, c: ArrayLike, r: "list | tuple") -> tuple:
    """R(Phi) r = R1(phi) R2(theta) R3(psi) r, one elementary rotation at a
    time, on the components of r and the sines and cosines of Phi as floats
    or as length-n arrays.  This is the one place the DCM is written."""
    (sp, st, ss), (cp, ct, cs) = s, c
    x, y, z = r
    x, y = cs * x + ss * y, cs * y - ss * x
    x, z = ct * x - st * z, st * x + ct * z
    y, z = cp * y + sp * z, cp * z - sp * y
    return x, y, z


def _rotate_rows(
    s: ArrayLike, c: ArrayLike, references: NDArray[np.float64]
) -> NDArray[np.float64]:
    """R(Phi) r for each inertial row r of ``references`` (k, 3) at each attitude
    of a stack, as (n, 3k): one :func:`_rotate` over the kn rows r_1 .. r_k of
    attitude 0, then of attitude 1, ..., each computed as for its attitude alone."""
    k, n = references.shape[0], s.shape[1]
    out = np.empty((k * n, 3))
    out.reshape(n, k, 3)[:] = references
    out[:, 0], out[:, 1], out[:, 2] = _rotate(s.repeat(k, axis=1), c.repeat(k, axis=1), out.T)
    return out.reshape(n, 3 * k)


def _matvec(A: NDArray[np.float64], v: NDArray[np.float64]) -> NDArray[np.float64]:
    """``A @ v`` for one vector, or row by row for an (n, k) stack of vectors.

    A is one matrix or an (n, m, k) stack.  Each row goes through the same
    matrix-vector product as a single vector, so a stacked result equals the
    row-wise results bit for bit.
    """
    return A @ v if v.ndim == 1 else (A @ v[..., None])[..., 0]


def kinematic_matrix_inverse(e: "EulerAngles | ArrayLike") -> NDArray[np.float64]:
    """Inverse of the rate transformation T, mapping Euler rates to body rates.

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
        Orthonormal rotation matrix (or stack) with determinant +1; column j
        is R e_j.
    """
    s, c = _sin_cos(e)
    columns = [_rotate(s, c, e_j) for e_j in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
    return _matrix([list(row) for row in zip(*columns)], s)
