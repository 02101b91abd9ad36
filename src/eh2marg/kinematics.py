"""3-2-1 Euler-angle attitude kinematics.

Provides the rate transformation ``T(Phi)``, mapping body angular rates to
Euler-angle rates, and its inverse; the body-from-inertial direction cosine
matrix ``R(Phi)`` of the 3-2-1 (yaw-pitch-roll) sequence; and angle
wrapping.  Each of the three is written once, as a map on vectors and the
sines and cosines from :func:`_sin_cos`: R as :func:`_rotate`, T as
:func:`_euler_rates` and T^-1 as :func:`_body_rates`.  R is the only one
the public API gives as a matrix (:func:`dcm_body_from_inertial`); only the
EKF's Jacobian A holds T as a matrix
(:func:`eh2marg.linearization.jacobians_process`).

Attitudes and states are component-major: one is a (3,) or (6,) vector, and
a stack of n is a (3, n) or (6, n) array whose row i holds component i of
every member.  So ``x[1]`` is one pitch or a contiguous row of n pitches,
and the same expressions run on the Python floats of one attitude and on
the length-n rows of a stack.  The public time-series function
:func:`dcm_body_from_inertial` takes an (n, 3) series and reads it through
its transpose.

The filter steps read R(Phi) r off constant tables instead.  Every entry of
R and of its first derivatives is a combination, with coefficients 0 or
+/-1, of the 27 products of (1, sin, cos) of phi, theta and psi (22 of them
occur).  :func:`_rotation_coefficients` reads the coefficients off
:func:`_rotate` once, :func:`_rotation_table` folds the reference rows
[g; h] into them once per :class:`~eh2marg.sensors.WorldConstants`, and
:func:`_monomials` evaluates the products; R r and d(R r)/dPhi for every
member of a stack are then one matrix-vector product per member, in one
``np.matvec`` call on the (n, 27) products, since a small stack costs per
numpy call, not per element.

A constant operand of the filter steps that does not depend on dt, such as
pi in :func:`_wrapped`, is a read-only 0-d float64 array (:func:`_frozen`):
numpy 2 converts a Python float, a weak scalar, on every operation, so
``np.pi - a`` on a (3,) array takes about 1.4 times as long (numpy 2.4,
x86-64).  Results stay bit for bit, as with ``k + k`` for ``2.0 * k``.
One state's filter steps wrap and check their angles on Python floats
(:func:`_wrapped_float`, :func:`_check_pitch`), the same IEEE operations,
and take the attitude's sines and cosines from ``math.sin``/``math.cos``
(:func:`_sin_cos`), which give the bits of ``np.sin``/``np.cos`` (a test
in test_kinematics.py pins this); they keep numpy for :func:`_monomials`'
product with a table, which ``np.matvec`` sums.

T is singular at pitch +/- 90 degrees ("gimbal lock"); every caller that
evaluates it first checks the pitch with :func:`_check_gimbal`, which fails
loudly inside a guard band of ``EPS_GIMBAL`` radians around the
singularity instead of returning huge ``tan``/``sec`` values.  On a stack
it compares the largest |pitch|, read at its ``argmax``, with the band, and
wraps the pitches only when that one could touch it.
"""

import math
from dataclasses import dataclass, fields
from functools import lru_cache, reduce
from math import cos, sin

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import GimbalLockError, NonFiniteState

__all__ = [
    "EPS_GIMBAL",
    "EulerAngles",
    "dcm_body_from_inertial",
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


def _frozen(values: ArrayLike) -> NDArray[np.float64]:
    """A new read-only float64 array of ``values``: what a frozen container
    keeps, so that no caller's array can change it after its checks, and,
    0-d, a constant operand of the filter steps."""
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class _Container:
    """Base of the frozen containers: copy, deepcopy and pickle rebuild one
    through its public constructor, with read-only arrays and views (but
    for :class:`~eh2marg.sensors.ImuStream`, which keeps its columns as
    given).  A container that holds arrays declares ``eq=False`` and
    compares by value here: two of one type are equal when their
    constructor arguments are, arrays by :func:`numpy.array_equal`."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self.__reduce__()[1], other.__reduce__()[1])
        )


#: pi and 2 pi, the operands of _wrapped, as 0-d arrays.
_PI, _TWO_PI = _frozen(np.pi), _frozen(2.0 * np.pi)
#: The largest float below 2 pi.  (pi - a) % (2 pi) rounds up to 2 pi for an
#: angle a one ulp above pi, which would wrap it to -pi; clamped to this, the
#: remainder wraps it to -pi + 2 ulp and leaves every other remainder as it is.
_BELOW_TWO_PI = _frozen(np.nextafter(2.0 * np.pi, 0.0))


def _wrapped(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """The float64 array ``a`` wrapped to (-pi, pi]: the array wrap that
    :func:`wrap_angle` and :func:`~eh2marg.dynamics.checked_state` use.

    :func:`_check_pitch` wraps a single pitch with its own Python-float
    expression, without the clamp; at the boundary that one returns -pi
    where this returns -pi + 2 ulp, and it rejects both alike, as pitches
    in the exclusion band.
    """
    return _PI - np.minimum((_PI - a) % _TWO_PI, _BELOW_TWO_PI)


#: The same three constants as Python floats, for one state's angles.
_PI_F, _TWO_PI_F, _BELOW_TWO_PI_F = float(_PI), float(_TWO_PI), float(_BELOW_TWO_PI)


def _wrapped_float(a: float) -> float:
    """:func:`_wrapped` of one finite Python float, bit for bit: Python's
    ``%`` and numpy's remainder are both fmod with the sign of the divisor,
    and ``min`` takes the clamp as ``np.minimum`` does (no remainder is
    -0.0 or NaN here)."""
    return _PI_F - min((_PI_F - a) % _TWO_PI_F, _BELOW_TWO_PI_F)


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
    wrapped = _wrapped(np.asarray(angle, dtype=np.float64))
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
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        for name in ("phi", "psi"):
            value = getattr(self, name)
            if not -math.pi < value <= math.pi:
                raise ValueError(f"{name} must lie in (-pi, pi], got {value!r}; use wrap_angle")
        if not -math.pi / 2.0 < self.theta < math.pi / 2.0:
            raise ValueError(f"theta must lie strictly inside (-pi/2, pi/2), got {self.theta!r}")

    @classmethod
    def zero(cls) -> "EulerAngles":
        return cls(0.0, 0.0, 0.0)

    def as_array(self) -> NDArray[np.float64]:
        return np.array([self.phi, self.theta, self.psi])


def _check_gimbal(x: NDArray[np.float64]) -> None:
    """Raise GimbalLockError if the pitch ``x[1]`` is in the guard band.

    ``x`` is an attitude (3,) or a state (6,), or a (3, n) / (6, n) stack,
    which is rejected when any of its members is in the band; the message
    lists the indices of those members as rows.
    """
    if x.ndim > 1:
        theta = x[1]
        # Wrapping moves a pitch inside (-pi, pi] by at most a few ulp, so a
        # stack whose every |pitch| is below the band by _GIMBAL_SLACK passes
        # without it; only a stack that could touch the band is wrapped.
        # The largest |pitch| is read at its argmax, which costs less than a
        # max reduction on a short row; argmax stops at the first NaN, which
        # fails the comparison, so a NaN pitch takes the wrap as before.
        a = np.abs(theta)
        if not a.size or a[a.argmax()] < _GIMBAL_BOUND - _GIMBAL_SLACK:
            return
        bad = np.abs(wrap_angle(theta)) >= _GIMBAL_BOUND
        if bad.any():
            raise GimbalLockError(
                f"pitch {theta[bad]!r} rad of rows {np.flatnonzero(bad).tolist()} {_GIMBAL_BAND}"
            )
        return
    _check_pitch(float(x[1]))


def _check_pitch(theta: float) -> None:
    """:func:`_check_gimbal` of one pitch, a Python float."""
    # The float wrap of _wrapped, unclamped: only |wrapped pitch| matters here.
    if abs(_PI_F - (_PI_F - theta) % _TWO_PI_F) >= _GIMBAL_BOUND:
        raise GimbalLockError(f"pitch {theta!r} rad {_GIMBAL_BAND}")


def _sin_cos(a: "NDArray[np.float64] | tuple") -> tuple:
    """Sines and cosines of (phi, theta, psi), or of its first rows, unpackable
    in that order.

    A (3, n) stack yields one length-n row per angle from ``np.sin`` and
    ``np.cos``, so the same expressions evaluate the whole stack.  One
    attitude, a 1-d array or the tuple of three Python floats a filter
    stage holds, yields two lists of Python floats from ``math.sin`` and
    ``math.cos``, which keep the per-step scalar arithmetic cheap and round
    as numpy does, so one state keeps a stack column's bits
    (``test_math_sin_cos_equal_numpy_bit_for_bit`` in test_kinematics.py
    pins this).  math raises ValueError for an infinite angle, for which
    numpy gives NaN and warns: a stage's tuple raises NonFiniteState, as the
    step has overflowed, and an array takes numpy's NaN and warning.
    """
    if isinstance(a, tuple):
        p0, p1, p2 = a
        try:
            return [sin(p0), sin(p1), sin(p2)], [cos(p0), cos(p1), cos(p2)]
        except ValueError:
            raise NonFiniteState(f"state became non-finite in a stage: angles {a!r}") from None
    if a.ndim > 1:
        return np.sin(a), np.cos(a)
    v = a.tolist()
    try:
        return [sin(p) for p in v], [cos(p) for p in v]
    except ValueError:
        return np.sin(a).tolist(), np.cos(a).tolist()


def _series(e: "EulerAngles | ArrayLike") -> NDArray[np.float64]:
    """An attitude as a (3,) array, or an (n, 3) series as its (3, n) transpose."""
    a = e.as_array() if isinstance(e, EulerAngles) else np.asarray(e, dtype=np.float64)
    return a.T


def _matrix(rows: "list | tuple") -> NDArray[np.float64]:
    """The matrix whose entry (i, j) is ``rows[i][j]``: (r, c) when the
    entries are Python floats, as :func:`_sin_cos` gives for one attitude,
    and an (n, r, c) stack when they are all length-n arrays.
    """
    m = np.empty(np.shape(rows[0][0]) + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m[..., i, j] = v
    return m


def _euler_rates(s: ArrayLike, c: ArrayLike, w: NDArray[np.float64]) -> tuple:
    """T(Phi) w: the Euler rates of the body rates w, component by component.

    ``w`` is three floats for the floats of one attitude, or a (3, n)
    stack; the three components come back as floats or length-n arrays.
    """
    (sp, st, _), (cp, ct, _) = s, c
    w0, w1, w2 = w
    u = sp * w1 + cp * w2
    psi_dot = u / ct
    return w0 + st * psi_dot, cp * w1 - sp * w2, psi_dot


def _body_rates(s: ArrayLike, c: ArrayLike, r: NDArray[np.float64]) -> tuple:
    """T(Phi)^-1 r: the body rates of the Euler rates r, component by component.

    ``s`` and ``c`` are the sines and cosines of (phi, theta), and ``r``
    three floats for the floats of one attitude or a (3, n) stack.  Unlike
    T itself this map is defined for all attitudes; no gimbal guard is
    needed.
    """
    (sp, st), (cp, ct) = s, c
    r0, r1, r2 = r
    return r0 - st * r2, cp * r1 + sp * ct * r2, cp * ct * r2 - sp * r1


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


@lru_cache(maxsize=1)
def _rotation_coefficients() -> NDArray[np.float64]:
    """R(Phi) and its derivatives as exact combinations of the 27 products
    (1, sin, cos)[i](phi) * (1, sin, cos)[j](theta) * (1, sin, cos)[k](psi):
    the read-only (27, 4, 3, 3) coefficients of R, dR/dphi, dR/dtheta and
    dR/dpsi, row 9i + 3j + k for each product.

    :func:`_rotate` is affine in each angle's (sin, cos).  At the points
    (sin, cos) = (0, 0), (1, 0), (0, 1) the basis (1, sin, cos) reads
    (1, 0, 0), (1, 1, 0), (1, 0, 1), so R on the unit vectors at the 27
    corners fixes every coefficient; each comes out 0 or +/-1, and 22
    products carry one.  A derivative maps the coefficients (a, b, c) of
    (1, sin, cos) to (0, -c, b).
    """
    from_points = np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    derivative = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    eye = np.eye(3)
    corner = np.indices((3, 3, 3)).reshape(3, 27)
    s, c = (corner == 1).astype(np.float64), (corner == 2).astype(np.float64)
    values = _matrix(list(zip(*(_rotate(s, c, e_j) for e_j in eye))))
    R = reduce(np.kron, (from_points,) * 3) @ values.reshape(27, 9)
    per_angle = ((derivative, eye, eye), (eye, derivative, eye), (eye, eye, derivative))
    tables = [R] + [reduce(np.kron, ops) @ R for ops in per_angle]
    coefficients = np.stack(tables, axis=1).reshape(27, 4, 3, 3)
    coefficients.flags.writeable = False
    return coefficients


def _rotation_table(rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """The read-only (24, 27) table that maps the products of
    :func:`_monomials` to h = [R g; R h] (6 rows), then to d(R r_i)_j/dPhi
    (3 rows per entry), for the float (2, 3) ``rows`` [g; h].
    :class:`~eh2marg.sensors.WorldConstants` builds it once per world.
    """
    rotated = _rotation_coefficients() @ rows.T
    # rotated[m, d, j, i]: product m's coefficient in (R r_i)_j (d = 0) and
    # in its derivative by angle d - 1.
    table = np.concatenate(
        [
            rotated[:, 0].transpose(2, 1, 0).reshape(-1, 27),
            rotated[:, 1:].transpose(3, 2, 1, 0).reshape(-1, 27),
        ]
    )
    table.flags.writeable = False
    return table


def _monomials(s: ArrayLike, c: ArrayLike) -> NDArray[np.float64]:
    """The 27 products of :func:`_rotation_coefficients` for the sines and
    cosines of one attitude, (27,), or of a stack, (n, 27) C-contiguous.

    Every product is (phi factor * theta factor) * psi factor, for the floats
    of one attitude and for a stack alike, and ``np.matvec`` then applies a
    table to each contiguous row of products as to one attitude's, so a
    stack's results are bit for bit those of its attitudes.  A stack's
    products are formed on its contiguous length-n rows, then copied once
    into the (n, 27) rows ``np.matvec`` takes.  All 27 are kept: picking out
    the 22 that occur costs a stack one more numpy call than the 5 zero
    columns cost the product.
    """
    if isinstance(s, list):
        # Written out, as this runs in every RK4 stage of a one-state step; a
        # factor 1 is left out, since 1.0 * v is v bit for bit.
        (sp, st, ss), (cp, ct, cs) = s, c
        spst, spct, cpst, cpct = sp * st, sp * ct, cp * st, cp * ct
        return np.array(
            [
                1.0, ss, cs, st, st * ss, st * cs, ct, ct * ss, ct * cs,
                sp, sp * ss, sp * cs, spst, spst * ss, spst * cs, spct, spct * ss, spct * cs,
                cp, cp * ss, cp * cs, cpst, cpst * ss, cpst * cs, cpct, cpct * ss, cpct * cs,
            ]
        )
    f = np.empty((3, 3, len(s[0])))  # [angle, 1/sin/cos, member]
    f[:, 0] = 1.0
    f[:, 1] = s
    f[:, 2] = c
    pairs = f[0, :, None] * f[1, None]
    return np.ascontiguousarray((pairs[:, :, None] * f[2, None, None]).reshape(27, -1).T)


def _rows(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """The operand ``np.matvec`` takes: a (k, n) stack as the C-contiguous
    (n, k) array of its members, one (k,) vector as a contiguous vector.

    A strided operand may take another kernel and round differently, so
    every product runs on contiguous rows, as one state's does.
    """
    return np.ascontiguousarray(v if v.ndim == 1 else v.T)


def _columns(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """The (n, m) rows ``np.matvec`` gives for a stack as a C-contiguous
    (m, n) component-major array; one (m,) vector as it is.

    Every stack then has contiguous rows, and elementwise numpy calls on
    small arrays whose layouts all match take the fast path: on a (6, 10)
    stack, a C + F sum costs about 2.4 times a C + C one.
    """
    return a if a.ndim == 1 else np.ascontiguousarray(a.T)


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
    s, c = _sin_cos(_series(e))
    columns = [_rotate(s, c, e_j) for e_j in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
    return _matrix(list(zip(*columns)))
