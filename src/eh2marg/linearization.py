"""The linearized plant: one set of Jacobians for the design model and the EKF.

:func:`jacobians_process` and :func:`jacobians_measurement` are the one
place the linear model is built.  The gain is designed once, offline, from
them evaluated at the nominal operating point (zero attitude, zero bias,
zero input; :func:`nominal_model`); the EKF baseline re-linearizes with the
same two functions at every estimate.  The noise standard deviations are
folded into the columns of Bw (:func:`jacobians_process`) and of the
state-independent Dw (:func:`nominal_model`, from
:meth:`~eh2marg.sensors.NoiseParams.measurement_std`), so the model is
driven by unit-intensity white noise.  Each Jacobian function evaluates
the attitude's sines and cosines once and fills its matrices in one pass.
:func:`jacobians_process` writes A's attitude rows [d(T u)/dPhi | -T] and
Bw's bias diagonal entry by entry into the zeroed matrices; Bw's gyro
block n_w (-T) is written from the same Python floats for one state, and
read off A, in one product, for a stack.  h = [R g; R h] and Cy are one
product, per member of a stack, of the world's rotation table
(:meth:`~eh2marg.sensors.WorldConstants.rotation_table`) with the
attitude's trigonometric products: the table holds the rows of d(R r)/dPhi,
differentiated exactly when it is built, beside those of R r.  States and
attitudes are component-major, (6, N) and (3, N) for a stack of N, while
the matrices stack along a leading axis, (N, 6, 6), for the batched
products of the EKF.
A central finite-difference oracle cross-checks the closed forms.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .kinematics import _Container, _check_gimbal, _columns, _frozen, _monomials, _sin_cos
from .sensors import NoiseParams, WorldConstants

__all__ = [
    "LinearModel",
    "finite_difference_jacobian",
    "jacobians_measurement",
    "jacobians_process",
    "nominal_model",
]


@dataclass(frozen=True, eq=False)
class LinearModel(_Container):
    """Matrices of the linearized plant x_dot = A x + Bw w, y = Cy x + Dw w.

    Noise enters through a single stacked channel w = [n_w; n_b; n_a; n_m]
    in R^12; process and measurement noise occupy disjoint column blocks of
    Bw and Dw.  z = Cz x is the output whose H2 error norm the synthesis
    minimizes, so an all-zero Cz, which leaves no norm to bound, is rejected.
    The matrices are kept as read-only copies.
    """

    A: NDArray[np.float64]
    Bw: NDArray[np.float64]
    Cy: NDArray[np.float64]
    Dw: NDArray[np.float64]
    Cz: NDArray[np.float64]

    def __post_init__(self) -> None:
        for name in ("A", "Bw", "Cy", "Dw", "Cz"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        shapes = {"A": (6, 6), "Bw": (6, 12), "Cy": (6, 6), "Dw": (6, 12), "Cz": (3, 6)}
        for name, shape in shapes.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(self.Bw[:, 6:] != 0.0) or np.any(self.Dw[:, :6] != 0.0):
            raise ValueError(
                "noise channels must be disjoint: Bw = [Bw_process | 0], Dw = [0 | Dw_meas]"
            )
        if not np.any(self.Cz):
            raise ValueError("Cz is all zero: there is no H2 norm to bound")


def jacobians_process(
    x: NDArray[np.float64], omega: NDArray[np.float64], noise: NoiseParams
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """A and Bw of the process model, linearized at the state x with gyro input omega.

    ``x`` and ``omega`` are (6,) and (3,), giving A (6, 6) and Bw (6, 12),
    or (6, N) and (3, N) stacks, giving (N, 6, 6) and (N, 6, 12).  For an
    attitude x = Phi alone, (3,) or (3, N), omega is taken as the body rates
    omega - b: A depends on the state only through Phi and omega - b, so
    this is A at any state [Phi; b], and the EKF forms omega - b once per
    step.  Bw maps the unit-intensity channel w = [n_w; n_b; n_a; n_m] with
    the noise standard deviations folded into its columns; its gyro block
    is n_w (-T), from the entries of A's -T block, and its bias block
    n_b I.  The measurement columns are zero.

    Raises
    ------
    GimbalLockError
        If the attitude (of any member) sits in the gimbal guard band.
    """
    _check_gimbal(x)
    (sp, st, _), (cp, ct, _) = _sin_cos(x[:3])
    u = omega if len(x) == 3 else omega - x[3:]
    _, w1, w2 = u.tolist() if u.ndim == 1 else u
    tt, sec = st / ct, 1.0 / ct
    du = cp * w1 - sp * w2
    v = sp * w1 + cp * w2
    # -T, entry (i, j) as t_ij; its two zeros are -0.0, as negating T gives them.
    t00, t01, t02, t11, t12, t21, t22 = -1.0, -tt * sp, -tt * cp, -cp, sp, -sec * sp, -sec * cp
    # Entry (i, j) is row 6 i + j of A's flat view transposed (12 i + j of
    # Bw's): a float for one state, a strided length-N row of a stack.  The
    # entries not written keep the zeros of np.zeros.
    A = np.zeros(x.shape[1:] + (6, 6))
    a = A.reshape(x.shape[1:] + (36,)).T
    a[0], a[1], a[3], a[4], a[5] = tt * du, sec * sec * v, t00, t01, t02
    a[6], a[9], a[10], a[11] = -v, -0.0, t11, t12
    a[12], a[13], a[15], a[16], a[17] = sec * du, sec * tt * v, -0.0, t21, t22
    del a  # a stack's n_w product below holds the call's memory peak
    Bw = np.zeros(x.shape[1:] + (6, 12))
    b = Bw.reshape(x.shape[1:] + (72,)).T
    if x.ndim == 1:
        # n_w (-T) on the floats of one state; a stack's as one product.
        n = noise.n_w
        b[0], b[1], b[2], b[12], b[13] = n * t00, n * t01, n * t02, n * -0.0, n * t11
        b[14], b[24], b[25], b[26] = n * t12, n * -0.0, n * t21, n * t22
    else:
        Bw[..., :3, :3] = noise.n_w * A[..., :3, 3:]
    b[39] = b[52] = b[65] = noise.n_b
    return A, Bw


def jacobians_measurement(
    angles: NDArray[np.float64], world: WorldConstants
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """h and Cy of the measurement model at the attitude ``angles``.

    (3,) angles give h (6,) and Cy (6, 6); (3, N) angles give h (6, N), a
    view, and Cy (N, 6, 6).  Both come from one product of the world's
    :meth:`~eh2marg.sensors.WorldConstants.rotation_table` with the
    trigonometric products of the attitude: its first 6 rows are
    h = [R g; R h], the other 18 the angle columns of Cy, row by row.  The
    bias columns of Cy are zero (h does not depend on b).
    """
    hc = np.matvec(world.rotation_table(), _monomials(*_sin_cos(angles)))
    Cy = np.zeros(angles.shape[1:] + (6, 6))
    Cy[..., :3] = hc[..., 6:].reshape(Cy.shape[:-1] + (3,))
    return _columns(hc[..., :6]), Cy


def finite_difference_jacobian(
    func: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    x0: NDArray[np.float64],
    eps: float = 1e-6,
) -> NDArray[np.float64]:
    """Central-difference Jacobian of ``func`` at ``x0``.

    Column j is ``(func(x0 + eps e_j) - func(x0 - eps e_j)) / (2 eps)``.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    f0 = np.asarray(func(x0), dtype=np.float64)
    jac = np.empty((f0.shape[0], x0.shape[0]))
    for j in range(x0.shape[0]):
        step = np.zeros_like(x0)
        step[j] = eps
        jac[:, j] = (np.asarray(func(x0 + step)) - np.asarray(func(x0 - step))) / (2.0 * eps)
    return jac


def nominal_model(
    noise: NoiseParams | None = None, world: WorldConstants | None = None
) -> LinearModel:
    """The design model: both Jacobians at the zero state and zero input, Cz = [I3 0],
    and the state-independent Dw, which holds the accelerometer and
    magnetometer standard deviations on the [n_a; n_m] columns."""
    noise = NoiseParams() if noise is None else noise
    world = WorldConstants() if world is None else world
    A, Bw = jacobians_process(np.zeros(6), np.zeros(3), noise)
    _, Cy = jacobians_measurement(np.zeros(3), world)
    Dw = np.zeros((6, 12))
    Dw[:, 6:] = np.diag(noise.measurement_std())
    return LinearModel(A=A, Bw=Bw, Cy=Cy, Dw=Dw, Cz=np.eye(3, 6))
