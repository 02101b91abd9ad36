"""The linearized plant: one set of Jacobians for the design model and the EKF.

:func:`jacobians_process` and :func:`jacobians_measurement` are the one
place the linear model is built.  The gain is designed once, offline, from
them evaluated at the nominal operating point (zero attitude, zero bias,
zero input; :func:`nominal_model`); the EKF baseline re-linearizes with the
same two functions at every estimate.  Both fold the noise standard
deviations into the columns of Bw and Dw, so the model is driven by
unit-intensity white noise.  A central finite-difference oracle
cross-checks the closed forms.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .kinematics import _matrix, _sin_cos, kinematic_matrix
from .sensors import NoiseParams, WorldConstants

__all__ = [
    "LinearModel",
    "finite_difference_jacobian",
    "jacobians_measurement",
    "jacobians_process",
    "measurement_jacobian",
    "nominal_model",
    "rate_jacobian",
]

_EYE3 = np.eye(3)


@dataclass(frozen=True)
class LinearModel:
    """Matrices of the linearized plant x_dot = A x + Bw w, y = Cy x + Dw w.

    Noise enters through a single stacked channel w = [n_w; n_b; n_a; n_m]
    in R^12; process and measurement noise occupy disjoint column blocks of
    Bw and Dw.  z = Cz x is the output whose H2 error norm the synthesis
    minimizes, so an all-zero Cz, which leaves no norm to bound, is rejected.
    """

    A: NDArray[np.float64]
    Bw: NDArray[np.float64]
    Cy: NDArray[np.float64]
    Dw: NDArray[np.float64]
    Cz: NDArray[np.float64]

    def __post_init__(self) -> None:
        shapes = {"A": (6, 6), "Bw": (6, 12), "Cy": (6, 6), "Dw": (6, 12), "Cz": (3, 6)}
        for name, shape in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if np.any(self.Bw[:, 6:] != 0.0) or np.any(self.Dw[:, :6] != 0.0):
            raise ValueError(
                "noise channels must be disjoint: Bw = [Bw_process | 0], Dw = [0 | Dw_meas]"
            )
        if not np.any(self.Cz):
            raise ValueError("Cz is all zero: there is no H2 norm to bound")


def rate_jacobian(
    angles: NDArray[np.float64], omega: NDArray[np.float64]
) -> NDArray[np.float64]:
    """d(T(Phi) omega)/dPhi for fixed omega; columns ordered (phi, theta, psi).

    ``angles`` and ``omega`` are (3,) vectors, giving a (3, 3) matrix, or
    (n, 3) stacks, giving (n, 3, 3).  Like T itself it is unbounded near
    pitch +/- pi/2; callers evaluate
    :func:`~eh2marg.kinematics.kinematic_matrix` at the same attitude, which
    enforces the gimbal guard.
    """
    s, c = _sin_cos(angles)
    (sp, st, _), (cp, ct, _) = s, c
    tt = st / ct
    sec = 1.0 / ct
    _, w1, w2 = omega.tolist() if omega.ndim == 1 else omega.T
    u = cp * w1 - sp * w2
    v = sp * w1 + cp * w2
    return _matrix(
        [
            [tt * u, sec * sec * v, 0.0],
            [-v, 0.0, 0.0],
            [sec * u, sec * tt * v, 0.0],
        ],
        s,
    )


def measurement_jacobian(
    angles: NDArray[np.float64], references: NDArray[np.float64]
) -> NDArray[np.float64]:
    """d[R g; R h]/dPhi, shape (6, 3), from the closed-form dR/dphi, dR/dtheta, dR/dpsi.

    ``references`` holds the rows [g; h] as returned by
    :meth:`~eh2marg.sensors.WorldConstants.reference_rows`.  An (n, 3)
    angle stack gives an (n, 6, 3) stack.
    """
    s, c = _sin_cos(angles)
    (sp, st, ss), (cp, ct, cs) = s, c
    dR = _matrix(
        [
            [
                [0.0, 0.0, 0.0],
                [cp * st * cs + sp * ss, cp * st * ss - sp * cs, cp * ct],
                [-sp * st * cs + cp * ss, -sp * st * ss - cp * cs, -sp * ct],
            ],
            [
                [-st * cs, -st * ss, -ct],
                [sp * ct * cs, sp * ct * ss, -sp * st],
                [cp * ct * cs, cp * ct * ss, -cp * st],
            ],
            [
                [-ct * ss, ct * cs, 0.0],
                [-sp * st * ss - cp * cs, sp * st * cs - cp * ss, 0.0],
                [-cp * st * ss + sp * cs, cp * st * cs + sp * ss, 0.0],
            ],
        ],
        s,
    )
    # (dR_k @ r)_i for reference c lands in row 3 c + i, column k.
    dRr = (dR @ references.T).swapaxes(-1, -3)
    return dRr.reshape(dRr.shape[:-3] + (6, 3))


def jacobians_process(
    x: NDArray[np.float64], omega: NDArray[np.float64], noise: NoiseParams
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """A and Bw of the process model, linearized at the state x with gyro input omega.

    ``x`` and ``omega`` are (6,) and (3,), giving A (6, 6) and Bw (6, 12),
    or (N, 6) and (N, 3) stacks, giving (N, 6, 6) and (N, 6, 12).  Bw maps
    the unit-intensity channel w = [n_w; n_b; n_a; n_m] with the noise
    standard deviations folded into its columns; the measurement columns
    are zero.

    Raises
    ------
    GimbalLockError
        If the attitude (of any row) sits in the gimbal guard band.
    """
    T = kinematic_matrix(x[..., :3])
    A = np.zeros(x.shape[:-1] + (6, 6))
    A[..., :3, :3] = rate_jacobian(x[..., :3], omega - x[..., 3:])
    A[..., :3, 3:] = -T
    Bw = np.zeros(x.shape[:-1] + (6, 12))
    Bw[..., :3, :3] = -noise.n_w * T
    Bw[..., 3:, 3:6] = noise.n_b * _EYE3
    return A, Bw


def jacobians_measurement(
    angles: NDArray[np.float64], references: NDArray[np.float64], noise: NoiseParams
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Cy and Dw of the measurement model, linearized at the attitude ``angles``.

    ``references`` holds the rows [g; h] of
    :meth:`~eh2marg.sensors.WorldConstants.reference_rows`.  (3,) angles
    give Cy (6, 6) and Dw (6, 12); (N, 3) angles give (N, 6, 6) and
    (N, 6, 12).  The bias columns of Cy are zero (h does not depend on b);
    Dw carries the accelerometer and magnetometer standard deviations on
    the [n_a; n_m] columns and zeros on the process columns.
    """
    Cy = np.zeros(angles.shape[:-1] + (6, 6))
    Cy[..., :3] = measurement_jacobian(angles, references)
    Dw = np.zeros(angles.shape[:-1] + (6, 12))
    Dw[..., 6:] = np.diag([noise.n_a] * 3 + [noise.n_m] * 3)
    return Cy, Dw


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
    """The design model: both Jacobians at the zero state and zero input, Cz = [I3 0]."""
    noise = NoiseParams() if noise is None else noise
    world = WorldConstants() if world is None else world
    A, Bw = jacobians_process(np.zeros(6), np.zeros(3), noise)
    Cy, Dw = jacobians_measurement(np.zeros(3), world.reference_rows(), noise)
    return LinearModel(A=A, Bw=Bw, Cy=Cy, Dw=Dw, Cz=np.eye(3, 6))
