"""Jacobians of the process/measurement models and linear-model assembly.

The gain is designed once from the linearization at the nominal operating
point (zero attitude, zero bias, zero input).  Closed-form Jacobians are
provided for arbitrary operating points — the EKF baseline re-linearizes at
the current estimate through :func:`rate_jacobian` and
:func:`measurement_jacobian` — together with a central finite-difference
oracle used to cross-check them.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .dynamics import EulerState
from .kinematics import _matrix, _sin_cos, kinematic_matrix
from .sensors import NoiseParams, WorldConstants, _vector3

__all__ = [
    "LinearModel",
    "assemble_model",
    "finite_difference_jacobian",
    "jacobians_measurement",
    "jacobians_process",
    "measurement_jacobian",
    "nominal_model",
    "rate_jacobian",
]

_CZ_DEFAULT = np.hstack([np.eye(3), np.zeros((3, 3))])


@dataclass(frozen=True)
class LinearModel:
    """Matrices of the linearized plant x_dot = A x + Bu u + Bw w, y = Cy x + Dw w.

    Noise enters through a single stacked channel w = [n_w; n_b; n_a; n_m]
    in R^12; process and measurement noise occupy disjoint column blocks of
    Bw and Dw.  z = Cz x is the output whose H2 error norm the synthesis
    minimizes.
    """

    A: NDArray[np.float64]
    Bu: NDArray[np.float64]
    Bw: NDArray[np.float64]
    Cy: NDArray[np.float64]
    Du: NDArray[np.float64]
    Dw: NDArray[np.float64]
    Cz: NDArray[np.float64]

    def __post_init__(self) -> None:
        shapes = {
            "A": (6, 6),
            "Bu": (6, 3),
            "Bw": (6, 12),
            "Cy": (6, 6),
            "Du": (6, 3),
            "Dw": (6, 12),
            "Cz": (3, 6),
        }
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
    nominal: EulerState | None = None, u0: NDArray[np.float64] | None = None
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Closed-form A, Bu, Bw_process of the process model at an operating point.

    Parameters
    ----------
    nominal : EulerState, optional
        Operating state; defaults to the zero nominal point.
    u0 : array_like, optional
        Operating gyro input; defaults to zero.

    Returns
    -------
    A : numpy.ndarray, shape (6, 6)
    Bu : numpy.ndarray, shape (6, 3)
    Bw_process : numpy.ndarray, shape (6, 6)
        Jacobian w.r.t. the physical process noise [n_w; n_b] (unit intensity;
        scaling by the noise stds happens in :func:`assemble_model`).

    Raises
    ------
    GimbalLockError
        If the nominal attitude sits in the gimbal guard band.
    """
    if nominal is None:
        nominal = EulerState()
    u = np.zeros(3) if u0 is None else _vector3(u0, "u0")
    angles = nominal.attitude.as_array()
    T = kinematic_matrix(angles)
    A = np.zeros((6, 6))
    A[:3, :3] = rate_jacobian(angles, u - nominal.bias)
    A[:3, 3:] = -T
    Bu = np.vstack([T, np.zeros((3, 3))])
    Bw_process = np.zeros((6, 6))
    Bw_process[:3, :3] = -T
    Bw_process[3:, 3:] = np.eye(3)
    return A, Bu, Bw_process


def jacobians_measurement(
    nominal: EulerState | None = None, w: WorldConstants | None = None
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Closed-form Cy and Dw_meas of the measurement model at an operating point.

    The bias columns of Cy are identically zero (h does not depend on b);
    Dw_meas is the identity on the stacked [n_a; n_m] channel.
    """
    if nominal is None:
        nominal = EulerState()
    if w is None:
        w = WorldConstants()
    Cy = np.zeros((6, 6))
    Cy[:, :3] = measurement_jacobian(nominal.attitude.as_array(), w.reference_rows())
    return Cy, np.eye(6)


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


def assemble_model(
    process: tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]],
    measurement: tuple[NDArray[np.float64], NDArray[np.float64]],
    noise: NoiseParams,
    cz: NDArray[np.float64] | None = None,
) -> LinearModel:
    """Assemble the LinearModel, folding noise stds into the Bw/Dw columns.

    The synthesis consumes unit-intensity white noise, so the covariances
    enter by scaling: the n_w/n_b columns of Bw_process and the n_a/n_m
    columns of Dw_meas are multiplied by their standard deviations.

    Parameters
    ----------
    process : tuple
        (A, Bu, Bw_process) from :func:`jacobians_process`.
    measurement : tuple
        (Cy, Dw_meas) from :func:`jacobians_measurement`.
    noise : NoiseParams
    cz : numpy.ndarray, optional
        Performance output map; defaults to attitude-only, [I3 03].
    """
    A, Bu, Bw_process = (np.asarray(m, dtype=np.float64) for m in process)
    Cy, Dw_meas = (np.asarray(m, dtype=np.float64) for m in measurement)
    scale_proc = np.diag([noise.n_w] * 3 + [noise.n_b] * 3)
    scale_meas = np.diag([noise.n_a] * 3 + [noise.n_m] * 3)
    Bw = np.hstack([Bw_process @ scale_proc, np.zeros((6, 6))])
    Dw = np.hstack([np.zeros((6, 6)), Dw_meas @ scale_meas])
    return LinearModel(
        A=A,
        Bu=Bu,
        Bw=Bw,
        Cy=Cy,
        Du=np.zeros((6, 3)),
        Dw=Dw,
        Cz=_CZ_DEFAULT.copy() if cz is None else np.asarray(cz, dtype=np.float64),
    )


def nominal_model(
    noise: NoiseParams | None = None, world: WorldConstants | None = None
) -> LinearModel:
    """LinearModel at the zero nominal point with the given noise and world."""
    noise = NoiseParams() if noise is None else noise
    world = WorldConstants() if world is None else world
    return assemble_model(
        jacobians_process(), jacobians_measurement(w=world), noise
    )
