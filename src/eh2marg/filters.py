"""The extended-H2 filter and the discrete-time EKF baseline.

The extended-H2 filter propagates the full nonlinear models with a fixed,
precomputed gain: ``xhat_dot = f(xhat, u, 0) + L0 (h(xhat, 0) - y)``.  The
EKF baseline re-linearizes per step and propagates a covariance.  Both
filters consume one :class:`~eh2marg.sensors.ImuSample` per step: the
sample's gyro drives the propagation over dt and the same sample's
accel/mag form the innovation — for the extended-H2 filter the measurement
is held constant over the RK4 step, for the EKF it is applied to the
predicted state.

:func:`eh2` and :func:`ekf` are the steps on plain arrays: one ``(6,)``
state, or an ``(N, 6)`` stack of states (with ``(N, 6, 6)`` covariances)
that the Monte-Carlo harness advances together, one call per time step.
:func:`eh2_step` and :func:`ekf_step` wrap them for the validated state
containers.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .dynamics import EulerState, checked_state, measurement_model, process_model, rk4_step
from .errors import DegenerateSample, InnovationCovSingular
from .kinematics import (
    EPS_GIMBAL,
    EulerAngles,
    _matvec,
    attitude_matrices,
    dcm_body_from_inertial,
    kinematic_matrix,
    wrap_angle,
)
from .linearization import measurement_jacobian, rate_jacobian
from .sensors import ImuSample, NoiseParams, WorldConstants

__all__ = [
    "DEFAULT_P0",
    "EH2FilterState",
    "EKFState",
    "eh2",
    "eh2_step",
    "ekf",
    "check_gravity_along_z",
    "ekf_step",
    "initialize_from_first_sample",
]

#: Default initial EKF covariance: 0.1 rad attitude std, 0.01 rad/s bias std.
DEFAULT_P0 = np.diag([0.1**2] * 3 + [0.01**2] * 3)

_EYE6 = np.eye(6)
_DIAG6 = np.arange(6)

#: Largest horizontal share of g (|g_xy| / |g|) that still counts as gravity along +z.
_GRAVITY_AXIS_RTOL = 1e-12


@dataclass(frozen=True)
class EH2FilterState:
    """Extended-H2 filter state: the estimate plus the fixed gain L0.

    L0 should come from a :class:`~eh2marg.synthesis.GainCertificate` with
    ``lmi_feasible`` true (or from a gain file exported from one).
    """

    xhat: EulerState
    L0: NDArray[np.float64]

    def __post_init__(self) -> None:
        L0 = np.asarray(self.L0, dtype=np.float64)
        if L0.shape != (6, 6) or not np.all(np.isfinite(L0)):
            raise ValueError("L0 must be a finite 6x6 matrix")
        object.__setattr__(self, "L0", L0)


@dataclass(frozen=True)
class EKFState:
    """EKF state: the estimate plus its covariance (symmetrized every step)."""

    xhat: EulerState
    P: NDArray[np.float64] = field(default_factory=lambda: DEFAULT_P0.copy())

    def __post_init__(self) -> None:
        P = np.asarray(self.P, dtype=np.float64)
        if P.shape != (6, 6) or not np.all(np.isfinite(P)):
            raise ValueError("P must be a finite 6x6 matrix")
        object.__setattr__(self, "P", P)


def eh2(
    x: NDArray[np.float64],
    omega: NDArray[np.float64],
    y: NDArray[np.float64],
    L: NDArray[np.float64],
    references: NDArray[np.float64],
    dt: float,
) -> NDArray[np.float64]:
    """One RK4 step of the extended-H2 filter on arrays; y is held over the step.

    ``xhat_dot = f(xhat, omega) + L (h(xhat) - y)`` with ``references`` the
    rows [g; h] of :meth:`~eh2marg.sensors.WorldConstants.reference_rows`.
    ``x``, ``omega`` and ``y`` are (6,), (3,), (6,) for one filter, or
    (N, 6), (N, 3), (N, 6) for N filters that share L and dt.

    Raises
    ------
    GimbalLockError
        If the estimate (of any row) enters the gimbal guard band during the step.
    NonFiniteState
        If the new estimate is not finite.
    """

    def xdot(xs):
        # process_model(xs, omega) + L (measurement_model(xs[:3], references) - y)
        # written out so that T and R share one sine/cosine evaluation: the
        # derivative runs four times per step, and per-step cost is what the
        # filter is compared on.
        T, R = attitude_matrices(xs[..., :3])
        out = _matvec(L, (references @ R.mT).reshape(y.shape) - y)
        out[..., :3] += _matvec(T, omega - xs[..., 3:])
        return out

    return rk4_step(xdot, x, dt)


def ekf(
    x: NDArray[np.float64],
    P: NDArray[np.float64],
    omega: NDArray[np.float64],
    y: NDArray[np.float64],
    q: NoiseParams,
    references: NDArray[np.float64],
    dt: float,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """One EKF predict+update cycle on arrays; returns the new (x, P).

    Predict: RK4 mean propagation with the gyro sample, covariance through
    F = I + A dt and Qd, both linearized at the current estimate.  Update:
    Kalman gain from the innovation covariance with H linearized at the
    prediction, then the covariance is symmetrized.  ``x``/``P`` are (6,)
    and (6, 6) for one filter, or (N, 6) and (N, 6, 6) for N filters.

    Raises
    ------
    GimbalLockError
        If the estimate (of any row) enters the gimbal guard band.
    InnovationCovSingular
        If H P- H^T + R (of any row) is numerically singular.
    NonFiniteState
        If the new estimate is not finite.
    """
    T = kinematic_matrix(x[..., :3])
    F = np.empty_like(P)
    F[...] = _EYE6
    F[..., :3, :3] += dt * rate_jacobian(x[..., :3], omega - x[..., 3:])
    F[..., :3, 3:] = -dt * T
    xp = rk4_step(lambda xs: process_model(xs, omega), x, dt)
    Qd = np.zeros(P.shape)
    Qd[..., :3, :3] = q.n_w * q.n_w * (T @ T.mT) * dt
    Qd[..., 3:, 3:] = q.n_b * q.n_b * dt * np.eye(3)
    Pp = F @ P @ F.mT + Qd
    H = np.zeros(P.shape)
    H[..., :, :3] = measurement_jacobian(xp[..., :3], references)
    S = H @ Pp @ H.mT
    S[..., _DIAG6, _DIAG6] += [q.n_a * q.n_a] * 3 + [q.n_m * q.n_m] * 3
    PHt = Pp @ H.mT
    try:
        K = np.linalg.solve(S, PHt.mT).mT
    except np.linalg.LinAlgError as exc:
        raise InnovationCovSingular(f"innovation covariance solve failed: {exc}") from exc
    x_new = checked_state(xp + _matvec(K, y - measurement_model(xp[..., :3], references)))
    P_new = (_EYE6 - K @ H) @ Pp
    return x_new, 0.5 * (P_new + P_new.mT)


def eh2_step(
    s: EH2FilterState, sample: ImuSample, w: WorldConstants, dt: float
) -> EH2FilterState:
    """Advance the extended-H2 filter one RK4 step (see :func:`eh2`).

    Raises
    ------
    GimbalLockError
        If the estimate enters the gimbal guard band during the step.
    NonFiniteState
        If the new estimate is not finite.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    x = eh2(
        s.xhat.as_vector(),
        sample.omega_m,
        sample.stacked_measurement(),
        s.L0,
        w.reference_rows(),
        dt,
    )
    return EH2FilterState(xhat=EulerState.from_vector(x), L0=s.L0)


def ekf_step(
    s: EKFState,
    sample: ImuSample,
    w: WorldConstants,
    q: NoiseParams,
    dt: float,
) -> EKFState:
    """Advance the EKF one predict+update cycle (see :func:`ekf`).

    Raises
    ------
    GimbalLockError
        If the estimate enters the gimbal guard band.
    InnovationCovSingular
        If H P- H^T + R is numerically singular.
    NonFiniteState
        If the new estimate is not finite.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    x, P = ekf(
        s.xhat.as_vector(),
        s.P,
        sample.omega_m,
        sample.stacked_measurement(),
        q,
        w.reference_rows(),
        dt,
    )
    return EKFState(xhat=EulerState.from_vector(x), P=P)


def check_gravity_along_z(w: WorldConstants) -> None:
    """Reject a world whose gravity is not along the inertial +z axis.

    :func:`initialize_from_first_sample` reads roll and pitch off the
    accelerometer as if gravity pointed along +z; for any other direction it
    would return a wrong attitude without noticing.

    Raises
    ------
    ValueError
        If g_z <= 0 or |(g_x, g_y)| exceeds ``1e-12 |g|``.
    """
    g = w.g_inertial
    if g[2] <= 0.0 or np.hypot(g[0], g[1]) > _GRAVITY_AXIS_RTOL * np.linalg.norm(g):
        raise ValueError(
            f"initialization assumes gravity along +z, got g_inertial = {g.tolist()}"
        )


def initialize_from_first_sample(sample: ImuSample, w: WorldConstants) -> EulerState:
    """Static attitude initialization from one accel/mag sample; bias starts at 0.

    Roll and pitch come from the accelerometer (gravity direction), yaw from
    the tilt-compensated magnetometer.  The construction assumes gravity
    points along the inertial +z axis, as in the default world constants.

    Raises
    ------
    ValueError
        If ``w.g_inertial`` is not along +z (see :func:`check_gravity_along_z`).
    DegenerateSample
        If the accelerometer magnitude is below half of |g| (free-fall-like,
        attitude unobservable from the accelerometer).
    """
    check_gravity_along_z(w)
    g_norm = float(np.linalg.norm(w.g_inertial))
    a = sample.a_m
    if np.linalg.norm(a) < 0.5 * g_norm:
        raise DegenerateSample(
            f"|a_m| = {np.linalg.norm(a):.3g} < 0.5 |g| = {0.5 * g_norm:.3g}"
        )
    phi = float(np.arctan2(a[1], a[2]))
    theta = float(-np.arcsin(np.clip(a[0] / g_norm, -1.0, 1.0)))
    # Saturate just inside the gimbal guard so a vertical sample still yields
    # a usable (if degraded) initial state instead of an invalid one.
    theta_max = np.pi / 2.0 - EPS_GIMBAL
    theta = float(np.clip(theta, -theta_max, theta_max))
    tilt = dcm_body_from_inertial(EulerAngles(wrap_angle(phi), theta, 0.0))
    m_level = tilt.T @ sample.m_m
    h = w.h_inertial
    psi = float(np.arctan2(h[1], h[0]) - np.arctan2(m_level[1], m_level[0]))
    return EulerState(
        attitude=EulerAngles(wrap_angle(phi), theta, wrap_angle(psi)),
        bias=np.zeros(3),
    )
