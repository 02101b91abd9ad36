"""The extended-H2 filter and the discrete-time EKF baseline.

The extended-H2 filter propagates the full nonlinear models with a fixed,
precomputed gain: ``xhat_dot = f(xhat, u, 0) + L0 (h(xhat, 0) - y)``.  The
EKF baseline propagates a covariance and re-linearizes at every estimate
with :func:`~eh2marg.linearization.jacobians_process` and
:func:`~eh2marg.linearization.jacobians_measurement`, the same two functions
the offline gain design evaluates at the nominal point, so it linearizes
the very model the gain was designed on.  Neither builds R(Phi): the EKF
gets h and Cy together from one constant table applied to trigonometric
products of Phi, and the extended-H2 filter folds L0 into the table's h
rows, so each RK4 stage gets L0 h(xhat) from one matrix-vector product.
The constant table is the world's
(:meth:`~eh2marg.sensors.WorldConstants.rotation_table`), built with it.
The gain table L0 C_h is built once per run, by the harness's eh2 plan
(:func:`_paper_plans`), and online once per state and world, as each
:class:`EH2FilterState` passes it on; nothing is cached per call.  The RK4
stages apply T(Phi) to vectors; only the EKF's A holds T as a matrix (Bw's
gyro block is read off it), and the EKF takes its first RK4 stage from A.
The EKF forms the body rates u = omega - b once per step: b is constant over
the step, so it integrates the attitude alone at u.  Both filters consume
one :class:`~eh2marg.sensors.ImuSample` per step: step k takes sample k,
measured at t_k, and returns the estimate at t_{k+1}.  The sample's gyro
drives the propagation from t_k to t_{k+1}.  The extended-H2 filter holds
the sample's accel/mag constant over [t_k, t_{k+1}].  The EKF compares them
with h at its prediction for t_{k+1}, so its measurement is one sample older
than the state it corrects.

:func:`eh2` and :func:`ekf` are the steps on plain arrays and the gain table
or the world: one ``(6,)`` state, or a ``(6, N)`` component-major stack of
states (with ``(3, N)`` gyro and ``(6, N)`` accel/mag samples, and
``(N, 6, 6)`` covariances) that the Monte-Carlo harness advances together,
one call per time step.  Every matrix-vector product runs through
``np.matvec`` on a C-contiguous (N, k) operand, the vectors of the stack as
rows, which is the kernel one state runs, so each member of a stack gets its
own run's bits.  One state runs the rest on the Python floats of its state
(:func:`_eh2_floats`, :func:`~eh2marg.dynamics._rk4_floats`): the RK4 stage
sums, each stage's derivative arithmetic, the finiteness check, the wrap and
the gimbal checks are the IEEE operations a stack's arrays run, so they give
the same bits, without a numpy call on 3 or 6 entries each.  numpy stays
where the bits come from a kernel: ``np.sin``/``np.cos`` on one (3,)
attitude per stage (``math.sin`` is not promised to round as numpy does),
the ``np.matvec`` products (L y, the gain table, A's -T block for the EKF's
first stage, K times the innovation), and the EKF's covariance algebra and
solve.  The solve calls LAPACK's gesv gufunc, the one ``np.linalg.solve``
runs, under the same error state but without its wrapper (:func:`_solve`).
:func:`eh2_step` and :func:`ekf_step` wrap the steps for the validated
state containers.  Each value is checked once on that path: the
containers' constructors check what a caller builds, the steps check the new
estimate (:func:`~eh2marg.dynamics.checked_state`), and
``EKFState._from_checked`` checks the EKF's new covariance for finiteness.
The new estimate, the new covariance and the unchanged gain go into the new
containers through private constructors that do not check them again or
copy them, and mark them read-only: every container keeps read-only
arrays, which the public constructors copy.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve as _gesv
from numpy.typing import NDArray

from .dynamics import (
    EulerState,
    _checked_floats,
    _held_rates,
    _rk4_floats,
    checked_state,
    process_model,
    rk4_step,
)
from .errors import DegenerateSample, InnovationCovSingular
from .kinematics import (
    EulerAngles,
    _Container,
    _GIMBAL_BOUND,
    _check_gimbal,
    _check_pitch,
    _columns,
    _euler_rates,
    _frozen,
    _monomials,
    _rows,
    _sin_cos,
    dcm_body_from_inertial,
    wrap_angle,
)
from .linearization import jacobians_measurement, jacobians_process
from .sensors import ImuSample, NoiseParams, WorldConstants, _finite

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

#: Default initial EKF covariance: 0.1 rad attitude std, 0.01 rad/s bias std; read-only.
DEFAULT_P0 = _frozen(np.diag([0.1**2] * 3 + [0.01**2] * 3))

_EYE6 = np.eye(6)
#: The symmetrization's 1/2, as a 0-d operand (see :mod:`~eh2marg.kinematics`).
_HALF = _frozen(0.5)

#: Largest horizontal share of g (|g_xy| / |g|) that still counts as gravity along +z.
_GRAVITY_AXIS_RTOL = 1e-12

@dataclass(frozen=True, eq=False)
class EH2FilterState(_Container):
    """Extended-H2 filter state: the estimate plus the fixed gain L0.

    L0 should come from a :class:`~eh2marg.synthesis.GainCertificate` with
    ``lmi_feasible`` true (or from a gain file exported from one); the
    state keeps a read-only copy, and the gain table L0 C_h of the world it
    was last stepped in, which :func:`eh2_step` builds and passes on.
    """

    xhat: EulerState
    L0: NDArray[np.float64]

    def __post_init__(self) -> None:
        L0 = _frozen(self.L0)
        if L0.shape != (6, 6) or not _finite(L0):
            raise ValueError("L0 must be a finite 6x6 matrix")
        self.__dict__.update(L0=L0, _world=None, _table=None)

    @classmethod
    def _from_checked(cls, xhat, L0, world, table) -> "EH2FilterState":
        """The state the constructor builds, holding ``table`` = L0 C_h in
        ``world``, from what :func:`eh2_step` has just stepped with: L0 is not
        checked again, as a non-finite gain would have made :func:`eh2` raise."""
        state = object.__new__(cls)
        state.__dict__.update(xhat=xhat, L0=L0, _world=world, _table=table)
        return state


@dataclass(frozen=True, eq=False)
class EKFState(_Container):
    """EKF state: the estimate plus a read-only copy of its covariance (symmetrized every step)."""

    xhat: EulerState
    P: NDArray[np.float64] = field(default_factory=lambda: DEFAULT_P0)

    def __post_init__(self) -> None:
        P = _frozen(self.P)
        if P.shape != (6, 6) or not _finite(P):
            raise ValueError("P must be a finite 6x6 matrix")
        object.__setattr__(self, "P", P)

    @classmethod
    def _from_checked(cls, xhat, P) -> "EKFState":
        """The state the constructor builds from what :func:`ekf_step` has just
        stepped: ``xhat`` is checked, and the fresh (6, 6) float64 ``P`` of
        :func:`ekf` is checked once, for finiteness, then marked read-only
        and kept, where the constructor keeps a copy."""
        if not _finite(P):
            raise ValueError("P must be a finite 6x6 matrix")
        P.flags.writeable = False
        state = object.__new__(cls)
        state.__dict__.update(xhat=xhat, P=P)
        return state


def _singular(err: str, flag: int) -> None:
    """The error-state callback of :func:`_solve`: gesv flags a singular matrix as invalid."""
    raise LinAlgError("Singular matrix")


@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _solve(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """``np.linalg.solve(a, b)`` for float64 (..., 6, 6) operands: the same
    LAPACK gesv gufunc under the same error state, without the wrapper's
    conversions and checks: 3.6 against 8.4 us for one (6, 6) solve
    (numpy 2.4, x86-64).
    An exactly singular ``a`` sets the invalid flag, and :func:`_singular`
    raises LinAlgError for it, as numpy's own callback does."""
    return _gesv(a, b, signature="dd->d")


def _folded_gain(L: NDArray[np.float64], world: WorldConstants) -> NDArray[np.float64]:
    """The gain table :func:`eh2` takes: L C_h, read-only, with C_h the h
    rows of the world's rotation table."""
    return _frozen(L @ world.rotation_table()[:6])


def eh2(
    x: NDArray[np.float64],
    omega: NDArray[np.float64],
    y: NDArray[np.float64],
    L: NDArray[np.float64],
    gain_table: NDArray[np.float64],
    dt: float,
) -> NDArray[np.float64]:
    """One RK4 step of the extended-H2 filter on arrays; y is held over the step.

    ``xhat_dot = f(xhat, omega) + L (h(xhat) - y)`` with h = [R g; R h] for
    the reference vectors of a world.  L h(xhat) is ``gain_table`` m(xhat):
    ``gain_table`` is L C_h, C_h the h rows of the world's rotation table,
    built once per gain and world by the caller, and m the trigonometric
    products of xhat.  L y is formed once per call.
    ``x``, ``omega`` and ``y`` are (6,), (3,), (6,) for one filter, or
    (6, N), (3, N), (6, N) for N filters that share L and dt.

    Raises
    ------
    GimbalLockError
        If the estimate (of any member) enters the gimbal guard band during the step.
    NonFiniteState
        If the new estimate is not finite.
    """

    # y is held over the step, so L y is the same in all four stages; it
    # stays in the (N, 6) rows np.matvec gives.
    Ly = np.matvec(L, _rows(y))
    if x.ndim == 1:
        return np.array(_eh2_floats(x.tolist(), omega.tolist(), Ly.tolist(), gain_table, dt))

    def xdot(xs):
        # f(xs, omega) + L (h(xs) - y) from one gimbal check and one
        # sine/cosine evaluation, with T and R never built: the derivative
        # runs four times per step, and per-step cost is what the filter is
        # compared on.
        _check_gimbal(xs)
        s, c = _sin_cos(xs[:3])
        out = _columns(np.matvec(gain_table, _monomials(s, c)) - Ly)
        r0, r1, r2 = _euler_rates(s, c, omega - xs[3:])
        out[0] += r0
        out[1] += r1
        out[2] += r2
        return out

    return rk4_step(xdot, x, dt)


def _eh2_floats(
    x: list[float], omega: list[float], Ly: list[float], gain_table: NDArray[np.float64], dt: float
) -> list[float]:
    """The step of :func:`eh2` for one state, on the Python floats of the
    state, the gyro sample and L y: the same operations as a stack's, so the
    same bits.  Each stage's sines and cosines and its product with the
    gain table stay numpy calls on one attitude."""

    def xdot(p0, p1, p2, b0, b1, b2):
        _check_pitch(p1)
        s, c = _sin_cos(np.array((p0, p1, p2)))
        g0, g1, g2, g3, g4, g5 = np.matvec(gain_table, _monomials(s, c)).tolist()
        w0, w1, w2 = omega
        r0, r1, r2 = _euler_rates(s, c, (w0 - b0, w1 - b1, w2 - b2))
        l0, l1, l2, l3, l4, l5 = Ly
        return g0 - l0 + r0, g1 - l1 + r1, g2 - l2 + r2, g3 - l3, g4 - l4, g5 - l5

    return _rk4_floats(xdot, x, float(dt), xdot(*x))


def ekf(
    x: NDArray[np.float64],
    P: NDArray[np.float64],
    omega: NDArray[np.float64],
    y: NDArray[np.float64],
    q: NoiseParams,
    world: WorldConstants,
    dt: float,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """One EKF predict+update cycle on arrays; returns the new (x, P).

    The EKF re-linearizes the design model of the extended-H2 gain at every
    estimate: A, Bw come from :func:`~eh2marg.linearization.jacobians_process`
    at the current estimate, and h = [R g; R h] with Cy from
    :func:`~eh2marg.linearization.jacobians_measurement` at the prediction;
    both are read off one set of trigonometric products.  A step evaluates
    sine and cosine five times: once in each Jacobian function and once in
    each of RK4 stages 2-4; stage 1, T(x)(omega - b), comes from the -T
    block of A.
    Predict: RK4 mean propagation with the gyro sample, covariance through
    F = I + A dt and Qd = Bw Bw^T dt.  Update: innovation y - h, with y the
    sample measured at the start of the step and h taken at the prediction
    for its end, one dt later; Kalman gain from S = H P- H^T + R with H = Cy
    and R = Dw Dw^T of the design model, the diagonal r of squared
    accelerometer and magnetometer standard deviations, both built with
    ``q``, solved by LAPACK's gesv as in ``np.linalg.solve``; then the Joseph
    form (I - K H) P- (I - K H)^T + (K r) K^T, symmetrized.  ``x``/``P``
    are (6,) and (6, 6) for one filter, or (6, N) and (N, 6, 6) for N
    filters.  The body rates u = omega - b are formed once: b stays constant
    over the prediction, so RK4 integrates the attitude alone at u.

    Raises
    ------
    GimbalLockError
        If the estimate (of any member) enters the gimbal guard band.
    InnovationCovSingular
        If H P- H^T + R (of any member) is numerically singular.
    NonFiniteState
        If the new estimate is not finite.
    """
    one = x.ndim == 1
    u = omega - x[3:]
    A, Bw = jacobians_process(x[:3], u, q)
    F = _EYE6 + dt * A
    # RK4 stage 1 is T(x) u, and A already holds -T(x).
    k1 = np.matvec(A[..., :3, 3:], _rows(u))
    if one:
        # One state runs on the Python floats of x and u (see _rk4_floats),
        # with zero bias rates; b is kept as it was, as b + 0.0 would turn
        # a -0.0 into 0.0.
        xs = x.tolist()
        t0, t1, t2 = k1.tolist()
        xp = _rk4_floats(_held_rates(u.tolist()), xs, float(dt), (-t0, -t1, -t2, 0.0, 0.0, 0.0))
        xp[3:] = xs[3:]
    else:
        k1 = _columns(-k1)
        xp = np.concatenate((rk4_step(lambda a: process_model(a, u), x[:3], dt, k1), x[3:]))
    Pp = F @ P @ F.mT + dt * (Bw @ Bw.mT)
    # The update holds the step's memory peak, and needs none of these.
    del A, Bw, F, k1, u
    h, H = jacobians_measurement(np.asarray(xp[:3]), world)
    r, R = q.measurement_variances()
    try:
        # K = P- H^T S^-1 with S = H P- H^T + R, neither kept past the solve.
        K = _solve(H @ Pp @ H.mT + R, (Pp @ H.mT).mT).mT
    except LinAlgError as exc:
        raise InnovationCovSingular(f"innovation covariance solve failed: {exc}") from exc
    dx = np.matvec(K, _rows(y - h))
    if one:
        x_new = np.array(_checked_floats([a + d for a, d in zip(xp, dx.tolist())]))
    else:
        x_new = checked_state(xp + _columns(dx))
    del dx, xp  # as above: the covariance update needs neither
    I_KH = _EYE6 - K @ H
    P_new = I_KH @ Pp @ I_KH.mT + (K * r) @ K.mT
    return x_new, _HALF * (P_new + P_new.mT)


def eh2_step(
    s: EH2FilterState, sample: ImuSample, w: WorldConstants, dt: float
) -> EH2FilterState:
    """Advance the extended-H2 filter one RK4 step (see :func:`eh2`).

    The gain table L0 C_h is the one ``s`` holds if it was stepped in ``w``, or built.
    The new estimate is checked once, by the :func:`~eh2marg.dynamics.checked_state`
    that ends the step, and the gain not again; both go into the new state with the table.

    Raises
    ------
    ValueError
        If ``dt`` is not finite and > 0.
    GimbalLockError
        If the estimate enters the gimbal guard band during the step.
    NonFiniteState
        If the new estimate is not finite.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    table = s._table if w is s._world else _folded_gain(s.L0, w)
    x = eh2(s.xhat._vector, sample.omega_m, sample.stacked_measurement(), s.L0, table, dt)
    return EH2FilterState._from_checked(EulerState._from_checked(x), s.L0, w, table)


def ekf_step(
    s: EKFState,
    sample: ImuSample,
    w: WorldConstants,
    q: NoiseParams,
    dt: float,
) -> EKFState:
    """Advance the EKF one predict+update cycle (see :func:`ekf`).

    The new estimate is checked once, by the :func:`~eh2marg.dynamics.checked_state`
    that ends the update, and the new covariance once, for finiteness; both
    go into the new state as they are, read-only, without a copy.

    Raises
    ------
    ValueError
        If ``dt`` is not finite and > 0, or the new covariance is not finite.
    GimbalLockError
        If the estimate enters the gimbal guard band.
    InnovationCovSingular
        If H P- H^T + R is numerically singular.
    NonFiniteState
        If the new estimate is not finite.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    y = sample.stacked_measurement()
    x, P = ekf(s.xhat._vector, s.P, sample.omega_m, y, q, w, dt)
    return EKFState._from_checked(EulerState._from_checked(x), P)


class _Plan(NamedTuple):
    """One filter of a run's table: ``start`` maps N trials' (6, N) initial
    estimates to its stacked state, estimate first, and ``step`` maps the state
    and a time step's (3, N) gyro and (6, N) accel/mag to the next one."""

    name: str
    start: Callable[[NDArray[np.float64]], tuple]
    step: Callable[..., tuple]


def _paper_plans(L0, noise: NoiseParams, world: WorldConstants, dt) -> tuple[_Plan, ...]:
    """The paper's pair, eh2 then the EKF, built once per run: eh2's gain
    table L0 C_h is formed here, and the EKF starts from :data:`DEFAULT_P0`.

    This is the one place the pair is named.  A plan table's contract, which
    the harness reads: plans come in (filter, baseline) pairs, in order.  A
    run's CSV holds one ``phi_/theta_/psi_<name>`` triple per plan, in table
    order, and its aggregate compares each filter with the baseline after
    it, as ``yaw_wins_<filter>`` and ``ratio_<filter>_over_<baseline>``."""
    table = _folded_gain(L0, world)
    return (
        _Plan("eh2", lambda x0: (x0,), lambda x, om, y: (eh2(x, om, y, L0, table, dt),)),
        _Plan(
            "ekf",
            lambda x0: (x0, np.repeat(DEFAULT_P0[None], x0.shape[1], axis=0)),
            lambda x, P, om, y: ekf(x, P, om, y, noise, world, dt),
        ),
    )


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
    g = w.g_inertial.tolist()
    if g[2] <= 0.0 or math.hypot(g[0], g[1]) > _GRAVITY_AXIS_RTOL * math.hypot(*g):
        raise ValueError(f"initialization assumes gravity along +z, got g_inertial = {g}")


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
        attitude unobservable from the accelerometer), or the levelled
        magnetometer's horizontal magnitude is below half of the world's
        horizontal field hypot(h_x, h_y) (a dead or vertical magnetometer,
        heading unobservable).
    """
    check_gravity_along_z(w)
    g_norm = math.hypot(*w.g_inertial.tolist())
    a = sample.a_m
    a_norm = math.hypot(*a.tolist())
    if a_norm < 0.5 * g_norm:
        raise DegenerateSample(f"|a_m| = {a_norm:.3g} < 0.5 |g| = {0.5 * g_norm:.3g}")
    phi = float(np.arctan2(a[1], a[2]))
    theta = float(-np.arcsin(np.clip(a[0] / g_norm, -1.0, 1.0)))
    # Saturate just inside the gimbal guard so a vertical sample still yields
    # a usable (if degraded) initial state instead of an invalid one.
    theta = float(np.clip(theta, -_GIMBAL_BOUND, _GIMBAL_BOUND))
    tilt = dcm_body_from_inertial(EulerAngles(wrap_angle(phi), theta, 0.0))
    m_level = tilt.T @ sample.m_m
    h = w.h_inertial
    m_xy, h_xy = math.hypot(*m_level[:2].tolist()), math.hypot(*h[:2].tolist())
    if m_xy < 0.5 * h_xy:
        raise DegenerateSample(f"horizontal |m_m| = {m_xy:.3g} < 0.5 |h_xy| = {0.5 * h_xy:.3g}")
    psi = float(np.arctan2(h[1], h[0]) - np.arctan2(m_level[1], m_level[0]))
    return EulerState(
        attitude=EulerAngles(wrap_angle(phi), theta, wrap_angle(psi)),
        bias=np.zeros(3),
    )
