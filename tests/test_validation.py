"""The checks of the step-path containers and the gimbal guard, input by input.

Each case pins the exception type and the exact message, so that a cheaper
form of a check is held to rejecting what the numpy form rejected, in the
same words.
"""

import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eh2marg import kinematics
from eh2marg.dynamics import EulerState, checked_state
from eh2marg.errors import GimbalLockError, LengthMismatch, NonFiniteState
from eh2marg.filters import DEFAULT_P0, EH2FilterState, EKFState
from eh2marg.harness import ScenarioConfig, Trajectory, generate_trajectory
from eh2marg.kinematics import (
    _GIMBAL_BOUND,
    _GIMBAL_SLACK,
    EPS_GIMBAL,
    EulerAngles,
    _check_gimbal,
    _rotation_table,
    wrap_angle,
)
from eh2marg.linearization import LinearModel, nominal_model
from eh2marg.sensors import ImuSample, ImuStream, WorldConstants
from eh2marg.synthesis import GainCertificate

NONFINITE = [np.nan, np.inf, -np.inf]
HALF_PI = np.pi / 2.0


def _raises(make, exc_type, message):
    with pytest.raises(exc_type) as info:
        make()
    assert type(info.value) is exc_type
    assert str(info.value) == message


def _vec(i, bad):
    v = np.array([0.1, -0.2, 0.3])
    v[i] = bad
    return v


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("i", range(3))
@pytest.mark.parametrize("name", ["omega_m", "a_m", "m_m"])
def test_imu_sample_rejects_nonfinite_vector(name, i, bad):
    kwargs = dict(t=0.5, omega_m=[0.0, 0.0, 0.0], a_m=[0.0, 0.0, 9.81], m_m=[0.5, 0.0, 0.5])
    kwargs[name] = _vec(i, bad)
    _raises(lambda: ImuSample(**kwargs), ValueError, f"{name} must be finite, got {_vec(i, bad)!r}")


@pytest.mark.parametrize("t", NONFINITE + [np.float64(np.nan), np.array(np.inf)])
def test_imu_sample_rejects_nonfinite_time(t):
    _raises(
        lambda: ImuSample(t=t, omega_m=np.zeros(3), a_m=np.zeros(3), m_m=np.zeros(3)),
        ValueError,
        f"t must be finite, got {float(t)!r}",
    )


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("i", range(3))
@pytest.mark.parametrize("name", ["omega_m", "a_m", "m_m"])
def test_stream_sample_rejects_nonfinite_row_as_the_constructor(name, i, bad):
    # ImuStream.sample checks a row once and builds the sample without the
    # constructor; a row that fails goes through it, for its message.
    stream = ImuStream(np.arange(3) * 0.01, *(np.ones((3, 3)) for _ in range(4)))
    getattr(stream, name)[2] = _vec(i, bad)
    stream.sample(1)
    _raises(lambda: stream.sample(2), ValueError, f"{name} must be finite, got {_vec(i, bad)!r}")


@pytest.mark.parametrize("t", NONFINITE)
def test_stream_sample_rejects_nonfinite_time_as_the_constructor(t):
    stream = ImuStream(np.array([0.0, t]), *(np.ones((2, 3)) for _ in range(4)))
    stream.sample(0)
    _raises(lambda: stream.sample(1), ValueError, f"t must be finite, got {t!r}")


def test_imu_sample_takes_numpy_scalars_and_0d_time():
    for t in (np.float64(0.25), np.array(0.25), np.float32(0.25)):
        s = ImuSample(t=t, omega_m=np.zeros(3), a_m=np.zeros(3), m_m=np.zeros(3))
        assert type(s.t) is float and s.t == 0.25


@pytest.mark.parametrize("value", [np.zeros(2), np.zeros(4), np.array(1.0), np.zeros((1, 3, 1))])
def test_imu_sample_shape_checks_unchanged(value):
    size = np.asarray(value).size
    if size == 3:
        ImuSample(t=0.0, omega_m=value, a_m=np.zeros(3), m_m=np.zeros(3))
        return
    _raises(
        lambda: ImuSample(t=0.0, omega_m=value, a_m=np.zeros(3), m_m=np.zeros(3)),
        ValueError,
        f"cannot reshape array of size {size} into shape (3,)",
    )


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("name", ["phi", "theta", "psi"])
def test_euler_angles_reject_nonfinite(name, bad):
    values = dict(phi=0.1, theta=-0.2, psi=0.3)
    values[name] = bad
    _raises(lambda: EulerAngles(**values), ValueError, f"{name} must be finite, got {float(bad)!r}")
    # numpy-scalar and 0-d inputs give the same message
    values[name] = np.float64(bad)
    _raises(lambda: EulerAngles(**values), ValueError, f"{name} must be finite, got {float(bad)!r}")
    values[name] = np.array(bad)
    _raises(lambda: EulerAngles(**values), ValueError, f"{name} must be finite, got {float(bad)!r}")


@pytest.mark.parametrize("name", ["phi", "psi"])
def test_euler_angles_half_open_interval(name):
    values = dict(phi=0.0, theta=0.0, psi=0.0)
    for bad in (-np.pi, -math.pi, np.float64(-np.pi), 4.0, -4.0, np.nextafter(np.pi, 4.0)):
        values[name] = bad
        _raises(
            lambda: EulerAngles(**values),
            ValueError,
            f"{name} must lie in (-pi, pi], got {float(bad)!r}; use wrap_angle",
        )
    values[name] = np.pi
    assert getattr(EulerAngles(**values), name) == math.pi
    values[name] = np.nextafter(-np.pi, 0.0)
    assert getattr(EulerAngles(**values), name) == np.nextafter(-np.pi, 0.0)


@pytest.mark.parametrize(
    "theta", [HALF_PI, -HALF_PI, np.array(HALF_PI), np.float64(-HALF_PI), 2.0, -np.pi]
)
def test_euler_angles_reject_theta_at_or_beyond_half_pi(theta):
    _raises(
        lambda: EulerAngles(0.0, theta, 0.0),
        ValueError,
        f"theta must lie strictly inside (-pi/2, pi/2), got {float(theta)!r}",
    )


def test_euler_angles_keep_python_floats():
    e = EulerAngles(np.float64(0.1), np.array(-0.2), np.float32(0.5))
    assert all(type(v) is float for v in (e.phi, e.theta, e.psi))
    assert (e.phi, e.theta, e.psi) == (0.1, -0.2, float(np.float32(0.5)))
    inside = np.nextafter(HALF_PI, 0.0)
    assert EulerAngles(0.0, inside, 0.0).theta == inside
    assert EulerAngles(0.0, -inside, 0.0).theta == -inside


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("i", range(6))
def test_euler_state_from_vector_rejects_nonfinite(i, bad):
    x = np.array([0.1, -0.2, 0.3, 0.01, 0.02, 0.03])
    x[i] = bad
    if i < 3:
        name = ("phi", "theta", "psi")[i]
        message = f"{name} must be finite, got {float(bad)!r}"
    else:
        message = f"bias must be finite, got {x[3:]!r}"
    _raises(lambda: EulerState.from_vector(x), ValueError, message)


@pytest.mark.parametrize("bad", NONFINITE)
def test_euler_state_rejects_nonfinite_bias(bad):
    _raises(
        lambda: EulerState(bias=[0.0, bad, 0.0]),
        ValueError,
        f"bias must be finite, got {np.array([0.0, bad, 0.0])!r}",
    )


@pytest.mark.parametrize("bias", [[0.0, 0.0], np.zeros(4), np.zeros((3, 3)), 0.0])
def test_euler_state_rejects_wrong_shape_bias(bias):
    size = np.asarray(bias).size
    _raises(
        lambda: EulerState(bias=bias),
        ValueError,
        f"cannot reshape array of size {size} into shape (3,)",
    )


def test_euler_state_vector_round_trip_is_exact():
    x = np.array([np.pi, np.nextafter(-HALF_PI, 0.0), -3.0, 1e-300, -5e300, 0.0])
    s = EulerState.from_vector(x)
    assert np.array_equal(s.as_vector(), x)
    assert s.as_vector().dtype == np.float64
    assert np.array_equal(EulerState.from_vector(x.tolist()).as_vector(), x)


@pytest.mark.parametrize("bad", NONFINITE)
def test_filter_states_reject_nonfinite_matrices(bad):
    x = EulerState()
    for i in (0, 17, 35):
        m = np.eye(6)
        m.flat[i] = bad
        _raises(lambda: EH2FilterState(xhat=x, L0=m), ValueError, "L0 must be a finite 6x6 matrix")
        _raises(lambda: EKFState(xhat=x, P=m), ValueError, "P must be a finite 6x6 matrix")


@pytest.mark.parametrize("shape", [(6,), (5, 6), (6, 6, 1), (36,)])
def test_filter_states_reject_wrong_shape(shape):
    m = np.zeros(shape)
    _raises(lambda: EH2FilterState(xhat=EulerState(), L0=m), ValueError, "L0 must be a finite 6x6 matrix")
    _raises(lambda: EKFState(xhat=EulerState(), P=m), ValueError, "P must be a finite 6x6 matrix")


def test_world_rotation_table_is_built_once_from_read_only_vectors():
    w = WorldConstants(g_inertial=[0.0, 0.0, 9.8], h_inertial=[0.4, 0.1, 0.6])
    table = w.rotation_table()
    assert table is w.rotation_table()
    assert table.shape == (24, 27)
    assert np.array_equal(table, _rotation_table(np.stack([w.g_inertial, w.h_inertial])))
    # g and h are views of one read-only (2, 3) block, so they cannot drift apart.
    assert w.g_inertial.base is w.h_inertial.base is not None
    assert w.g_inertial.base.shape == (2, 3)
    for a in (table, w.g_inertial, w.h_inertial):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_world_does_not_freeze_or_alias_the_caller_array():
    g = np.array([0.0, 0.0, 9.81])
    w = WorldConstants(g_inertial=g)
    g[2] = 1.0
    assert g.flags.writeable
    assert w.g_inertial[2] == 9.81
    assert np.array_equal(w.rotation_table(), WorldConstants().rotation_table())


def test_containers_keep_read_only_copies_of_their_arrays():
    # Every source array is written after construction: a container that
    # kept it, or a view of it, would change after its checks passed.
    x = np.array([0.1, -0.2, 0.3, 0.01, -0.02, 0.03])
    bias, omega, a, m = np.full(3, 0.01), np.full(3, 0.1), np.array([0.0, 0.0, 9.81]), np.ones(3)
    L, P = np.eye(6), 2.0 * np.eye(6)
    stream = ImuStream(np.arange(2) * 0.01, *(np.ones((2, 3)) for _ in range(4)))
    sample = ImuSample(t=0.0, omega_m=omega, a_m=a, m_m=m)
    cert = GainCertificate(L=L, gamma=1.0, max_closedloop_real_eig=-1.0, lmi_feasible=True,
                           h2_norm=0.5)
    t, angles, rates = np.arange(3) * 0.01, np.zeros((3, 3)), np.ones((3, 3))
    traj = Trajectory(t=t, angles=angles, rates=rates)
    nominal = nominal_model()
    matrices = {name: getattr(nominal, name).copy() for name in ("A", "Bw", "Cy", "Dw", "Cz")}
    model = LinearModel(**matrices)
    kept = [
        (EulerState.from_vector(x).bias, x),
        (EulerState(bias=bias).bias, bias),
        (sample.omega_m, omega),
        (sample.a_m, a),
        (sample.m_m, m),
        (stream.sample(0).omega_m, stream.omega_m),
        (EH2FilterState(EulerState(), L).L0, L),
        (EKFState(EulerState(), P).P, P),
        (cert.L, L),
        (EKFState(EulerState()).P, None),
        (DEFAULT_P0, None),
        (traj.t, t),
        (traj.angles, angles),
        (traj.rates, rates),
        *((getattr(model, name), source) for name, source in matrices.items()),
    ]
    before = [held.copy() for held, _ in kept]
    for _, source in kept:
        if source is not None:
            source[...] = 7.0
    for (held, _), want in zip(kept, before):
        assert np.array_equal(held, want)
        assert not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 0.0


def test_generated_containers_keep_read_only_arrays():
    # generate_trajectory and nominal_model build their containers through
    # the public constructors, which keep read-only copies of their own.
    cfg = ScenarioConfig(case_id="custom", duration=0.05, amplitude_deg=(5.0, 5.0, 5.0),
                         angular_speed=0.5)
    traj, model = generate_trajectory(cfg), nominal_model()
    for arr in (traj.t, traj.angles, traj.rates, model.A, model.Bw, model.Cy, model.Dw, model.Cz):
        assert arr.flags.owndata and not arr.flags.writeable


def test_world_equality_compares_values():
    assert WorldConstants() == WorldConstants(g_inertial=[0, 0, 9.81], h_inertial=(0.48, 0, 0.58))
    assert WorldConstants() != WorldConstants(g_inertial=[0.0, 0.0, 9.8])


@pytest.mark.parametrize(
    "fields, shapes",
    [
        (dict(t=np.zeros(1)), "t (1,)"),
        (dict(t=np.zeros((5, 1))), "t (5, 1)"),
        (dict(omega_m=np.zeros((4, 3))), "omega_m (4, 3)"),
        (dict(a_m=np.zeros((5, 2))), "a_m (5, 2)"),
        (dict(m_m=np.zeros(15)), "m_m (15,)"),
        (dict(bias_true=np.zeros((6, 3))), "bias_true (6, 3)"),
    ],
)
def test_imu_stream_checks_shapes_at_construction(fields, shapes):
    n = 5
    arrays = dict(
        t=np.arange(n) * 0.01,
        omega_m=np.zeros((n, 3)),
        a_m=np.zeros((n, 3)),
        m_m=np.zeros((n, 3)),
        bias_true=np.zeros((n, 3)),
    )
    ImuStream(**arrays)
    arrays.update(fields)
    with pytest.raises(LengthMismatch, match=r"^ImuStream needs t of shape \(n,\) with n >= 2 "):
        ImuStream(**arrays)
    with pytest.raises(LengthMismatch, match=re.escape(shapes)):
        ImuStream(**arrays)


def _rows_rejected_one_by_one(thetas):
    bad = []
    for i, theta in enumerate(thetas):
        try:
            _check_gimbal(np.array([0.0, theta, 0.0]))
        except GimbalLockError:
            bad.append(i)
    return bad


def _rows_rejected_stacked(states):
    try:
        _check_gimbal(states)
    except GimbalLockError as exc:
        return json.loads(str(exc).split(" of rows ")[1].split(" does not wrap")[0])
    return []


EDGE = HALF_PI - EPS_GIMBAL
EDGE_THETAS = [
    EDGE,
    np.nextafter(EDGE, 0.0),
    np.nextafter(EDGE, 2.0),
    -EDGE,
    np.nextafter(-EDGE, 0.0),
    np.nextafter(-EDGE, -2.0),
    EDGE - 1e-12,
    -EDGE + 1e-12,
    EDGE + 2.0 * np.pi,
    np.nextafter(EDGE, 0.0) - 2.0 * np.pi,
    0.3 + 2.0 * np.pi,
    -0.3 - 4.0 * np.pi,
    np.pi - 0.2,
    -np.pi + 0.2,
    np.pi,
    3.0 * np.pi / 2.0,
    0.0,
]


@pytest.mark.parametrize("theta", EDGE_THETAS)
def test_stacked_gimbal_guard_equals_row_by_row(theta):
    thetas = [0.1, theta, -0.4]
    states = np.zeros((6, 3))
    states[1] = thetas
    expected = _rows_rejected_one_by_one(thetas)
    assert _rows_rejected_stacked(states) == expected
    assert _rows_rejected_stacked(states[:3]) == expected


def test_stacked_gimbal_guard_lists_every_rejected_row():
    states = np.zeros((3, len(EDGE_THETAS)))
    states[1] = EDGE_THETAS
    expected = _rows_rejected_one_by_one(EDGE_THETAS)
    assert expected  # the edge set holds rows on both sides of the band
    assert len(expected) < len(EDGE_THETAS)
    assert _rows_rejected_stacked(states) == expected
    with pytest.raises(GimbalLockError) as info:
        _check_gimbal(states)
    assert str(info.value) == (
        f"pitch {states[1, expected]!r} rad of rows {expected} does not wrap to "
        f"inside (-pi/2 + {EPS_GIMBAL}, pi/2 - {EPS_GIMBAL}) rad"
    )


@pytest.mark.parametrize("theta", [2.0, -3.0, HALF_PI])
def test_gimbal_message_states_the_band_the_pitch_misses(theta):
    # 2.0 and -3.0 rad are far from +/- pi/2 but still rejected (they wrap
    # to themselves, outside the band); the message names the interval
    # the wrapped pitch must lie in, not a distance to the singularity.
    band = f"does not wrap to inside (-pi/2 + {EPS_GIMBAL}, pi/2 - {EPS_GIMBAL}) rad"
    _raises(
        lambda: _check_gimbal(np.array([0.0, theta, 0.0])),
        GimbalLockError,
        f"pitch {theta!r} rad {band}",
    )
    states = np.zeros((6, 2))
    states[1, 1] = theta
    _raises(
        lambda: _check_gimbal(states),
        GimbalLockError,
        f"pitch {states[1, [1]]!r} rad of rows [1] {band}",
    )


def test_stacked_gimbal_guard_takes_empty_and_nan_stacks():
    _check_gimbal(np.zeros((6, 0)))
    states = np.zeros((6, 2))
    states[1, 1] = np.nan
    assert _rows_rejected_stacked(states) == _rows_rejected_one_by_one([0.0, np.nan]) == []


_FAST = _GIMBAL_BOUND - _GIMBAL_SLACK
_EDGE_PITCHES = [
    v
    for edge in (_FAST, _GIMBAL_BOUND)
    for v in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 4.0))
] + [np.nan, np.inf, 0.0, -0.0, math.pi, np.nextafter(math.pi, 4.0)]
_pitch = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-4.0, 4.0),
    st.sampled_from(_EDGE_PITCHES + [-v for v in _EDGE_PITCHES]),
)


@given(st.lists(_pitch, max_size=12), st.sampled_from([3, 6]))
@example([], 3)
@example([np.nan, 0.1], 6)
@example([np.nextafter(_FAST, 0.0), -np.nextafter(_FAST, 4.0)], 3)
def test_stacked_gimbal_guard_wraps_exactly_when_the_max_reduction_did(pitches, rows):
    # The stack's cheap test reads the largest |pitch| at its argmax; it
    # must send a stack to the wrap exactly when np.abs(theta).max(initial=0)
    # did, and reject the rows and message that wrapping every pitch gives.
    states = np.zeros((rows, len(pitches)))
    states[1] = pitches
    theta = states[1]
    wrapped_before = not np.abs(theta).max(initial=0.0) < _FAST
    with np.errstate(invalid="ignore"):  # the wrap of an infinite pitch is NaN
        bad = np.flatnonzero(np.abs(wrap_angle(theta)) >= _GIMBAL_BOUND)
        with mock.patch.object(kinematics, "wrap_angle", wraps=kinematics.wrap_angle) as wrap:
            if len(bad):
                _raises(
                    lambda: _check_gimbal(states),
                    GimbalLockError,
                    f"pitch {theta[bad]!r} rad of rows {bad.tolist()} does not wrap to "
                    f"inside (-pi/2 + {EPS_GIMBAL}, pi/2 - {EPS_GIMBAL}) rad",
                )
            else:
                _check_gimbal(states)
    assert wrap.called == wrapped_before


@pytest.mark.parametrize("bad", NONFINITE)
def test_checked_state_rejects_a_non_finite_entry_anywhere_in_a_stack(bad):
    for i in range(6):
        for j in range(3):
            x = np.zeros((6, 3))
            x[1] = 0.1
            x[i, j] = bad
            before = x.copy()
            message = f"state became non-finite: {x.T!r}"
            _raises(lambda: checked_state(x), NonFiniteState, message)
            assert np.array_equal(x, before, equal_nan=True)  # raised before the wrap
