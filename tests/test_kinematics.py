import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from eh2marg import (
    EPS_GIMBAL,
    EulerAngles,
    GimbalLockError,
    angle_error,
    dcm_body_from_inertial,
    euler_rates,
    kinematic_matrix,
    kinematic_matrix_inverse,
    wrap_angle,
)
from eh2marg.kinematics import _check_gimbal, attitude_matrices


def random_angles(rng, n, theta_max=1.4):
    phi = rng.uniform(-np.pi, np.pi, n)
    theta = rng.uniform(-theta_max, theta_max, n)
    psi = rng.uniform(-np.pi, np.pi, n)
    return np.column_stack([phi, theta, psi])


@pytest.mark.parametrize(
    "raw, expected",
    [
        (0.0, 0.0),
        (np.pi, np.pi),
        (-np.pi, np.pi),
        (6.2, -0.08318530717958605),
        (2.0 * np.pi, 0.0),
        (-0.1, -0.1),
    ],
)
def test_wrap_angle_scalar(raw, expected):
    assert wrap_angle(raw) == pytest.approx(expected, abs=1e-15)
    assert isinstance(wrap_angle(raw), float)


def test_wrap_angle_array_stays_in_interval():
    rng = np.random.default_rng(1)
    a = rng.uniform(-50.0, 50.0, 1000)
    w = wrap_angle(a)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    assert_allclose(np.cos(w), np.cos(a), atol=1e-12)
    assert_allclose(np.sin(w), np.sin(a), atol=1e-12)


class TestEulerAngles:
    def test_zero_roundtrip(self):
        e = EulerAngles.zero()
        assert_allclose(e.as_array(), 0.0)
        e2 = EulerAngles.from_array([0.1, -0.2, 0.3])
        assert (e2.phi, e2.theta, e2.psi) == (0.1, -0.2, 0.3)

    @pytest.mark.parametrize(
        "phi, theta, psi",
        [
            (0.0, np.pi / 2.0, 0.0),
            (0.0, -np.pi / 2.0, 0.0),
            (4.0, 0.0, 0.0),
            (0.0, 0.0, -np.pi),
            (np.nan, 0.0, 0.0),
        ],
    )
    def test_invalid_rejected(self, phi, theta, psi):
        with pytest.raises(ValueError):
            EulerAngles(phi, theta, psi)


def test_kinematic_matrix_identity_at_zero():
    assert_allclose(kinematic_matrix(EulerAngles.zero()), np.eye(3), atol=0.0)


def test_kinematic_matrix_known_value():
    # tan(pi/4) = 1, sin(pi/2) = 1, cos(pi/2) = 0, sec(pi/4) = sqrt(2)
    T = kinematic_matrix(EulerAngles(np.pi / 2.0, np.pi / 4.0, 0.0))
    expected = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, -1.0], [0.0, np.sqrt(2.0), 0.0]])
    assert_allclose(T, expected, atol=1e-15)


@pytest.mark.parametrize("theta", [np.pi / 2.0 - 1e-9, -(np.pi / 2.0 - 1e-9), np.pi / 2.0 - EPS_GIMBAL])
def test_kinematic_matrix_gimbal_guard(theta):
    e = EulerAngles(0.0, np.clip(theta, -np.pi / 2 + 1e-12, np.pi / 2 - 1e-12), 0.0)
    with pytest.raises(GimbalLockError):
        kinematic_matrix(e)


def test_kinematic_matrix_just_outside_guard():
    e = EulerAngles(0.3, np.pi / 2.0 - 1e-5, -0.7)
    T = kinematic_matrix(e)
    assert np.all(np.isfinite(T))


def test_inverse_against_axis_composition():
    """T^-1 columns must be [e1, R1(phi) e2, R1 R2 e3] (rate composition)."""
    rng = np.random.default_rng(7)
    for row in random_angles(rng, 50):
        e = EulerAngles.from_array(row)
        R1 = Rotation.from_euler("x", e.phi).as_matrix().T
        R2 = Rotation.from_euler("y", e.theta).as_matrix().T
        expected = np.column_stack(
            [np.array([1.0, 0.0, 0.0]), R1 @ np.array([0.0, 1.0, 0.0]), R1 @ R2 @ np.array([0.0, 0.0, 1.0])]
        )
        assert_allclose(kinematic_matrix_inverse(e), expected, atol=1e-14)
        assert_allclose(kinematic_matrix(e) @ kinematic_matrix_inverse(e), np.eye(3), atol=1e-10)


def test_dcm_against_scipy():
    rng = np.random.default_rng(11)
    for row in random_angles(rng, 100):
        e = EulerAngles.from_array(row)
        # intrinsic Z-Y-X maps body to inertial; ours is its transpose
        R_scipy = Rotation.from_euler("ZYX", [e.psi, e.theta, e.phi]).as_matrix()
        assert_allclose(dcm_body_from_inertial(e), R_scipy.T, atol=1e-14)


def test_dcm_yaw_quarter_turn():
    R = dcm_body_from_inertial(EulerAngles(0.0, 0.0, np.pi / 2.0))
    assert_allclose(R @ np.array([1.0, 0.0, 0.0]), [0.0, -1.0, 0.0], atol=1e-15)


def test_dcm_orthonormality_sweep():
    rng = np.random.default_rng(3)
    for row in random_angles(rng, 200, theta_max=np.pi / 2 - 1e-3):
        R = dcm_body_from_inertial(EulerAngles.from_array(row))
        assert_allclose(R.T @ R, np.eye(3), atol=1e-10)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)


def test_euler_rates_examples():
    assert_allclose(euler_rates(EulerAngles.zero(), [0.1, 0.2, 0.3]), [0.1, 0.2, 0.3])
    assert_allclose(
        euler_rates(EulerAngles(np.pi / 2.0, np.pi / 4.0, 0.0), [0.0, 0.0, 1.0]),
        [0.0, -1.0, 0.0],
        atol=1e-15,
    )
    rng = np.random.default_rng(5)
    for row in random_angles(rng, 20):
        assert_allclose(euler_rates(EulerAngles.from_array(row), np.zeros(3)), 0.0)


class TestAngleError:
    def test_wrapped_difference(self):
        a = EulerAngles(0.0, 0.0, 3.1)
        b = EulerAngles(0.0, 0.0, -3.1)
        err = angle_error(a, b)
        assert err[2] == pytest.approx(6.2 - 2.0 * np.pi)
        assert np.all(np.abs(err) <= np.pi)

    def test_identity_and_antisymmetry(self):
        rng = np.random.default_rng(13)
        for row_a, row_b in zip(random_angles(rng, 30), random_angles(rng, 30)):
            a, b = EulerAngles.from_array(row_a), EulerAngles.from_array(row_b)
            assert_allclose(angle_error(a, a), 0.0)
            fwd, rev = angle_error(a, b), angle_error(b, a)
            assert_allclose(wrap_angle(fwd + rev), 0.0, atol=1e-12)

    def test_small_difference_is_plain_subtraction(self):
        a = EulerAngles(0.11, 0.21, 0.31)
        b = EulerAngles(0.1, 0.2, 0.3)
        assert_allclose(angle_error(a, b), [0.01, 0.01, 0.01], atol=1e-15)


def test_batch_helpers_match_scalar_versions():
    rng = np.random.default_rng(17)
    angles = random_angles(rng, 40)
    R_all = dcm_body_from_inertial(angles)
    Tinv_all = kinematic_matrix_inverse(angles)
    assert R_all.shape == Tinv_all.shape == (40, 3, 3)
    for k in range(angles.shape[0]):
        e = EulerAngles.from_array(angles[k])
        assert_allclose(R_all[k], dcm_body_from_inertial(e), atol=1e-14)
        assert_allclose(Tinv_all[k], kinematic_matrix_inverse(e), atol=1e-14)


_angle_batches = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: arrays(
        np.float64,
        (n, 3),
        elements=st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
    )
)


@given(_angle_batches)
def test_batch_equals_row_by_row_exactly(angles):
    """An (n, 3) batch gives, bit for bit, the rows' (3,) results."""
    R_all = dcm_body_from_inertial(angles)
    Tinv_all = kinematic_matrix_inverse(angles)
    for k, row in enumerate(angles):
        assert np.array_equal(R_all[k], dcm_body_from_inertial(row))
        assert np.array_equal(Tinv_all[k], kinematic_matrix_inverse(row))


@given(_angle_batches)
def test_stacked_rate_matrix_equals_row_by_row_exactly(angles):
    """T and (T, R) of an (n, 3) stack equal the rows' results bit for bit,
    and the stack is rejected exactly when one of its rows is."""
    in_band = np.abs(wrap_angle(angles[:, 1])) >= np.pi / 2.0 - EPS_GIMBAL
    if in_band.any():
        with pytest.raises(GimbalLockError):
            kinematic_matrix(angles)
        with pytest.raises(GimbalLockError):
            attitude_matrices(angles)
        return
    T_all = kinematic_matrix(angles)
    T2_all, R_all = attitude_matrices(angles)
    assert T_all.shape == R_all.shape == (len(angles), 3, 3)
    for k, row in enumerate(angles):
        assert np.array_equal(T_all[k], kinematic_matrix(row))
        T2, R = attitude_matrices(row)
        assert np.array_equal(T2_all[k], T2)
        assert np.array_equal(R_all[k], R)


def test_check_gimbal_rejects_stack_with_one_row_in_band():
    states = np.zeros((4, 6))
    states[:, 1] = [0.1, -1.2, 0.3, 1.5]
    _check_gimbal(states)
    _check_gimbal(states[:, :3])
    states[2, 1] = np.pi / 2.0 - EPS_GIMBAL / 2.0
    with pytest.raises(GimbalLockError, match=r"rows \[2\]"):
        _check_gimbal(states)
    with pytest.raises(GimbalLockError, match=r"rows \[2\]"):
        _check_gimbal(states[:, :3])
    # The band is taken on the wrapped pitch, as for one state.
    states[2, 1] = -np.pi / 2.0 + 2.0 * np.pi
    with pytest.raises(GimbalLockError):
        _check_gimbal(states)
    with pytest.raises(GimbalLockError):
        _check_gimbal(states[2])
