import struct

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from eh2marg import (
    EPS_GIMBAL,
    EulerAngles,
    GimbalLockError,
    NoiseParams,
    dcm_body_from_inertial,
    wrap_angle,
)
from eh2marg.dynamics import process_model
from eh2marg.kinematics import (
    _body_rates,
    _check_gimbal,
    _euler_rates,
    _monomials,
    _rotate,
    _rotation_coefficients,
    _rotation_table,
    _series,
    _sin_cos,
    _wrapped,
    _wrapped_float,
)
from eh2marg.linearization import finite_difference_jacobian, jacobians_process


def kinematic_matrix(e):
    """T(Phi) written out, for (3,) angles or an (n, 3) stack; with no
    gimbal guard, so that it also evaluates inside the band."""
    a = e.as_array() if isinstance(e, EulerAngles) else np.asarray(e, dtype=np.float64)
    phi, theta = a[..., 0], a[..., 1]
    sp, cp, tt, sec = np.sin(phi), np.cos(phi), np.tan(theta), 1.0 / np.cos(theta)
    zero, one = np.zeros_like(phi), np.ones_like(phi)
    rows = [[one, tt * sp, tt * cp], [zero, cp, -sp], [zero, sec * sp, sec * cp]]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def program_rate_matrix(angles, omega=(0.0, 0.0, 0.0), noise=None):
    """The program's T(Phi): the -T block of A from jacobians_process at zero
    bias, for (3,) angles or an (n, 3) stack, with A and Bw."""
    angles = np.asarray(angles, dtype=np.float64)
    x = np.concatenate([angles, np.zeros_like(angles)], axis=-1).T
    omega = np.broadcast_to(np.asarray(omega, dtype=np.float64), angles.shape).T
    A, Bw = jacobians_process(x, omega, NoiseParams() if noise is None else noise)
    return -A[..., :3, 3:], A, Bw


def euler_rates(e, w):
    """The T map applied to one (3,) or a stack of (n, 3) body rates, as an array."""
    return np.array(_euler_rates(*_sin_cos(_series(e)), np.asarray(w, dtype=np.float64).T)).T


def inverse_matrix(e):
    """T^-1 as a (3, 3) matrix, or an (n, 3, 3) stack: column j is the map of e_j."""
    s, c = _sin_cos(_series(e)[:2])
    unit = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    return np.stack([np.array(_body_rates(s, c, e_j)).T for e_j in unit], axis=-1)


def rotate(e, r):
    """The R map applied to the three floats r, as an array."""
    return np.array(_rotate(*_sin_cos(_series(e)), r)).T


def rate_process(e, w=(0.0, 0.0, 0.0)):
    """The guarded caller of the T map: process_model at zero bias."""
    return process_model(np.r_[np.asarray(e, dtype=np.float64), 0.0, 0.0, 0.0], np.asarray(w))


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


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(np.pi)
@example(np.nextafter(np.pi, 4.0))  # (pi - a) % (2 pi) rounds up to 2 pi: the clamp
@example(-np.pi)
@example(2.0 * np.pi)
@example(-2.0 * np.pi)
@example(0.0)
@example(-0.0)
@example(1e6)
def test_float_wrap_equals_the_array_wrap_bit_for_bit(a):
    # One state's step wraps its attitude on Python floats, a stack's on
    # arrays; both must give the same bits, signed zeros included.
    got = _wrapped_float(a)
    assert type(got) is float
    assert struct.pack("d", got) == _wrapped(np.array([a])).tobytes()


def test_wrap_angle_array_stays_in_interval():
    rng = np.random.default_rng(1)
    # Each boundary input is one ulp past an odd multiple of pi, where
    # (pi - a) % (2 pi) can round up to 2 pi.
    boundary = [np.nextafter(np.pi, 4.0), np.nextafter(-np.pi, -4.0), np.nextafter(3 * np.pi, 10.0)]
    a = np.concatenate([rng.uniform(-50.0, 50.0, 1000), boundary])
    w = wrap_angle(a)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    assert_allclose(np.cos(w), np.cos(a), atol=1e-12)
    assert_allclose(np.sin(w), np.sin(a), atol=1e-12)


class TestEulerAngles:
    def test_zero_roundtrip(self):
        e = EulerAngles.zero()
        assert_allclose(e.as_array(), 0.0)
        e2 = EulerAngles(0.1, -0.2, 0.3)
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
    assert_allclose(euler_rates(EulerAngles.zero(), [0.1, 0.2, 0.3]), [0.1, 0.2, 0.3], atol=0.0)


def test_kinematic_matrix_known_value():
    # tan(pi/4) = 1, sin(pi/2) = 1, cos(pi/2) = 0, sec(pi/4) = sqrt(2)
    T = kinematic_matrix(EulerAngles(np.pi / 2.0, np.pi / 4.0, 0.0))
    expected = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, -1.0], [0.0, np.sqrt(2.0), 0.0]])
    assert_allclose(T, expected, atol=1e-15)


@pytest.mark.parametrize("theta", [np.pi / 2.0 - 1e-9, -(np.pi / 2.0 - 1e-9), np.pi / 2.0 - EPS_GIMBAL])
def test_kinematic_matrix_gimbal_guard(theta):
    e = EulerAngles(0.0, np.clip(theta, -np.pi / 2 + 1e-12, np.pi / 2 - 1e-12), 0.0)
    with pytest.raises(GimbalLockError):
        rate_process(e.as_array())


def test_kinematic_matrix_just_outside_guard():
    e = EulerAngles(0.3, np.pi / 2.0 - 1e-5, -0.7)
    T = kinematic_matrix(e)
    assert np.all(np.isfinite(T))
    assert np.all(np.isfinite(rate_process(e.as_array(), [0.1, -0.2, 0.3])))


def test_inverse_against_axis_composition():
    """T^-1 columns must be [e1, R1(phi) e2, R1 R2 e3] (rate composition)."""
    rng = np.random.default_rng(7)
    for row in random_angles(rng, 50):
        e = EulerAngles(*row)
        R1 = Rotation.from_euler("x", e.phi).as_matrix().T
        R2 = Rotation.from_euler("y", e.theta).as_matrix().T
        expected = np.column_stack(
            [np.array([1.0, 0.0, 0.0]), R1 @ np.array([0.0, 1.0, 0.0]), R1 @ R2 @ np.array([0.0, 0.0, 1.0])]
        )
        assert_allclose(inverse_matrix(e), expected, atol=1e-14)
        assert_allclose(kinematic_matrix(e) @ inverse_matrix(e), np.eye(3), atol=1e-10)


def test_dcm_against_scipy():
    rng = np.random.default_rng(11)
    for row in random_angles(rng, 100):
        e = EulerAngles(*row)
        # intrinsic Z-Y-X maps body to inertial; ours is its transpose
        R_scipy = Rotation.from_euler("ZYX", [e.psi, e.theta, e.phi]).as_matrix()
        assert_allclose(dcm_body_from_inertial(e), R_scipy.T, atol=1e-14)


def test_dcm_yaw_quarter_turn():
    R = dcm_body_from_inertial(EulerAngles(0.0, 0.0, np.pi / 2.0))
    assert_allclose(R @ np.array([1.0, 0.0, 0.0]), [0.0, -1.0, 0.0], atol=1e-15)


def test_dcm_orthonormality_sweep():
    rng = np.random.default_rng(3)
    for row in random_angles(rng, 200, theta_max=np.pi / 2 - 1e-3):
        R = dcm_body_from_inertial(EulerAngles(*row))
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
        assert_allclose(euler_rates(EulerAngles(*row), np.zeros(3)), 0.0)


class TestAngleError:
    """The wrapped attitude error a - b, as the harness metrics take it."""

    def test_wrapped_difference(self):
        a = EulerAngles(0.0, 0.0, 3.1)
        b = EulerAngles(0.0, 0.0, -3.1)
        err = wrap_angle(a.as_array() - b.as_array())
        assert err[2] == pytest.approx(6.2 - 2.0 * np.pi)
        assert np.all(np.abs(err) <= np.pi)

    def test_identity_and_antisymmetry(self):
        rng = np.random.default_rng(13)
        for row_a, row_b in zip(random_angles(rng, 30), random_angles(rng, 30)):
            a, b = EulerAngles(*row_a), EulerAngles(*row_b)
            assert_allclose(wrap_angle(a.as_array() - a.as_array()), 0.0)
            fwd = wrap_angle(a.as_array() - b.as_array())
            rev = wrap_angle(b.as_array() - a.as_array())
            assert_allclose(wrap_angle(fwd + rev), 0.0, atol=1e-12)

    def test_small_difference_is_plain_subtraction(self):
        a = EulerAngles(0.11, 0.21, 0.31)
        b = EulerAngles(0.1, 0.2, 0.3)
        assert_allclose(wrap_angle(a.as_array() - b.as_array()), [0.01, 0.01, 0.01], atol=1e-15)


def test_batch_helpers_match_scalar_versions():
    rng = np.random.default_rng(17)
    angles = random_angles(rng, 40)
    R_all = dcm_body_from_inertial(angles)
    Tinv_all = inverse_matrix(angles)
    assert R_all.shape == Tinv_all.shape == (40, 3, 3)
    for k in range(angles.shape[0]):
        e = EulerAngles(*angles[k])
        assert_allclose(R_all[k], dcm_body_from_inertial(e), atol=1e-14)
        assert_allclose(Tinv_all[k], inverse_matrix(e), atol=1e-14)


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
    Tinv_all = inverse_matrix(angles)
    for k, row in enumerate(angles):
        assert np.array_equal(R_all[k], dcm_body_from_inertial(row))
        assert np.array_equal(Tinv_all[k], inverse_matrix(row))


@given(_angle_batches)
def test_stacked_rate_matrix_equals_row_by_row_exactly(angles):
    """T and R of an (n, 3) stack equal the rows' results bit for bit, and
    the stack is rejected exactly when one of its rows is."""
    in_band = np.abs(wrap_angle(angles[:, 1])) >= np.pi / 2.0 - EPS_GIMBAL
    states = np.column_stack([angles, np.zeros_like(angles)]).T
    if in_band.any():
        with pytest.raises(GimbalLockError):
            process_model(states, np.zeros((3, len(angles))))
        return
    T_all = program_rate_matrix(angles)[0]
    R_all = dcm_body_from_inertial(angles)
    assert T_all.shape == R_all.shape == (len(angles), 3, 3)
    for k, row in enumerate(angles):
        assert np.array_equal(T_all[k], program_rate_matrix(row)[0])
        assert np.array_equal(R_all[k], dcm_body_from_inertial(row))
        process_model(states[:, k], np.zeros(3))


_vectors = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_EPS = np.finfo(np.float64).eps
#: Absolute slack for products that underflow: the smallest normal float.
_TINY = np.finfo(np.float64).tiny


@given(_angle_batches, st.lists(_vectors, min_size=3, max_size=3), st.floats(0.01, 10.0))
def test_program_rate_matrix_matches_written_out(angles, omega, n_w):
    """Outside the band, A's -T block against T written out, for a stack and
    for each of its states: both round sin, cos, tan or the division by
    cos theta and one product, so an entry may part by a few ulp of itself.
    Bw's gyro block is n_w times A's -T block, bit for bit."""
    assume(np.all(np.abs(wrap_angle(angles[:, 1])) < np.pi / 2.0 - EPS_GIMBAL))
    noise = NoiseParams(n_w=n_w)
    for a in (angles, *angles):
        T, A, Bw = program_rate_matrix(a, omega, noise)
        expected = kinematic_matrix(a)
        assert np.all(np.abs(T - expected) <= 4.0 * _EPS * np.abs(expected))
        assert np.array_equal(Bw[..., :3, :3], n_w * A[..., :3, 3:])


@given(_angle_batches, st.lists(_vectors, min_size=3, max_size=3), st.randoms())
def test_stacked_maps_equal_row_by_row_exactly(angles, r, random):
    """The T and R maps of an (n, 3) stack give, bit for bit, the rows'
    results on Python floats."""
    w = np.array([[random.uniform(-10.0, 10.0) for _ in range(3)] for _ in angles])
    rates_all = euler_rates(angles, w)
    rotated_all = rotate(angles, r)
    assert rates_all.shape == rotated_all.shape == (len(angles), 3)
    for k, row in enumerate(angles):
        assert np.array_equal(rates_all[k], euler_rates(row, w[k]))
        assert np.array_equal(rotated_all[k], rotate(row, r))


@given(_angle_batches, st.lists(_vectors, min_size=3, max_size=3))
def test_maps_match_their_matrices(angles, v):
    """The T map against T @ v, and the R map against R @ r, for the same
    vector v = r.  Each side rounds every term a few times (T: the products
    and the division by cos theta; R: three rotations), so the two may part
    by a few ulp of the operands: 4 eps of |T| @ |v| per component for T,
    and, R being orthonormal, 4 eps of |r|_1 for R; plus the smallest normal
    float, for products that underflow."""
    v = np.array(v)
    T = kinematic_matrix(angles)
    rates_tol = 4.0 * _EPS * (np.abs(T) @ np.abs(v)) + _TINY
    assert np.all(np.abs(euler_rates(angles, np.tile(v, (len(angles), 1))) - T @ v) <= rates_tol)
    rotated = rotate(angles, v.tolist())
    rotated_tol = 4.0 * _EPS * np.abs(v).sum() + _TINY
    assert np.all(np.abs(rotated - dcm_body_from_inertial(angles) @ v) <= rotated_tol)


def test_check_gimbal_rejects_stack_with_one_row_in_band():
    states = np.zeros((6, 4))
    states[1] = [0.1, -1.2, 0.3, 1.5]
    _check_gimbal(states)
    _check_gimbal(states[:3])
    states[1, 2] = np.pi / 2.0 - EPS_GIMBAL / 2.0
    with pytest.raises(GimbalLockError, match=r"rows \[2\]"):
        _check_gimbal(states)
    with pytest.raises(GimbalLockError, match=r"rows \[2\]"):
        _check_gimbal(states[:3])
    # The band is taken on the wrapped pitch, as for one state.
    states[1, 2] = -np.pi / 2.0 + 2.0 * np.pi
    with pytest.raises(GimbalLockError):
        _check_gimbal(states)
    with pytest.raises(GimbalLockError):
        _check_gimbal(states[:, 2])


def _sweep_angles():
    """Attitudes with pitch out to the edge of the gimbal band, roll and yaw
    next to +/- pi, and random ones in between."""
    edge = np.pi / 2.0 - EPS_GIMBAL * (1.0 + 1e-9)
    near_pi = np.nextafter(np.pi, 0.0)
    grid = np.array(
        [
            [phi, theta, psi]
            for phi in (-near_pi, -1.0, 0.0, 2.5, np.pi)
            for theta in (-edge, -0.7, 0.0, 1.3, edge)
            for psi in (-near_pi, -2.0, 0.0, 0.4, np.pi)
        ]
    )
    return np.vstack([grid, random_angles(np.random.default_rng(8), 50, theta_max=edge)])


#: Reference blocks: two pairs of unit vectors, which between them hold all
#: three, and the default world's [g; h].
_REFERENCE_BLOCKS = (
    np.eye(3)[:2],
    np.eye(3)[1:],
    np.array([[0.0, 0.0, 9.81], [0.48, 0.0, 0.58]]),
)


def test_rotation_coefficients_are_exact():
    # Read off _rotate at (sin, cos) in {0, 1}: every coefficient is 0 or
    # +/-1, 13 products make up R and 9 more its derivatives.
    coefficients = _rotation_coefficients()
    assert coefficients.shape == (27, 4, 3, 3)
    assert set(np.unique(coefficients).tolist()) == {-1.0, 0.0, 1.0}
    assert np.count_nonzero(coefficients[:, 0].any(axis=(1, 2))) == 13
    assert np.count_nonzero(coefficients.any(axis=(1, 2, 3))) == 22


@pytest.mark.parametrize("references", _REFERENCE_BLOCKS)
def test_table_reproduces_rotate(references):
    """The table applied to the products against _rotate itself, on a stack
    and on each attitude's floats: each side rounds every term a few times,
    so they may part by a few ulp of |r|_1, as for test_maps_match_their_matrices."""
    angles = _sweep_angles()
    k = len(references)
    table = _rotation_table(references)
    assert table.shape == (12 * k, 27)
    s, c = _sin_cos(angles.T)
    rotated = np.hstack([np.array(_rotate(s, c, r)).T for r in references.tolist()])
    tol = 4.0 * _EPS * np.abs(references).sum(axis=1).repeat(3) + _TINY
    stacked = np.matvec(table, _monomials(s, c))[:, : 3 * k]
    assert np.all(np.abs(stacked - rotated) <= tol)
    for row, expected in zip(angles, stacked):
        assert np.array_equal(np.matvec(table, _monomials(*_sin_cos(row)))[: 3 * k], expected)


@pytest.mark.parametrize("references", _REFERENCE_BLOCKS)
def test_table_derivatives_match_finite_difference(references):
    """The derivative rows of the table against central differences of _rotate."""
    table = _rotation_table(references)
    k = len(references)

    def rotated(a):
        s, c = _sin_cos(a)
        return np.concatenate([_rotate(s, c, r) for r in references.tolist()])

    scale = np.abs(references).sum()
    for angles in _sweep_angles():
        jac = np.matvec(table, _monomials(*_sin_cos(angles)))[3 * k :].reshape(3 * k, 3)
        fd = finite_difference_jacobian(rotated, angles)
        assert np.max(np.abs(jac - fd)) < 1e-8 * scale
