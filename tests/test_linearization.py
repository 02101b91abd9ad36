"""Tests for the closed-form Jacobians and the linear model built from them."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from eh2marg.dynamics import EulerState, process_model
from eh2marg.kinematics import EulerAngles
from eh2marg.linearization import (
    LinearModel,
    finite_difference_jacobian,
    jacobians_measurement,
    jacobians_process,
    nominal_model,
)
from eh2marg.sensors import NoiseParams, WorldConstants

#: Unit standard deviations: Bw and Dw then hold the bare noise Jacobians.
UNIT = NoiseParams(n_w=1.0, n_b=1.0, n_a=1.0, n_m=1.0)


def _random_state(rng: np.random.Generator) -> EulerState:
    phi, psi = rng.uniform(-2.5, 2.5, size=2)
    theta = rng.uniform(-1.2, 1.2)
    bias = rng.normal(scale=0.01, size=3)
    return EulerState(EulerAngles(phi, theta, psi), bias)


#: Attitudes over the whole roll and yaw range with pitch up to 86 deg, well
#: clear of the gimbal guard band, where T's sec(theta) terms stay small
#: enough for the central difference to hold 1e-6.
_attitudes = st.tuples(
    st.floats(-np.pi, np.pi), st.floats(-1.5, 1.5), st.floats(-np.pi, np.pi)
).map(np.array)


def _h(angles: np.ndarray, world: WorldConstants) -> np.ndarray:
    return jacobians_measurement(angles, world)[0]


class TestFiniteDifferenceOracle:
    def test_quadratic_form(self):
        # f(x) = [x0^2, x0*x1] has Jacobian [[2 x0, 0], [x1, x0]].
        jac = finite_difference_jacobian(
            lambda x: np.array([x[0] ** 2, x[0] * x[1]]), np.array([3.0, -2.0])
        )
        assert_allclose(jac, [[6.0, 0.0], [-2.0, 3.0]], atol=1e-8)

    def test_linear_map_is_exact(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(4, 6))
        jac = finite_difference_jacobian(lambda x: M @ x, rng.normal(size=6))
        assert_allclose(jac, M, atol=1e-9)


class TestProcessJacobians:
    def test_nominal_blocks(self):
        A, Bw = jacobians_process(np.zeros(6), np.zeros(3), UNIT)
        assert_allclose(A[:3, :3], np.zeros((3, 3)), atol=0)
        assert_allclose(A[:3, 3:], -np.eye(3), atol=0)
        assert_allclose(A[3:, :], np.zeros((3, 6)), atol=0)
        assert_allclose(Bw[:3, :3], -np.eye(3), atol=0)
        assert_allclose(Bw[:3, 3:6], np.zeros((3, 3)), atol=0)
        assert_allclose(Bw[3:, :3], np.zeros((3, 3)), atol=0)
        assert_allclose(Bw[3:, 3:6], np.eye(3), atol=0)
        assert np.all(Bw[:, 6:] == 0.0)

    def test_matches_finite_difference_at_nominal(self):
        A, _ = jacobians_process(np.zeros(6), np.zeros(3), UNIT)
        fd = finite_difference_jacobian(
            lambda v: process_model(v, np.zeros(3)),
            np.zeros(6),
        )
        assert np.max(np.abs(A - fd)) < 1e-6

    @pytest.mark.parametrize("seed", range(8))
    @given(angles=_attitudes)
    def test_matches_finite_difference_off_nominal(self, seed, angles):
        # At the seed's random state, and at that state turned to a drawn attitude.
        rng = np.random.default_rng(seed)
        x0 = _random_state(rng).as_vector()
        u0 = rng.normal(scale=0.8, size=3)
        for x in (x0, np.concatenate([angles, x0[3:]])):
            A, _ = jacobians_process(x, u0, UNIT)
            fd = finite_difference_jacobian(lambda v: process_model(v, u0), x)
            assert np.max(np.abs(A - fd)) < 1e-6


class TestMeasurementJacobians:
    def test_gravity_block_at_nominal(self, world):
        # For g = [0, 0, g0] the attitude sensitivity of R g at zero attitude
        # is g0 * [[0, -1, 0], [1, 0, 0], [0, 0, 0]].
        g0 = 9.81
        _, Cy = jacobians_measurement(np.zeros(3), world)
        expected = g0 * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert_allclose(Cy[:3, :3], expected, atol=1e-14)
        Dw = nominal_model(UNIT, world).Dw
        assert np.all(Dw[:, :6] == 0.0)
        assert_allclose(Dw[:, 6:], np.eye(6), atol=0)

    def test_bias_columns_are_zero(self, world):
        rng = np.random.default_rng(3)
        for _ in range(5):
            angles = _random_state(rng).attitude.as_array()
            _, Cy = jacobians_measurement(angles, world)
            assert np.all(Cy[:, 3:] == 0.0)

    @pytest.mark.parametrize("seed", range(8))
    @given(angles=_attitudes)
    def test_matches_finite_difference(self, seed, world, angles):
        # At the seed's random state, and at that state turned to a drawn attitude.
        rng = np.random.default_rng(seed + 100)
        x0 = _random_state(rng).as_vector()
        for x in (x0, np.concatenate([angles, x0[3:]])):
            _, Cy = jacobians_measurement(x[:3], world)
            fd = finite_difference_jacobian(lambda v: _h(v[:3], world), x)
            assert np.max(np.abs(Cy - fd)) < 1e-6


class TestLinearModel:
    def test_shape_rejection(self):
        m = nominal_model()
        with pytest.raises(ValueError, match="shape"):
            LinearModel(A=np.zeros((5, 6)), Bw=m.Bw, Cy=m.Cy, Dw=m.Dw, Cz=m.Cz)

    def test_nonfinite_rejection(self):
        m = nominal_model()
        bad = m.A.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            LinearModel(A=bad, Bw=m.Bw, Cy=m.Cy, Dw=m.Dw, Cz=m.Cz)

    def test_channel_overlap_rejection(self):
        m = nominal_model()
        bad = m.Bw.copy()
        bad[0, 7] = 1.0  # process matrix leaking into the measurement block
        with pytest.raises(ValueError, match="disjoint"):
            LinearModel(A=m.A, Bw=bad, Cy=m.Cy, Dw=m.Dw, Cz=m.Cz)

    def test_zero_performance_output_rejection(self):
        m = nominal_model()
        with pytest.raises(ValueError, match="Cz is all zero"):
            LinearModel(A=m.A, Bw=m.Bw, Cy=m.Cy, Dw=m.Dw, Cz=np.zeros((3, 6)))


class TestAssembleModel:
    """The noise folding and the performance output of :func:`nominal_model`."""

    def test_noise_std_folding(self):
        noise = NoiseParams(n_w=0.005, n_b=1e-4, n_a=0.02, n_m=0.005)
        m = nominal_model(noise)
        assert_allclose(m.Bw[:3, :3], -0.005 * np.eye(3), atol=0)
        assert_allclose(m.Bw[3:, 3:6], 1e-4 * np.eye(3), atol=0)
        assert np.all(m.Bw[:, 6:] == 0.0)
        assert np.all(m.Dw[:, :6] == 0.0)
        assert_allclose(m.Dw[:3, 6:9], 0.02 * np.eye(3), atol=0)
        assert_allclose(m.Dw[3:, 9:], 0.005 * np.eye(3), atol=0)

    def test_default_performance_output(self):
        m = nominal_model()
        assert_allclose(m.Cz, np.hstack([np.eye(3), np.zeros((3, 3))]), atol=0)


class TestNominalModel:
    def test_shapes(self, model):
        assert model.A.shape == (6, 6)
        assert model.Bw.shape == (6, 12)
        assert model.Cy.shape == (6, 6)
        assert model.Dw.shape == (6, 12)

    def test_observability_rank(self, model):
        # The pair (A, Cy) must be observable for the estimator to see all six
        # states, attitude and bias alike.
        blocks = [model.Cy]
        for _ in range(5):
            blocks.append(blocks[-1] @ model.A)
        assert np.linalg.matrix_rank(np.vstack(blocks)) == 6

    def test_world_enters_measurement_rows(self):
        strong = nominal_model(world=WorldConstants(g_inertial=[0.0, 0.0, 20.0]))
        default = nominal_model()
        assert_allclose(strong.Cy[:3, :3], default.Cy[:3, :3] * (20.0 / 9.81), atol=1e-12)


def test_stacked_jacobians_equal_row_by_row_exactly(world, noise):
    rng = np.random.default_rng(11)
    states = np.array([_random_state(rng).as_vector() for _ in range(7)])
    omega = rng.normal(scale=0.5, size=(7, 3))
    A_all, Bw_all = jacobians_process(states, omega, noise)
    h_all, Cy_all = jacobians_measurement(states[:, :3], world)
    assert A_all.shape == Cy_all.shape == (7, 6, 6)
    assert Bw_all.shape == (7, 6, 12)
    for k in range(7):
        A, Bw = jacobians_process(states[k], omega[k], noise)
        h, Cy = jacobians_measurement(states[k, :3], world)
        assert np.array_equal(h_all[k], h)
        # The attitude blocks d(T u)/dPhi and dh/dPhi, then the whole matrices.
        assert np.array_equal(A_all[k, :3, :3], A[:3, :3])
        assert np.array_equal(Cy_all[k, :, :3], Cy[:, :3])
        assert np.array_equal(A_all[k], A)
        assert np.array_equal(Bw_all[k], Bw)
        assert np.array_equal(Cy_all[k], Cy)
