"""Tests for the array-level process and measurement models and the RK4 step
that both filters run."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from eh2marg import (
    EulerAngles,
    EulerState,
    GimbalLockError,
    NonFiniteState,
    WorldConstants,
)
from eh2marg.dynamics import checked_state, process_model, rk4_step
from eh2marg.linearization import jacobians_measurement


def _rk4(x, omega, dt):
    """One RK4 step of the process model with the gyro held, as the EKF predicts."""
    omega = np.asarray(omega, dtype=np.float64)
    return rk4_step(lambda xs: process_model(xs, omega), x, dt)


def _h(x: EulerState, world) -> np.ndarray:
    return jacobians_measurement(x.attitude.as_array(), world)[0]


def test_state_derivative_examples():
    d = process_model(EulerState().as_vector(), np.array([0.1, 0.0, 0.0]))
    assert_allclose(d, [0.1, 0.0, 0.0, 0.0, 0.0, 0.0])

    x = EulerState(bias=np.array([0.1, 0.0, 0.0]))
    assert_allclose(process_model(x.as_vector(), np.array([0.1, 0.0, 0.0])), 0.0)

    x = EulerState(attitude=EulerAngles(np.pi / 2.0, np.pi / 4.0, 0.0))
    assert_allclose(
        process_model(x.as_vector(), np.array([0.0, 0.0, 1.0]))[:3],
        [0.0, -1.0, 0.0],
        atol=1e-15,
    )


def test_state_derivative_bias_block_always_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = EulerState(
            attitude=EulerAngles(
                rng.uniform(-3, 3), rng.uniform(-1.4, 1.4), rng.uniform(-3, 3)
            ),
            bias=rng.standard_normal(3) * 0.1,
        )
        assert_allclose(process_model(x.as_vector(), rng.standard_normal(3))[3:], 0.0)


_state_and_rate_stacks = st.integers(min_value=1, max_value=20).flatmap(
    lambda n: arrays(
        np.float64,
        (n, 9),
        elements=st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
    )
)


@given(_state_and_rate_stacks)
def test_stacked_process_model_equals_row_by_row_exactly(cols):
    """f of an (N, 6) stack equals, bit for bit, f of each (6,) row with its
    own gyro rate; the stack is rejected exactly when one of its rows is."""
    x, omega = cols[:, :6], cols[:, 6:]
    rows_in_band = []
    for k in range(len(x)):
        try:
            process_model(x[k], omega[k])
        except GimbalLockError:
            rows_in_band.append(k)
    if rows_in_band:
        with pytest.raises(GimbalLockError):
            process_model(x, omega)
        return
    f_all = process_model(x, omega)
    assert f_all.shape == x.shape
    for k in range(len(x)):
        assert np.array_equal(f_all[k], process_model(x[k], omega[k]))


class TestMeasurement:
    def test_zero_state(self, world):
        y = _h(EulerState(), world)
        assert y.shape == (6,)
        assert_allclose(y[:3], world.g_inertial)
        assert_allclose(y[3:], world.h_inertial)
        assert_allclose(y, np.r_[world.g_inertial, world.h_inertial])

    def test_bias_invariance(self, world):
        e = EulerAngles(0.4, -0.3, 1.2)
        y1 = _h(EulerState(attitude=e, bias=np.zeros(3)), world)
        y2 = _h(EulerState(attitude=e, bias=np.array([0.5, -0.2, 0.1])), world)
        assert_allclose(y1, y2)

    def test_quarter_yaw_mag(self):
        w = WorldConstants(h_inertial=[1.0, 0.0, 0.5])
        y = _h(EulerState(attitude=EulerAngles(0.0, 0.0, np.pi / 2.0)), w)
        assert_allclose(y[3:], [0.0, -1.0, 0.5], atol=1e-12)

    def test_norm_invariants(self, world):
        rng = np.random.default_rng(4)
        for _ in range(50):
            e = EulerAngles(rng.uniform(-3, 3), rng.uniform(-1.4, 1.4), rng.uniform(-3, 3))
            y = _h(EulerState(attitude=e), world)
            assert np.linalg.norm(y[:3]) == pytest.approx(np.linalg.norm(world.g_inertial), abs=1e-10)
            assert np.linalg.norm(y[3:]) == pytest.approx(np.linalg.norm(world.h_inertial), abs=1e-10)

    def test_stack_takes_integer_references_as_rows_do(self):
        # The stack rotates its references in a float buffer: integer
        # vectors must not truncate the rotated values.
        angles = np.array([[0.3, -0.2, 1.1], [-1.0, 0.5, -2.0]])
        world = WorldConstants([0, 0, 10], [1, 0, 1])
        h_all = jacobians_measurement(angles, world)[0]
        for k, row in enumerate(angles):
            assert np.array_equal(h_all[k], jacobians_measurement(row, world)[0])


class TestIntegrateStep:
    def test_zero_rate_fixed_point(self):
        x = EulerState(attitude=EulerAngles(0.2, 0.1, -0.4)).as_vector()
        out = _rk4(x, np.zeros(3), 0.01)
        assert_allclose(out, x, atol=1e-16)

    def test_single_axis_roll_exact(self):
        # pure roll is linear in time, so RK4 integrates it exactly
        x = np.zeros(6)
        for _ in range(100):
            x = _rk4(x, [0.3, 0.0, 0.0], 0.01)
        assert x[0] == pytest.approx(0.3, abs=1e-13)
        assert_allclose(x[1:3], 0.0, atol=1e-13)

    def test_given_first_stage_changes_nothing(self):
        # A caller that already holds f(x) hands it over as k1, bit for bit.
        rng = np.random.default_rng(12)
        x = np.column_stack([rng.uniform(-1.2, 1.2, (5, 3)), rng.normal(0.0, 0.01, (5, 3))])
        omega = rng.normal(0.0, 0.5, (5, 3))
        for xs, om in ((x, omega), (x[2], omega[2])):
            f = lambda v, om=om: process_model(v, om)
            assert np.array_equal(rk4_step(f, xs, 0.01, f(xs)), rk4_step(f, xs, 0.01))

    def test_gimbal_guard_raises(self):
        x = EulerState(attitude=EulerAngles(0.0, np.pi / 2.0 - 2e-6, 0.0)).as_vector()
        with pytest.raises(GimbalLockError):
            _rk4(x, [0.0, 1.0, 0.0], 0.01)

    def test_wrap_after_step(self):
        x = EulerState(attitude=EulerAngles(np.pi - 0.001, 0.0, 0.0)).as_vector()
        out = _rk4(x, [1.0, 0.0, 0.0], 0.01)
        assert -np.pi < out[0] <= np.pi
        assert out[0] == pytest.approx(-np.pi + 0.009, abs=1e-12)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("angle", [np.inf, -np.inf])
    def test_non_finite_state_rejected_before_wrapping(self, angle, column, stacked):
        # Finiteness is checked before the attitude is wrapped: the error
        # names the value the step produced, and no wrap of an infinite
        # angle warns (every warning fails this suite).
        x = np.array([0.1, -0.2, 0.3, 0.01, np.nan, 0.02])
        x[column] = angle
        if stacked:
            x = np.stack([np.zeros(6), x])
        with pytest.raises(NonFiniteState, match=rf"{angle!r},.*nan"):
            checked_state(x)
        assert x.reshape(-1, 6)[-1, column] == angle

    def test_rk4_self_convergence_order(self):
        """Error vs a dt/8 reference must shrink ~16x when dt halves."""
        omega = np.array([0.9, -0.7, 1.1])
        x0 = np.r_[0.1, -0.2, 0.4, 0.0, 0.0, 0.0]
        T = 0.64

        def final_state(dt):
            x = x0
            for _ in range(int(round(T / dt))):
                x = _rk4(x, omega, dt)
            return x

        ref = final_state(0.0025)
        err1 = np.linalg.norm(final_state(0.04) - ref)
        err2 = np.linalg.norm(final_state(0.02) - ref)
        order = np.log2(err1 / err2)
        assert order >= 3.8

    def test_matches_scipy_reference(self, world):
        omega = np.array([0.5, 0.3, -0.8])
        x0 = np.r_[0.05, 0.1, -0.3, 0.01, -0.02, 0.005]

        def rhs(_t, x):
            return process_model(x, omega)

        sol = solve_ivp(rhs, (0.0, 1.0), x0, rtol=1e-12, atol=1e-12, dense_output=True)
        x = x0
        for _ in range(100):
            x = _rk4(x, omega, 0.01)
        assert_allclose(x, sol.y[:, -1], atol=1e-7)
