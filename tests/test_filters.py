"""Tests for the extended-H2 filter, the EKF baseline, and initialization."""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.linalg import LinAlgError
from numpy.testing import assert_allclose

from eh2marg import filters, harness, sensors
from eh2marg.dynamics import EulerState, process_model, rk4_step
from eh2marg.errors import (
    DegenerateSample,
    GimbalLockError,
    InnovationCovSingular,
    NonFiniteState,
)
from eh2marg.filters import (
    DEFAULT_P0,
    EH2FilterState,
    EKFState,
    eh2,
    eh2_step,
    ekf,
    ekf_step,
    initialize_from_first_sample,
)
from eh2marg.harness import ScenarioConfig, generate_trajectory
from eh2marg.kinematics import (
    EPS_GIMBAL,
    EulerAngles,
    _monomials,
    _sin_cos,
    wrap_angle,
)
from eh2marg.linearization import jacobians_measurement
from eh2marg.sensors import ImuSample, NoiseParams, WorldConstants, simulate_imu_stream

DT = 0.01


def _sample_at(x: EulerState, world, omega_m=None, t=0.0) -> ImuSample:
    """Noise-free sample consistent with state x (gyro defaults to true bias)."""
    y = _h(x, world)
    omega = x.bias.copy() if omega_m is None else np.asarray(omega_m, dtype=float)
    return ImuSample(t=t, omega_m=omega, a_m=y[:3], m_m=y[3:])


def _table(L, world) -> np.ndarray:
    """eh2's gain table L C_h, with C_h the h rows of the world's rotation table."""
    return L @ world.rotation_table()[:6]


def _h(x: EulerState, world) -> np.ndarray:
    """Noise-free accel/mag output h(x), stacked."""
    return jacobians_measurement(x.attitude.as_array(), world)[0]


def _dead_reckon(x: np.ndarray, omega, dt: float) -> np.ndarray:
    """One RK4 step of the process model with the gyro held: the EKF predict."""
    return rk4_step(lambda xs: process_model(xs, omega), x, dt)


def _att_error(x: EulerState, truth: EulerState) -> np.ndarray:
    return wrap_angle(x.attitude.as_array() - truth.attitude.as_array())


def _att_error_norm(x: EulerState, truth: EulerState) -> float:
    return float(np.linalg.norm(_att_error(x, truth)))


class TestInitializeFromFirstSample:
    def test_zero_truth(self, world):
        x = initialize_from_first_sample(_sample_at(EulerState(), world), world)
        assert_allclose(x.as_vector(), np.zeros(6), atol=1e-15)

    def test_recovers_known_attitude(self, world):
        truth = EulerState(EulerAngles(0.2, -0.1, 1.0))
        x = initialize_from_first_sample(_sample_at(truth, world), world)
        assert_allclose(
            x.attitude.as_array(), truth.attitude.as_array(), atol=1e-10
        )
        assert_allclose(x.bias, np.zeros(3), atol=0)

    @pytest.mark.parametrize("seed", range(20))
    def test_recovery_sweep(self, seed, world):
        rng = np.random.default_rng(seed)
        truth = EulerState(
            EulerAngles(
                rng.uniform(-3.0, 3.0),
                rng.uniform(-1.3, 1.3),
                rng.uniform(-3.0, 3.0),
            )
        )
        x = initialize_from_first_sample(_sample_at(truth, world), world)
        assert np.max(np.abs(_att_error(x, truth))) < 1e-9

    def test_zero_accel_degenerate(self, world):
        sample = ImuSample(
            t=0.0, omega_m=np.zeros(3), a_m=np.zeros(3), m_m=world.h_inertial
        )
        with pytest.raises(DegenerateSample):
            initialize_from_first_sample(sample, world)

    def test_free_fall_degenerate(self, world):
        sample = ImuSample(
            t=0.0,
            omega_m=np.zeros(3),
            a_m=np.array([0.0, 0.0, 0.4 * 9.81]),
            m_m=world.h_inertial,
        )
        with pytest.raises(DegenerateSample):
            initialize_from_first_sample(sample, world)

    @pytest.mark.parametrize(
        "g", [[0.0, 0.0, -9.81], [1e-9, 0.0, 9.81], [0.0, 9.81, 0.0], [0.5, 0.5, 9.7]]
    )
    def test_gravity_off_z_rejected(self, g):
        w = WorldConstants(g_inertial=g)
        sample = ImuSample(t=0.0, omega_m=np.zeros(3), a_m=g, m_m=w.h_inertial)
        with pytest.raises(ValueError, match="gravity along \\+z"):
            initialize_from_first_sample(sample, w)

    def test_gravity_along_z_within_tolerance_accepted(self):
        w = WorldConstants(g_inertial=[1e-12, 0.0, 20.0])
        sample = ImuSample(t=0.0, omega_m=np.zeros(3), a_m=[0.0, 0.0, 20.0], m_m=w.h_inertial)
        x = initialize_from_first_sample(sample, w)
        assert_allclose(x.attitude.as_array(), 0.0, atol=1e-12)

    @pytest.mark.parametrize("g_z", [1e-170, 1e170])
    def test_gravity_at_any_scale(self, g_z):
        # The norm of [0, 0, g_z] as a sum of squares underflows to 0 at
        # 1e-170 and overflows at 1e170; neither may reach |g| or |a_m|.
        w = WorldConstants(g_inertial=[0.0, 0.0, g_z])
        sample = ImuSample(t=0.0, omega_m=np.zeros(3), a_m=[0.0, 0.0, g_z], m_m=w.h_inertial)
        assert initialize_from_first_sample(sample, w).as_vector().tolist() == [0.0] * 6
        assert ScenarioConfig(case_id="I", duration=3.0, world=w).world is w

    @pytest.mark.parametrize("m_m", [[0.0, 0.0, 0.0], [0.0, 0.0, 0.58], [0.23, 0.0, 0.58]])
    def test_dead_or_vertical_magnetometer_degenerate(self, world, m_m):
        # The heading needs a levelled horizontal field of at least half the
        # world's: hypot(0.48, 0.0) / 2 = 0.24 here.
        sample = ImuSample(t=0.0, omega_m=np.zeros(3), a_m=[0.0, 0.0, 9.81], m_m=m_m)
        with pytest.raises(DegenerateSample, match="horizontal"):
            initialize_from_first_sample(sample, world)

    def test_half_horizontal_field_accepted(self, world):
        sample = ImuSample(t=0.0, omega_m=np.zeros(3), a_m=[0.0, 0.0, 9.81], m_m=[0.25, 0.0, 0.58])
        assert initialize_from_first_sample(sample, world).as_vector().tolist() == [0.0] * 6

    def test_vertical_sample_saturates_inside_guard(self, world):
        # Nose straight down: theta would hit +pi/2; the initializer must
        # return a valid state just inside the guard instead of raising.
        sample = ImuSample(
            t=0.0,
            omega_m=np.zeros(3),
            a_m=np.array([-9.81, 0.0, 0.0]),
            m_m=np.array([0.58, 0.0, -0.48]),
        )
        x = initialize_from_first_sample(sample, world)
        assert x.attitude.theta == pytest.approx(np.pi / 2 - EPS_GIMBAL)


class TestEh2Step:
    def test_zero_innovation_fixed_point(self, world, cert):
        x = EulerState(EulerAngles(0.1, 0.2, 0.3))
        s = EH2FilterState(xhat=x, L0=cert.L)
        out = eh2_step(s, _sample_at(x, world), world, DT)
        assert_allclose(out.xhat.as_vector(), x.as_vector(), atol=1e-12)

    def test_zero_gain_is_dead_reckoning(self, world):
        rng = np.random.default_rng(5)
        x = EulerState(
            EulerAngles(0.4, -0.3, 1.2), rng.normal(scale=0.01, size=3)
        )
        s = EH2FilterState(xhat=x, L0=np.zeros((6, 6)))
        ref = x.as_vector()
        for k in range(50):
            omega = rng.normal(scale=0.5, size=3)
            sample = ImuSample(
                t=k * DT, omega_m=omega, a_m=np.array([0.0, 0.0, 9.81]),
                m_m=world.h_inertial,
            )
            s = eh2_step(s, sample, world, DT)
            ref = _dead_reckon(ref, omega, DT)
        assert_allclose(s.xhat.as_vector(), ref, atol=1e-13)

    def test_constant_attitude_convergence(self, world, cert):
        # Closed-loop Hurwitz gives local convergence, but the bias poles sit
        # at ~50 s time constants, so the residual after 10 s stays above
        # 1e-4; below 1e-3 is what the loop actually achieves.
        truth = EulerState(EulerAngles(0.2, -0.1, 0.3))
        sample = _sample_at(truth, world)
        x0 = EulerState(EulerAngles(0.3, 0.0, 0.4))
        s = EH2FilterState(xhat=x0, L0=cert.L)
        assert _att_error_norm(s.xhat, truth) > 0.1
        reached = False
        for _ in range(1000):
            s = eh2_step(s, sample, world, DT)
            if _att_error_norm(s.xhat, truth) < 1e-3:
                reached = True
                break
        assert reached

    def test_deterministic(self, world, cert):
        x = EulerState(EulerAngles(0.1, -0.2, 0.5), np.array([0.01, 0.0, -0.01]))
        sample = ImuSample(
            t=0.0,
            omega_m=np.array([0.2, -0.1, 0.3]),
            a_m=np.array([0.5, 0.3, 9.7]),
            m_m=np.array([0.45, 0.05, 0.6]),
        )
        s1 = eh2_step(EH2FilterState(x, cert.L), sample, world, DT)
        s2 = eh2_step(EH2FilterState(x, cert.L), sample, world, DT)
        assert np.array_equal(s1.xhat.as_vector(), s2.xhat.as_vector())

    def test_gimbal_guard_raises(self, world, cert):
        s = EH2FilterState(
            xhat=EulerState(EulerAngles(0.0, 1.55, 0.0)), L0=np.zeros((6, 6))
        )
        sample = ImuSample(
            t=0.0, omega_m=np.array([0.0, 10.0, 0.0]),
            a_m=np.array([0.0, 0.0, 9.81]), m_m=world.h_inertial,
        )
        with pytest.raises(GimbalLockError):
            for _ in range(20):
                s = eh2_step(s, sample, world, DT)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nonfinite_state_raises(self, world):
        # Innovation components of +/-1e308 overflow to opposite infinities
        # inside the gain product, so the derivative (and then the state)
        # turns NaN without ever tripping the gimbal guard.  The numpy
        # backend warns on the overflow it is being fed; that is the point.
        L0 = np.zeros((6, 6))
        L0[1, 0] = 2.0
        L0[1, 1] = 2.0
        s = EH2FilterState(xhat=EulerState(), L0=L0)
        sample = ImuSample(
            t=0.0,
            omega_m=np.zeros(3),
            a_m=np.array([1e308, -1e308, 0.0]),
            m_m=world.h_inertial,
        )
        with pytest.raises(ArithmeticError):
            eh2_step(s, sample, world, DT)

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf, -np.inf])
    def test_bad_dt(self, dt, world, cert):
        s = EH2FilterState(xhat=EulerState(), L0=cert.L)
        with pytest.raises(ValueError):
            eh2_step(s, _sample_at(EulerState(), world), world, dt)

    def test_invalid_gain_shape(self):
        with pytest.raises(ValueError):
            EH2FilterState(xhat=EulerState(), L0=np.zeros((3, 3)))


class TestEkfStep:
    def test_huge_r_is_dead_reckoning(self, world, noise):
        # Scaling the measurement stds by 1e4 scales R by 1e8: the Kalman
        # gain collapses and the update reduces to the prediction.
        q = NoiseParams(noise.n_w, noise.n_b, noise.n_a * 1e4, noise.n_m * 1e4)
        x = EulerState(EulerAngles(0.3, 0.1, -0.4))
        y = _h(x, world)
        omega = np.array([0.4, -0.2, 0.6])
        sample = ImuSample(
            t=0.0,
            omega_m=omega,
            a_m=y[:3] + np.array([0.1, -0.08, 0.05]),
            m_m=y[3:] + np.array([0.01, -0.01, 0.005]),
        )
        out = ekf_step(EKFState(xhat=x), sample, world, q, DT)
        ref = _dead_reckon(x.as_vector(), omega, DT)
        assert_allclose(out.xhat.as_vector(), ref, atol=1e-6)
        # Same step with unscaled noise moves the estimate by far more.
        plain = ekf_step(EKFState(xhat=x), sample, world, noise, DT)
        assert np.max(np.abs(plain.xhat.as_vector() - ref)) > 1e-3

    def test_zero_covariance_pure_prediction(self, world):
        q = NoiseParams(n_w=0.0, n_b=0.0, n_a=0.02, n_m=0.005)
        x = EulerState(EulerAngles(0.2, -0.3, 0.7))
        s = EKFState(xhat=x, P=np.zeros((6, 6)))
        omega = np.array([0.1, 0.2, -0.3])
        sample = ImuSample(
            t=0.0, omega_m=omega, a_m=np.array([3.0, 1.0, 9.0]),
            m_m=np.array([0.1, 0.4, 0.5]),
        )
        out = ekf_step(s, sample, world, q, DT)
        assert_allclose(
            out.xhat.as_vector(), _dead_reckon(x.as_vector(), omega, DT), atol=1e-14
        )
        assert np.array_equal(out.P, np.zeros((6, 6)))

    def test_singular_innovation_covariance(self, world):
        q = NoiseParams(n_w=0.0, n_b=0.0, n_a=0.0, n_m=0.0)
        s = EKFState(xhat=EulerState(), P=np.zeros((6, 6)))
        with pytest.raises(InnovationCovSingular):
            ekf_step(s, _sample_at(EulerState(), world), world, q, DT)

    def test_constant_attitude_convergence(self, world, noise):
        truth = EulerState(EulerAngles(0.2, -0.1, 0.3))
        sample = _sample_at(truth, world)
        s = EKFState(xhat=EulerState(EulerAngles(0.3, 0.0, 0.4)))
        reached = False
        for _ in range(1000):
            s = ekf_step(s, sample, world, noise, DT)
            if _att_error_norm(s.xhat, truth) < 1e-4:
                reached = True
                break
        assert reached

    def test_covariance_stays_symmetric_psd(self, world, noise):
        rng = np.random.default_rng(17)
        s = EKFState(xhat=EulerState())
        for k in range(300):
            sample = ImuSample(
                t=k * DT,
                omega_m=rng.normal(scale=0.3, size=3),
                a_m=np.array([0.0, 0.0, 9.81]) + rng.normal(scale=0.05, size=3),
                m_m=np.asarray(world.h_inertial) + rng.normal(scale=0.01, size=3),
            )
            s = ekf_step(s, sample, world, noise, DT)
            assert np.array_equal(s.P, s.P.T)
            assert np.min(np.linalg.eigvalsh(s.P)) >= -1e-10

    def test_covariance_symmetric_psd_over_case_ii_trial(self):
        # Every step of one case II trial (60 deg motion): the Joseph-form
        # update keeps P exactly symmetric and PSD up to rounding.
        cfg = ScenarioConfig.case_ii(num_trials=1)
        traj = generate_trajectory(cfg)
        stream = simulate_imu_stream(
            traj.t, traj.angles, traj.body_rates(), cfg.world, cfg.noise,
            np.random.default_rng((cfg.seed, 0)),
        )
        dt = 1.0 / cfg.imu_rate
        s = EKFState(xhat=initialize_from_first_sample(stream.sample(0), cfg.world))
        for k in range(len(stream) - 1):
            s = ekf_step(s, stream.sample(k), cfg.world, cfg.noise, dt)
            assert np.array_equal(s.P, s.P.T)
            assert np.min(np.linalg.eigvalsh(s.P)) >= -1e-12 * np.max(np.abs(s.P))

    def test_default_initial_covariance(self):
        s = EKFState(xhat=EulerState())
        assert np.array_equal(s.P, DEFAULT_P0)
        assert DEFAULT_P0[0, 0] == pytest.approx(0.01)
        assert DEFAULT_P0[3, 3] == pytest.approx(1e-4)

    def test_gimbal_guard_raises(self, world, noise):
        s = EKFState(xhat=EulerState(EulerAngles(0.0, 1.55, 0.0)))
        sample = ImuSample(
            t=0.0, omega_m=np.array([0.0, 10.0, 0.0]),
            a_m=np.array([0.0, 0.0, 9.81]), m_m=world.h_inertial,
        )
        with pytest.raises(GimbalLockError):
            for _ in range(20):
                s = ekf_step(s, sample, world, noise, DT)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_dt(self, dt, world, noise):
        with pytest.raises(ValueError):
            ekf_step(
                EKFState(xhat=EulerState()),
                _sample_at(EulerState(), world),
                world,
                noise,
                dt,
            )

    def test_deterministic(self, world, noise):
        x = EulerState(EulerAngles(0.1, -0.2, 0.5))
        sample = ImuSample(
            t=0.0,
            omega_m=np.array([0.2, -0.1, 0.3]),
            a_m=np.array([0.5, 0.3, 9.7]),
            m_m=np.array([0.45, 0.05, 0.6]),
        )
        s1 = ekf_step(EKFState(x), sample, world, noise, DT)
        s2 = ekf_step(EKFState(x), sample, world, noise, DT)
        assert np.array_equal(s1.xhat.as_vector(), s2.xhat.as_vector())
        assert np.array_equal(s1.P, s2.P)


def _assert_same_container(got, want, matrix: str) -> None:
    """Field by field, bit for bit and in type; ``matrix`` names L0 or P."""
    assert type(got) is type(want)
    assert type(got.xhat) is type(want.xhat) is EulerState
    assert type(got.xhat.attitude) is type(want.xhat.attitude) is EulerAngles
    for name in ("phi", "theta", "psi"):
        a, b = getattr(got.xhat.attitude, name), getattr(want.xhat.attitude, name)
        assert type(a) is type(b) is float
        assert a.hex() == b.hex(), name
    for a, b in ((got.xhat.bias, want.xhat.bias), (getattr(got, matrix), getattr(want, matrix))):
        assert type(a) is type(b) is np.ndarray
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert not a.flags.writeable and not b.flags.writeable
        assert a.tobytes() == b.tobytes()


_angle = st.floats(-np.pi, np.pi, exclude_min=True)


class TestStepContainers:
    """eh2_step/ekf_step build their results without the public constructors'
    checks, from values a check inside the step has just passed; what they
    build must be what those constructors build from the same arrays."""

    @given(
        st.tuples(_angle, st.floats(-1.4, 1.4), _angle),
        st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
        st.lists(st.floats(-0.5, 0.5), min_size=36, max_size=36),
        st.floats(1e-3, 10.0),
        st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        st.booleans(),
    )
    def test_steps_build_what_the_constructors_build(
        self, world, noise, cert, angles, bias, gain, p_scale, omega, y_noise, copy_world
    ):
        # The world itself or an equal copy, built apart.
        x0 = EulerState(EulerAngles(*angles), np.array(bias))
        L0 = cert.L + np.reshape(gain, (6, 6))
        y = _h(x0, world) + np.array(y_noise)
        sample = ImuSample(t=0.0, omega_m=np.array(omega), a_m=y[:3], m_m=y[3:])
        x, P0 = x0.as_vector(), DEFAULT_P0 * p_scale
        try:
            x_eh2 = eh2(x, sample.omega_m, y, L0, _table(L0, world), DT)
            x_ekf, P = ekf(x, P0, sample.omega_m, y, noise, world, DT)
        except GimbalLockError:
            assume(False)
        want_eh2 = EH2FilterState(EulerState.from_vector(x_eh2), L0)
        want_ekf = EKFState(EulerState.from_vector(x_ekf), P)
        w = world
        if copy_world:
            w = WorldConstants(world.g_inertial.copy(), world.h_inertial.copy())
        assert w == world
        s_eh2 = EH2FilterState(x0, L0)
        got_eh2 = eh2_step(s_eh2, sample, w, DT)
        got_ekf = ekf_step(EKFState(x0, P0), sample, w, noise, DT)
        _assert_same_container(got_eh2, want_eh2, "L0")
        _assert_same_container(got_ekf, want_ekf, "P")
        assert got_eh2.L0 is s_eh2.L0

    def test_state_steps_with_the_gain_table_of_each_world(self, world, cert):
        # A state keeps the gain table of the world it was last stepped in;
        # a step in another world, and in an equal copy of it, must take
        # that world's L0 C_h, never the table the state brought along.
        other = WorldConstants([0.0, 0.0, 9.81], [0.2, 0.3, 0.5])
        twin = WorldConstants(other.g_inertial.copy(), other.h_inertial.copy())
        x0 = EulerState(EulerAngles(0.1, -0.2, 0.3), np.array([0.001, -0.002, 0.003]))
        sample = _sample_at(x0, world, omega_m=[0.05, -0.02, 0.01])
        y = sample.stacked_measurement()
        s = EH2FilterState(x0, cert.L)
        for w in (world, world, other, other, twin, twin):
            x = s.xhat.as_vector()
            want = eh2(x, sample.omega_m, y, cert.L, _table(cert.L, w), DT)
            stale = eh2(x, sample.omega_m, y, cert.L, _table(cert.L, world), DT)
            s = eh2_step(s, sample, w, DT)
            assert s.xhat.as_vector().tobytes() == want.tobytes()
            assert w == world or not np.array_equal(want, stale)

    def test_one_step_of_each_checks_each_value_once(self, world, noise, cert, monkeypatch):
        # The design: every new state is checked once, by checked_state
        # (eh2 ends in one; the EKF's prediction and its update each end in
        # one), and the EKF's new P once, by EKFState._from_checked; no
        # EulerAngles check runs.  A step that re-checks a value shows up here.
        x0 = EulerState(EulerAngles(0.1, -0.2, 0.3), np.array([0.001, -0.002, 0.003]))
        s_eh2, s_ekf = EH2FilterState(x0, cert.L), EKFState(x0)
        sample = _sample_at(x0, world, omega_m=[0.05, -0.02, 0.01])
        calls = {"finite": 0, "angles": 0}
        finite = sensors._finite
        post_init = EulerAngles.__post_init__

        def counted_finite(arr):
            calls["finite"] += 1
            return finite(arr)

        def counted_post_init(self):
            calls["angles"] += 1
            post_init(self)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "eh2marg" and getattr(module, "_finite", None) is finite:
                monkeypatch.setattr(module, "_finite", counted_finite)
        monkeypatch.setattr(EulerAngles, "__post_init__", counted_post_init)
        eh2_step(s_eh2, sample, world, DT)
        ekf_step(s_ekf, sample, world, noise, DT)
        assert calls == {"finite": 1 + 2 + 1, "angles": 0}

    def test_non_finite_new_covariance_rejected(self, world, noise, monkeypatch):
        # A finite estimate with a non-finite P is hard to reach through the
        # arithmetic; EKFState's check is what keeps it out of the new state.
        x = EulerState().as_vector()
        for bad in (np.inf, -np.inf, np.nan):
            P = DEFAULT_P0.copy()
            P[4, 4] = bad
            monkeypatch.setattr(filters, "ekf", lambda *args: (x, P))
            with pytest.raises(ValueError, match="^P must be a finite 6x6 matrix$"):
                ekf_step(EKFState(EulerState()), _sample_at(EulerState(), world), world, noise, DT)


def test_huge_gyro_sample_raises_non_finite_state_without_a_warning(world, noise, cert):
    # A gyro sample of 1e308 overflows the RK4 stage sums of one state; the
    # step must report it as NonFiniteState, with no overflow warning first.
    x0 = EulerState()
    sample = ImuSample(0.0, np.array([1e308, 0.0, 0.0]), world.g_inertial, world.h_inertial)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState):
            eh2_step(EH2FilterState(x0, cert.L), sample, world, DT)
        with pytest.raises(NonFiniteState):
            ekf_step(EKFState(x0), sample, world, noise, DT)


def test_huge_gyro_sample_fails_a_stack_with_non_finite_state_without_a_warning(
    world, noise, cert
):
    # The stacked half: 1e308 in one column of a (3, 2) gyro stack overflows
    # the stack's RK4 sums, which must not warn before checked_state raises.
    x = np.zeros((6, 2))
    x[1] = 0.1
    omega = np.zeros((3, 2))
    omega[0, 1] = 1e308
    y = np.repeat(np.concatenate((world.g_inertial, world.h_inertial))[:, None], 2, axis=1)
    P = np.repeat(DEFAULT_P0[None], 2, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState):
            eh2(x.copy(), omega, y, cert.L, _table(cert.L, world), DT)
        with pytest.raises(NonFiniteState):
            ekf(x.copy(), P, omega, y, noise, world, DT)


_spd = st.tuples(
    arrays(np.float64, (10, 6, 6), elements=st.floats(-1.0, 1.0)),
    arrays(np.float64, (10, 6, 6), elements=st.floats(-10.0, 10.0)),
    st.floats(1e-6, 10.0),
)


class TestSolve:
    """The EKF's K comes from LAPACK's gesv gufunc, called without
    ``np.linalg.solve``'s wrapper; it must give that function's bits and
    errors."""

    @given(_spd)
    def test_gain_equals_numpy_solve_bit_for_bit(self, operands):
        M, B, eps = operands
        S = M @ M.mT + eps * np.eye(6)
        # A transposed right-hand side, as ekf passes (P- H^T)^T.
        for a, b in ((S[0], B[0]), (S[0], B[0].T), (S, B), (S, B.mT)):
            got, want = filters._solve(a, b), np.linalg.solve(a, b)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_exactly_singular_matrix_raises_linalg_error_without_a_warning(self):
        S = np.stack((np.eye(6), np.zeros((6, 6))))
        B = np.ones((2, 6, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in ((S[1], B[1]), (S, B)):
                with pytest.raises(LinAlgError, match="^Singular matrix$"):
                    np.linalg.solve(a, b)
                with pytest.raises(LinAlgError, match="^Singular matrix$"):
                    filters._solve(a, b)

    def test_singular_innovation_covariance_one_state_and_through_a_stack(self, world):
        # Zero noise and a zero P make S = 0.  One state raises
        # InnovationCovSingular; a stack of two raises it too, and the
        # harness's member-by-member re-run gives each member that error.
        q = NoiseParams(n_w=0.0, n_b=0.0, n_a=0.0, n_m=0.0)
        sample = _sample_at(EulerState(), world)
        message = "innovation covariance solve failed: Singular matrix"
        step = filters._paper_plans(np.zeros((6, 6)), q, world, DT)[1].step
        omega = np.repeat(sample.omega_m[:, None], 2, axis=1)
        y = np.repeat(sample.stacked_measurement()[:, None], 2, axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InnovationCovSingular, match=f"^{message}$"):
                ekf_step(EKFState(EulerState(), np.zeros((6, 6))), sample, world, q, DT)
            with pytest.raises(InnovationCovSingular, match=f"^{message}$"):
                step(np.zeros((6, 2)), np.zeros((2, 6, 6)), omega, y)
            stack = (np.zeros((6, 2)), np.zeros((2, 6, 6)), omega, y)
            new, errors, _ = harness._advance(step, stack)
        assert new is None and sorted(errors) == [0, 1]
        for exc in errors.values():
            assert type(exc) is InnovationCovSingular and str(exc) == message

    def test_ekf_step_keeps_the_new_covariance_read_only_without_a_copy(
        self, world, noise, monkeypatch
    ):
        x0 = EulerState(EulerAngles(0.1, -0.2, 0.3), np.array([0.001, -0.002, 0.003]))
        sample = _sample_at(x0, world, omega_m=[0.05, -0.02, 0.01])
        s = EKFState(x0)
        y = sample.stacked_measurement()
        x, P = ekf(x0.as_vector(), s.P, sample.omega_m, y, noise, world, DT)
        got = ekf_step(s, sample, world, noise, DT)
        assert not got.P.flags.writeable
        assert got.P.tobytes() == P.tobytes()
        fresh = P.copy()
        monkeypatch.setattr(filters, "ekf", lambda *args: (x, fresh))
        assert ekf_step(s, sample, world, noise, DT).P is fresh
        assert not fresh.flags.writeable
        # The public constructor still keeps a copy of what a caller passes.
        mine = P.copy()
        assert EKFState(x0, mine).P is not mine and mine.flags.writeable


def test_public_steps_equal_their_column_of_a_harness_stack(cert):
    # One state's steps run on Python floats, a stack's on arrays: 500
    # public steps of each filter on each of two streams must give the bits
    # of that stream's column of the harness's 2-trial stack, P included.
    cfg = ScenarioConfig(
        case_id="custom", duration=5.0, imu_rate=100.0, angular_speed=0.5,
        amplitude_deg=20.0, seed=11, num_trials=2,
    )
    world, q, dt = cfg.world, cfg.noise, 1.0 / cfg.imu_rate
    traj = generate_trajectory(cfg)
    streams = [
        simulate_imu_stream(
            traj.t, traj.angles, traj.body_rates(), world, q, np.random.default_rng((11, j))
        )
        for j in range(2)
    ]
    seen = {}

    def recorded(plan):
        def step(*args):
            out = plan.step(*args)
            seen.setdefault(plan.name, []).append(out)
            return out

        return plan._replace(step=step)

    plans = filters._paper_plans(cert.L, q, world, dt)
    batch = harness._run_trials(2, streams, world, tuple(map(recorded, plans)))
    assert not batch.failures and len(seen["eh2"]) == len(seen["ekf"]) == 500
    for j, stream in enumerate(streams):
        x0 = initialize_from_first_sample(stream.sample(0), world)
        s_eh2, s_ekf = EH2FilterState(x0, cert.L), EKFState(x0)
        for k in range(500):
            sample = stream.sample(k)
            s_eh2 = eh2_step(s_eh2, sample, world, dt)
            s_ekf = ekf_step(s_ekf, sample, world, q, dt)
            (x_eh2,), (x_ekf, P) = seen["eh2"][k], seen["ekf"][k]
            assert s_eh2.xhat.as_vector().tobytes() == x_eh2[:, j].tobytes(), (j, k)
            assert s_ekf.xhat.as_vector().tobytes() == x_ekf[:, j].tobytes(), (j, k)
            assert s_ekf.P.tobytes() == P[j].tobytes(), (j, k)


class TestStackedSteps:
    """(6, N) states advance as N independent filters, bit for bit."""

    @staticmethod
    def _inputs(world, n=6):
        rng = np.random.default_rng(5)
        x = np.column_stack(
            [
                rng.uniform(-2.5, 2.5, n),
                rng.uniform(-1.2, 1.2, n),
                rng.uniform(-2.5, 2.5, n),
                rng.normal(scale=0.01, size=(n, 3)),
            ]
        )
        omega = rng.normal(scale=0.5, size=(n, 3))
        y = np.hstack([world.g_inertial, world.h_inertial]) + rng.normal(scale=0.05, size=(n, 6))
        P = DEFAULT_P0 * rng.uniform(0.5, 2.0, size=(n, 1, 1))
        return x.T, omega.T, y.T, P

    def test_eh2_rows_match_single_steps(self, world, cert):
        x, omega, y, _ = self._inputs(world)
        table = _table(cert.L, world)
        out = eh2(x, omega, y, cert.L, table, DT)
        assert out.shape == x.shape
        for k in range(x.shape[1]):
            assert np.array_equal(
                out[:, k], eh2(x[:, k], omega[:, k], y[:, k], cert.L, table, DT)
            )

    def test_ekf_rows_match_single_steps(self, world, noise):
        x, omega, y, P = self._inputs(world)
        x_new, P_new = ekf(x, P, omega, y, noise, world, DT)
        assert P_new.shape == P.shape
        for k in range(x.shape[1]):
            xk, Pk = ekf(x[:, k], P[k], omega[:, k], y[:, k], noise, world, DT)
            assert np.array_equal(x_new[:, k], xk)
            assert np.array_equal(P_new[k], Pk)

    @given(
        st.integers(1, 12),
        st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    # |h| = 2.35e-163: its norm underflows to 0, and so did WorldConstants'
    # zero and parallel tests.
    @example(n=1, refs=[0.0, 7.0, 0.0, 0.0, 0.0, 2.3548390273400154e-163], seed=0)
    def test_stacks_equal_rows_for_any_references(self, noise, cert, n, refs, seed):
        # h, Cy and eh2's L h are read off tables built per world; any pair
        # of non-parallel reference vectors must give each state's own
        # result, bit for bit, down to the filters.
        g, h = np.array(refs[:3]), np.array(refs[3:])
        assume(np.linalg.norm(np.cross(g, h)) > 1e-3 * np.linalg.norm(g) * np.linalg.norm(h))
        world = WorldConstants(g, h)
        rng = np.random.default_rng(seed)
        x = np.column_stack(
            [
                rng.uniform(-np.pi, np.pi, n),
                rng.uniform(-1.2, 1.2, n),
                rng.uniform(-np.pi, np.pi, n),
                rng.normal(scale=0.01, size=(n, 3)),
            ]
        ).T
        omega = rng.normal(scale=0.5, size=(n, 3)).T
        jac_all = jacobians_measurement(x[:3], world)
        y = jac_all[0] + rng.normal(0.0, 0.01, (n, 6)).T
        P = DEFAULT_P0 * rng.uniform(0.5, 2.0, size=(n, 1, 1))
        ekf_all = ekf(x, P, omega, y, noise, world, DT)
        for k in range(n):
            h_row, Cy_row = jacobians_measurement(x[:3, k], world)
            assert np.array_equal(jac_all[0][:, k], h_row)
            assert np.array_equal(jac_all[1][k], Cy_row)
            x_row, P_row = ekf(x[:, k], P[k], omega[:, k], y[:, k], noise, world, DT)
            assert np.array_equal(ekf_all[0][:, k], x_row)
            assert np.array_equal(ekf_all[1][k], P_row)
        # In this world and a second one, eh2 with L C_h must give the bits
        # of an RK4 of f(x) + (L C_h) m(x) - L y, each row its own state's,
        # and what f(x) + L (h(x) - y) integrates to without a gain table.
        L = cert.L
        for w in (world, WorldConstants(h, g)):
            table = _table(L, w)
            got = eh2(x, omega, y, L, table, DT)
            xdot = lambda xs: process_model(xs, omega) + (
                np.matvec(table, _monomials(*_sin_cos(xs[:3])))
                - np.matvec(L, np.ascontiguousarray(y.T))
            ).T
            assert np.array_equal(got, rk4_step(xdot, x, DT))
            xdot = lambda xs: process_model(xs, omega) + L @ (
                jacobians_measurement(xs[:3], w)[0] - y
            )
            assert_allclose(got, rk4_step(xdot, x, DT), rtol=0.0, atol=1e-12)
            for k in range(n):
                assert np.array_equal(
                    got[:, k], eh2(x[:, k], omega[:, k], y[:, k], L, table, DT)
                )

    @staticmethod
    def _non_contiguous(a, layout):
        """The values of ``a`` in a non-contiguous array: every other column
        of a wider array (every other matrix of a covariance stack), or a
        Fortran-ordered copy."""
        if layout == "fortran":
            return np.asfortranarray(a)
        if a.ndim == 3:
            view = np.full((2 * len(a),) + a.shape[1:], np.nan)[::2]
        else:
            view = np.full(a.shape[:-1] + (2 * a.shape[-1],), np.nan)[:, ::2]
        view[...] = a
        return view

    @given(
        st.integers(2, 12),
        st.sampled_from(["every other column", "fortran"]),
        st.integers(0, 2**32 - 1),
    )
    def test_non_contiguous_stacks_equal_contiguous_rows(
        self, world, noise, cert, n, layout, seed
    ):
        # Each stacked matrix-vector product must run on the same contiguous
        # rows as one state's, whatever the layout of the stack it is given:
        # a strided operand may round differently.
        rng = np.random.default_rng(seed)
        x = np.vstack(
            [
                rng.uniform(-np.pi, np.pi, n),
                rng.uniform(-1.2, 1.2, n),
                rng.uniform(-np.pi, np.pi, n),
                rng.normal(scale=0.01, size=(3, n)),
            ]
        )
        omega = rng.normal(scale=0.5, size=(3, n))
        y = jacobians_measurement(x[:3], world)[0] + rng.normal(0.0, 0.01, (6, n))
        P = DEFAULT_P0 * rng.uniform(0.5, 2.0, size=(n, 1, 1))
        xv, omv, yv, Pv = (self._non_contiguous(a, layout) for a in (x, omega, y, P))
        assert not any(a.flags.c_contiguous for a in (xv, omv, yv, Pv))
        f_all = process_model(xv, omv)
        h_all, Cy_all = jacobians_measurement(xv[:3], world)
        table = _table(cert.L, world)
        eh2_all = eh2(xv, omv, yv, cert.L, table, DT)
        x_all, P_all = ekf(xv, Pv, omv, yv, noise, world, DT)
        for k in range(n):
            xk, omk, yk, Pk = x[:, k].copy(), omega[:, k].copy(), y[:, k].copy(), P[k].copy()
            assert np.array_equal(f_all[:, k], process_model(xk, omk))
            h, Cy = jacobians_measurement(xk[:3], world)
            assert np.array_equal(h_all[:, k], h)
            assert np.array_equal(Cy_all[k], Cy)
            assert np.array_equal(eh2_all[:, k], eh2(xk, omk, yk, cert.L, table, DT))
            x_new, P_new = ekf(xk, Pk, omk, yk, noise, world, DT)
            assert np.array_equal(x_all[:, k], x_new)
            assert np.array_equal(P_all[k], P_new)

    def test_one_row_in_gimbal_band_fails_the_stack(self, world, cert):
        x, omega, y, _ = self._inputs(world)
        x[1, 3] = np.pi / 2.0 - EPS_GIMBAL / 2.0
        with pytest.raises(GimbalLockError, match=r"rows \[3\]"):
            eh2(x, omega, y, cert.L, _table(cert.L, world), DT)


def _peak_bytes(call) -> int:
    """tracemalloc peak of one call, after two warm-up calls."""
    call()
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_state_eh2_step_allocates_well_under_the_ekf(world, noise, cert):
    # README: a one-state eh2 step's allocation peak is about a third of the
    # EKF's (no covariance, no linear solve, and a gain table built once).
    x = np.array([0.1, -0.2, 0.3, 0.001, -0.002, 0.003])
    omega = np.array([0.05, -0.02, 0.01])
    y = _h(EulerState.from_vector(x), world) + 0.01
    table = _table(cert.L, world)
    eh2_peak = _peak_bytes(lambda: eh2(x, omega, y, cert.L, table, DT))
    ekf_peak = _peak_bytes(lambda: ekf(x, DEFAULT_P0, omega, y, noise, world, DT))
    assert eh2_peak <= 0.4 * ekf_peak, (eh2_peak, ekf_peak)
