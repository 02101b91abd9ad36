import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from eh2marg import (
    EulerAngles,
    ScenarioConfig,
    ImuSample,
    ImuStream,
    NoiseParams,
    WorldConstants,
    dcm_body_from_inertial,
    generate_trajectory,
    simulate_imu_stream,
)
from eh2marg.errors import LengthMismatch
from eh2marg.kinematics import _rotate, _sin_cos

SILENT = NoiseParams(0.0, 0.0, 0.0, 0.0)


def _stream(angles, p=SILENT, w=None, rates=None, dt=0.01, seed=0):
    """Sensor stream along the given (n, 3) attitudes, n >= 2, sampled every dt."""
    angles = np.asarray(angles, dtype=float)
    n = angles.shape[0]
    rates = np.zeros((n, 3)) if rates is None else np.broadcast_to(rates, (n, 3))
    return simulate_imu_stream(
        np.arange(n) * dt, angles, rates, w or WorldConstants(), p, np.random.default_rng(seed)
    )


class TestNoiseParams:
    def test_defaults(self):
        p = NoiseParams()
        assert (p.n_w, p.n_b, p.n_a, p.n_m) == (0.005, 1e-4, 0.02, 0.005)

    @pytest.mark.parametrize("field", ["n_w", "n_b", "n_a", "n_m"])
    def test_negative_rejected(self, field):
        with pytest.raises(ValueError):
            NoiseParams(**{field: -0.1})

    @pytest.mark.parametrize("field", ["n_w", "n_b", "n_a", "n_m"])
    @pytest.mark.parametrize("value", [1.3407807929942597e154, 1e300, np.inf, np.nan])
    def test_value_whose_square_overflows_rejected(self, field, value):
        # The design model and the EKF square every field; the check must
        # not square it in numpy, which would warn.
        with pytest.raises(ValueError, match=f"^{field} must be >= 0 with a finite square"):
            NoiseParams(**{field: value})

    def test_largest_value_with_a_finite_square_accepted(self):
        # sqrt(float max): its square, 1.7976931348623155e308, is finite.
        big = 1.3407807929942596e154
        r, R = NoiseParams(n_a=big, n_m=big).measurement_variances()
        assert r.tolist() == [big * big] * 6
        assert np.isfinite(R).all()


class TestWorldConstants:
    def test_defaults(self):
        w = WorldConstants()
        assert_allclose(w.g_inertial, [0.0, 0.0, 9.81])
        assert_allclose(w.h_inertial, [0.48, 0.0, 0.58])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            WorldConstants(g_inertial=[0.0, 0.0, 0.0])

    def test_parallel_field_rejected(self):
        with pytest.raises(ValueError):
            WorldConstants(h_inertial=[0.0, 0.0, -3.0])

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e170])
    def test_checks_hold_at_any_scale(self, scale):
        # A norm of a tiny vector underflows to 0 and one of a huge vector
        # overflows; neither may decide whether a vector is zero or parallel.
        g, h = np.array([0.0, 0.0, 9.81]), np.array([0.48, 0.0, 0.58])
        WorldConstants(scale * g, scale * h)
        WorldConstants(scale * g, h)
        WorldConstants([scale, 0.0, 0.0], [0.0, scale, 0.0])
        with pytest.raises(ValueError, match="parallel"):
            WorldConstants(scale * g, -2.0 * scale * g)
        with pytest.raises(ValueError, match="nonzero"):
            WorldConstants(scale * g, 0.0 * h)


def test_simulate_gyro_noise_free():
    stream = _stream(np.zeros((4, 3)), rates=[0.3, 0.0, -0.1])
    assert_allclose(stream.omega_m, np.tile([0.3, 0.0, -0.1], (4, 1)))
    biased = _stream(np.zeros((4, 3)), p=NoiseParams(0.0, 0.01, 0.0, 0.0))
    assert_allclose(biased.omega_m, biased.bias_true)


def test_simulate_gyro_sample_mean():
    p = NoiseParams(n_w=0.1, n_b=0.0, n_a=0.0, n_m=0.0)
    n = 100_000
    stream = _stream(np.zeros((n, 3)), p=p, rates=[0.2, 0.0, 0.0], seed=42)
    mean = stream.omega_m.mean(axis=0)
    assert np.all(np.abs(mean - [0.2, 0.0, 0.0]) < 3.0 * p.n_w / np.sqrt(n))


def test_bias_walk_scaling_and_time_precondition():
    # The bias walk takes one sqrt(dt)-scaled step per sample interval, so
    # the increment variance is dt n_b^2; quadrupling dt quadruples it.
    p = NoiseParams(n_w=0.0, n_b=0.01, n_a=0.0, n_m=0.0)
    for dt in (0.01, 0.04):
        stream = _stream(np.zeros((20_001, 3)), p=p, dt=dt, seed=7)
        increments = np.diff(stream.bias_true, axis=0)
        assert_allclose(increments.var(axis=0), dt * p.n_b**2, rtol=0.05)
    t = np.arange(5) * 0.01
    truth = np.zeros((5, 3))
    for bad, message in (
        (t[::-1], "strictly increasing"),
        (np.r_[t[:2], t[1], t[3:]], "strictly increasing"),
        (t**2, "evenly spaced"),
    ):
        with pytest.raises(ValueError, match=message):
            simulate_imu_stream(bad, truth, truth, WorldConstants(), p, np.random.default_rng(0))


@pytest.mark.parametrize("shape", [(3,), (6, 3), (5, 1)])
@pytest.mark.parametrize("name", ["angles", "body_rates"])
def test_simulate_rejects_series_not_n_by_3(name, shape):
    # A (3,) series would broadcast into a constant one.
    series = {"angles": np.zeros((5, 3)), "body_rates": np.zeros((5, 3))}
    series[name] = np.zeros(shape)
    with pytest.raises(LengthMismatch, match=re.escape("must have shape (5, 3)")):
        simulate_imu_stream(
            np.arange(5) * 0.01, series["angles"], series["body_rates"],
            WorldConstants(), SILENT, np.random.default_rng(0),
        )


@pytest.mark.parametrize(
    "e, expected",
    [
        (EulerAngles.zero(), [0.0, 0.0, 9.81]),
        (EulerAngles(np.pi / 2.0, 0.0, 0.0), [0.0, 9.81, 0.0]),
    ],
)
def test_simulate_accel_noise_free(e, expected):
    stream = _stream([e.as_array()] * 2)
    assert_allclose(stream.a_m, [expected] * 2, atol=1e-12)


def test_simulate_mag_quarter_yaw():
    w = WorldConstants(h_inertial=[1.0, 0.0, 0.5])
    stream = _stream([[0.0, 0.0, np.pi / 2.0]] * 2, w=w)
    assert_allclose(stream.m_m, [[0.0, -1.0, 0.5]] * 2, atol=1e-12)


def test_norm_preservation_over_random_attitudes():
    rng = np.random.default_rng(9)
    w = WorldConstants()
    angles = np.column_stack(
        [rng.uniform(-np.pi, np.pi, 50), rng.uniform(-1.4, 1.4, 50), rng.uniform(-np.pi, np.pi, 50)]
    )
    stream = _stream(angles, w=w)
    assert_allclose(np.linalg.norm(stream.a_m, axis=1), np.linalg.norm(w.g_inertial), atol=1e-10)
    assert_allclose(np.linalg.norm(stream.m_m, axis=1), np.linalg.norm(w.h_inertial), atol=1e-10)


def test_accel_and_mag_are_each_reference_rotated_row_by_row():
    # Bit for bit, accel is R(Phi) g and mag R(Phi) h as _rotate gives them
    # row by row, in a world where g and h differ in every component.
    rng = np.random.default_rng(4)
    w = WorldConstants(g_inertial=[0.3, -0.2, 9.7], h_inertial=[0.41, 0.12, 0.58])
    angles = np.column_stack(
        [rng.uniform(-np.pi, np.pi, 9), rng.uniform(-1.4, 1.4, 9), rng.uniform(-np.pi, np.pi, 9)]
    )
    stream = _stream(angles, w=w)
    for k, row in enumerate(angles):
        s, c = _sin_cos(row)
        assert np.array_equal(stream.a_m[k], _rotate(s, c, w.g_inertial.tolist()))
        assert np.array_equal(stream.m_m[k], _rotate(s, c, w.h_inertial.tolist()))


def test_imu_sample_stacks_measurement():
    a = np.array([4.0, 5.0, 6.0])
    s = ImuSample(t=0.0, omega_m=[1, 2, 3], a_m=a, m_m=[7, 8, 9])
    y = s.stacked_measurement()
    assert_allclose(y, [4, 5, 6, 7, 8, 9])
    # Built once, read-only, with a_m and m_m as its halves: the two filters
    # share it, and a later write to the caller's array does not reach it.
    assert s.stacked_measurement() is y and not y.flags.writeable
    assert np.shares_memory(s.a_m, y) and np.shares_memory(s.m_m, y)
    a[0] = 0.0
    assert s.a_m[0] == y[0] == 4.0


class TestImuStream:
    def make_truth(self, n=201, dt=0.01):
        t = np.arange(n) * dt
        angles = 0.3 * np.sin(np.column_stack([t, 0.7 * t, 1.3 * t]))
        rates = np.full((n, 3), 0.1)
        return t, angles, rates

    def test_zero_noise_stream_is_deterministic_truth(self):
        t, angles, rates = self.make_truth()
        w = WorldConstants()
        stream = simulate_imu_stream(t, angles, rates, w, SILENT, np.random.default_rng(0))
        assert len(stream) == len(t)
        assert_allclose(stream.omega_m, rates)
        assert_allclose(stream.bias_true, 0.0)
        for k in (0, 57, len(t) - 1):
            R = dcm_body_from_inertial(EulerAngles(*angles[k]))
            assert_allclose(stream.a_m[k], R @ w.g_inertial, atol=1e-12)
            assert_allclose(stream.m_m[k], R @ w.h_inertial, atol=1e-12)

    def test_same_seed_bit_identical(self):
        t, angles, rates = self.make_truth()
        w, p = WorldConstants(), NoiseParams()
        s1 = simulate_imu_stream(t, angles, rates, w, p, np.random.default_rng((42, 0)))
        s2 = simulate_imu_stream(t, angles, rates, w, p, np.random.default_rng((42, 0)))
        for field in ("omega_m", "a_m", "m_m", "bias_true"):
            assert np.array_equal(getattr(s1, field), getattr(s2, field))

    def test_different_trials_differ(self):
        t, angles, rates = self.make_truth()
        w, p = WorldConstants(), NoiseParams()
        s1 = simulate_imu_stream(t, angles, rates, w, p, np.random.default_rng((42, 0)))
        s2 = simulate_imu_stream(t, angles, rates, w, p, np.random.default_rng((42, 1)))
        assert not np.array_equal(s1.omega_m, s2.omega_m)

    def test_bias_walk_starts_at_zero_and_accumulates(self):
        t, angles, rates = self.make_truth()
        p = NoiseParams(n_w=0.0, n_b=0.02, n_a=0.0, n_m=0.0)
        stream = simulate_imu_stream(t, angles, rates, WorldConstants(), p, np.random.default_rng(5))
        assert_allclose(stream.bias_true[0], 0.0)
        increments = np.diff(stream.bias_true, axis=0)
        dt = t[1] - t[0]
        assert increments.std() == pytest.approx(np.sqrt(dt) * p.n_b, rel=0.2)
        assert_allclose(stream.omega_m, rates + stream.bias_true)

    def test_sample_accessor_matches_arrays(self):
        t, angles, rates = self.make_truth()
        stream = simulate_imu_stream(
            t, angles, rates, WorldConstants(), NoiseParams(), np.random.default_rng(2)
        )
        s = stream.sample(3)
        assert s.t == t[3]
        assert_allclose(s.omega_m, stream.omega_m[3])
        assert_allclose(s.stacked_measurement(), np.r_[stream.a_m[3], stream.m_m[3]])


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=_finite_floats),
            *(arrays(np.float64, (n, 3), elements=_finite_floats) for _ in range(4)),
            st.integers(-n, n - 1),
        )
    )
)
def test_stream_sample_is_the_constructors_sample(columns):
    # sample(k) builds its sample without the constructor; field by field,
    # bit for bit, it is the one the constructor builds from row k.
    *arrays_, k = columns
    stream = ImuStream(*arrays_)
    got = stream.sample(k)
    want = ImuSample(stream.t[k], stream.omega_m[k], stream.a_m[k], stream.m_m[k])
    assert type(got.t) is float and got.t == want.t
    for name in ("omega_m", "a_m", "m_m"):
        held = getattr(got, name)
        assert held.dtype == np.float64 and held.tobytes() == getattr(want, name).tobytes()
        assert not held.flags.writeable
    y = got.stacked_measurement()
    assert y.tobytes() == want.stacked_measurement().tobytes() and not y.flags.writeable
    assert np.shares_memory(got.a_m, y) and np.shares_memory(got.m_m, y)
    assert not np.shares_memory(got.omega_m, stream.omega_m)


def _stream_scenario_inputs():
    """t, angles and body rates of the 20,001-sample stream scenario
    (a 20 deg three-axis sinusoid at 0.5 rad/s, 100 Hz, 200 s)."""
    cfg = ScenarioConfig(
        case_id="custom", duration=200.0, imu_rate=100.0, angular_speed=0.5,
        amplitude_deg=20.0, seed=11, num_trials=1,
    )
    traj = generate_trajectory(cfg)
    return traj.t, traj.angles, traj.body_rates()


def test_stream_is_the_plain_formula_over_the_same_four_draws():
    # The noise blocks are scaled and added in place, one at a time; the
    # stream must still be truth + bias + std * white noise, bit for bit,
    # over the gyro, bias-walk, accel and mag draws in that order.
    t, angles, rates = _stream_scenario_inputs()
    t, angles, rates = t[:2001], angles[:2001], rates[:2001]
    p, w = NoiseParams(), WorldConstants([0.1, -0.2, 9.7], [0.4, 0.1, 0.6])
    stream = simulate_imu_stream(t, angles, rates, w, p, np.random.default_rng((11, 0)))
    rng = np.random.default_rng((11, 0))
    gyro_white, walk, accel_white, mag_white = (rng.standard_normal((len(t), 3)) for _ in range(4))
    bias = np.zeros((len(t), 3))
    bias[1:] = np.sqrt(t[1] - t[0]) * p.n_b * np.cumsum(walk[:-1], axis=0)
    s, c = _sin_cos(angles.T)
    g_body, h_body = (
        np.stack(_rotate(s, c, r.tolist()), axis=-1) for r in (w.g_inertial, w.h_inertial)
    )
    want = {
        "bias_true": bias,
        "omega_m": rates + bias + p.n_w * gyro_white,
        "a_m": g_body + p.n_a * accel_white,
        "m_m": h_body + p.n_m * mag_white,
    }
    for name, arr in want.items():
        assert getattr(stream, name).tobytes() == arr.tobytes(), name


def test_stream_peak_memory_holds_one_noise_block_at_a_time():
    # 20,001 samples: each (n, 3) block is 480 kB.  Keeping all four white-
    # noise blocks until the return read 5.6 MB at the peak; one at a time,
    # scaled and added in place, reads about 3.7 MB.
    t, angles, rates = _stream_scenario_inputs()
    w, p, rng = WorldConstants(), NoiseParams(), np.random.default_rng((11, 0))
    simulate_imu_stream(t, angles, rates, w, p, rng)
    tracemalloc.start()
    try:
        simulate_imu_stream(t, angles, rates, w, p, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_500_000, peak
