"""Tests for scenario generation, the experiment runner, and metrics."""

import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from eh2marg import harness
from eh2marg.errors import ConfigError, LengthMismatch, NonFiniteState
from eh2marg.filters import (
    EH2FilterState,
    EKFState,
    _paper_plans,
    eh2,
    eh2_step,
    ekf_step,
    initialize_from_first_sample,
)
from eh2marg.harness import (
    GIMBAL_MARGIN,
    MAX_STEPS,
    RunMetrics,
    ScenarioConfig,
    Trajectory,
    compute_metrics,
    generate_trajectory,
    metrics_without_timing,
    run_experiment,
    run_timing_benchmark,
)
from eh2marg.linearization import nominal_model
from eh2marg.sensors import NoiseParams, WorldConstants, simulate_imu_stream
from eh2marg.synthesis import synthesize_gain

DEG30 = np.pi / 6.0


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


#: Valid configs: every field drawn, steps per trial kept below MAX_STEPS,
#: gravity along +z and the magnetic vector off that axis.
_configs = st.builds(
    ScenarioConfig,
    case_id=st.sampled_from(["I", "II", "custom"]),
    duration=_floats(1e-3, 400.0),
    imu_rate=_floats(1e-3, 1000.0),
    angular_speed=_floats(0.0, 10.0),
    amplitude_deg=st.none() | _floats(0.0, 90.0) | st.tuples(*[_floats(0.0, 90.0)] * 3),
    noise=st.builds(NoiseParams, *[_floats(0.0, 1.0)] * 4),
    world=st.builds(
        WorldConstants,
        g_inertial=st.tuples(st.just(0.0), st.just(0.0), _floats(0.1, 100.0)),
        h_inertial=st.tuples(_floats(0.1, 10.0), _floats(-10.0, 10.0), _floats(-10.0, 10.0)),
    ),
    seed=st.integers(0, 2**64 - 1),
    num_trials=st.integers(1, 1000),
)


@given(_configs)
def test_config_dict_round_trip_property(cfg):
    for doc in (cfg.to_dict(), json.loads(json.dumps(cfg.to_dict()))):
        back = ScenarioConfig.from_dict(doc)
        assert back == cfg
        assert hash(back) == hash(cfg)
        assert back.config_hash() == cfg.config_hash()


class TestScenarioConfig:
    def test_case_i_defaults(self):
        cfg = ScenarioConfig.case_i()
        assert cfg.case_id == "I"
        assert cfg.duration == 50.0
        assert cfg.imu_rate == 100.0
        assert cfg.angular_speed == pytest.approx(np.pi / 50.0)
        assert cfg.amplitude_deg is None
        assert cfg.seed == 42
        assert cfg.num_trials == 10

    def test_case_ii_defaults(self):
        cfg = ScenarioConfig.case_ii()
        assert cfg.case_id == "II"
        assert cfg.duration == 10.0
        assert cfg.angular_speed == pytest.approx(np.pi / 3.0)
        assert cfg.amplitude_deg == (60.0, 60.0, 60.0)

    def test_overrides(self):
        cfg = ScenarioConfig.case_i(seed=7, num_trials=3)
        assert (cfg.seed, cfg.num_trials) == (7, 3)

    def test_scalar_amplitude_broadcast(self):
        cfg = ScenarioConfig(case_id="custom", duration=5.0, amplitude_deg=20.0)
        assert cfg.amplitude_deg == (20.0, 20.0, 20.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"case_id": "III"},
            {"duration": 0.0},
            {"duration": -1.0},
            {"imu_rate": 0.0},
            {"angular_speed": -0.1},
            {"num_trials": 0},
            {"num_trials": 1.5},
            {"seed": -1},
            {"seed": 2**64},
            {"seed": 3.0},
            {"amplitude_deg": [1.0, 2.0]},
            {"amplitude_deg": -5.0},
            {"noise": {"n_w": 0.005}},
        ],
    )
    def test_invalid_fields(self, kwargs):
        base = dict(case_id="custom", duration=10.0)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            ScenarioConfig(**base)

    def test_dict_roundtrip(self):
        cfg = ScenarioConfig.case_ii(seed=9, num_trials=4)
        doc = cfg.to_dict()
        assert ScenarioConfig.from_dict(doc).to_dict() == doc

    def test_from_dict_case_defaults(self):
        cfg = ScenarioConfig.from_dict({"case_id": "I", "seed": 5})
        ref = ScenarioConfig.case_i(seed=5)
        assert cfg.to_dict() == ref.to_dict()

    def test_from_dict_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ScenarioConfig.from_dict({"case_id": "I", "duratoin": 50.0})

    def test_from_dict_unknown_noise_key(self):
        with pytest.raises(ConfigError, match="unknown noise keys"):
            ScenarioConfig.from_dict({"case_id": "I", "noise": {"n_q": 1.0}})

    def test_from_dict_unknown_world_key(self):
        with pytest.raises(ConfigError, match="unknown world keys"):
            ScenarioConfig.from_dict({"case_id": "I", "world": {"gravity": [0, 0, 9.81]}})

    def test_from_dict_non_object(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict([1, 2, 3])

    def test_equal_configs_hash_equal(self):
        default = WorldConstants()
        signed_zero = WorldConstants(g_inertial=[-0.0, 0.0, 9.81])
        assert signed_zero == default
        assert hash(signed_zero) == hash(default)
        other = WorldConstants(h_inertial=[0.5, 0.0, 0.5])
        assert len({default, signed_zero, other}) == 2
        a, b = ScenarioConfig.case_ii(), ScenarioConfig.case_ii(world=signed_zero)
        assert a == b and hash(a) == hash(b)
        assert a.config_hash() == b.config_hash() == "c7cfcd4d61874a53"
        table = {a: "II", ScenarioConfig.case_i(): "I"}
        assert table[b] == "II"
        assert table[ScenarioConfig.case_i()] == "I"
        assert ScenarioConfig.case_ii(seed=43) not in table

    def test_config_hash(self):
        a = ScenarioConfig.case_i()
        b = ScenarioConfig.case_i()
        c = ScenarioConfig.case_i(seed=43)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 16
        int(a.config_hash(), 16)

    def test_config_hash_pinned(self):
        # The hash names a run in metrics.json; a change to the dict layout
        # or to a default would silently re-key every stored result.
        assert ScenarioConfig.case_i().config_hash() == "3fb9fd7a57e2e6d2"
        assert ScenarioConfig.case_ii().config_hash() == "c7cfcd4d61874a53"

    @pytest.mark.parametrize(
        "field, zero, negative_zero",
        [
            ("amplitude_deg", (20.0, 0.0, 20.0), (20.0, -0.0, 20.0)),
            ("angular_speed", 0.0, -0.0),
            ("noise", NoiseParams(n_b=0.0), NoiseParams(n_b=-0.0)),
        ],
    )
    def test_signed_zero_same_config_hash(self, field, zero, negative_zero):
        a = ScenarioConfig.case_ii(**{field: zero})
        b = ScenarioConfig.case_ii(**{field: negative_zero})
        assert a == b and hash(a) == hash(b)
        assert a.to_dict() == b.to_dict()
        assert a.config_hash() == b.config_hash()

    def test_from_dict_partial_nested_override(self):
        cfg = ScenarioConfig.from_dict({"case_id": "II", "noise": {"n_a": 0.5}})
        assert cfg.noise == NoiseParams(n_a=0.5)
        assert cfg.to_dict()["world"] == ScenarioConfig.case_ii().to_dict()["world"]

    @pytest.mark.parametrize(
        "duration, imu_rate", [(1e12, 100.0), (MAX_STEPS / 100.0 + 1.0, 100.0), (1e200, 1e200)]
    )
    def test_too_many_steps_rejected_before_allocating(self, duration, imu_rate):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="MAX_STEPS"):
                ScenarioConfig(
                    case_id="custom", duration=duration, imu_rate=imu_rate, amplitude_deg=20
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("g", [[0.0, 0.0, -9.81], [0.1, 0.0, 9.81]])
    def test_world_with_gravity_off_z_rejected(self, g):
        with pytest.raises(ConfigError, match="gravity along"):
            ScenarioConfig.case_ii(world=WorldConstants(g_inertial=g))
        with pytest.raises(ConfigError, match="gravity along"):
            ScenarioConfig.from_dict({"case_id": "II", "world": {"g_inertial": g}})

    def test_max_steps_itself_accepted(self):
        cfg = ScenarioConfig(case_id="custom", duration=MAX_STEPS / 100.0, amplitude_deg=20)
        assert cfg.duration * cfg.imu_rate == MAX_STEPS


class TestGenerateTrajectory:
    def test_case_i_regime(self):
        traj = generate_trajectory(ScenarioConfig.case_i())
        assert len(traj) == 5001
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(50.0)
        # Every axis moves but stays inside the small-angle regime.
        peak = np.max(np.abs(traj.angles), axis=0)
        assert np.all(peak > np.deg2rad(5.0))
        assert np.all(peak < DEG30)

    def test_case_i_one_axis_at_a_time(self):
        traj = generate_trajectory(ScenarioConfig.case_i())
        active = (np.abs(traj.angles) > 1e-9).sum(axis=1)
        assert np.max(active) <= 1

    def test_case_i_rate_magnitude(self):
        traj = generate_trajectory(ScenarioConfig.case_i())
        num = np.gradient(traj.angles, traj.t, axis=0)
        assert np.max(np.abs(num)) == pytest.approx(np.pi / 50.0, rel=0.02)

    def test_case_ii_regime(self):
        traj = generate_trajectory(ScenarioConfig.case_ii())
        assert len(traj) == 1001
        over = np.all(np.abs(traj.angles) > DEG30, axis=1)
        assert np.any(over)
        assert np.max(np.abs(traj.angles)) <= np.deg2rad(60.0) + 1e-12

    def test_zero_speed_case_i_is_constant_zero(self):
        traj = generate_trajectory(ScenarioConfig.case_i(angular_speed=0.0))
        assert np.all(traj.angles == 0.0)
        assert np.all(traj.rates == 0.0)

    def test_zero_speed_custom_is_constant_zero(self):
        cfg = ScenarioConfig(case_id="custom", duration=5.0, amplitude_deg=15.0)
        traj = generate_trajectory(cfg)
        assert np.all(traj.angles == 0.0)

    def test_case_i_amplitude_breach(self):
        with pytest.raises(ConfigError):
            generate_trajectory(ScenarioConfig.case_i(angular_speed=0.1))

    def test_case_ii_small_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            generate_trajectory(ScenarioConfig.case_ii(amplitude_deg=20.0))

    def test_case_ii_zero_speed_rejected(self):
        with pytest.raises(ConfigError):
            generate_trajectory(ScenarioConfig.case_ii(angular_speed=0.0))

    def test_custom_requires_amplitude(self):
        cfg = ScenarioConfig(case_id="custom", duration=5.0, angular_speed=0.5)
        with pytest.raises(ConfigError, match="amplitude"):
            generate_trajectory(cfg)

    def test_gimbal_margin_enforced(self):
        cfg = ScenarioConfig(
            case_id="custom",
            duration=20.0,
            angular_speed=0.5,
            amplitude_deg=(10.0, 88.0, 10.0),
        )
        with pytest.raises(ConfigError):
            generate_trajectory(cfg)
        assert np.deg2rad(88.0) > np.pi / 2.0 - GIMBAL_MARGIN

    def test_body_rates_consistency(self):
        # rates hold the Euler-angle derivatives; body_rates() maps them
        # through the inverse kinematics, so mapping back must recover them.
        from eh2marg.kinematics import _euler_rates, _sin_cos

        traj = generate_trajectory(ScenarioConfig.case_ii())
        omega = traj.body_rates()
        for k in (0, 313, 707, 1000):
            rates = _euler_rates(*_sin_cos(traj.angles[k]), omega[k])
            assert_allclose(rates, traj.rates[k], atol=1e-12)

    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig.case_i(),
            ScenarioConfig.case_ii(),
            # run_timing_benchmark's scenario at its default 10,000 steps.
            ScenarioConfig(
                case_id="custom", duration=100.0, angular_speed=0.5, amplitude_deg=20.0,
                seed=42, num_trials=1,
            ),
        ],
        ids=["case_i", "case_ii", "bench"],
    )
    def test_body_rates_equal_the_inverse_matrix_product_bit_for_bit(self, cfg):
        # T^-1 written out as an (n, 3, 3) stack and applied with einsum.
        traj = generate_trajectory(cfg)
        s, c = np.sin(traj.angles.T[:2]), np.cos(traj.angles.T[:2])
        (sp, st), (cp, ct) = s, c
        zero, one = np.zeros_like(sp), np.ones_like(sp)
        rows = [[one, zero, -st], [zero, cp, sp * ct], [zero, -sp, cp * ct]]
        inverse = np.moveaxis(np.array(rows), (0, 1), (-2, -1))
        expected = np.einsum("nij,nj->ni", inverse, traj.rates)
        got = traj.body_rates()
        assert got.shape == (len(traj), 3)
        assert got.tobytes() == expected.tobytes()

    def test_trajectory_validation(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(LengthMismatch):
            Trajectory(t=t, angles=np.zeros((10, 3)), rates=np.zeros((11, 3)))
        with pytest.raises(ValueError):
            Trajectory(t=t[::-1], angles=np.zeros((11, 3)), rates=np.zeros((11, 3)))


def _flat_trajectory(n=11, dt=0.1):
    t = np.arange(n) * dt
    return Trajectory(t=t, angles=np.zeros((n, 3)), rates=np.zeros((n, 3)))


class TestComputeMetrics:
    def test_perfect_estimates(self):
        traj = _flat_trajectory()
        m = compute_metrics(traj, traj.angles.copy())
        assert_allclose(m.rms, np.zeros(3), atol=0)
        assert_allclose(m.err_min, np.zeros(3), atol=0)
        assert_allclose(m.err_max, np.zeros(3), atol=0)

    def test_constant_roll_offset(self):
        traj = _flat_trajectory()
        est = traj.angles.copy()
        est[:, 0] += np.deg2rad(1.0)
        m = compute_metrics(traj, est)
        assert m.rms[0] == pytest.approx(1.0)
        assert m.err_min[0] == pytest.approx(1.0)
        assert m.err_max[0] == pytest.approx(1.0)
        assert_allclose(m.rms[1:], np.zeros(2), atol=0)

    def test_symmetric_error_series(self):
        t = np.array([0.0, 0.1])
        traj = Trajectory(t=t, angles=np.zeros((2, 3)), rates=np.zeros((2, 3)))
        est = np.zeros((2, 3))
        est[0, 0] = np.deg2rad(1.0)
        est[1, 0] = np.deg2rad(-1.0)
        m = compute_metrics(traj, est)
        assert m.rms[0] == pytest.approx(1.0)
        assert m.err_min[0] == pytest.approx(-1.0)
        assert m.err_max[0] == pytest.approx(1.0)

    def test_error_is_wrapped(self):
        traj = _flat_trajectory()
        angles = traj.angles.copy()
        angles[:, 2] = np.pi - 0.01
        traj = Trajectory(t=traj.t, angles=angles, rates=traj.rates)
        est = angles.copy()
        est[:, 2] = -np.pi + 0.01
        m = compute_metrics(traj, est)
        assert m.rms[2] == pytest.approx(np.rad2deg(0.02))

    def test_exclusion_window(self):
        traj = _flat_trajectory(n=21, dt=0.5)  # 0..10 s
        est = traj.angles.copy()
        est[:10, 1] = 1.0  # garbage transient before t = 5 s
        est[10:, 1] = np.deg2rad(0.25)
        m = compute_metrics(traj, est, exclude_initial=5.0)
        assert m.rms[1] == pytest.approx(0.25)
        assert m.err_max[1] == pytest.approx(0.25)

    def test_length_mismatch(self):
        traj = _flat_trajectory()
        with pytest.raises(LengthMismatch):
            compute_metrics(traj, np.zeros((7, 3)))

    def test_bad_exclusion(self):
        traj = _flat_trajectory()
        with pytest.raises(ValueError):
            compute_metrics(traj, traj.angles, exclude_initial=-1.0)
        with pytest.raises(ValueError, match="must be >= 0"):
            compute_metrics(traj, traj.angles, exclude_initial=float("nan"))
        with pytest.raises(ValueError):
            compute_metrics(traj, traj.angles, exclude_initial=100.0)

    def test_run_metrics_validation(self):
        with pytest.raises(ValueError):
            RunMetrics(rms=np.array([-1.0, 0.0, 0.0]), err_min=np.zeros(3), err_max=np.zeros(3))
        with pytest.raises(ValueError):
            RunMetrics(rms=np.zeros(3), err_min=np.ones(3), err_max=np.zeros(3))


class TestTimingStats:
    """The per-filter timing block of metrics.json and bench.json."""

    def test_example(self):
        block = harness._timing_block(np.array([1.0, 2.0, 3.0]))
        assert block["mean_ms"] == pytest.approx(2.0)
        assert block["std_ms"] == pytest.approx(1.0)

    def test_constant_series(self):
        block = harness._timing_block(np.full(50, 5.0))
        assert (block["mean_ms"], block["std_ms"]) == (5.0, 0.0)

    def test_single_sample(self):
        block = harness._timing_block(np.array([3.0]))
        assert (block["mean_ms"], block["std_ms"]) == (3.0, 0.0)

    def test_warmup_dropped(self):
        times = np.concatenate([np.full(100, 99.0), np.full(50, 1.0)])
        block = harness._timing_block(times)
        assert block["mean_ms"] == pytest.approx(1.0)
        assert block["std_ms"] == 0.0

    def test_exactly_100_kept(self):
        times = np.concatenate([np.full(99, 2.0), [4.0]])
        assert harness._timing_block(times)["mean_ms"] == pytest.approx(2.02)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            harness._timing_block(np.array([]))

    def test_block_percentiles_drop_the_same_warmup(self):
        times = np.concatenate([np.full(100, 99.0), np.arange(1.0, 101.0)])
        block = harness._timing_block(times)
        steady = times[100:]
        assert (block["mean_ms"], block["std_ms"]) == (
            float(np.mean(steady)), float(np.std(steady, ddof=1))
        )
        assert block["p50_ms"] == pytest.approx(50.5)
        assert block["p95_ms"] == pytest.approx(95.05)
        short = harness._timing_block(np.array([4.0, 1.0, 2.0]))
        assert (short["p50_ms"], short["mean_ms"]) == (2.0, pytest.approx(7.0 / 3.0))


class TestRunExperiment:
    def test_zero_noise_case_i_tracks_truth(self, world, noise, cert):
        # Noise-free stream, filters with their nominal tuning: both must
        # track inside 0.05 deg RMS once the 5 s transient is excluded.
        cfg = ScenarioConfig.case_i(num_trials=1)
        traj = generate_trajectory(cfg)
        stream = simulate_imu_stream(
            traj.t,
            traj.angles,
            traj.body_rates(),
            world,
            NoiseParams(0.0, 0.0, 0.0, 0.0),
            np.random.default_rng(0),
        )
        dt = 1.0 / cfg.imu_rate
        x0 = initialize_from_first_sample(stream.sample(0), world)
        s1 = EH2FilterState(xhat=x0, L0=cert.L)
        s2 = EKFState(xhat=x0)
        n = len(stream)
        est1 = np.empty((n, 3))
        est2 = np.empty((n, 3))
        est1[0] = est2[0] = x0.attitude.as_array()
        for k in range(n - 1):
            sample = stream.sample(k)
            s1 = eh2_step(s1, sample, world, dt)
            s2 = ekf_step(s2, sample, world, noise, dt)
            est1[k + 1] = s1.xhat.attitude.as_array()
            est2[k + 1] = s2.xhat.attitude.as_array()
        m1 = compute_metrics(traj, est1, exclude_initial=5.0)
        m2 = compute_metrics(traj, est2, exclude_initial=5.0)
        assert np.all(m1.rms < 0.05)
        assert np.all(m2.rms < 0.05)

    def test_case_i_yaw_ordering(self):
        res = run_experiment(ScenarioConfig.case_i())
        agg = res["aggregate"]
        assert agg["num_ok"] == 10
        assert agg["yaw_wins_eh2"] >= 8

    def test_gain_record_synthesized(self, cert):
        res = run_experiment(ScenarioConfig.case_ii(num_trials=1))
        assert res["gain"] == {
            "source": "synthesized",
            "sha256": hashlib.sha256(cert.L.tobytes()).hexdigest(),
            "h2_norm": cert.h2_norm,
            "gamma": cert.gamma,
            "max_closedloop_real_eig": cert.max_closedloop_real_eig,
            "lmi_feasible": True,
        }
        assert type(res["aggregate"]["yaw_wins_eh2"]) is int

    def test_gain_record_file(self, tmp_path):
        gain = np.full((6, 6), 1e3)
        res = run_experiment(ScenarioConfig.case_ii(num_trials=1), gain=gain, out_dir=tmp_path)
        expected = {
            "source": "file",
            "sha256": hashlib.sha256(gain.tobytes()).hexdigest(),
            "h2_norm": None,
            "gamma": None,
            "max_closedloop_real_eig": None,
            "lmi_feasible": None,
        }
        assert res["gain"] == expected
        assert json.loads((tmp_path / "metrics.json").read_text())["gain"] == expected

    def test_result_structure_and_consistency(self, cert):
        cfg = ScenarioConfig.case_ii(num_trials=3)
        res = run_experiment(cfg, gain=cert.L)
        assert res["config"] == cfg.to_dict()
        assert res["config_hash"] == cfg.config_hash()
        assert res["backend"] == "numpy"
        assert res["exclude_initial"] == 5.0
        assert len(res["trials"]) == 3
        agg = res["aggregate"]
        assert agg["num_ok"] == 3
        assert agg["num_failed"] == 0
        # Aggregate means must equal the mean over per-trial metrics.
        for name in ("eh2", "ekf"):
            per_trial = np.array([t[name]["rms_deg"] for t in res["trials"]])
            assert_allclose(agg[name]["rms_deg"], per_trial.mean(axis=0), rtol=1e-12)
            assert_allclose(
                agg[name]["err_min_deg"],
                np.min([t[name]["err_min_deg"] for t in res["trials"]], axis=0),
                rtol=1e-12,
            )
        wins = sum(
            t["eh2"]["rms_deg"][2] < t["ekf"]["rms_deg"][2] for t in res["trials"]
        )
        assert agg["yaw_wins_eh2"] == wins
        assert agg["timing"]["eh2_mean_ms"] > 0.0
        assert agg["timing"]["ekf_mean_ms"] > 0.0
        for name in ("eh2", "ekf"):
            for stat in ("mean_ms", "p50_ms", "p95_ms"):
                per_trial = [t["timing"][name][stat] for t in res["trials"]]
                assert agg["timing"][f"{name}_{stat}"] == pytest.approx(np.mean(per_trial))
            block = res["trials"][0]["timing"][name]
            assert set(block) == {"mean_ms", "std_ms", "p50_ms", "p95_ms"}
            assert 0.0 < block["p50_ms"] <= block["p95_ms"]

    def test_deterministic_outputs(self, tmp_path):
        cfg = ScenarioConfig.case_ii(num_trials=2, seed=123)
        res1 = run_experiment(cfg, out_dir=tmp_path / "a")
        res2 = run_experiment(cfg, out_dir=tmp_path / "b")
        for k in range(2):
            name = f"trial_{k:03d}.csv"
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        with open(tmp_path / "a" / "metrics.json") as fh:
            doc1 = json.load(fh)
        with open(tmp_path / "b" / "metrics.json") as fh:
            doc2 = json.load(fh)
        assert metrics_without_timing(doc1) == metrics_without_timing(doc2)
        assert metrics_without_timing(res1) == metrics_without_timing(doc1)

    def test_csv_matches_public_steps(self, tmp_path, world, noise):
        # The harness runs the array-level steps; the public eh2_step/ekf_step
        # wrap the same functions, so the estimates must agree bit for bit.
        cfg = ScenarioConfig.case_ii(num_trials=1)
        run_experiment(cfg, out_dir=tmp_path)
        data = np.loadtxt(tmp_path / "trial_000.csv", delimiter=",", skiprows=1)
        traj = generate_trajectory(cfg)
        stream = simulate_imu_stream(
            traj.t, traj.angles, traj.body_rates(), world, noise,
            np.random.default_rng((cfg.seed, 0)),
        )
        L0 = synthesize_gain(nominal_model(noise, world)).L
        x0 = initialize_from_first_sample(stream.sample(0), world)
        s1 = EH2FilterState(xhat=x0, L0=L0)
        s2 = EKFState(xhat=x0)
        est = np.empty((len(stream), 6))
        est[0] = np.r_[x0.attitude.as_array(), x0.attitude.as_array()]
        for k in range(len(stream) - 1):
            sample = stream.sample(k)
            s1 = eh2_step(s1, sample, world, 1.0 / cfg.imu_rate)
            s2 = ekf_step(s2, sample, world, noise, 1.0 / cfg.imu_rate)
            est[k + 1] = np.r_[s1.xhat.attitude.as_array(), s2.xhat.attitude.as_array()]
        assert np.array_equal(data[:, 4:10], est)

    def test_csv_format(self, tmp_path):
        cfg = ScenarioConfig.case_ii(num_trials=1)
        run_experiment(cfg, out_dir=tmp_path)
        path = tmp_path / "trial_000.csv"
        header = path.read_text().splitlines()[0]
        assert header == (
            "t,phi_true,theta_true,psi_true,phi_eh2,theta_eh2,psi_eh2,"
            "phi_ekf,theta_ekf,psi_ekf"
        )
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        traj = generate_trajectory(cfg)
        assert data.shape == (len(traj), 10)
        # 17 significant digits round-trip float64 exactly.
        assert np.array_equal(data[:, 0], traj.t)
        assert np.array_equal(data[:, 1:4], traj.angles)

    def test_failed_trials_recorded(self, tmp_path):
        cfg = ScenarioConfig.case_ii(num_trials=2)
        res = run_experiment(cfg, gain=np.full((6, 6), 1e3), out_dir=tmp_path)
        assert res["aggregate"]["num_ok"] == 0
        assert res["aggregate"]["num_failed"] == 2
        for rec in res["trials"]:
            assert rec["ok"] is False
            assert "error" in rec
        assert not list(tmp_path.glob("trial_*.csv"))
        assert (tmp_path / "metrics.json").exists()

    def test_failed_trial_fields(self):
        cfg = ScenarioConfig.case_ii(num_trials=2)
        res = run_experiment(cfg, gain=np.full((6, 6), 1e3))
        for rec in res["trials"]:
            assert rec["filter"] in ("eh2", "ekf")
            assert isinstance(rec["step"], int)
            assert rec["t"] == rec["step"] / cfg.imu_rate
            assert f": step {rec['step']}: " in rec["error"]
            assert len(rec["last_state"]) == 6
            assert all(isinstance(v, float) and np.isfinite(v) for v in rec["last_state"])

    def test_failed_initialization_has_no_last_state(self):
        record = harness._Failure(NonFiniteState("x")).record()
        assert (record["filter"], record["step"], record["t"], record["last_state"]) == (
            None, None, None, None
        )

    def test_every_trial_matches_public_steps(self, tmp_path, world, noise):
        # All trials advance as one (N, 6) stack; each must still equal the
        # public single-state steps run on its own stream, bit for bit.
        cfg = ScenarioConfig.case_ii(num_trials=3)
        run_experiment(cfg, out_dir=tmp_path)
        traj = generate_trajectory(cfg)
        L0 = synthesize_gain(nominal_model(noise, world)).L
        dt = 1.0 / cfg.imu_rate
        for trial in range(cfg.num_trials):
            stream = simulate_imu_stream(
                traj.t, traj.angles, traj.body_rates(), world, noise,
                np.random.default_rng((cfg.seed, trial)),
            )
            x0 = initialize_from_first_sample(stream.sample(0), world)
            s1 = EH2FilterState(xhat=x0, L0=L0)
            s2 = EKFState(xhat=x0)
            est = np.empty((len(stream), 6))
            est[0] = np.r_[x0.attitude.as_array(), x0.attitude.as_array()]
            for k in range(len(stream) - 1):
                sample = stream.sample(k)
                s1 = eh2_step(s1, sample, world, dt)
                s2 = ekf_step(s2, sample, world, noise, dt)
                est[k + 1] = np.r_[s1.xhat.attitude.as_array(), s2.xhat.attitude.as_array()]
            data = np.loadtxt(tmp_path / f"trial_{trial:03d}.csv", delimiter=",", skiprows=1)
            assert np.array_equal(data[:, 4:10], est)

    def test_split_into_batches_byte_identical(self, tmp_path, monkeypatch):
        # MAX_STEPS // 1,000 steps = 2 trials per batch: 5 trials run as 2 + 2 + 1.
        cfg = ScenarioConfig.case_ii(num_trials=5)
        whole = run_experiment(cfg, out_dir=tmp_path / "whole")
        monkeypatch.setattr(harness, "MAX_STEPS", 2_500)
        split = run_experiment(cfg, out_dir=tmp_path / "split")
        assert metrics_without_timing(split) == metrics_without_timing(whole)
        for trial in range(cfg.num_trials):
            name = f"trial_{trial:03d}.csv"
            assert (tmp_path / "split" / name).read_bytes() == (
                tmp_path / "whole" / name
            ).read_bytes()

    def test_invalid_explicit_gain(self):
        cfg = ScenarioConfig.case_ii(num_trials=1)
        with pytest.raises(ConfigError):
            run_experiment(cfg, gain=np.eye(3))
        bad = np.zeros((6, 6))
        bad[0, 0] = np.inf
        with pytest.raises(ConfigError):
            run_experiment(cfg, gain=bad)

    @pytest.mark.parametrize("exclude", [float("nan"), float("inf"), -1.0, 11.0])
    def test_bad_exclusion_rejected_before_any_trial(self, exclude, tmp_path, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a filter ran")

        monkeypatch.setattr(harness, "_run_trials", no_trials)
        cfg = ScenarioConfig.case_ii(num_trials=1)
        with pytest.raises(ConfigError, match="exclude_initial"):
            run_experiment(cfg, out_dir=tmp_path / "out", exclude_initial=exclude)
        assert not (tmp_path / "out").exists()

    def test_exclusion_past_the_last_sample_rejected(self):
        # 1.1 s at 3 Hz rounds to 3 steps, so the last sample is at 1 s; a
        # window up to it keeps that one sample.
        cfg = ScenarioConfig(
            case_id="custom", duration=1.1, imu_rate=3.0, angular_speed=0.1,
            amplitude_deg=5.0, num_trials=1,
        )
        with pytest.raises(ConfigError, match="exclude_initial"):
            run_experiment(cfg, exclude_initial=1.05)
        assert run_experiment(cfg, exclude_initial=1.0)["aggregate"]["num_ok"] == 1


class TestMetricsWithoutTiming:
    def test_strips_recursively(self):
        doc = {
            "timing": {"x": 1},
            "a": {"timing": 2, "keep": 3},
            "b": [{"timing": 4, "v": 5}, 6],
        }
        assert metrics_without_timing(doc) == {"a": {"keep": 3}, "b": [{"v": 5}, 6]}

    def test_leaves_scalars(self):
        assert metrics_without_timing(42) == 42


class TestRunTimingBenchmark:
    def test_small_benchmark(self):
        res = run_timing_benchmark(steps=300, seed=1)
        assert res["steps"] == 300
        assert res["backend"] == "numpy"
        for name in ("eh2", "ekf"):
            assert res[name]["mean_ms"] > 0.0
            assert res[name]["std_ms"] >= 0.0
            assert 0.0 < res[name]["p50_ms"] <= res[name]["p95_ms"]
        assert res["ratio_eh2_over_ekf"] > 0.0

    def test_too_few_steps(self):
        with pytest.raises(ConfigError):
            run_timing_benchmark(steps=100)


class TestRunTrials:
    @staticmethod
    def _plans(gain, cfg):
        return _paper_plans(gain, cfg.noise, cfg.world, 1.0 / cfg.imu_rate)

    @staticmethod
    def _streams(cfg, trials):
        traj = generate_trajectory(cfg)
        return traj, [
            simulate_imu_stream(
                traj.t, traj.angles, traj.body_rates(), cfg.world, cfg.noise,
                np.random.default_rng((cfg.seed, trial)),
            )
            for trial in trials
        ]

    def test_failing_trial_leaves_the_others_untouched(self, cert):
        cfg = ScenarioConfig.case_ii(num_trials=3)
        dt = 1.0 / cfg.imu_rate
        traj, streams = self._streams(cfg, range(3))
        streams[1].a_m[50, 0] = np.nan
        _, (s0, s2) = self._streams(cfg, (0, 2))
        plans = self._plans(cert.L, cfg)
        batch = harness._run_trials(3, streams, cfg.world, plans)
        ref = harness._run_trials(2, [s0, s2], cfg.world, plans)

        assert list(batch.failures) == [1]
        failure = batch.failures[1]
        assert isinstance(failure.error, NonFiniteState)
        assert (failure.filter, failure.step, failure.t) == ("eh2", 50, traj.t[50])
        record = failure.record()
        assert record["error"].startswith("NonFiniteState: step 50: ")
        assert (record["filter"], record["step"], record["t"]) == ("eh2", 50, traj.t[50])
        assert not ref.failures
        assert np.array_equal(batch.estimates[:, :, [0, 2]], ref.estimates)

        # last_state is the state the failing eh2 step started from: the
        # state after 50 steps of trial 1 run alone, as six JSON floats.
        x = initialize_from_first_sample(streams[1].sample(0), cfg.world).as_vector()
        table = cert.L @ cfg.world.rotation_table()[:6]
        for k in range(50):
            smp = streams[1].sample(k)
            x = eh2(x, smp.omega_m, smp.stacked_measurement(), cert.L, table, dt)
        assert record["last_state"] == failure.last_state == x.tolist()
        assert json.loads(json.dumps(record))["last_state"] == x.tolist()
        assert np.array_equal(batch.estimates[0, 50, 1], x[:3])

    def test_overflowing_gyro_sample_fails_only_that_trial(self, cert):
        # 1e308 overflows the stacked RK4 sums of eh2 at step 50; the stack
        # raises NonFiniteState, not an overflow warning, and the re-run
        # member by member drops trial 1 alone.
        cfg = ScenarioConfig.case_ii(num_trials=3)
        traj, streams = self._streams(cfg, range(3))
        streams[1].omega_m[50, 0] = 1e308
        _, (s0, s2) = self._streams(cfg, (0, 2))
        plans = self._plans(cert.L, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = harness._run_trials(3, streams, cfg.world, plans)
        ref = harness._run_trials(2, [s0, s2], cfg.world, plans)

        assert list(batch.failures) == [1]
        failure = batch.failures[1]
        assert type(failure.error) is NonFiniteState
        assert (failure.filter, failure.step, failure.t) == ("eh2", 50, traj.t[50])
        assert not ref.failures
        assert batch.estimates[:, :, [0, 2]].tobytes() == ref.estimates.tobytes()

    def test_nonfinite_first_sample_fails_only_that_trial(self, cert):
        cfg = ScenarioConfig.case_ii(num_trials=2)
        _, streams = self._streams(cfg, range(2))
        streams[1].a_m[0, 0] = np.nan
        _, clean = self._streams(cfg, range(2))
        batch = harness._run_trials(2, streams, cfg.world, self._plans(cert.L, cfg))
        ref = harness._run_trials(2, clean, cfg.world, self._plans(cert.L, cfg))

        assert list(batch.failures) == [1]
        record = batch.failures[1].record()
        assert record["error"].startswith("ValueError: a_m must be finite")
        assert (record["filter"], record["step"], record["t"], record["last_state"]) == (
            None, None, None, None
        )
        assert not ref.failures
        assert np.array_equal(batch.estimates[:, :, 0], ref.estimates[:, :, 0])

    def test_one_trial_matches_a_stack_row(self, cert):
        cfg = ScenarioConfig.case_ii(num_trials=4)
        _, streams = self._streams(cfg, range(4))
        _, (s0,) = self._streams(cfg, (0,))
        stacked = harness._run_trials(4, streams, cfg.world, self._plans(cert.L, cfg))
        single = harness._run_trials(1, [s0], cfg.world, self._plans(cert.L, cfg))
        assert np.array_equal(stacked.estimates[:, :, :1], single.estimates)
        assert np.all(stacked.step_ns > 0.0) and np.all(single.step_ns > 0.0)

    def test_all_trials_failing_stops_early(self):
        cfg = ScenarioConfig.case_ii(num_trials=2)
        _, streams = self._streams(cfg, range(2))
        batch = harness._run_trials(
            2, streams, cfg.world, self._plans(np.full((6, 6), 1e3), cfg)
        )
        assert sorted(batch.failures) == [0, 1]
        last = max(f.step for f in batch.failures.values())
        assert np.all(batch.step_ns[:, last + 1:] == 0.0)

    def test_one_plan_twice_runs_bit_identical_columns(self, cert):
        # Plans in one table run on the same streams from the same initial
        # estimates: the eh2 plan under two names gives two equal columns,
        # and the failures and columns the eh2 plan gives alone.
        cfg = ScenarioConfig.case_ii(num_trials=3)
        traj, streams = self._streams(cfg, range(3))
        streams[1].a_m[50, 0] = np.nan
        eh2_plan = self._plans(cert.L, cfg)[0]
        twice = (eh2_plan._replace(name="a"), eh2_plan._replace(name="b"))
        batch = harness._run_trials(3, streams, cfg.world, twice)
        alone = harness._run_trials(3, streams, cfg.world, (eh2_plan,))

        assert batch.estimates.shape == (2, len(traj), 3, 3)
        assert batch.step_ns.shape == (2, len(traj) - 1)
        ok = [0, 2]
        assert batch.estimates[0][:, ok].tobytes() == batch.estimates[1][:, ok].tobytes()
        assert batch.estimates[0][:, ok].tobytes() == alone.estimates[0][:, ok].tobytes()
        assert list(batch.failures) == list(alone.failures) == [1]
        got, want = batch.failures[1], alone.failures[1]
        assert (got.filter, want.filter) == ("a", "eh2")
        assert (got.step, got.t, got.last_state) == (want.step, want.t, want.last_state)
        assert type(got.error) is type(want.error) is NonFiniteState

    def test_four_plans_give_each_pair_the_bytes_of_the_pair_alone(self, cert, tmp_path):
        # 4 plans write 12 estimate floats per sample, more than the 9 input
        # floats they overwrite: the paper's pair run twice, under two more
        # names, gives each copy the columns and failures of the pair alone,
        # the failing trial's up to its failing step too.  Through the trial
        # records and the aggregate, each plan gets a CSV triple in table
        # order and each (filter, baseline) pair its own comparison.
        cfg = ScenarioConfig.case_ii(num_trials=3)
        traj, streams = self._streams(cfg, range(3))
        streams[1].a_m[50, 0] = np.nan
        pair = self._plans(cert.L, cfg)
        four = pair + tuple(plan._replace(name=plan.name + "_again") for plan in pair)
        batch = harness._run_trials(3, streams, cfg.world, four)
        alone = harness._run_trials(3, streams, cfg.world, pair)

        assert batch.estimates.shape == (4, len(traj), 3, 3)
        for f in range(4):
            got, want = batch.estimates[f], alone.estimates[f % 2]
            assert got[:, [0, 2]].tobytes() == want[:, [0, 2]].tobytes(), f
            assert got[:51, 1].tobytes() == want[:51, 1].tobytes(), f
        assert list(batch.failures) == list(alone.failures) == [1]
        got, want = batch.failures[1], alone.failures[1]
        assert (got.filter, got.step, got.last_state) == (want.filter, 50, want.last_state)

        truth_cells = harness._truth_cells(traj.t, traj.angles)
        aggregates, tables = [], []
        for plans, b in ((four, batch), (pair, alone)):
            names = [plan.name for plan in plans]
            out = tmp_path / str(len(names))
            out.mkdir()
            records = harness._batch_records(b, range(3), traj, names, 1.0, (out, truth_cells))
            aggregates.append(harness._aggregate(records, names))
            assert sorted(p.name for p in out.iterdir()) == ["trial_000.csv", "trial_002.csv"]
            tables.append([
                [line.split(",") for line in (out / name).read_text().splitlines()]
                for name in ("trial_000.csv", "trial_002.csv")
            ])
        agg4, agg2 = aggregates
        assert tables[0][0][0] == [
            "t", "phi_true", "theta_true", "psi_true",
            "phi_eh2", "theta_eh2", "psi_eh2", "phi_ekf", "theta_ekf", "psi_ekf",
            "phi_eh2_again", "theta_eh2_again", "psi_eh2_again",
            "phi_ekf_again", "theta_ekf_again", "psi_ekf_again",
        ]
        assert tables[1][0][0] == tables[0][0][0][:10]
        for rows4, rows2 in zip(*tables):
            assert len(rows4) == len(rows2) == len(traj) + 1
            for row4, row2 in zip(rows4[1:], rows2[1:]):
                assert len(row4) == 16
                assert row4[:10] == row2
                assert row4[:4] + row4[10:] == row2

        assert (agg4["num_ok"], agg4["num_failed"]) == (agg2["num_ok"], agg2["num_failed"]) == (2, 1)
        for suffix in ("", "_again"):
            for name in ("eh2", "ekf"):
                assert agg4[name + suffix] == agg2[name]
            assert agg4["yaw_wins_eh2" + suffix] == agg2["yaw_wins_eh2"]
        assert "yaw_wins_ekf" not in agg4 and "yaw_wins_ekf_again" not in agg4
        ratios = sorted(key for key in agg4["timing"] if key.startswith("ratio_"))
        assert ratios == ["ratio_eh2_again_over_ekf_again", "ratio_eh2_over_ekf"]
        assert all(agg4["timing"][key] > 0.0 for key in ratios)
        assert [key for key in agg2["timing"] if key.startswith("ratio_")] == ["ratio_eh2_over_ekf"]

    def test_one_trial_times_only_its_step_calls(self, cert, monkeypatch):
        # A clock that each step call moves by 7 ns and each trial slice by
        # 1 ms: a one-trial batch's step times read the step calls alone,
        # and a stacked batch's their share of the stacked call.
        clock = [0]
        trials = harness._trials

        def slow_trials(a, i):
            clock[0] += 1_000_000
            return trials(a, i)

        def ticking(plan):
            def step(*args):
                clock[0] += 7
                return plan.step(*args)

            return plan._replace(step=step)

        monkeypatch.setattr(harness, "perf_counter_ns", lambda: clock[0])
        monkeypatch.setattr(harness, "_trials", slow_trials)
        cfg = ScenarioConfig.case_ii(num_trials=2, duration=1.0)
        _, streams = self._streams(cfg, range(2))
        plans = tuple(map(ticking, self._plans(cert.L, cfg)))
        single = harness._run_trials(1, streams[:1], cfg.world, plans)
        stacked = harness._run_trials(2, streams, cfg.world, plans)
        assert not single.failures and not stacked.failures
        assert np.all(single.step_ns == 7.0)
        assert np.all(stacked.step_ns == 3.5)

    def test_a_run_holds_one_batch_buffer_at_a_time(self, cert, monkeypatch):
        # A 10 s case I run at 10 trials per batch: each batch's buffer is
        # (1,001, 9, 10) float64, 0.72 MB.  A second batch frees the first
        # batch's buffer before it builds its own.
        monkeypatch.setattr(harness, "MAX_STEPS", 10_000)
        buffer_bytes = 1_001 * 9 * 10 * 8

        def peak(num_trials):
            cfg = ScenarioConfig.case_i(duration=10.0, num_trials=num_trials)
            tracemalloc.start()
            try:
                run_experiment(cfg, gain=cert.L)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: first-use caches stay out of the comparison
        one_batch, two_batches = peak(10), peak(20)
        assert two_batches < one_batch + buffer_bytes / 2, (one_batch, two_batches)

    def test_case_i_batch_allocates_about_one_buffer(self, cert):
        # Case I's batch, 10 trials x 5,001 samples, from streams built
        # beforehand: one (5,002, 9, 10) float64 buffer of 3.6 MB holds the
        # inputs and, as they are spent, the estimates.  Separate inputs and
        # estimates would take 6.0 MB.
        cfg = ScenarioConfig.case_i()
        traj, streams = self._streams(cfg, range(cfg.num_trials))
        plans = self._plans(cert.L, cfg)
        buffer_bytes = (len(traj) + 1) * 9 * cfg.num_trials * 8
        tracemalloc.start()
        try:
            batch = harness._run_trials(cfg.num_trials, streams, cfg.world, plans)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not batch.failures
        assert peak <= 1.25 * buffer_bytes, (peak, buffer_bytes)
