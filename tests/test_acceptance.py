"""Acceptance gate: nine numbered criteria the package must satisfy.

Each criterion prints one ``[criterion N] <name>: PASS/FAIL`` line with
output capture suspended, so a teed test log always shows the verdicts,
and asserts both the numerical claim and its runtime budget.  Budgets are
wall-clock, including any first-call cost in the process.
"""

import contextlib
import json
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eh2marg.dynamics import EulerState, process_model
from eh2marg.errors import GimbalLockError, UnstableClosedLoop
from eh2marg.filters import EH2FilterState, EKFState, eh2_step, ekf_step
from eh2marg.harness import (
    ScenarioConfig,
    generate_trajectory,
    metrics_without_timing,
    run_experiment,
    run_timing_benchmark,
)
from eh2marg.kinematics import (
    EulerAngles,
    dcm_body_from_inertial,
    kinematic_matrix_inverse,
    wrap_angle,
)
from eh2marg.linearization import (
    finite_difference_jacobian,
    jacobians_measurement,
    jacobians_process,
    nominal_model,
)
from eh2marg.sensors import NoiseParams, simulate_imu_stream
from eh2marg.synthesis import h2_norm_of_error_system, synthesize_gain, verify_lmi

# Reference per-axis RMS values (degrees) anchoring the reproduction bands;
# agreement is asserted as an order-of-magnitude band, not equality, since
# the original seeds and exact noise figures are unknown.
REF_CASE_I = {"eh2": (0.0331, 0.0538, 0.1107), "ekf": (0.0533, 0.0988, 0.2298)}
REF_CASE_II = {"eh2": (0.3045, 0.3260, 0.3121), "ekf": (0.3073, 0.2656, 0.5275)}
BAND = (0.2, 5.0)


@contextlib.contextmanager
def criterion(capfd, num: int, name: str, budget_s: float | None):
    """Time a criterion body and print its verdict with capture suspended."""

    def emit(line: str) -> None:
        with capfd.disabled():
            print(line, flush=True)

    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        emit(f"[criterion {num}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    ok = budget_s is None or elapsed < budget_s
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({elapsed:.2f} s)" if budget_s is None else (
        f" ({elapsed:.2f} s, budget {budget_s:g} s)"
    )
    emit(f"[criterion {num}] {name}: {verdict}{suffix}")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.2f} s exceeds {budget_s} s"


def _in_band(measured, reference) -> bool:
    measured = np.asarray(measured, dtype=float)
    reference = np.asarray(reference, dtype=float)
    ratio = measured / reference
    return bool(np.all(ratio >= BAND[0]) and np.all(ratio <= BAND[1]))


def test_criterion_1_jacobian_fidelity(capfd, world, noise):
    with criterion(capfd, 1, "jacobian fidelity", 1.0):
        m = nominal_model(noise, world)

        def f_aug(x6, u3, w12):
            # T (u - b) + T (-n_w w_gyro) = T (u - n_w w_gyro - b).
            body = process_model(x6, u3 - noise.n_w * w12[:3])
            body[3:] += noise.n_b * w12[3:6]
            return body

        def h_aug(x6, w12):
            y = jacobians_measurement(x6[:3], world)[0]
            y[:3] += noise.n_a * w12[6:9]
            y[3:] += noise.n_m * w12[9:12]
            return y

        x0, u0, w0 = np.zeros(6), np.zeros(3), np.zeros(12)
        fd_A = finite_difference_jacobian(lambda v: f_aug(v, u0, w0), x0)
        fd_Bw = finite_difference_jacobian(lambda v: f_aug(x0, u0, v), w0)
        fd_Cy = finite_difference_jacobian(lambda v: h_aug(v, w0), x0)
        fd_Dw = finite_difference_jacobian(lambda v: h_aug(x0, v), w0)
        for name, closed, fd in (
            ("A", m.A, fd_A),
            ("Bw", m.Bw, fd_Bw),
            ("Cy", m.Cy, fd_Cy),
            ("Dw", m.Dw, fd_Dw),
        ):
            worst = float(np.max(np.abs(closed - fd)))
            assert worst < 1e-6, f"{name}: max deviation {worst:.3e}"


def test_criterion_2_lmi_certification(capfd, world, noise):
    with criterion(capfd, 2, "LMI certification of the synthesized gain", 1.0):
        model = nominal_model(noise, world)
        cert = synthesize_gain(model)
        assert cert.max_closedloop_real_eig < 0.0
        report = verify_lmi(model, cert.L, cert.gamma * (1.0 + 1e-6))
        assert report.feasible, report.reason
        closed = model.A + cert.L @ model.Cy
        assert float(np.max(np.real(np.linalg.eigvals(closed)))) < 0.0


def test_criterion_3_h2_optimality(capfd, model, cert):
    with criterion(capfd, 3, "H2 optimality against perturbed gains", 5.0):
        h2_opt = h2_norm_of_error_system(model, cert.L)
        scale = 0.1 * np.linalg.norm(cert.L)
        rng = np.random.default_rng(7)
        found = 0
        draws = 0
        while found < 20:
            draws += 1
            assert draws < 1000, "could not find 20 stabilizing perturbations"
            dl = rng.normal(size=(6, 6))
            dl *= scale * rng.uniform(0.05, 1.0) / np.linalg.norm(dl)
            try:
                h2_perturbed = h2_norm_of_error_system(model, cert.L + dl)
            except UnstableClosedLoop:
                continue
            assert h2_perturbed >= h2_opt * (1.0 - 1e-12)
            found += 1


def test_criterion_4_convergence_zero_noise(capfd, world, noise, cert):
    with criterion(capfd, 4, "0.1 rad error converges below 1e-3 rad in 10 s", 5.0):
        traj = generate_trajectory(ScenarioConfig.case_i(num_trials=1))
        stream = simulate_imu_stream(
            traj.t,
            traj.angles,
            traj.body_rates(),
            world,
            NoiseParams(0.0, 0.0, 0.0, 0.0),
            np.random.default_rng(0),
        )
        dt = 0.01
        x0 = EulerState(EulerAngles(*(traj.angles[0] + 0.1)))
        s1 = EH2FilterState(xhat=x0, L0=cert.L)
        s2 = EKFState(xhat=x0)
        t_hit = {"eh2": None, "ekf": None}
        for k in range(1000):
            sample = stream.sample(k)
            s1 = eh2_step(s1, sample, world, dt)
            s2 = ekf_step(s2, sample, world, noise, dt)
            truth = traj.angles[k + 1]
            for name, s in (("eh2", s1), ("ekf", s2)):
                err = np.linalg.norm(
                    wrap_angle(s.xhat.attitude.as_array() - truth)
                )
                if t_hit[name] is None and err < 1e-3:
                    t_hit[name] = traj.t[k + 1]
            if all(v is not None for v in t_hit.values()):
                break
        assert t_hit["eh2"] is not None and t_hit["eh2"] <= 10.0, t_hit
        assert t_hit["ekf"] is not None and t_hit["ekf"] <= 10.0, t_hit


def test_criterion_5_case_i_reproduction(capfd):
    with criterion(capfd, 5, "slow/small scenario ordering and RMS bands", 60.0):
        res = run_experiment(ScenarioConfig.case_i())
        agg = res["aggregate"]
        assert agg["num_ok"] == 10
        assert agg["yaw_wins_eh2"] >= 8, agg["yaw_wins_eh2"]
        assert _in_band(agg["eh2"]["rms_deg"], REF_CASE_I["eh2"]), agg["eh2"]
        assert _in_band(agg["ekf"]["rms_deg"], REF_CASE_I["ekf"]), agg["ekf"]


def test_criterion_6_case_ii_reproduction(capfd):
    with criterion(capfd, 6, "fast/large scenario ordering and RMS bands", 30.0):
        res = run_experiment(ScenarioConfig.case_ii())
        agg = res["aggregate"]
        assert agg["num_ok"] == 10
        assert agg["yaw_wins_eh2"] >= 7, agg["yaw_wins_eh2"]
        assert _in_band(agg["eh2"]["rms_deg"][:2], REF_CASE_II["eh2"][:2]), agg["eh2"]
        assert _in_band(agg["ekf"]["rms_deg"][:2], REF_CASE_II["ekf"][:2]), agg["ekf"]


def test_criterion_7_timing_ratio(capfd):
    with criterion(capfd, 7, "per-step time ratio eh2/ekf <= 0.7", 30.0):
        res = run_timing_benchmark(steps=10_000)
        assert res["ratio_eh2_over_ekf"] <= 0.7, res


def test_criterion_8_determinism(capfd, tmp_path):
    with criterion(capfd, 8, "byte-identical reruns", None):
        cfg = ScenarioConfig.case_ii(num_trials=2, seed=321)
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for k in range(cfg.num_trials):
            name = f"trial_{k:03d}.csv"
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name
        with open(tmp_path / "a" / "metrics.json") as fh:
            doc_a = json.load(fh)
        with open(tmp_path / "b" / "metrics.json") as fh:
            doc_b = json.load(fh)
        assert metrics_without_timing(doc_a) == metrics_without_timing(doc_b)


def test_criterion_9_kinematics_properties(capfd):
    with criterion(capfd, 9, "kinematics property sweep", 1.0):
        rng = np.random.default_rng(2718)
        eye3 = np.eye(3)
        for _ in range(1000):
            e = EulerAngles(
                rng.uniform(-np.pi, np.pi),
                rng.uniform(-1.4, 1.4),
                rng.uniform(-np.pi, np.pi),
            )
            R = dcm_body_from_inertial(e)
            assert_allclose(R @ R.T, eye3, atol=1e-10)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)
            # The program's T, as A's -T block.
            x = np.r_[e.as_array(), np.zeros(3)]
            T = -jacobians_process(x, np.zeros(3), NoiseParams())[0][:3, 3:]
            assert_allclose(T @ kinematic_matrix_inverse(e), eye3, atol=1e-10)
        # The rate map T is singular at the guard band; its inverse is total.
        for theta in (np.pi / 2 - 1e-9, -(np.pi / 2 - 1e-9)):
            near_lock = EulerAngles(0.0, theta, 0.0)
            x = np.r_[near_lock.as_array(), np.zeros(3)]
            with pytest.raises(GimbalLockError):
                jacobians_process(x, np.array([0.0, 0.1, 0.0]), NoiseParams())
            with pytest.raises(GimbalLockError):
                process_model(x, np.array([0.0, 0.1, 0.0]))
            assert np.all(np.isfinite(kinematic_matrix_inverse(near_lock)))
