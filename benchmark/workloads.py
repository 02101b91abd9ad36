"""The benchmark's three workloads, one repetition at a time, and their checks.

``case_i`` and ``case_ii`` drive ``eh2marg run`` in-process through
``eh2marg.cli.main``; ``stream`` drives the public ``eh2_step``/``ekf_step``
one sample at a time.  Every function of the program is looked up when a
repetition starts, so a traced repetition sees the tracer's wrappers.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import eh2marg
from eh2marg import cli
from refclock import RefClock

#: Seconds dropped from the start before RMS errors, as ``eh2marg run`` does.
EXCLUDE_S = 5.0
#: Filter steps of the ``stream`` workload (the default scenario of ``bench``).
STREAM_STEPS = 20_000
#: Steps of trial 0 that the output check re-runs through the public filters.
CROSS_CHECK_STEPS = 100
#: Worst RMS error (deg) that a tracking filter may show on these scenarios.
#: The reproduced values are 0.03-0.6 deg, so this only catches a filter that
#: has lost track, not a change of accuracy; that is what eh2/ekf_rms_deg do.
MAX_RMS_DEG = 3.0
_CSV_HEADER = (
    "t,phi_true,theta_true,psi_true,phi_eh2,theta_eh2,psi_eh2,phi_ekf,theta_ekf,psi_ekf"
)


def scenario(workload: str, seed: int, *, trials: int | None = None,
             steps: int = STREAM_STEPS) -> eh2marg.ScenarioConfig:
    """The scenario a workload runs; ``trials``/``steps`` shrink it for tests."""
    if workload == "case_i":
        cfg = eh2marg.ScenarioConfig.case_i(seed=seed)
    elif workload == "case_ii":
        cfg = eh2marg.ScenarioConfig.case_ii(seed=seed)
    elif workload == "stream":
        # A custom 20 deg three-axis sinusoid at 0.5 rad/s, as ``eh2marg bench``.
        cfg = eh2marg.ScenarioConfig(
            case_id="custom", duration=steps / 100.0, imu_rate=100.0,
            angular_speed=0.5, amplitude_deg=20.0, seed=seed, num_trials=1,
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if trials is not None:
        cfg = dataclasses.replace(cfg, num_trials=trials)
    return cfg


def n_steps(cfg: eh2marg.ScenarioConfig) -> int:
    return int(round(cfg.duration * cfg.imu_rate))


def set_up(workload: str, seed: int) -> None:
    """What a user does before the first step: gain synthesis with its LMI
    certificate and, for ``stream``, the sensor stream it will consume."""
    cfg = scenario(workload, seed)
    eh2marg.synthesize_gain(eh2marg.nominal_model(cfg.noise, cfg.world))
    if workload == "stream":
        _stream_inputs(cfg)


def _stream_inputs(cfg: eh2marg.ScenarioConfig):
    traj = eh2marg.generate_trajectory(cfg)
    stream = eh2marg.simulate_imu_stream(
        traj.t, traj.angles, traj.body_rates(), cfg.world, cfg.noise,
        np.random.default_rng((cfg.seed, 0)),
    )
    return traj, stream


def _stream_nbytes(stream: eh2marg.ImuStream) -> int:
    """Bytes of one simulated stream, computed from its array shapes."""
    return sum(getattr(stream, f.name).nbytes for f in dataclasses.fields(stream))


@dataclasses.dataclass
class Rep:
    """Outcome of one repetition of a workload."""

    steps: int
    wall_s: float
    attempted: int
    failed: int = 0
    digest: str = ""
    problems: list[str] = dataclasses.field(default_factory=list)
    eh2_rms_deg: float = float("nan")
    ekf_rms_deg: float = float("nan")
    eh2_us: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))
    ekf_us: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))
    csv_rows: int = 0
    csv_bytes: int = 0
    #: Computed bytes of one simulated sensor stream (all trials share the shape).
    stream_bytes: int = 0
    #: Seconds scaled to the reference host (``refclock``), for a clocked rep.
    normalized_s: float = float("nan")
    ref_ms: list[float] = dataclasses.field(default_factory=list)

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.wall_s

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        self.failed = self.attempted


@contextlib.contextmanager
def _timed(rep: Rep, clocked: bool):
    """Time the body into ``rep.wall_s``; with ``clocked``, interleave the
    reference computation and also fill ``rep.normalized_s``."""
    if not clocked:
        t0 = perf_counter()
        try:
            yield
        finally:
            rep.wall_s = perf_counter() - t0
        return
    clock = RefClock()
    try:
        with clock:
            yield
    finally:
        rep.wall_s = clock.wall_s
        rep.normalized_s = clock.normalized_s
        rep.ref_ms = clock.ref_ms


def _mean_rms(doc: dict, name: str) -> float:
    return float(np.mean(doc["aggregate"][name]["rms_deg"]))


def case_rep(workload: str, seed: int, out_dir: Path, *, trials: int | None = None,
             clocked: bool = False) -> Rep:
    """One ``eh2marg run --case I|II --seed S --out DIR`` through ``cli.main``."""
    cfg = scenario(workload, seed, trials=trials)
    argv = ["run", "--case", cfg.case_id, "--seed", str(seed), "--out", str(out_dir)]
    if trials is not None:
        argv += ["--trials", str(trials)]
    shutil.rmtree(out_dir, ignore_errors=True)
    rep = Rep(steps=cfg.num_trials * n_steps(cfg), wall_s=float("nan"),
              attempted=cfg.num_trials)
    try:
        with _timed(rep, clocked), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception:
        rep.fail("eh2marg run raised:\n" + traceback.format_exc())
        return rep
    if rc != 0:
        rep.fail(f"eh2marg run exited with {rc}")
        return rep
    try:
        doc = json.loads((out_dir / "metrics.json").read_text())
        csvs = sorted(out_dir.glob("trial_*.csv"))
        digest = hashlib.sha256()
        for path in csvs:
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            rep.csv_rows += data.count(b"\n") - 1
            rep.csv_bytes += len(data)
        blob = json.dumps(eh2marg.metrics_without_timing(doc), sort_keys=True)
        digest.update(blob.encode())
        rep.digest = digest.hexdigest()
        rep.failed = int(doc["aggregate"]["num_failed"])
        if rep.failed or len(csvs) != cfg.num_trials:
            rep.fail(f"{rep.failed} failed trials, {len(csvs)} CSVs for {cfg.num_trials}")
            return rep
        rep.eh2_rms_deg = _mean_rms(doc, "eh2")
        rep.ekf_rms_deg = _mean_rms(doc, "ekf")
        rep.eh2_us = np.array([t["timing"]["eh2"]["mean_ms"] * 1e3 for t in doc["trials"]])
        rep.ekf_us = np.array([t["timing"]["ekf"]["mean_ms"] * 1e3 for t in doc["trials"]])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        rep.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    return rep


def check_case_outputs(workload: str, seed: int, out_dir: Path, *,
                       trials: int | None = None) -> tuple[list[str], int]:
    """Check one run's files against the program's public functions.

    Every CSV must hold the truth trajectory exactly, finite estimates, and
    the per-trial RMS errors that ``metrics.json`` reports; the first
    ``CROSS_CHECK_STEPS`` estimates of trial 0 must match the public
    ``eh2_step``/``ekf_step`` run on the same sensor stream.  Returns the
    problems found and the computed bytes of one simulated stream.
    """
    cfg = scenario(workload, seed, trials=trials)
    problems: list[str] = []
    doc = json.loads((out_dir / "metrics.json").read_text())
    traj, stream = _stream_inputs(cfg)
    for k in range(cfg.num_trials):
        path = out_dir / f"trial_{k:03d}.csv"
        with open(path) as fh:
            header = fh.readline().strip()
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if header != _CSV_HEADER or data.shape != (len(traj), 10):
            problems.append(f"{path.name}: header or shape {data.shape} is wrong")
            continue
        if not np.all(np.isfinite(data)):
            problems.append(f"{path.name}: non-finite values")
            continue
        if not (np.array_equal(data[:, 0], traj.t) and np.array_equal(data[:, 1:4], traj.angles)):
            problems.append(f"{path.name}: truth columns differ from generate_trajectory")
        for name, cols in (("eh2", slice(4, 7)), ("ekf", slice(7, 10))):
            m = eh2marg.compute_metrics(traj, data[:, cols], EXCLUDE_S)
            reported = doc["trials"][k][name]["rms_deg"]
            if not np.allclose(m.rms, reported, rtol=1e-9, atol=1e-12):
                problems.append(f"{path.name}: {name} RMS {reported} != recomputed {m.rms}")
            if np.max(m.rms) > MAX_RMS_DEG:
                problems.append(f"{path.name}: {name} lost track (RMS {m.rms} deg)")
        if k == 0:
            ref = _public_filters(cfg, stream, CROSS_CHECK_STEPS)[0]
            got = np.stack([data[: CROSS_CHECK_STEPS + 1, 4:7], data[: CROSS_CHECK_STEPS + 1, 7:10]])
            err = np.max(np.abs(eh2marg.wrap_angle(got - ref)))
            if not err <= 1e-9:
                problems.append(f"{path.name}: differs from eh2_step/ekf_step by {err:.3g} rad")
    return problems, _stream_nbytes(stream)


def _public_filters(cfg, stream, steps: int):
    """Run ``eh2_step`` then ``ekf_step`` on each of the first ``steps``
    samples, timing each call; returns both filters' attitude estimates,
    shape (2, steps + 1, 3), and the two arrays of call times in ns."""
    eh2_step, ekf_step, clock = eh2marg.eh2_step, eh2marg.ekf_step, perf_counter_ns
    gain = eh2marg.synthesize_gain(eh2marg.nominal_model(cfg.noise, cfg.world)).L
    x0 = eh2marg.initialize_from_first_sample(stream.sample(0), cfg.world)
    s1 = eh2marg.EH2FilterState(xhat=x0, L0=gain)
    s2 = eh2marg.EKFState(xhat=x0)
    w, q, dt = cfg.world, cfg.noise, 1.0 / cfg.imu_rate
    est = np.empty((2, steps + 1, 3))
    est[:, 0] = x0.attitude.as_array()
    t_eh2 = np.empty(steps, dtype=np.int64)
    t_ekf = np.empty(steps, dtype=np.int64)
    sample = stream.sample
    for k in range(steps):
        smp = sample(k)
        a = clock()
        s1 = eh2_step(s1, smp, w, dt)
        b = clock()
        s2 = ekf_step(s2, smp, w, q, dt)
        c = clock()
        t_eh2[k] = b - a
        t_ekf[k] = c - b
        est[0, k + 1] = s1.xhat.attitude.as_array()
        est[1, k + 1] = s2.xhat.attitude.as_array()
    return est, t_eh2, t_ekf


def stream_rep(seed: int, *, steps: int = STREAM_STEPS, clocked: bool = False) -> Rep:
    """Online single-stream use: build the inputs, then for each sample call
    ``eh2_step`` and then ``ekf_step``, timing each call."""
    cfg = scenario("stream", seed, steps=steps)
    rep = Rep(steps=steps, wall_s=float("nan"), attempted=1)
    try:
        with _timed(rep, clocked):
            traj, stream = _stream_inputs(cfg)
            est, t_eh2, t_ekf = _public_filters(cfg, stream, steps)
            if np.all(np.isfinite(est)):
                m1 = eh2marg.compute_metrics(traj, est[0], EXCLUDE_S)
                m2 = eh2marg.compute_metrics(traj, est[1], EXCLUDE_S)
    except Exception:
        rep.fail("stream raised:\n" + traceback.format_exc())
        return rep
    if not np.all(np.isfinite(est)):
        rep.fail("non-finite estimate")
        return rep
    rep.digest = hashlib.sha256(est.tobytes()).hexdigest()
    rep.stream_bytes = _stream_nbytes(stream)
    if max(np.max(m1.rms), np.max(m2.rms)) > MAX_RMS_DEG:
        rep.fail(f"a filter lost track: RMS eh2 {m1.rms}, ekf {m2.rms} deg")
    rep.eh2_rms_deg = float(np.mean(m1.rms))
    rep.ekf_rms_deg = float(np.mean(m2.rms))
    rep.eh2_us = t_eh2 * 1e-3
    rep.ekf_us = t_ekf * 1e-3
    return rep
