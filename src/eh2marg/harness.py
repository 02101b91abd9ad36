"""Scenario generation, Monte-Carlo experiment runner, metrics, and timing.

The harness turns a :class:`ScenarioConfig` into deterministic truth
trajectories, simulates noisy sensor streams per trial, runs the filter
plans (extended-H2 and EKF, built once per run) side by side on identical
data with interleaved per-step timing, and aggregates per-axis error metrics.

The trials of a run advance together: one loop over time steps a
component-major ``(6, N)`` stack of every live trial (one column per trial,
with ``(N, 6, 6)`` EKF covariances) through each filter, so the per-call
overhead is paid once per time step rather than once per trial.  A trial's
timing is therefore the stacked step time divided by the number of live
trials (ms per trial-step).  One buffer per batch holds the sensor samples,
and each time step's estimates overwrite the samples it has consumed.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, Eh2MargError, LengthMismatch
from .filters import _paper_plans, _Plan, check_gravity_along_z, initialize_from_first_sample
from .kinematics import _Container, _body_rates, _frozen, _sin_cos, wrap_angle
from .sensors import ImuStream, NoiseParams, WorldConstants, simulate_imu_stream
from .synthesis import synthesize_gain
from .linearization import nominal_model

__all__ = [
    "BACKEND",
    "GIMBAL_MARGIN",
    "MAX_STEPS",
    "RunMetrics",
    "ScenarioConfig",
    "Trajectory",
    "compute_metrics",
    "generate_trajectory",
    "metrics_without_timing",
    "run_experiment",
    "run_timing_benchmark",
]

#: Array backend that runs the filters.  benchmark/run.py records it and
#: refuses to run unless it reads "numpy".
BACKEND = "numpy"

#: Minimum clearance (rad) a truth trajectory must keep from pitch +-pi/2.
GIMBAL_MARGIN = 0.05

#: Most steps (duration x imu_rate) one trial may take.  A trial's truth,
#: sensor stream, noise draws and estimates peak near 500 bytes per step, so
#: this caps one trial near 250 MB; case I takes 5,000 steps, ``bench``
#: 10,000 by default.  Trials advance in batches of at most
#: ``MAX_STEPS // steps`` trials, whose one buffer of inputs and estimates
#: stays inside the same cap: max(9, 3P) floats per trial-step for P plans,
#: 72 bytes for the paper's pair, whose 2 x 3 attitude floats overwrite a
#: sample's 3 gyro and 6 accel/mag floats once the step has consumed them.
MAX_STEPS = 500_000

#: Per-axis starting phases for the simultaneous (case II) sinusoids, chosen
#: so the three axes are out of phase but overlap above 30 deg early on.
_CASE_II_PHASES = (0.0, np.pi / 12.0, np.pi / 6.0)

_VALID_CASES = ("I", "II", "custom")


def _as_amplitude_tuple(amplitude_deg: Any) -> tuple[float, float, float] | None:
    if amplitude_deg is None:
        return None
    arr = np.asarray(amplitude_deg, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.repeat(arr, 3)
    if arr.shape != (3,):
        raise ConfigError(
            f"amplitude_deg must be a scalar or 3 per-axis values, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ConfigError("amplitude_deg entries must be finite and >= 0")
    return (float(arr[0]), float(arr[1]), float(arr[2]))


def _to_json(value: Any) -> Any:
    """JSON-ready copy of a config value: dataclasses become dicts of their
    fields, tuples and arrays lists of floats, and -0.0 becomes 0.0 so that
    configs which compare equal write the same JSON (and config_hash)."""
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, np.ndarray)):
        return [_to_json(float(v)) for v in value]
    return value + 0.0 if isinstance(value, float) else value


def _reject_unknown_keys(doc: Any, kind: type, label: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{label} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(kind)})
    if unknown:
        raise ConfigError(f"unknown {label} keys: {', '.join(unknown)}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated flight scenario.

    ``amplitude_deg`` is an optional per-axis amplitude override; when None,
    case I derives its amplitude from ``angular_speed`` (peak rate of the
    half-sine excursions) and case II defaults to 60 deg on each axis.
    """

    case_id: str
    duration: float
    imu_rate: float = 100.0
    angular_speed: float = 0.0
    amplitude_deg: tuple[float, float, float] | None = None
    noise: NoiseParams = field(default_factory=NoiseParams)
    world: WorldConstants = field(default_factory=WorldConstants)
    seed: int = 42
    num_trials: int = 10

    def __post_init__(self) -> None:
        if self.case_id not in _VALID_CASES:
            raise ConfigError(
                f"case_id must be one of {_VALID_CASES}, got {self.case_id!r}"
            )
        for name in ("duration", "imu_rate"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.duration * self.imu_rate > MAX_STEPS:
            raise ConfigError(
                f"duration {self.duration} s at {self.imu_rate} Hz exceeds "
                f"MAX_STEPS = {MAX_STEPS} steps per trial"
            )
        if not (np.isfinite(self.angular_speed) and self.angular_speed >= 0.0):
            raise ConfigError(
                f"angular_speed must be finite and >= 0, got {self.angular_speed!r}"
            )
        object.__setattr__(self, "angular_speed", float(self.angular_speed))
        object.__setattr__(self, "amplitude_deg", _as_amplitude_tuple(self.amplitude_deg))
        if not isinstance(self.noise, NoiseParams):
            raise ConfigError("noise must be a NoiseParams instance")
        if not isinstance(self.world, WorldConstants):
            raise ConfigError("world must be a WorldConstants instance")
        try:
            check_gravity_along_z(self.world)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name in ("seed", "num_trials"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in u64, got {self.seed!r}")
        if self.num_trials < 1:
            raise ConfigError(f"num_trials must be >= 1, got {self.num_trials}")

    @classmethod
    def case_i(cls, **overrides: Any) -> "ScenarioConfig":
        """Slow/small scenario: sequential per-axis half-sine excursions.

        50 s at 100 Hz with peak rate pi/50 rad/s, which puts the per-axis
        peak excursion near 19 deg — comfortably inside the small-angle
        regime the fixed-gain design is tuned for.
        """
        base = dict(case_id="I", duration=50.0, angular_speed=np.pi / 50.0)
        return cls(**{**base, **overrides})

    @classmethod
    def case_ii(cls, **overrides: Any) -> "ScenarioConfig":
        """Fast/large scenario: simultaneous 60 deg sinusoids on all axes.

        10 s at 100 Hz with peak rate pi/3 rad/s on each axis.
        """
        base = dict(case_id="II", duration=10.0, angular_speed=np.pi / 3.0, amplitude_deg=60.0)
        return cls(**{**base, **overrides})

    def amplitude_rad(self) -> NDArray[np.float64] | None:
        if self.amplitude_deg is None:
            return None
        return np.deg2rad(np.asarray(self.amplitude_deg, dtype=np.float64))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mirror of the config (round-trips through from_dict)."""
        return _to_json(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ScenarioConfig":
        """Build a config from a JSON document; unknown keys are rejected.

        ``case_id`` of "I" or "II" starts from that case's defaults, so a
        document may override only the fields it cares about, also inside
        ``noise`` and ``world``.
        """
        _reject_unknown_keys(d, cls, "config")
        case_id = d.get("case_id", "custom")
        if case_id == "I":
            base = cls.case_i()
        elif case_id == "II":
            base = cls.case_ii()
        else:
            base = ScenarioConfig(case_id="custom", duration=10.0)
        fields = {**base.to_dict(), **d}
        for f in dataclasses.fields(cls):
            if dataclasses.is_dataclass(f.type):
                doc = d.get(f.name, {})
                _reject_unknown_keys(doc, f.type, f.name)
                try:
                    fields[f.name] = f.type(**{**_to_json(getattr(base, f.name)), **doc})
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"invalid {f.name} parameters: {exc}") from exc
        try:
            return cls(**fields)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class Trajectory(_Container):
    """Sampled attitude truth: times, 3-2-1 Euler angles, and Euler-angle rates,
    kept as read-only copies.  Every entry must be finite: a NaN time passes
    the strictly-increasing check, since NaN compares false."""

    t: NDArray[np.float64]
    angles: NDArray[np.float64]
    rates: NDArray[np.float64]

    def __post_init__(self) -> None:
        for name in ("t", "angles", "rates"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        t, angles, rates = self.t, self.angles, self.rates
        n = t.shape[0]
        if t.ndim != 1 or n < 2:
            raise ValueError("t must be a 1-D array with at least two samples")
        if angles.shape != (n, 3) or rates.shape != (n, 3):
            raise LengthMismatch(
                f"angles/rates must have shape ({n}, 3), got {angles.shape} and {rates.shape}"
            )
        for name in ("t", "angles", "rates"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("t must be strictly increasing")

    def __len__(self) -> int:
        return self.t.shape[0]

    def body_rates(self) -> NDArray[np.float64]:
        """True body angular velocity at every sample, omega = T^-1 Phi_dot, (n, 3):
        the T^-1 map on the (3, n) transposes of the angles and rates."""
        return np.stack(_body_rates(*_sin_cos(self.angles.T[:2]), self.rates.T), axis=1)


def generate_trajectory(cfg: ScenarioConfig) -> Trajectory:
    """Deterministic truth trajectory for the configured scenario.

    Case I excites the axes one at a time with half-sine excursions
    (window = duration/3 per axis, amplitude = angular_speed * window / pi
    unless overridden); case II runs simultaneous full sinusoids whose peak
    rate equals ``angular_speed``; custom is case II's shape with zero
    phases and no angle-regime assertion.  The per-sample regime assertions
    run on the generated series, not just on the parameters.
    """
    n_steps = int(round(cfg.duration * cfg.imu_rate))
    if n_steps < 1:
        raise ConfigError(
            f"duration {cfg.duration} at {cfg.imu_rate} Hz yields no full step"
        )
    t = np.arange(n_steps + 1, dtype=np.float64) / cfg.imu_rate
    n = t.shape[0]
    angles = np.zeros((n, 3))
    rates = np.zeros((n, 3))
    amp_override = cfg.amplitude_rad()

    if cfg.case_id == "I":
        t_w = cfg.duration / 3.0
        if amp_override is None:
            amp = np.full(3, cfg.angular_speed * t_w / np.pi)
        else:
            amp = amp_override
        if np.any(amp >= np.pi / 6.0):
            raise ConfigError(
                "case I requires per-axis excursions < 30 deg; got "
                f"{np.rad2deg(amp).round(2).tolist()} deg"
            )
        for axis in range(3):
            tau = t - axis * t_w
            mask = (tau >= 0.0) & (tau < t_w)
            if axis == 2:
                mask |= np.isclose(t, cfg.duration)
            angles[mask, axis] = amp[axis] * np.sin(np.pi * tau[mask] / t_w)
            rates[mask, axis] = amp[axis] * (np.pi / t_w) * np.cos(np.pi * tau[mask] / t_w)
    else:
        if cfg.case_id == "II":
            amp = np.full(3, np.deg2rad(60.0)) if amp_override is None else amp_override
            if np.any(amp <= np.pi / 6.0):
                raise ConfigError(
                    "case II requires per-axis amplitudes > 30 deg; got "
                    f"{np.rad2deg(amp).round(2).tolist()} deg"
                )
            if cfg.angular_speed <= 0.0:
                raise ConfigError("case II requires angular_speed > 0 for its rate regime")
            phases = _CASE_II_PHASES
        else:
            if amp_override is None:
                raise ConfigError("custom case requires amplitude_deg")
            amp = amp_override
            phases = (0.0, 0.0, 0.0)
        for axis in range(3):
            if amp[axis] == 0.0 or cfg.angular_speed == 0.0:
                continue
            phase = cfg.angular_speed / amp[axis] * t + phases[axis]
            angles[:, axis] = amp[axis] * np.sin(phase)
            rates[:, axis] = cfg.angular_speed * np.cos(phase)

    if np.max(np.abs(angles[:, 1])) > np.pi / 2.0 - GIMBAL_MARGIN:
        raise ConfigError(
            f"pitch trajectory comes within {GIMBAL_MARGIN} rad of the gimbal singularity"
        )
    if cfg.case_id == "I":
        if np.max(np.abs(angles)) >= np.pi / 6.0:
            raise ConfigError("case I trajectory breached the 30 deg regime")
        active = np.abs(angles) > 1e-9
        if np.any(active.sum(axis=1) > 1):
            raise ConfigError("case I trajectory excites more than one axis at a time")
    elif cfg.case_id == "II":
        simultaneous = np.all(np.abs(angles) > np.pi / 6.0, axis=1)
        if not np.any(simultaneous):
            raise ConfigError(
                "case II trajectory never exceeds 30 deg on all axes simultaneously"
            )
    return Trajectory(t=t, angles=angles, rates=rates)


@dataclass(frozen=True, eq=False)
class RunMetrics(_Container):
    """Per-axis error statistics of one filter on one trial, in degrees,
    kept as read-only copies."""

    rms: NDArray[np.float64]
    err_min: NDArray[np.float64]
    err_max: NDArray[np.float64]

    def __post_init__(self) -> None:
        for name in ("rms", "err_min", "err_max"):
            arr = _frozen(getattr(self, name))
            if arr.shape != (3,) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a finite length-3 array")
            object.__setattr__(self, name, arr)
        if np.any(self.rms < 0.0):
            raise ValueError("rms must be >= 0")
        if np.any(self.err_min > self.err_max):
            raise ValueError("err_min must be <= err_max per axis")

    def to_dict(self) -> dict[str, list[float]]:
        return {
            "rms_deg": [float(v) for v in self.rms],
            "err_min_deg": [float(v) for v in self.err_min],
            "err_max_deg": [float(v) for v in self.err_max],
        }


def compute_metrics(
    truth: Trajectory, estimates: NDArray[np.float64], exclude_initial: float = 0.0
) -> RunMetrics:
    """Per-axis RMS and signed min/max of the wrapped angle error, in degrees.

    Samples within ``exclude_initial`` seconds of the start are dropped so
    the convergence transient does not pollute steady-state statistics.
    """
    est = np.asarray(estimates, dtype=np.float64)
    n = len(truth)
    if est.shape != (n, 3):
        raise LengthMismatch(
            f"estimates must have shape ({n}, 3) to match truth, got {est.shape}"
        )
    if not exclude_initial >= 0.0:
        raise ValueError(f"exclude_initial must be >= 0, got {exclude_initial!r}")
    keep = truth.t - truth.t[0] >= exclude_initial
    if not np.any(keep):
        raise ValueError("exclusion window leaves no samples")
    err_deg = np.rad2deg(wrap_angle(est[keep] - truth.angles[keep]))
    return RunMetrics(
        rms=np.sqrt(np.mean(err_deg**2, axis=0)),
        err_min=err_deg.min(axis=0),
        err_max=err_deg.max(axis=0),
    )


#: Leading per-step times treated as warm-up (allocator, caches) and
#: excluded from timing statistics when more samples are available.
_WARMUP_STEPS = 100


def _percentile(ordered: NDArray[np.float64], q: float) -> float:
    """The ``q`` quantile (0 <= q <= 1) of the sorted samples ``ordered``,
    bit for bit as ``np.percentile``'s default linear method gives it, but
    without that call, whose first use imports ``numpy.ma``."""
    h = (len(ordered) - 1) * q
    if h >= len(ordered) - 1:
        return float(ordered[-1])
    i = int(h)
    a, b, t = ordered[i], ordered[i + 1], h - i
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def _timing_block(per_step_times_ms: NDArray[np.float64]) -> dict[str, float]:
    """One filter's timing in metrics.json and bench.json, in ms: mean,
    sample standard deviation, median and 95th percentile of the per-step
    times.  When more than 100 samples are available the first 100 are
    treated as warm-up (allocator, caches) and excluded."""
    times = np.asarray(per_step_times_ms, dtype=np.float64).ravel()
    if times.size == 0:
        raise ValueError("need at least one timing sample")
    if times.size > _WARMUP_STEPS:
        times = times[_WARMUP_STEPS:]
    ordered = np.sort(times)
    return {
        "mean_ms": float(np.mean(times)),
        "std_ms": float(np.std(times, ddof=1)) if times.size > 1 else 0.0,
        "p50_ms": _percentile(ordered, 0.5),
        "p95_ms": _percentile(ordered, 0.95),
    }


#: Rows formatted per write: one format operation per block is about twice
#: as fast as one per value, and a block's Python floats and text stay
#: small (about 0.6 MB) where a whole case I trial would take about 3 MB.
_CSV_BLOCK_ROWS = 1000

_AXES = ("phi", "theta", "psi")


def _truth_cells(t: NDArray[np.float64], truth: NDArray[np.float64]) -> NDArray[np.object_]:
    """Each CSV row's ``t,phi_true,theta_true,psi_true``, the same in every trial."""
    rows = np.column_stack([t, truth])
    text = ("%.17g" + ",%.17g" * 3 + "\n") * len(rows) % tuple(rows.ravel().tolist())
    return np.array(text.split("\n")[:-1], dtype=object)


def _write_trial_csv(
    path: Path, truth_cells: NDArray[np.object_], estimates: NDArray[np.float64],
    names: list[str],
) -> None:
    """Write the truth cells beside the (P, n, 3) attitudes of the P plans
    ``names``: one ``phi_/theta_/psi_<name>`` triple per plan, in table order."""
    estimates = np.hstack(estimates)
    width = estimates.shape[1]
    cells = np.empty((_CSV_BLOCK_ROWS, 1 + width), dtype=object)
    header = ",".join(["t", *(f"{axis}_{name}" for name in ("true", *names) for axis in _AXES)])
    row = "%s" + ",%.17g" * width + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for first in range(0, len(estimates), _CSV_BLOCK_ROWS):
            block = cells[: len(estimates) - first]
            block[:, 0] = truth_cells[first : first + len(block)]
            block[:, 1:] = estimates[first : first + len(block)]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


class _Failure(NamedTuple):
    """Why a trial stopped: the error, and the filter step that raised it.

    ``filter``, ``step``, ``t`` (the time of the sample the step consumed)
    and ``last_state`` (the six floats of the state the step started from)
    are None when the trial failed before its first step.
    """

    error: Exception
    filter: str | None = None
    step: int | None = None
    t: float | None = None
    last_state: list[float] | None = None

    def record(self) -> dict[str, Any]:
        """The fields of a failed trial's record in metrics.json."""
        where = "" if self.step is None else f"step {self.step}: "
        return {
            "error": f"{type(self.error).__name__}: {where}{self.error}",
            "filter": self.filter,
            "step": self.step,
            "t": self.t,
            "last_state": self.last_state,
        }


class _TrialBatch(NamedTuple):
    """What :func:`_run_trials` returns for N trials of n samples.

    ``estimates[f, k, j]`` is the attitude of plan f for trial j at
    sample k, a (P, n, N, 3) strided view of the batch's one buffer (see
    :func:`_run_trials`); rows of a failed trial past its failing step are
    unspecified.
    ``step_ns[f, k]`` is the time of plan f's step k divided by the
    number of trials it advanced.  ``failures`` maps a trial's row to why
    it stopped.
    """

    estimates: NDArray[np.float64]
    step_ns: NDArray[np.float64]
    failures: dict[int, _Failure]


def _trials(a: NDArray[np.float64], i: "int | NDArray[np.bool_]") -> NDArray[np.float64]:
    """Trial(s) ``i`` of a stack: columns of a (k, N) vector stack, matrices
    of an (N, k, k) covariance stack."""
    return a[:, i] if a.ndim == 2 else a[i]


def _advance(
    step: Callable[..., tuple], arrays: tuple
) -> tuple[tuple | None, dict[int, Eh2MargError], int]:
    """Run one filter step on every trial of ``arrays``; trials that raise drop out.

    Returns the new stacked state (None when no trial is left), the error
    of every trial that raised, and the nanoseconds the step calls took:
    slicing out one trial and stacking the results are not timed.  One
    trial takes the (6,) path.  When a stacked call raises, the step is
    re-run trial by trial, so that each failing trial gets the error its own
    run raises and the others carry on.
    """
    count = arrays[0].shape[-1]
    ns = 0
    if count > 1:
        tic = perf_counter_ns()
        try:
            return step(*arrays), {}, perf_counter_ns() - tic
        except Eh2MargError:
            ns = perf_counter_ns() - tic
    done, errors = [], {}
    for i in range(count):
        trial = tuple(_trials(a, i) for a in arrays)
        tic = perf_counter_ns()
        try:
            done.append(step(*trial))
        except Eh2MargError as exc:
            errors[i] = exc
        ns += perf_counter_ns() - tic
    if not done:
        return None, errors, ns
    return tuple(np.stack(c, axis=-1 if c[0].ndim == 1 else 0) for c in zip(*done)), errors, ns


def _run_trials(
    num_trials: int,
    streams: Iterable[ImuStream],
    world: WorldConstants,
    plans: tuple[_Plan, ...],
) -> _TrialBatch:
    """Run every plan over ``num_trials`` streams on one time grid, all trials at once.

    One float64 buffer of shape (n + 1, max(9, 3P), N) holds the batch's
    inputs and estimates, for P plans and N trials of n samples.  Each
    stream is initialized and its samples are copied into column j: row
    k + 1 holds sample k's gyro in entries 0-2 and accel/mag in 3-8.  The
    stream is then dropped, so ``streams`` may be a generator that builds
    one stream at a time.  Row 0 holds every plan's initial estimates.  One
    loop over time advances every live trial with one stacked call per
    plan, all from the same initial estimates.  Step k hands each plan the
    (3, N) and (6, N) views of rows k + 1 and k + 2, samples k and k + 1;
    the last step reads row n.  Each step call is timed.  Once every plan
    has stepped k, the plans' new attitudes overwrite entries 0 to 3P - 1
    of row k + 1, whose inputs are then spent; row k + 2 is kept for step
    k + 1.  A trial whose initialization raises
    :class:`~eh2marg.errors.Eh2MargError` or ``ValueError``, or whose step
    raises :class:`~eh2marg.errors.Eh2MargError`, stops there and the others
    carry on.
    """
    failures: dict[int, _Failure] = {}
    ok = []
    width = 3 * len(plans)
    streams = iter(streams)
    for j in range(num_trials):
        # Each stream is dropped before the next is built: next(), not
        # enumerate(), whose cached (j, stream) tuple would keep it alive.
        stream = next(streams)
        if j == 0:
            t = stream.t
            n = len(t)
            buf = np.empty((n + 1, max(9, width), num_trials))
            estimates = buf[:n, :width].reshape(n, len(plans), 3, num_trials).transpose(1, 0, 3, 2)
            x0 = np.empty((6, num_trials))
        buf[1:, :3, j] = stream.omega_m
        buf[1:, 3:6, j] = stream.a_m
        buf[1:, 6:9, j] = stream.m_m
        try:
            x0[:, j] = initialize_from_first_sample(stream.sample(0), world).as_vector()
            ok.append(j)
        except (Eh2MargError, ValueError) as exc:  # e.g. a non-finite first sample
            failures[j] = _Failure(exc)
        del stream

    live = np.array(ok, dtype=np.intp)
    states = [plan.start(x0[:, live]) for plan in plans]
    estimates[:, 0] = x0[:3].T
    step_ns = np.zeros((len(plans), n - 1))
    for k in range(n - 1):
        if not len(live):
            break
        # While every trial is live, plain indexing reads and writes views
        # instead of copying through ``live``.
        rows = slice(None) if len(live) == num_trials else live
        now, nxt = buf[k + 1], buf[k + 2]
        inputs = (now[:3, rows], now[3:9, rows], nxt[:3, rows], nxt[3:9, rows])
        for f, plan in enumerate(plans):
            new, errors, ns = _advance(plan.step, states[f] + inputs)
            step_ns[f, k] = ns / len(live)
            if errors:
                for i, exc in errors.items():
                    failures[int(live[i])] = _Failure(
                        exc, plan.name, k, float(t[k]), states[f][0][:, i].tolist()
                    )
                keep = np.ones(len(live), dtype=bool)
                keep[list(errors)] = False
                live = rows = live[keep]
                inputs = tuple(a[:, keep] for a in inputs)
                states = [tuple(_trials(a, keep) for a in state) for state in states]
                if not len(live):
                    break
            states[f] = new
        # Only now are row k + 1's inputs spent: a later plan reads them.
        for f, state in enumerate(states):
            estimates[f, k + 1, rows] = state[0][:3].T
    return _TrialBatch(estimates, step_ns, failures)


def _batch_records(
    batch: _TrialBatch, members: range, traj: Trajectory, names: list[str],
    exclude_initial: float, csv: tuple[Path, NDArray[np.object_]] | None,
) -> list[dict[str, Any]]:
    """metrics.json's records of the batch's trials ``members``, writing each
    successful trial's CSV when ``csv`` gives a directory and the
    :func:`_truth_cells`.  Once it returns, nothing holds the batch's buffer."""
    timing = [_timing_block(ns * 1e-6) for ns in batch.step_ns]
    records: list[dict[str, Any]] = []
    for row, trial in enumerate(members):
        if row in batch.failures:
            records.append({"trial": trial, "ok": False, **batch.failures[row].record()})
            continue
        estimates = batch.estimates[:, :, row]
        record: dict[str, Any] = {
            "trial": trial, "ok": True, "timing": dict(zip(names, map(dict, timing)))
        }
        for name, est in zip(names, estimates):
            record[name] = compute_metrics(traj, est, exclude_initial).to_dict()
        records.append(record)
        if csv is not None:
            _write_trial_csv(csv[0] / f"trial_{trial:03d}.csv", csv[1], estimates, names)
    return records


def run_experiment(
    cfg: ScenarioConfig,
    *,
    gain: NDArray[np.float64] | None = None,
    out_dir: str | Path | None = None,
    exclude_initial: float = 5.0,
) -> dict[str, Any]:
    """Run the full Monte-Carlo comparison for one scenario.

    Synthesizes the extended-H2 gain for the config's noise/world unless one
    is supplied and the filter plans once, then per trial: simulate a sensor
    stream seeded by (cfg.seed, trial), run both filters from the same static
    initialization, and compute per-axis wrapped-error metrics after the exclusion window.
    The trials run in batches of at most ``MAX_STEPS // steps`` that advance
    together (see :func:`_run_trials`).  A failing trial is recorded with
    its error, filter, step and time, and does not stop the others.

    The result's ``plans`` lists the plan table's names in table order,
    which the sorted keys of metrics.json would otherwise lose; every
    per-plan and per-pair entry is keyed by these names.  When ``out_dir``
    is given, writes ``trial_<k>.csv`` per successful trial and
    ``metrics.json`` with everything this function returns.

    Raises
    ------
    ConfigError
        If ``exclude_initial`` is not within [0, t_end], before any filter
        runs or any file is written.  t_end is the time of the last sample:
        the duration, rounded to whole steps.
    """
    traj = generate_trajectory(cfg)
    if not 0.0 <= exclude_initial <= traj.t[-1]:
        raise ConfigError(
            f"exclude_initial must be within [0, {traj.t[-1]:g}] s, got {exclude_initial!r}"
        )
    cert = None
    if gain is None:
        cert = synthesize_gain(nominal_model(cfg.noise, cfg.world))
        L0 = cert.L
    else:
        L0 = np.asarray(gain, dtype=np.float64)
        if L0.shape != (6, 6) or not np.all(np.isfinite(L0)):
            raise ConfigError("gain must be a finite 6x6 matrix")
    gain_record = {
        "source": "file" if cert is None else "synthesized",
        "sha256": hashlib.sha256(L0.tobytes()).hexdigest(),
    }
    for key in ("h2_norm", "gamma", "max_closedloop_real_eig", "lmi_feasible"):
        gain_record[key] = None if cert is None else getattr(cert, key)
    body_rates = traj.body_rates()
    plans = _paper_plans(L0, cfg.noise, cfg.world, 1.0 / cfg.imu_rate)
    names = [plan.name for plan in plans]

    out_path = None if out_dir is None else Path(out_dir)
    csv = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        csv = out_path, _truth_cells(traj.t, traj.angles)

    trials: list[dict[str, Any]] = []
    batch_size = MAX_STEPS // (len(traj) - 1)
    for first in range(0, cfg.num_trials, batch_size):
        members = range(first, min(first + batch_size, cfg.num_trials))
        streams = (
            simulate_imu_stream(
                traj.t, traj.angles, body_rates, cfg.world, cfg.noise,
                np.random.default_rng((cfg.seed, trial)),
            )
            for trial in members
        )
        # The batch goes straight to _batch_records, so that its buffer is
        # freed before the next batch builds its own.
        trials += _batch_records(
            _run_trials(len(members), streams, cfg.world, plans), members, traj, names,
            exclude_initial, csv,
        )

    result: dict[str, Any] = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "exclude_initial": float(exclude_initial),
        "gain": gain_record,
        "plans": names,
        "trials": trials,
        "aggregate": _aggregate(trials, names),
    }
    if out_path is not None:
        with open(out_path / "metrics.json", "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def _pairs(names: list[str]) -> list[tuple[str, str, str, str]]:
    """Each (filter, baseline) pair of a plan table's names, consecutive and
    in order, with the keys of the filter's yaw wins in the aggregate and of
    the pair's timing ratio."""
    return [
        (f, b, f"yaw_wins_{f}", f"ratio_{f}_over_{b}") for f, b in zip(names[::2], names[1::2])
    ]


def _aggregate(trials: list[dict[str, Any]], names: list[str]) -> dict[str, Any]:
    """metrics.json's aggregate over the successful trial records: for each of
    ``names`` the mean RMS, least err_min and greatest err_max per axis and the
    mean of each timing statistic, and for each (filter, baseline) pair of
    :func:`_pairs` the filter's yaw wins and its mean-time ratio."""
    ok = [rec for rec in trials if rec["ok"]]
    aggregate: dict[str, Any] = {"num_ok": len(ok), "num_failed": len(trials) - len(ok)}
    if not ok:
        return aggregate
    reductions = {"rms_deg": np.mean, "err_min_deg": np.min, "err_max_deg": np.max}
    for name in names:
        aggregate[name] = {
            key: reduce([rec[name][key] for rec in ok], axis=0).tolist()
            for key, reduce in reductions.items()
        }
    timing = {
        f"{name}_{stat}": float(np.mean([rec["timing"][name][stat] for rec in ok]))
        for name in names
        for stat in ("mean_ms", "p50_ms", "p95_ms")
    }
    for filt, base, wins, ratio in _pairs(names):
        aggregate[wins] = sum(
            rec[filt]["rms_deg"][2] < rec[base]["rms_deg"][2] for rec in ok
        )
        mean_f, mean_b = timing[f"{filt}_mean_ms"], timing[f"{base}_mean_ms"]
        timing[ratio] = mean_f / mean_b if mean_b > 0.0 else float("nan")
    aggregate["timing"] = timing
    return aggregate


def metrics_without_timing(metrics: Any) -> Any:
    """Deep copy of a metrics document with every "timing" key removed.

    Timing is wall-clock and never reproducible, so determinism comparisons
    operate on this view.
    """
    if isinstance(metrics, dict):
        return {k: metrics_without_timing(v) for k, v in metrics.items() if k != "timing"}
    if isinstance(metrics, list):
        return [metrics_without_timing(v) for v in metrics]
    return metrics


def run_timing_benchmark(steps: int = 10_000, *, seed: int = 42) -> dict[str, Any]:
    """Interleaved per-step timing of both filters over ``steps`` steps.

    Runs one trial through :func:`run_experiment`, whose time loop times one
    extended-H2 step and one EKF step on the same sample in turn, so
    scheduler and thermal drift hit both filters equally; their timing
    ratio is read under the run's ``plans``, as :func:`_aggregate` keys it,
    and ``plans`` is returned beside them.
    The scenario is a smooth 20 deg three-axis sinusoid that supplies
    exactly the requested number of steps.  Raises ConfigError for fewer than 200 steps, and
    Eh2MargError carrying the recorded error if the trial fails.
    """
    if steps < 200:
        raise ConfigError(f"steps must be >= 200 for stable statistics, got {steps}")
    cfg = ScenarioConfig(
        case_id="custom",
        duration=steps / 100.0,
        imu_rate=100.0,
        angular_speed=0.5,
        amplitude_deg=20.0,
        seed=seed,
        num_trials=1,
    )
    result = run_experiment(cfg, exclude_initial=0.0)
    trial = result["trials"][0]
    if not trial["ok"]:
        raise Eh2MargError(f"benchmark trial failed: {trial['error']}")
    timing = result["aggregate"]["timing"]
    return {
        "steps": int(steps),
        "plans": result["plans"],
        **trial["timing"],
        **{ratio: timing[ratio] for *_, ratio in _pairs(result["plans"])},
    }
