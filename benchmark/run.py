"""eh2marg benchmark: one command, three workloads, numpy backend.

    python3 benchmark/run.py --workload case_i --seed 1 --seconds 20 --trace 0

Workloads (one single-threaded process each, closed loop: every step waits
for the one before it):

* ``case_i``  - ``eh2marg run --case I --seed S``: 10 trials x 5,000 steps of
  slow single-axis motion, 10 CSVs and ``metrics.json``.
* ``case_ii`` - ``eh2marg run --case II --seed S``: 10 trials x 1,000 steps
  of simultaneous 60 deg three-axis motion.
* ``stream``  - 20,000 interleaved ``eh2_step``/``ekf_step`` calls on a
  20 deg three-axis sinusoid, each call timed; no files.

A run repeats its workload until ``--seconds`` have passed (at least twice
untraced) and checks that every repetition gives the same outputs.
``setup_s`` is the median of several fresh processes that import ``eh2marg``
and set the workload up.  With ``--trace 1`` the run times one repetition
untraced, then repeats it with spans recorded around every layer boundary in
``spans.TARGETS`` and reports the per-layer metrics instead.

The shared host's own speed moved raw wall times by up to a half between
runs, so both gated times are rescaled to a host that runs the fixed
reference computation of ``refclock`` in ``refclock.NOMINAL_MS``: untraced
repetitions run under a ``refclock.RefClock``, which measures the reference
every quarter second (``steps_per_s_normalized``), and each set-up process
measures it right after its set-up (``setup_s``).  The raw ``steps_per_s``
and set-up seconds are printed in the ``details`` line.

Step latency percentiles are per-layer metrics, not gated ones: on a shared
2-vCPU host the step time shifted by about 1.4x for tens of seconds at a
time, so the median step time jumped between two levels from run to run.
The ``stream`` throughput, which is gated, includes every step call.

Every metric is printed as ``name = value unit``, then an ``environment``
line, then the result as one JSON object on the last line.  The exit code
is 1 when an output check fails and 2 when the program cannot be found.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Single-threaded numpy backend for this process and every one it starts.
BENCH_ENV = {"EH2MARG_NUMBA": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKLOADS = ("case_i", "case_ii", "stream")
SETUP_SAMPLES = 5
REF_SAMPLES = 5

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "steps_per_s_normalized": "1/s",
    "eh2_rms_deg": "deg",
    "ekf_rms_deg": "deg",
    "peak_rss_mb": "MB",
}

_STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "us_p50": "us", "wrapper_us_p50": "us"}

#: Per-layer metrics read from the spans: name -> (span, statistic, unit).
SPAN_METRICS = {
    f"{span}.{stat}": (span, stat, _STAT_UNITS[stat])
    for span, stats in (
        ("kernels.eh2_step_kernel", ("calls", "self_s", "us_p50")),
        ("kernels.ekf_step_kernel", ("calls", "self_s", "us_p50")),
        ("filters.eh2_step", ("us_p50", "wrapper_us_p50")),
        ("filters.ekf_step", ("us_p50", "wrapper_us_p50")),
        ("filters.initialize_from_first_sample", ("s",)),
        ("dynamics.EulerState.from_vector", ("us_p50",)),
        ("harness._write_trial_csv", ("calls", "s")),
        ("harness.compute_metrics", ("calls", "s")),
        ("harness.generate_trajectory", ("s",)),
        ("harness.run_experiment", ("self_s",)),
        ("sensors.simulate_imu_stream", ("calls", "s")),
        ("sensors.ImuStream.sample", ("us_p50",)),
        ("kinematics.dcm_batch", ("s",)),
        ("linearization.nominal_model", ("s",)),
        ("synthesis.synthesize_gain", ("s",)),
        ("synthesis.verify_lmi", ("s",)),
        ("synthesis.solve_care", ("s",)),
        ("synthesis.solve_lyapunov", ("calls",)),
        ("cli.main", ("self_s",)),
    )
    for stat in stats
}

#: Every per-layer metric: name -> unit.
PER_LAYER = {
    **{name: unit for name, (_, _, unit) in SPAN_METRICS.items()},
    "harness._write_trial_csv.rows": "count",
    "harness._write_trial_csv.bytes": "B",
    "sensors.simulate_imu_stream.computed_bytes": "B",
    "eh2_step_us_p50": "us",
    "eh2_step_us_p99": "us",
    "ekf_step_us_p50": "us",
    "ekf_step_us_p99": "us",
    "eh2_over_ekf_p50": "ratio",
    "tracing.steps_per_s_untraced": "1/s",
    "tracing.steps_per_s_traced": "1/s",
    "tracing.steps_per_s_delta": "1/s",
    "tracing.targets_missing": "count",
    "env.timer_ns_p50": "ns",
    "env.ref_loop_ms": "ms",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def timer_overhead_ns(samples: int = 20_001) -> float:
    """Median cost of an empty ``perf_counter_ns`` interval."""
    d = []
    for _ in range(samples):
        a = perf_counter_ns()
        b = perf_counter_ns()
        d.append(b - a)
    return float(statistics.median(d))


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Seconds each of ``SETUP_SAMPLES`` fresh processes takes to import
    eh2marg and set the workload up, after one untimed warm-up process, and
    the median reference time (ms) that process measured right after."""
    code = (
        "import time; t0 = time.perf_counter(); import workloads; "
        f"workloads.set_up({workload!r}, {seed}); t = time.perf_counter() - t0; "
        "import refclock, statistics; "
        f"print(t, statistics.median(refclock.reference() for _ in range({REF_SAMPLES})))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        seconds, ref_ms = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(seconds), float(ref_ms)))
    return out[1:]


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args: argparse.Namespace, out_dir: Path) -> tuple[dict, dict, dict, bool]:
    """Run the workload; returns (metrics, sample sizes, details, correct)."""
    import numpy as np

    import refclock
    import workloads as wl
    from spans import Tracer

    seed, name = args.seed, args.workload
    clocked = not args.trace

    def one_rep():
        if name == "stream":
            return wl.stream_rep(seed, clocked=clocked)
        return wl.case_rep(name, seed, out_dir, clocked=clocked)

    refs = [refclock.reference() for _ in range(REF_SAMPLES)]
    t_start = perf_counter()
    first = one_rep()
    problems = list(first.problems)
    if name != "stream" and not first.problems:
        found, first.stream_bytes = wl.check_case_outputs(name, seed, out_dir)
        problems += found
    reps, traced = [first], []
    tracer = Tracer()
    if args.trace:
        with tracer:
            while not traced or perf_counter() - t_start < args.seconds:
                traced.append(one_rep())
    else:
        while len(reps) < 2 or perf_counter() - t_start < args.seconds:
            reps.append(one_rep())
    refs += [refclock.reference() for _ in range(REF_SAMPLES)]
    every = reps + traced
    for rep in every[1:]:
        problems += rep.problems
        if rep.digest != first.digest and not rep.problems:
            rep.fail("output differs from the first repetition at the same seed")
            problems += rep.problems
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    correct = not problems and failed == 0
    details = {
        "repetitions": len(every),
        "traced_repetitions": len(traced),
        "attempted": attempted,
        "failed": failed,
        "failed_trial_share": failed / attempted,
        "problems": problems,
        "ref_ms_p50": statistics.median(refs + [r for rep in reps for r in rep.ref_ms]),
    }
    counts: dict[str, str] = {}
    if args.trace:
        stats = tracer.layer_stats(len(traced))
        details["wrap_targets"] = {k: "found" if v else "missing" for k, v in tracer.found.items()}
        metrics = {m: stats.get(span, {}).get(stat, 0.0) for m, (span, stat, _) in SPAN_METRICS.items()}
        csv = stats.get("harness._write_trial_csv", {}).get("calls", 0)
        metrics["harness._write_trial_csv.rows"] = traced[0].csv_rows if csv else 0
        metrics["harness._write_trial_csv.bytes"] = traced[0].csv_bytes if csv else 0
        sims = stats.get("sensors.simulate_imu_stream", {}).get("calls", 0)
        metrics["sensors.simulate_imu_stream.computed_bytes"] = sims * first.stream_bytes
        # Step latency from the untraced repetition.  The case workloads see
        # a step only through the per-trial mean step time in metrics.json.
        samples = "calls" if name == "stream" else "trial means"
        for f, us in (("eh2", first.eh2_us), ("ekf", first.ekf_us)):
            for q in (50, 99):
                metrics[f"{f}_step_us_p{q}"] = float(np.percentile(us, q)) if us.size else 0.0
                counts[f"{f}_step_us_p{q}"] = f"{len(us)} {samples}"
        ekf_p50 = metrics["ekf_step_us_p50"]
        metrics["eh2_over_ekf_p50"] = metrics["eh2_step_us_p50"] / ekf_p50 if ekf_p50 else 0.0
        untraced = first.steps_per_s
        traced_rate = statistics.median(r.steps_per_s for r in traced)
        metrics["tracing.steps_per_s_untraced"] = untraced
        metrics["tracing.steps_per_s_traced"] = traced_rate
        metrics["tracing.steps_per_s_delta"] = traced_rate - untraced
        metrics["tracing.targets_missing"] = sum(not v for v in tracer.found.values())
        metrics["env.timer_ns_p50"] = timer_overhead_ns()
        metrics["env.ref_loop_ms"] = statistics.median(refs)
        return metrics, counts, details, correct
    raw_setup = measure_setup(name, seed)
    setup = [s * refclock.NOMINAL_MS / ref for s, ref in raw_setup]
    details["setup_s_samples"] = setup
    details["setup_s_raw_samples"] = [s for s, _ in raw_setup]
    steps = sum(r.steps for r in reps)
    details["steps_per_s"] = steps / sum(r.wall_s for r in reps)
    metrics = {
        "setup_s": statistics.median(setup),
        "steps_per_s_normalized": steps / sum(r.normalized_s for r in reps),
        "eh2_rms_deg": statistics.median(r.eh2_rms_deg for r in reps),
        "ekf_rms_deg": statistics.median(r.ekf_rms_deg for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts["setup_s"] = f"{len(setup)} processes"
    for m in ("steps_per_s_normalized", "eh2_rms_deg", "ekf_rms_deg"):
        counts[m] = f"{len(reps)} repetitions"
    return metrics, counts, details, correct


def environment(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    import eh2marg

    return {
        "backend": eh2marg.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timer_ns_p50": timer_overhead_ns(),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "eh2marg" / "__init__.py").is_file():
        print(f"benchmark: no eh2marg sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BENCH_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import eh2marg

    if Path(eh2marg.__file__).resolve().parent != SRC / "eh2marg":
        print(f"benchmark: imported eh2marg from {eh2marg.__file__}", file=sys.stderr)
        return 2
    env = environment(args)
    if env["backend"] != "numpy":
        print(f"benchmark: backend is {env['backend']}, not numpy", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        metrics, counts, details, correct = run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        n = f"  (n = {counts[name]})" if name in counts else ""
        print(f"{name} = {value:.6g} {units[name]}{n}")
    print(f"failed_trial_share = {details['failed_trial_share']:.6g} ratio")
    for problem in details["problems"]:
        print(f"check failed: {problem}")
    print("details " + json.dumps(details, sort_keys=True))
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
