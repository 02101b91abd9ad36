"""Interleaved A/B timer for every layer of a run, for two source trees.

    python3 tools/ab_steps.py A_SRC B_SRC [--rounds 30]

``A_SRC`` and ``B_SRC`` are directories that each hold an ``eh2marg``
package, such as the ``src`` of two checkouts.  Both are imported into one
process, under the names ``eh2marg_a`` and ``eh2marg_b``, and each round
times every layer on both sides, A first in even rounds and B first in odd
ones, so both see the same host speed.  Every layer is timed over
``CALLS`` (200) calls per round, except the four layers of a run's
per-trial work, which take milliseconds a call.  The layers:

* ``eh2_step`` and ``ekf_step``: the public one-state steps, walking the
  first ``CALLS`` samples of a stream from its initial state.
* ``stream.sample``: ``ImuStream.sample``, the sample container per step.
* ``stream loop``: ``sample(k)``, ``eh2_step`` and ``ekf_step`` for each of
  the first ``CALLS`` samples, the per-step work of the ``stream``
  benchmark workload (``benchmark/workloads.py::_public_filters``) without
  its clock reads and estimate copies.
* ``eh2 N=1``/``ekf N=1``: the steps of the side's filter plans
  (``filters._paper_plans``, built once) on the arrays of one state, as
  ``filters.eh2``/``filters.ekf`` run under the public steps.
* ``eh2 N=10``/``ekf N=10``: the same on a (6, 10) stack, as the Monte-Carlo
  harness calls them.
* ``jac N=1``/``jac N=10``: ``linearization.jacobians_process`` on the
  attitude and body rates of one state and of the stack, as ``filters.ekf``
  calls it.
* ``checks N=10``: the stack's checks, ``kinematics._check_gimbal`` and
  ``dynamics.checked_state``, on a copy of the (6, 10) stack (checked_state
  wraps it in place), as each stacked step runs them.
* ``synthesize``: ``synthesize_gain`` on the nominal model of the stream's
  noise and world (built once), the gain synthesis and LMI certificate
  that every run's set-up makes.
* ``trajectory``: ``generate_trajectory`` and ``Trajectory.body_rates`` for
  case I (5,001 samples), as each run starts; ``TRAJ_CALLS`` (20) calls.
* ``sensor stream``: ``simulate_imu_stream`` along that trajectory, one
  trial's stream; ``TRAJ_CALLS`` calls.
* ``metrics``: ``compute_metrics`` of one filter's estimates along that
  trajectory after case I's 5 s exclusion window; ``TRAJ_CALLS`` calls.
* ``csv``: ``harness._write_trial_csv`` of one trial's truth and one
  estimate per plan of the side's table (5,001 rows), under the plans'
  names, into a temporary directory; ``CSV_CALLS`` (2) calls.  The
  estimates are the truth plus fixed noise.

Together the layers cover a whole ``run``: gain synthesis, trajectory,
sensor stream, both filters' steps, metrics and CSV writing.

Beside the layers, ``run peak`` is each side's memory figure: the
tracemalloc peak (MB) of one case I ``run_experiment`` at seed ``SEED``
with an output directory, taken after one untraced warm-up run, so that
lazy set-up is not counted.  It is the run-level figure under the
benchmark's ``peak_rss_mb``, without the interpreter and libraries.

Every layer steps with an equal copy of the world the side was set up
with, as every repetition of a benchmark workload after its first does.

The inputs of the step and synthesis layers are the ``stream`` workload's:
a 20 deg three-axis sinusoid at 0.5 rad/s and 100 Hz, its sensor stream for
seed ``SEED`` (11), and the synthesized gain, built by each side's own
package.  The last four layers run on case I at seed ``SEED``.  Printed per
layer: each side's min and median µs per call over the rounds and the
median of the per-round ratios B/A, and each side's run peak; then the
same figures, with each layer's calls per round, as one JSON object on the
last line (the run peaks under ``run_peak_mb``).
Run it on an otherwise idle host, one process, with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``).
"""

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter_ns

import numpy as np

N_STACK = 10
CALLS = 200
TRAJ_CALLS = 20
CSV_CALLS = 2
SEED = 11


def load(src: Path, name: str):
    """The ``eh2marg`` package under ``src``, imported as ``name``."""
    pkg = src / "eh2marg"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def layers(pkg, tmp: Path) -> dict:
    """One side's timed layers: name -> (number of calls, function that
    makes them).  ``csv`` writes into the directory ``tmp``."""
    cfg = pkg.ScenarioConfig(
        case_id="custom", duration=(CALLS + 1) / 100.0, imu_rate=100.0,
        angular_speed=0.5, amplitude_deg=20.0, seed=SEED, num_trials=1,
    )
    traj = pkg.generate_trajectory(cfg)
    stream = pkg.simulate_imu_stream(
        traj.t, traj.angles, traj.body_rates(), cfg.world, cfg.noise,
        np.random.default_rng((SEED, 0)),
    )
    world, q, dt = cfg.world, cfg.noise, 1.0 / cfg.imu_rate
    model = pkg.nominal_model(q, world)
    gain = pkg.synthesize_gain(model).L
    x0 = pkg.initialize_from_first_sample(stream.sample(0), world)
    samples = [stream.sample(k) for k in range(CALLS)]
    step_world = pkg.WorldConstants(world.g_inertial.copy(), world.h_inertial.copy())
    plans = pkg.filters._paper_plans(gain, q, step_world, dt)
    eh2_plan, ekf_plan = (p.step for p in plans)

    def eh2_step():
        s = pkg.EH2FilterState(x0, gain)
        for smp in samples:
            s = pkg.eh2_step(s, smp, step_world, dt)

    def ekf_step():
        s = pkg.EKFState(x0)
        for smp in samples:
            s = pkg.ekf_step(s, smp, step_world, q, dt)

    def sample():
        for k in range(CALLS):
            stream.sample(k)

    def stream_loop():
        s1, s2 = pkg.EH2FilterState(x0, gain), pkg.EKFState(x0)
        for k in range(CALLS):
            smp = stream.sample(k)
            s1 = pkg.eh2_step(s1, smp, step_world, dt)
            s2 = pkg.ekf_step(s2, smp, step_world, q, dt)

    x, P = x0.as_vector(), pkg.DEFAULT_P0
    omega, y = samples[0].omega_m, samples[0].stacked_measurement()
    rng = np.random.default_rng(SEED)
    xs = np.ascontiguousarray(x[:, None] + rng.normal(scale=0.01, size=(6, N_STACK)))
    omegas = np.ascontiguousarray(omega[:, None] + rng.normal(scale=0.01, size=(3, N_STACK)))
    ys = np.ascontiguousarray(y[:, None] + rng.normal(scale=0.01, size=(6, N_STACK)))
    Ps = np.repeat(P[None], N_STACK, axis=0)
    jac = pkg.linearization.jacobians_process
    check_gimbal, checked_state = pkg.kinematics._check_gimbal, pkg.dynamics.checked_state

    def kernel(run, *args, calls=CALLS):
        def timed():
            for _ in range(calls):
                run(*args)
        return calls, timed

    def checks():
        for _ in range(CALLS):
            check_gimbal(xs)
            checked_state(xs.copy())

    case_i = pkg.ScenarioConfig.case_i(num_trials=1, seed=SEED)
    truth = pkg.generate_trajectory(case_i)
    truth_rates = truth.body_rates()
    truth_est = truth.angles + rng.normal(scale=1e-3, size=(len(plans), *truth.angles.shape))
    truth_cells = pkg.harness._truth_cells(truth.t, truth.angles)

    def trajectory():
        pkg.generate_trajectory(case_i).body_rates()

    def sensor_stream():
        pkg.simulate_imu_stream(
            truth.t, truth.angles, truth_rates, case_i.world, case_i.noise,
            np.random.default_rng((SEED, 0)),
        )

    return {
        "eh2_step": (CALLS, eh2_step),
        "ekf_step": (CALLS, ekf_step),
        "stream.sample": (CALLS, sample),
        "stream loop": (CALLS, stream_loop),
        "eh2 N=1": kernel(eh2_plan, x, omega, y),
        "ekf N=1": kernel(ekf_plan, x, P, omega, y),
        f"eh2 N={N_STACK}": kernel(eh2_plan, xs, omegas, ys),
        f"ekf N={N_STACK}": kernel(ekf_plan, xs, Ps, omegas, ys),
        "jac N=1": kernel(jac, x[:3], omega - x[3:], q),
        f"jac N={N_STACK}": kernel(jac, xs[:3], omegas - xs[3:], q),
        f"checks N={N_STACK}": (CALLS, checks),
        "synthesize": kernel(pkg.synthesize_gain, model),
        "trajectory": kernel(trajectory, calls=TRAJ_CALLS),
        "sensor stream": kernel(sensor_stream, calls=TRAJ_CALLS),
        "metrics": kernel(pkg.compute_metrics, truth, truth_est[0], 5.0, calls=TRAJ_CALLS),
        "csv": kernel(
            pkg.harness._write_trial_csv, tmp / "trial_000.csv", truth_cells, truth_est,
            [p.name for p in plans], calls=CSV_CALLS,
        ),
    }


def run_peak_mb(pkg, out_dir: Path) -> float:
    """Tracemalloc peak (MB) of one case I run writing into ``out_dir``,
    after one warm-up run."""
    cfg = pkg.ScenarioConfig.case_i(seed=SEED)
    pkg.run_experiment(cfg, out_dir=out_dir)
    tracemalloc.start()
    try:
        pkg.run_experiment(cfg, out_dir=out_dir)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src", type=Path)
    parser.add_argument("b_src", type=Path)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        pkgs = {"a": load(args.a_src, "eh2marg_a"), "b": load(args.b_src, "eh2marg_b")}
        sides = {side: layers(pkg, Path(tempfile.mkdtemp(dir=tmp))) for side, pkg in pkgs.items()}
        peaks = {
            side: run_peak_mb(pkg, Path(tempfile.mkdtemp(dir=tmp))) for side, pkg in pkgs.items()
        }
        us = {name: {"a": [], "b": []} for name in sides["a"]}
        for name, (_, run) in sides["a"].items():  # warm caches and lazy set-up on both sides
            run()
            sides["b"][name][1]()
        for r in range(args.rounds):
            for name in us:
                for side in ("ab" if r % 2 == 0 else "ba"):
                    calls, run = sides[side][name]
                    t0 = perf_counter_ns()
                    run()
                    us[name][side].append((perf_counter_ns() - t0) * 1e-3 / calls)
    result = {}
    for name, t in us.items():
        ratio = statistics.median(b / a for a, b in zip(t["a"], t["b"]))
        result[name] = {
            "calls": sides["a"][name][0],
            "a_min": min(t["a"]), "a_median": statistics.median(t["a"]),
            "b_min": min(t["b"]), "b_median": statistics.median(t["b"]),
            "ratio_b_over_a": ratio,
        }
        print(
            f"{name:14s} A {min(t['a']):8.2f} / {statistics.median(t['a']):8.2f} us   "
            f"B {min(t['b']):8.2f} / {statistics.median(t['b']):8.2f} us   B/A {ratio:.3f}"
        )
    print(f"{'run peak':14s} A {peaks['a']:8.3f} MB   B {peaks['b']:8.3f} MB")
    print(json.dumps(
        {"rounds": args.rounds, "seed": SEED, "layers": result, "run_peak_mb": peaks}
    ))


if __name__ == "__main__":
    main()
