"""Interleaved A/B timer for the filter steps of two source trees.

    python3 tools/ab_steps.py A_SRC B_SRC [--rounds 30]

``A_SRC`` and ``B_SRC`` are directories that each hold an ``eh2marg``
package, such as the ``src`` of two checkouts.  Both are imported into one
process, under the names ``eh2marg_a`` and ``eh2marg_b``, and each round
times every layer on both sides, A first in even rounds and B first in odd
ones, so both see the same host speed.  Every layer is timed over
``CALLS`` (200) calls per round.  The layers:

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

A tree without filter plans runs the N=1 and N=10 layers through step
functions of the same form, around its ``filters.eh2(..., gain, world,
dt)`` and ``filters.ekf``, so both sides pay the same call.  Every layer
steps with an equal copy of the world the side was set up with, as every
repetition of a benchmark workload after its first does; on a tree
without plans, that copy finds the gain table its ``filters.eh2`` cached
for the first world.

The inputs are the ``stream`` workload's: a 20 deg three-axis sinusoid at
0.5 rad/s and 100 Hz, its sensor stream for seed ``SEED`` (11), and the
synthesized gain, built by each side's own package.  Printed per layer: each side's min
and median µs per call over the rounds and the median of the per-round
ratios B/A; then the same figures as one JSON object on the last line.
Run it on an otherwise idle host, one process, with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``).
"""

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

N_STACK = 10
CALLS = 200
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


def layers(pkg) -> dict:
    """One side's timed layers: name -> function that makes ``CALLS`` calls."""
    filters = pkg.filters
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
    gain = pkg.synthesize_gain(pkg.nominal_model(q, world)).L
    x0 = pkg.initialize_from_first_sample(stream.sample(0), world)
    samples = [stream.sample(k) for k in range(CALLS)]
    step_world = pkg.WorldConstants(world.g_inertial.copy(), world.h_inertial.copy())
    if hasattr(filters, "_paper_plans"):
        eh2_plan, ekf_plan = (p.step for p in filters._paper_plans(gain, q, step_world, dt))
    else:  # filters.eh2 takes the world: fill its gain-table cache with the first one
        filters.eh2(x0.as_vector(), samples[0].omega_m, samples[0].stacked_measurement(),
                    gain, world, dt)

        def eh2_plan(x, om, y):
            return (filters.eh2(x, om, y, gain, step_world, dt),)

        def ekf_plan(x, P, om, y):
            return filters.ekf(x, P, om, y, q, step_world, dt)

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

    def kernel(run, *args):
        def timed():
            for _ in range(CALLS):
                run(*args)
        return timed

    return {
        "eh2_step": eh2_step,
        "ekf_step": ekf_step,
        "stream.sample": sample,
        "stream loop": stream_loop,
        "eh2 N=1": kernel(eh2_plan, x, omega, y),
        "ekf N=1": kernel(ekf_plan, x, P, omega, y),
        f"eh2 N={N_STACK}": kernel(eh2_plan, xs, omegas, ys),
        f"ekf N={N_STACK}": kernel(ekf_plan, xs, Ps, omegas, ys),
        "jac N=1": kernel(jac, x[:3], omega - x[3:], q),
        f"jac N={N_STACK}": kernel(jac, xs[:3], omegas - xs[3:], q),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src", type=Path)
    parser.add_argument("b_src", type=Path)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    sides = {
        side: layers(load(src, f"eh2marg_{side}"))
        for side, src in (("a", args.a_src), ("b", args.b_src))
    }
    us = {name: {"a": [], "b": []} for name in sides["a"]}
    for name, run in sides["a"].items():  # warm caches and lazy set-up on both sides
        run()
        sides["b"][name]()
    for r in range(args.rounds):
        for name in us:
            for side in ("ab" if r % 2 == 0 else "ba"):
                t0 = perf_counter_ns()
                sides[side][name]()
                us[name][side].append((perf_counter_ns() - t0) * 1e-3 / CALLS)
    result = {}
    for name, t in us.items():
        ratio = statistics.median(b / a for a, b in zip(t["a"], t["b"]))
        result[name] = {
            "a_min": min(t["a"]), "a_median": statistics.median(t["a"]),
            "b_min": min(t["b"]), "b_median": statistics.median(t["b"]),
            "ratio_b_over_a": ratio,
        }
        print(
            f"{name:14s} A {min(t['a']):8.2f} / {statistics.median(t['a']):8.2f} us   "
            f"B {min(t['b']):8.2f} / {statistics.median(t['b']):8.2f} us   B/A {ratio:.3f}"
        )
    print(json.dumps({"rounds": args.rounds, "calls": CALLS, "seed": SEED, "layers": result}))


if __name__ == "__main__":
    main()
