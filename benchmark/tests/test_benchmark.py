"""Schema, name grammar and shrunk smoke runs of the benchmark.

Run with ``python3 -m pytest benchmark/tests``.
"""

import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eh2marg
import refclock
import run
import spans
import workloads as wl

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "benchmark/run.py"]
    assert spec["paths"] == ["benchmark"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.END_TO_END
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("higher", "lower")


def test_metric_and_unit_grammar(spec):
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_end_to_end_run_prints_result_schema():
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "case_ii", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    res = _result(proc.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] == 20
    assert set(res["metrics"]) == set(run.END_TO_END)
    for name, m in res["metrics"].items():
        assert m == {"value": m["value"], "unit": run.END_TO_END[name]}
        assert np.isfinite(m["value"]) and m["value"] > 0, name
    for name in run.END_TO_END:
        assert re.search(rf"^{name} = \S+ {re.escape(run.END_TO_END[name])}\b", proc.stdout, re.M)
    env = json.loads(re.search(r"^environment (.*)$", proc.stdout, re.M).group(1))
    assert env["backend"] == "numpy" and env["seed"] == 5 and env["timer_ns_p50"] > 0
    assert not (ROOT / ".bench_out").exists()


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "case_ii", "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    res = _result(proc.stdout)
    assert res["correct"] is True
    assert {k: m["unit"] for k, m in res["metrics"].items()} == run.PER_LAYER
    values = {k: m["value"] for k, m in res["metrics"].items()}
    assert values["tracing.targets_missing"] == 0
    assert values["kernels.eh2_step_kernel.calls"] >= 10 * 1000
    assert values["harness._write_trial_csv.rows"] == 10 * 1001
    assert 0 < values["eh2_over_ekf_p50"] < 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["case_i", "case_ii"])
def test_case_smoke_run_passes_output_checks(workload, tmp_path):
    reps = [wl.case_rep(workload, 7, tmp_path / str(k), trials=1) for k in range(2)]
    assert [r.problems for r in reps] == [[], []]
    assert reps[0].digest == reps[1].digest and reps[0].failed == 0
    problems, nbytes = wl.check_case_outputs(workload, 7, tmp_path / "0", trials=1)
    assert problems == [] and nbytes > 0
    cfg = wl.scenario(workload, 7, trials=1)
    assert reps[0].csv_rows == wl.n_steps(cfg) + 1


def test_case_output_check_catches_a_changed_estimate(tmp_path):
    rep = wl.case_rep("case_ii", 7, tmp_path, trials=1)
    path = tmp_path / "trial_000.csv"
    lines = path.read_text().splitlines()
    cells = lines[20].split(",")
    cells[4] = repr(float(cells[4]) + 1e-6)
    lines[20] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems, _ = wl.check_case_outputs("case_ii", 7, tmp_path, trials=1)
    assert any("eh2_step/ekf_step" in p for p in problems), problems
    assert rep.problems == []


def test_stream_smoke_run_is_deterministic():
    a = wl.stream_rep(3, steps=600)
    b = wl.stream_rep(3, steps=600)
    assert a.problems == [] and a.failed == 0
    assert a.digest == b.digest
    assert a.eh2_us.shape == (600,) and np.all(a.ekf_us > 0)
    assert 0 < a.eh2_rms_deg < wl.MAX_RMS_DEG


def test_stream_counts_an_exception_as_failed(monkeypatch):
    def broken(*args):
        raise eh2marg.GimbalLockError("injected")

    monkeypatch.setattr(eh2marg, "ekf_step", broken)
    rep = wl.stream_rep(3, steps=300)
    assert rep.failed == rep.attempted == 1
    assert "injected" in rep.problems[0]


def test_stream_counts_a_non_finite_estimate_as_failed(monkeypatch):
    real = eh2marg.eh2_step
    calls = []

    def drifting(s, *args):
        out = real(s, *args)
        calls.append(1)
        if len(calls) == 300:
            object.__setattr__(out.xhat.attitude, "psi", float("nan"))
        return out

    monkeypatch.setattr(eh2marg, "eh2_step", drifting)
    rep = wl.stream_rep(3, steps=300)
    assert rep.failed == 1 and rep.problems == ["non-finite estimate"]


def test_tracer_counts_spans_and_restores_originals(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("eh2marg.harness", "gone"),))
    original = eh2marg.eh2_step
    with spans.Tracer() as tracer:
        assert eh2marg.eh2_step is not original
        wl.stream_rep(3, steps=300)
    assert eh2marg.eh2_step is original
    assert tracer.found["harness.gone"] is False
    assert all(v for k, v in tracer.found.items() if k != "harness.gone")
    stats = tracer.layer_stats(reps=1)
    assert stats["kernels.eh2_step_kernel"]["calls"] == 300
    assert stats["filters.eh2_step"]["calls"] == 300
    eh2 = stats["filters.eh2_step"]
    assert 0 < eh2["wrapper_us_p50"] < eh2["us_p50"]
    assert eh2["self_s"] < eh2["s"]


def test_refclock_scales_each_interval_by_its_reference_time():
    clock = refclock.RefClock()
    nominal = refclock.NOMINAL_MS
    clock.work_s = [1.0, 2.0]
    clock.ref_ms = [2 * nominal] * 3
    assert clock.normalized_s == pytest.approx(1.5)
    # One interrupted reference measurement is smoothed away.
    clock.work_s = [1.0] * 4
    clock.ref_ms = [nominal, nominal, 10 * nominal, nominal, nominal]
    assert clock.normalized_s == pytest.approx(4.0)
    assert clock.wall_s == 4.0


def test_clocked_rep_keeps_outputs_and_restores_the_timer():
    plain = wl.stream_rep(3, steps=600)
    clocked = wl.stream_rep(3, steps=600, clocked=True)
    assert clocked.problems == [] and clocked.digest == plain.digest
    assert len(clocked.ref_ms) >= 2 and 0 < clocked.normalized_s
    assert 0 < clocked.wall_s
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
