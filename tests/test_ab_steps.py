"""Runs ``tools/ab_steps.py``, the interleaved A/B timer of every layer of a
run with each side's run-level memory peak, end to end on one source tree
against itself."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import eh2marg

ROOT = Path(__file__).resolve().parents[1]
LAYERS = {
    "eh2_step", "ekf_step", "stream.sample", "stream loop", "eh2 N=1", "ekf N=1",
    "eh2 N=10", "ekf N=10", "eh2 N=10 k,k+1", "ekf N=10 k,k+1", "jac N=1", "jac N=10", "checks N=10", "synthesize",
    "trajectory", "sensor stream", "metrics", "csv",
}


def test_ab_steps_times_every_layer_of_a_tree_against_itself():
    src = str(Path(eh2marg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_steps.py"), src, src, "--rounds", "1"],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    layers = result["layers"]
    assert set(layers) == LAYERS
    for name, figures in layers.items():
        ratio = figures["ratio_b_over_a"]
        assert math.isfinite(ratio) and ratio > 0.0, (name, ratio)
        wins = figures["b_wins"]
        assert type(wins) is int and 0 <= wins <= result["rounds"], (name, wins)
    # One case I run holds its batch buffer of 3.6 MB at the least.
    peaks = result["run_peak_mb"]
    assert set(peaks) == {"a", "b"}
    for side, peak in peaks.items():
        assert 3.6 < peak < 50.0, (side, peak)
