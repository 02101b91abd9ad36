"""Backend tests: numpy is the only backend, and a full case runs on it."""

import os
import subprocess
import sys
import textwrap

import eh2marg
from eh2marg.harness import BACKEND, ScenarioConfig, run_experiment


class TestBackendName:
    def test_backend_name_consistent(self):
        assert BACKEND == "numpy"
        assert eh2marg.BACKEND == BACKEND


class TestBackendRun:
    def test_numpy_runs_full_case(self):
        res = run_experiment(ScenarioConfig.case_ii(num_trials=1))
        assert res["backend"] == "numpy"
        assert res["aggregate"]["num_ok"] == 1


def test_program_loads_no_scipy():
    # A fresh interpreter, so modules the tests import do not count.
    script = textwrap.dedent(
        """
        import sys
        from eh2marg import nominal_model, synthesize_gain
        from eh2marg.harness import ScenarioConfig, run_experiment

        assert synthesize_gain(nominal_model()).lmi_feasible
        cfg = ScenarioConfig.case_ii(num_trials=1, duration=1.0)
        assert run_experiment(cfg, exclude_initial=0.0)["aggregate"]["num_ok"] == 1
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """
    )
    src = os.path.dirname(os.path.dirname(eh2marg.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
