"""Backend tests: numpy is the only backend, and a full case runs on it."""

import eh2marg
from eh2marg.harness import BACKEND, ScenarioConfig, run_experiment


class TestEnvParsing:
    def test_backend_name_consistent(self):
        assert BACKEND == "numpy"
        assert eh2marg.BACKEND == BACKEND


class TestBackendParity:
    def test_fallback_runs_full_case(self):
        res = run_experiment(ScenarioConfig.case_ii(num_trials=1))
        assert res["backend"] == "numpy"
        assert res["aggregate"]["num_ok"] == 1
