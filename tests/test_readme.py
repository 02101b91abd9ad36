"""The README's library example runs, and reproduces ``run``'s first trial."""

import re
from pathlib import Path

import numpy as np

from eh2marg.harness import ScenarioConfig, run_experiment

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_reproduces_trial_0(tmp_path):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace: dict = {}
    exec(block, namespace)
    run_experiment(ScenarioConfig.case_ii(num_trials=1), out_dir=tmp_path)
    last_row = (tmp_path / "trial_000.csv").read_text().splitlines()[-1]
    eh2_attitude = [float(v) for v in last_row.split(",")[4:7]]
    assert namespace["state"].xhat.as_vector()[:3].tolist() == eh2_attitude
