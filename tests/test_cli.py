"""End-to-end tests of the command-line interface and its exit codes."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from eh2marg import harness
from eh2marg.cli import main
from eh2marg.synthesis import load_gain_text, save_gain_text

CSV_HEADER = (
    "t,phi_true,theta_true,psi_true,phi_eh2,theta_eh2,psi_eh2,"
    "phi_ekf,theta_ekf,psi_ekf"
)


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestSynthesize:
    def test_writes_gain_file(self, tmp_path, capsys, cert):
        rc = main(["synthesize", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LMI feasible     : True" in out
        reloaded = load_gain_text(tmp_path / "gain_L0.txt")
        assert np.array_equal(reloaded, cert.L)

    def test_stdout_only(self, capsys):
        rc = main(["synthesize"])
        assert rc == 0
        assert "L0 =" in capsys.readouterr().out

    def test_config_noise_used(self, tmp_path, capsys, cert):
        cfg = _write_config(
            tmp_path, {"case_id": "I", "noise": {"n_a": 0.04}}
        )
        rc = main(["synthesize", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        reloaded = load_gain_text(tmp_path / "gain_L0.txt")
        assert not np.array_equal(reloaded, cert.L)

    def test_degenerate_noise_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"case_id": "I", "noise": {"n_a": 0.0, "n_m": 0.0}})
        rc = main(["synthesize", "--config", str(cfg)])
        assert rc == 2
        assert "synthesis failure" in capsys.readouterr().err


class TestRun:
    def test_case_ii_single_trial(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--case", "II", "--trials", "1", "--out", str(out)])
        assert rc == 0
        assert "ok 1/1" in capsys.readouterr().out
        csv = out / "trial_000.csv"
        assert csv.read_text().splitlines()[0] == CSV_HEADER
        with open(out / "metrics.json") as fh:
            doc = json.load(fh)
        assert doc["config"]["case_id"] == "II"
        assert doc["aggregate"]["num_ok"] == 1

    def test_seed_and_trials_overrides(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["run", "--case", "II", "--trials", "2", "--seed", "9", "--out", str(out)]
        )
        assert rc == 0
        with open(out / "metrics.json") as fh:
            doc = json.load(fh)
        assert doc["config"]["seed"] == 9
        assert doc["config"]["num_trials"] == 2

    def test_config_file(self, tmp_path):
        cfg = _write_config(
            tmp_path, {"case_id": "II", "num_trials": 1, "duration": 4.0}
        )
        out = tmp_path / "out"
        rc = main(
            [
                "run",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--exclude-initial",
                "1.0",
            ]
        )
        assert rc == 0
        with open(out / "metrics.json") as fh:
            doc = json.load(fh)
        assert doc["config"]["duration"] == 4.0
        assert doc["exclude_initial"] == 1.0

    def test_precomputed_gain(self, tmp_path):
        assert main(["synthesize", "--out", str(tmp_path)]) == 0
        out = tmp_path / "out"
        rc = main(
            [
                "run",
                "--case",
                "II",
                "--trials",
                "1",
                "--gain",
                str(tmp_path / "gain_L0.txt"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0

    def test_missing_scenario_exits_1(self, capsys):
        rc = main(["run"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"case_id": "I", "bogus": 1})
        rc = main(["run", "--config", str(cfg)])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_invalid_json_exits_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 1

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_bad_case_choice_exits_1(self):
        assert main(["run", "--case", "III"]) == 1

    def test_negative_exclusion_exits_1(self):
        assert main(["run", "--case", "II", "--exclude-initial", "-1"]) == 1

    @pytest.mark.parametrize("exclude", ["nan", "inf", "-1", "11"])
    def test_bad_exclusion_exits_1_before_any_trial(self, exclude, tmp_path, capsys):
        # Case II lasts 10 s, so an 11 s window would leave no sample.
        out = tmp_path / "out"
        rc = main(["run", "--case", "II", "--exclude-initial", exclude, "--out", str(out)])
        assert rc == 1
        assert "exclude_initial" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    def test_destabilizing_gain_exits_3(self, tmp_path, capsys):
        gain_path = tmp_path / "bad_gain.txt"
        save_gain_text(np.full((6, 6), 1e6), gain_path)
        out = tmp_path / "out"
        rc = main(
            [
                "run",
                "--case",
                "II",
                "--trials",
                "2",
                "--gain",
                str(gain_path),
                "--out",
                str(out),
            ]
        )
        assert rc == 3
        captured = capsys.readouterr()
        assert "all trials failed" in captured.err
        assert "FAILED" in captured.out

    def test_missing_gain_file_exits_1(self, tmp_path):
        rc = main(
            ["run", "--case", "II", "--gain", str(tmp_path / "absent.txt")]
        )
        assert rc == 1


class TestReport:
    def test_prints_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--case", "II", "--trials", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["report", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "scenario case II" in text
        for axis in ("roll", "pitch", "yaw"):
            assert axis in text
        assert "eh2 yaw wins: 1/1" in text
        assert "ms per trial-step" in text
        assert "ratio per trial-step" in text
        assert "(trials stacked; criterion 7 uses eh2marg bench)" in text
        for name in ("eh2", "ekf"):
            line = next(ln for ln in text.splitlines() if ln.startswith(f"  {name}: "))
            assert "mean " in line and "p50 " in line and "p95 " in line

    def test_prints_gain_line(self, tmp_path, capsys, cert):
        out = tmp_path / "out"
        assert main(["run", "--case", "II", "--trials", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("gain: "))
        assert line.startswith('gain: source "synthesized", sha256 "')
        assert f"h2_norm {cert.h2_norm!r}" in line
        assert line.endswith("lmi_feasible true")

        save_gain_text(cert.L, tmp_path / "gain.txt")
        argv = ["run", "--case", "II", "--trials", "1", "--gain", str(tmp_path / "gain.txt")]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("gain: "))
        assert line.startswith('gain: source "file", sha256 "')
        assert "h2_norm null" in line and line.endswith("lmi_feasible null")

    def test_old_metrics_without_percentiles(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--case", "II", "--trials", "1", "--out", str(out)]) == 0
        doc = json.loads((out / "metrics.json").read_text())
        timing = doc["aggregate"]["timing"]
        for key in ("eh2_p50_ms", "eh2_p95_ms", "ekf_p50_ms", "ekf_p95_ms"):
            del timing[key]
        (out / "metrics.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert f"  eh2: mean {timing['eh2_mean_ms']:.6f}\n" in text
        assert "p50" not in text

    def test_missing_metrics_exits_1(self, tmp_path, capsys):
        rc = main(["report", "--out", str(tmp_path)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_corrupt_metrics_exits_1(self, tmp_path):
        (tmp_path / "metrics.json").write_text("{{{")
        assert main(["report", "--out", str(tmp_path)]) == 1


class TestBench:
    def test_small_run_writes_json(self, tmp_path, capsys):
        rc = main(["bench", "--steps", "300", "--out", str(tmp_path)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "ratio eh2/ekf:" in text
        with open(tmp_path / "bench.json") as fh:
            doc = json.load(fh)
        assert doc["steps"] == 300
        assert doc["eh2"]["mean_ms"] > 0.0
        for name in ("eh2", "ekf"):
            s = doc[name]
            assert 0.0 < s["p50_ms"] <= s["p95_ms"]
            assert f"p50 {s['p50_ms']:.6f}, p95 {s['p95_ms']:.6f})" in text

    def test_too_few_steps_exits_1(self):
        assert main(["bench", "--steps", "100"]) == 1

    def test_failed_trial_exits_1(self, monkeypatch, capsys):
        cert = SimpleNamespace(
            L=np.full((6, 6), 1e3),
            h2_norm=1.0,
            gamma=1.0,
            max_closedloop_real_eig=-1.0,
            lmi_feasible=False,
        )
        monkeypatch.setattr(harness, "synthesize_gain", lambda model: cert)
        assert main(["bench", "--steps", "300"]) == 1
        assert "benchmark trial failed" in capsys.readouterr().err

    def test_initialization_failure_exits_1(self, monkeypatch, capsys):
        def fail(sample, world):
            raise ValueError("unusable first sample")

        monkeypatch.setattr(harness, "initialize_from_first_sample", fail)
        assert main(["bench", "--steps", "300"]) == 1
        assert "ValueError: unusable first sample" in capsys.readouterr().err


class TestParser:
    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1
