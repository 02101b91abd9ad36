"""End-to-end tests of the command-line interface and its exit codes."""

import copy
import errno
import json
import os
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


@pytest.fixture(scope="module")
def metrics_doc():
    """The metrics.json document of a one-trial case II run."""
    return harness.run_experiment(harness.ScenarioConfig.case_ii(num_trials=1))


def _write_metrics(out, doc):
    out.mkdir(exist_ok=True)
    (out / "metrics.json").write_text(json.dumps(doc))


def _assert_config_error_only(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1  # one line, no traceback


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

    @pytest.mark.parametrize("flag", ["--seed", "--trials"])
    def test_run_only_flag_is_a_usage_error(self, flag, capsys):
        # The gain depends only on the noise and the world, never on these.
        assert main(["synthesize", flag, "3"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_degenerate_noise_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"case_id": "I", "noise": {"n_a": 0.0, "n_m": 0.0}})
        rc = main(["synthesize", "--config", str(cfg)])
        assert rc == 2
        assert "synthesis failure" in capsys.readouterr().err

    def test_gramian_failure_exits_2(self, tmp_path, capsys):
        noise = {"n_w": 5e-9, "n_b": 1e-10, "n_a": 200.0, "n_m": 5e-9}
        cfg = _write_config(tmp_path, {"case_id": "I", "noise": noise})
        rc = main(["synthesize", "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("synthesis failure: ")


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

    @pytest.mark.parametrize("command", ["run", "synthesize"])
    def test_non_utf8_config_exits_1(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"case_id": "I", "café": 1}'.encode("latin-1"))
        assert main([command, "--config", str(path)]) == 1
        _assert_config_error_only(capsys)

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

    def test_gain_header_larger_than_its_rows_exits_1(self, tmp_path, capsys):
        # The header asks for 6 x 1e11 values (4.4 TiB) above six short
        # rows: the rows are checked before anything that size is allocated.
        path = tmp_path / "gain.txt"
        path.write_text("6 100000000000\n" + "1.0 2.0\n" * 6)
        assert main(["run", "--case", "II", "--gain", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid gain file")
        assert "row 0 has 2 values, expected 100000000000" in err


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

    def test_old_metrics_without_percentiles(self, tmp_path, capsys, metrics_doc):
        doc = copy.deepcopy(metrics_doc)
        for key in ("eh2_p50_ms", "eh2_p95_ms", "ekf_p50_ms", "ekf_p95_ms"):
            del doc["aggregate"]["timing"][key]
        _write_metrics(tmp_path, doc)
        assert main(["report", "--out", str(tmp_path)]) == 1
        _assert_config_error_only(capsys)

    @pytest.mark.parametrize(
        "content",
        [b"{}", b"[1, 2]", b'{"aggregate": {"num_ok": 1}}', b"\xff\xfe{}", b"[" * 100_000],
        ids=["empty-object", "list", "aggregate-only", "non-utf8", "nested-too-deep"],
    )
    def test_foreign_document_exits_1(self, content, tmp_path, capsys):
        (tmp_path / "metrics.json").write_bytes(content)
        assert main(["report", "--out", str(tmp_path)]) == 1
        _assert_config_error_only(capsys)

    @pytest.mark.parametrize("block", ["gain", "aggregate.eh2", "aggregate.timing"])
    def test_metrics_missing_block_exits_1(self, block, tmp_path, capsys, metrics_doc):
        doc = copy.deepcopy(metrics_doc)
        *parents, key = block.split(".")
        parent = doc
        for name in parents:
            parent = parent[name]
        del parent[key]
        _write_metrics(tmp_path, doc)
        assert main(["report", "--out", str(tmp_path)]) == 1
        _assert_config_error_only(capsys)

    def test_wrong_type_exits_1(self, tmp_path, capsys, metrics_doc):
        doc = copy.deepcopy(metrics_doc)
        doc["aggregate"]["eh2"]["rms_deg"] = "0.1 0.2 0.3"
        _write_metrics(tmp_path, doc)
        assert main(["report", "--out", str(tmp_path)]) == 1
        _assert_config_error_only(capsys)

    def test_all_failed_run_reports_no_trials(self, tmp_path, capsys):
        gain_path = tmp_path / "bad_gain.txt"
        save_gain_text(np.full((6, 6), 1e6), gain_path)
        out = tmp_path / "out"
        argv = ["run", "--case", "II", "--trials", "1", "--gain", str(gain_path)]
        assert main(argv + ["--out", str(out)]) == 3
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("trials 1 (ok 0, failed 1)  backend numpy")
        assert lines[1].startswith('gain: source "file"')
        assert lines[2:] == ["no successful trials to report"]

    def test_missing_metrics_exits_1(self, tmp_path, capsys):
        rc = main(["report", "--out", str(tmp_path)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_corrupt_metrics_exits_1(self, tmp_path):
        (tmp_path / "metrics.json").write_text("{{{")
        assert main(["report", "--out", str(tmp_path)]) == 1

    def test_closed_pipe_exits_1_without_traceback(
        self, tmp_path, monkeypatch, capsys, metrics_doc
    ):
        # As in `eh2marg report | true`: the reader is gone before the first line.
        _write_metrics(tmp_path, metrics_doc)
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr("sys.stdout", _ClosedPipe(fd))
            assert main(["report", "--out", str(tmp_path)]) == 1
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""


class _ClosedPipe:
    """A stdout on file descriptor ``fd`` whose reader has gone."""

    def __init__(self, fd: int) -> None:
        self._fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self) -> None:
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def fileno(self) -> int:
        return self._fd


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


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--case", "II", "--trials", "1"],
        ["synthesize"],
        ["bench", "--steps", "300"],
    ],
    ids=["run", "synthesize", "bench"],
)
def test_out_naming_a_file_exits_1(argv, tmp_path, capsys):
    path = tmp_path / "some_file"
    path.write_text("")
    assert main(argv + ["--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err
    assert err.count("\n") == 1  # one line, no traceback


class TestParser:
    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1
