"""End-to-end tests of the command-line interface and its exit codes."""

import copy
import errno
import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from eh2marg import harness
from eh2marg.cli import _report_lines, main
from eh2marg.filters import _paper_plans
from eh2marg.sensors import simulate_imu_stream
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

    @pytest.mark.parametrize("field", ["n_a", "n_m"])
    def test_noise_whose_square_overflows_exits_1(self, tmp_path, capsys, field):
        # Such a noise would overflow Dw Dw^T and stop the gain synthesis
        # with a LinAlgError; the config is rejected before either.
        doc = {"case_id": "II", "num_trials": 1, "noise": {field: 1e300}}
        cfg = _write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        _assert_config_error_only(capsys)
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("block", ["gain", "plans", "aggregate.eh2", "aggregate.timing"])
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
        assert lines[0].endswith("trials 1 (ok 0, failed 1)")
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


#: What ``run --case II --trials 2 --seed 77``, then ``report``, and ``bench
#: --steps 200`` print for the paper's plan table, as :func:`_masked` shows
#: it.  ``run`` ends with the ``outputs in`` line.
PAPER_RUN = [
    "trial   0: eh2 rms [0.2350 0.2131 0.2389] deg, ekf rms [0.4522 0.4510 0.4877] deg",
    "trial   1: eh2 rms [0.2193 0.2399 0.2630] deg, ekf rms [0.4620 0.4652 0.4882] deg",
    "ok 2/2, eh2 yaw wins 2/2",
]
PAPER_REPORT = [
    "scenario case II  seed 77  trials 2 (ok 2, failed 0)",
    'gain: source "synthesized", '
    'sha256 "d31f5a907631d32e790ffb90f30ade639e865ae1dfb2bb5ba3a9d58c4fb13147", '
    "h2_norm 0.008696613353238672, gamma 0.008696613361935286, "
    "max_closedloop_real_eig -0.02000060782364235, lmi_feasible true",
    "axis      eh2 rms [deg]   ekf rms [deg]",
    "roll           0.227164        0.457090",
    "pitch          0.226480        0.458132",
    "yaw            0.250956        0.487997",
    "eh2 yaw wins: 2/2",
    "timing in ms per trial-step (trials stacked; criterion 7 uses eh2marg bench):",
    "  eh2: mean #, p50 #, p95 #",
    "  ekf: mean #, p50 #, p95 #",
    "  ratio per trial-step #",
]
PAPER_BENCH = [
    "200 interleaved steps",
    "  eh2: # ms/step (std #, p50 #, p95 #)",
    "  ekf: # ms/step (std #, p50 #, p95 #)",
    "  ratio eh2/ekf: #",
]


def _masked(text):
    """The lines of ``text``, with each number on an indented line, where
    every timing figure is printed, as ``#``."""
    lines = text.splitlines()
    return [re.sub(r"\d+\.\d+", "#", ln) if ln.startswith("  ") else ln for ln in lines]


class TestPlanTable:
    """``run``, ``report`` and ``bench`` print what the run's ``plans`` name."""

    def test_paper_table_prints_its_pair(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--case", "II", "--trials", "2", "--seed", "77", "--out", str(out)]
        assert main(argv) == 0
        assert _masked(capsys.readouterr().out) == PAPER_RUN + [f"outputs in {out}"]
        with open(out / "metrics.json") as fh:
            assert json.load(fh)["plans"] == ["eh2", "ekf"]
        assert main(["report", "--out", str(out)]) == 0
        assert _masked(capsys.readouterr().out) == PAPER_REPORT
        assert main(["bench", "--steps", "200", "--out", str(tmp_path)]) == 0
        assert _masked(capsys.readouterr().out) == PAPER_BENCH
        with open(tmp_path / "bench.json") as fh:
            assert json.load(fh)["plans"] == ["eh2", "ekf"]

    def test_four_plans_report_a_column_per_plan_and_lines_per_pair(self, cert, metrics_doc):
        # The four-plan batch of test_harness.py's
        # test_four_plans_give_each_pair_the_bytes_of_the_pair_alone: the
        # paper's pair, then the same pair under two more names, with trial 1
        # failing at step 50.
        cfg = harness.ScenarioConfig.case_ii(num_trials=3)
        traj = harness.generate_trajectory(cfg)
        streams = [
            simulate_imu_stream(
                traj.t, traj.angles, traj.body_rates(), cfg.world, cfg.noise,
                np.random.default_rng((cfg.seed, trial)),
            )
            for trial in range(3)
        ]
        streams[1].a_m[50, 0] = np.nan
        pair = _paper_plans(cert.L, cfg.noise, cfg.world, 1.0 / cfg.imu_rate)
        four = pair + tuple(plan._replace(name=plan.name + "_again") for plan in pair)
        names = [plan.name for plan in four]
        batch = harness._run_trials(3, streams, cfg.world, four)
        trials = harness._batch_records(batch, range(3), traj, names, 1.0, None)
        agg = harness._aggregate(trials, names)
        lines = _report_lines({**metrics_doc, "plans": names, "trials": trials, "aggregate": agg})

        assert len(lines) == 15
        assert lines[2] == (
            "axis      eh2 rms [deg]   ekf rms [deg]  eh2_again rms [deg]  ekf_again rms [deg]"
        )
        for i, axis in enumerate(("roll", "pitch", "yaw")):
            row = lines[3 + i]
            assert len(row) == len(lines[2])
            assert row.split() == [axis, *(f"{agg[name]['rms_deg'][i]:.6f}" for name in names)]
        wins = agg["yaw_wins_eh2"]
        assert agg["yaw_wins_eh2_again"] == wins
        assert lines[6:8] == [f"eh2 yaw wins: {wins}/2", f"eh2_again yaw wins: {wins}/2"]
        assert lines[8].startswith("timing in ms per trial-step")
        assert [line.split(":")[0] for line in lines[9:13]] == [f"  {name}" for name in names]
        # With two pairs, each ratio line names its pair, as bench does.
        assert lines[13:] == [
            f"  ratio per trial-step {pair}: {agg['timing'][key]:.4f}"
            for pair, key in (
                ("eh2/ekf", "ratio_eh2_over_ekf"),
                ("eh2_again/ekf_again", "ratio_eh2_again_over_ekf_again"),
            )
        ]


class TestParser:
    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1
