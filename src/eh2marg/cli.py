"""Command-line interface.

Subcommands: ``synthesize`` (emit a gain file), ``run`` (execute a scenario
and write CSV + metrics), ``bench`` (interleaved timing comparison), and
``report`` (pretty-print a metrics.json; a document in any other shape than
``run`` writes is a config error).  No filter is named here: ``run``,
``bench`` and ``report`` print one entry per name in the result's ``plans``
(the run's plan table, in order) and, per pair of ``harness._pairs``, the
filter's yaw wins and the timing ratio.  Exit codes: 0 success, 1 config
error, an output path that cannot be written, or a reader that closed
stdout before the output was written, 2 synthesis failure, 3 filter
failure in every trial.
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

from .errors import ConfigError, Eh2MargError, SynthesisFailure
from .harness import ScenarioConfig, _pairs, run_experiment, run_timing_benchmark
from .linearization import nominal_model
from .synthesis import load_gain_text, save_gain_text, synthesize_gain

__all__ = ["main"]

_AXES = ("roll", "pitch", "yaw")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as ConfigError (exit 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _add_scenario_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", type=Path, metavar="PATH", help="JSON scenario config")
    sp.add_argument(
        "--case", choices=["I", "II"], help="built-in scenario (overridden by --config)"
    )


def _build_parser() -> _Parser:
    p = _Parser(prog="eh2marg", description="Extended-H2 vs EKF attitude estimation benchmark")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("synthesize", help="synthesize the estimator gain and save it")
    _add_scenario_flags(sp)
    sp.add_argument("--out", type=Path, metavar="DIR", help="write gain_L0.txt here")
    sp.set_defaults(func=_cmd_synthesize)

    sp = sub.add_parser("run", help="run a scenario and write CSV + metrics.json")
    _add_scenario_flags(sp)
    sp.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
    sp.add_argument(
        "--trials", type=int, metavar="N", help="override the config trial count"
    )
    sp.add_argument(
        "--out", type=Path, metavar="DIR", default=Path("out"), help="output directory"
    )
    sp.add_argument(
        "--gain",
        type=Path,
        metavar="PATH",
        help="use a precomputed gain file instead of synthesizing",
    )
    sp.add_argument(
        "--exclude-initial",
        type=float,
        metavar="S",
        default=5.0,
        help="seconds dropped from the start before computing metrics",
    )
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("bench", help="interleaved per-step timing of both filters")
    sp.add_argument("--steps", type=int, default=10_000, help="timed steps per filter")
    sp.add_argument("--seed", type=int, metavar="U64", default=42)
    sp.add_argument("--out", type=Path, metavar="DIR", help="also write bench.json here")
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("report", help="print a table from a metrics.json")
    sp.add_argument(
        "--out", type=Path, metavar="DIR", default=Path("out"), help="directory holding metrics.json"
    )
    sp.set_defaults(func=_cmd_report)
    return p


def _read_json(path: Path) -> Any:
    """The JSON document in ``path``; an unreadable file, bytes that are not
    UTF-8 or text that is not JSON raise ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _load_scenario(args: argparse.Namespace, *, required: bool = True) -> ScenarioConfig | None:
    if args.config is not None:
        return ScenarioConfig.from_dict(_read_json(args.config))
    if args.case is not None:
        return ScenarioConfig.from_dict({"case_id": args.case})
    if required:
        raise ConfigError("provide --config or --case")
    return None


def _cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = _load_scenario(args, required=False)
    cert = synthesize_gain(nominal_model() if cfg is None else nominal_model(cfg.noise, cfg.world))
    print(f"achieved H2 norm : {cert.h2_norm:.12g}")
    print(f"certified gamma  : {cert.gamma:.12g}")
    print(f"max Re(eig(A+LC)): {cert.max_closedloop_real_eig:.12g}")
    print(f"LMI feasible     : {cert.lmi_feasible}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "gain_L0.txt"
        save_gain_text(cert.L, path)
        print(f"gain written to  : {path}")
    else:
        print("L0 =")
        for row in cert.L:
            print("  " + " ".join("%.17g" % v for v in row))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_scenario(args)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.trials is not None:
        cfg = replace(cfg, num_trials=args.trials)
    gain = None
    if args.gain is not None:
        try:
            gain = load_gain_text(args.gain)
        except OSError as exc:
            raise ConfigError(f"cannot read gain {args.gain}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"invalid gain file {args.gain}: {exc}") from exc
    result = run_experiment(cfg, gain=gain, out_dir=args.out, exclude_initial=args.exclude_initial)
    names = result["plans"]
    for rec in result["trials"]:
        if rec["ok"]:
            rms = ("%s rms [%.4f %.4f %.4f] deg" % (name, *rec[name]["rms_deg"]) for name in names)
            print(f"trial {rec['trial']:3d}: " + ", ".join(rms))
        else:
            print(f"trial {rec['trial']:3d}: FAILED ({rec['error']})")
    agg = result["aggregate"]
    if agg["num_ok"] == 0:
        print("all trials failed", file=sys.stderr)
        return 3
    wins = (f", {f} yaw wins {agg[key]}/{agg['num_ok']}" for f, _, key, _ in _pairs(names))
    print(f"ok {agg['num_ok']}/{cfg.num_trials}" + "".join(wins))
    print(f"outputs in {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    res = run_timing_benchmark(steps=args.steps, seed=args.seed)
    print(f"{res['steps']} interleaved steps")
    for name in res["plans"]:
        s = res[name]
        print(
            f"  {name}: {s['mean_ms']:.6f} ms/step (std {s['std_ms']:.6f}, "
            f"p50 {s['p50_ms']:.6f}, p95 {s['p95_ms']:.6f})"
        )
    for f, b, _, ratio in _pairs(res["plans"]):
        print(f"  ratio {f}/{b}: {res[ratio]:.4f}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        with open(args.out / "bench.json", "w") as fh:
            json.dump(res, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _report_lines(doc: Any) -> list[str]:
    """The lines ``report`` prints for a metrics.json written by ``run``."""
    cfg, agg, gain, names = doc["config"], doc["aggregate"], doc["gain"], doc["plans"]
    gain_keys = ("source", "sha256", "h2_norm", "gamma", "max_closedloop_real_eig", "lmi_feasible")
    lines = [
        f"scenario case {cfg['case_id']}  seed {cfg['seed']}  trials {len(doc['trials'])} "
        f"(ok {agg['num_ok']}, failed {agg['num_failed']})",
        "gain: " + ", ".join(f"{key} {json.dumps(gain[key])}" for key in gain_keys),
    ]
    if agg["num_ok"] == 0:
        return lines + ["no successful trials to report"]
    cols = [(name, max(16, len(name) + 12)) for name in names]  # a space between headings
    lines.append(f"{'axis':<7}" + "".join(f"{name + ' rms [deg]':>{w}}" for name, w in cols))
    for i, axis in enumerate(_AXES):
        lines.append(f"{axis:<7}" + "".join(f"{agg[n]['rms_deg'][i]:>{w}.6f}" for n, w in cols))
    pairs = _pairs(names)
    lines += [f"{f} yaw wins: {agg[wins]}/{agg['num_ok']}" for f, _, wins, _ in pairs]
    timing = agg["timing"]
    lines.append("timing in ms per trial-step (trials stacked; criterion 7 uses eh2marg bench):")
    for name in names:
        stats = (f"{stat} {timing[f'{name}_{stat}_ms']:.6f}" for stat in ("mean", "p50", "p95"))
        lines.append(f"  {name}: " + ", ".join(stats))
    for f, b, _, ratio in pairs:
        pair = f" {f}/{b}:" if len(pairs) > 1 else ""  # the paper's one pair needs no name
        lines.append(f"  ratio per trial-step{pair} {timing[ratio]:.4f}")
    return lines


def _cmd_report(args: argparse.Namespace) -> int:
    path = args.out / "metrics.json"
    try:
        lines = _report_lines(_read_json(path))
    except (LookupError, TypeError, ValueError) as exc:  # not the shape run writes
        raise ConfigError(f"{path} is not a metrics.json written by run: {exc!r}") from exc
    print("\n".join(lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = int(args.func(args))
        sys.stdout.flush()  # a closed pipe raises here, inside the handlers
        return code
    except BrokenPipeError:
        # The reader of stdout has gone.  What is still buffered goes to
        # devnull, so the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:  # e.g. an --out that names an existing file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SynthesisFailure as exc:
        print(f"synthesis failure: {exc}", file=sys.stderr)
        return 2
    except Eh2MargError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
