"""Command-line entry point.

Subcommands: run | sweep | eval | behavior | ablation.  Exit codes: 0 on
success, 2 for configuration errors, 3 for runtime failures.  Each flag is
a spec setting (see :data:`FLAG_KEYS`), applied after the spec file's lines
through :func:`experiments.apply_settings`, so a flag and its spec line
give the same run.  The default output directory comes from --out, then the
spec file, then the LEOHO_OUTPUT_DIR environment variable, then ./leoho_out.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from leoho import experiments
from leoho.env import ConfigError
from leoho.experiments import CheckpointError, ExperimentSpec, load_checkpoint, parse_spec_file

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leoho", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, mask_help: str = "feature mask name") -> None:
        p.add_argument("--spec", help="experiment spec file (flat key = value)")
        p.add_argument("--agent", choices=experiments.AGENT_KINDS)
        p.add_argument("--seed", type=int, help="master seed; run i uses seed + i")
        p.add_argument("--episodes", type=int, help="evaluation episode count")
        p.add_argument("--train-episodes", type=int, help="training episode count")
        p.add_argument("--out", help="output directory")
        p.add_argument("--actors", type=int, help="actor count for training")
        p.add_argument("--vtrace", choices=["on", "off"], help="off-policy correction")
        p.add_argument("--nu", help="reward delay weight, e.g. 1, 5, 1/20")
        p.add_argument("--rb-ratio", type=float, help="blocks per terminal on each target")
        p.add_argument("--preamble-ratio", type=float, help="signatures per terminal")
        p.add_argument("--mask", help=mask_help)
        p.add_argument("--checkpoint", help="policy checkpoint to load")
        p.add_argument("--mode", choices=["greedy", "sample"], help="learned-policy decision mode")
        p.add_argument("--case", help="named resource regime, e.g. case1..case4")

    run_p = sub.add_parser("run", help="train if needed, then evaluate and report")
    eval_p = sub.add_parser("eval", help="evaluate only (learned agent needs --checkpoint)")
    sweep_p = sub.add_parser("sweep", help="evaluate across one parameter's values")
    behavior_p = sub.add_parser("behavior", help="request/wait statistics of a checkpoint")
    ablation_p = sub.add_parser("ablation", help="train one policy per feature mask")
    for p in (run_p, eval_p, sweep_p, behavior_p):
        add_common(p)
    add_common(ablation_p, mask_help="feature mask names, comma separated (default: every mask)")
    sweep_p.add_argument("--parameter", help="sweep parameter, e.g. rb_ratio")
    sweep_p.add_argument("--values", help="comma-separated sweep values")
    return parser


# Each flag's spec key.  Flags apply after the spec file's lines: --case
# first, as its two ratio settings, then --mask, as its four feature
# settings, then the flags below in this order.
FLAG_KEYS = {
    "rb_ratio": "scenario.rb_ratio",
    "preamble_ratio": "scenario.preamble_ratio",
    "nu": "scenario.nu",
    "actors": "training.actors_count",
    "vtrace": "training.vtrace_enabled",
    "agent": "agent",
    "seed": "master_seed",
    "episodes": "eval_episodes",
    "train_episodes": "train_episodes",
    "checkpoint": "checkpoint",
    "mode": "eval_mode",
    "out": "output_dir",
    "parameter": "sweep.parameter",
    "values": "sweep.values",
}


# Flags every subcommand parses that ablation, which trains one fresh dho
# policy per mask and evaluates none, refuses.
ABLATION_REFUSES = ("checkpoint", "agent", "episodes", "mode")


def _load_spec(args) -> ExperimentSpec:
    spec = parse_spec_file(args.spec) if args.spec else ExperimentSpec()
    flags = vars(args)
    settings = []
    if args.case is not None:
        settings += experiments.case_settings(args.case)
    if args.mask is not None and args.command != "ablation":  # ablation trains one policy per mask
        settings += experiments.mask_settings(args.mask)
    settings += [(key, flags[dest]) for dest, key in FLAG_KEYS.items() if flags.get(dest) is not None]
    return experiments.apply_settings(spec, settings)


def _out_dir(spec: ExperimentSpec) -> Path:
    target = spec.output_dir or os.environ.get("LEOHO_OUTPUT_DIR") or "leoho_out"
    return Path(target)


def _print_row(row: dict) -> None:
    keys = ("agent", "sum_delay_mean", "sum_collision_rb_mean", "sum_collision_prach_mean", "ho_success_mean", "return_mean")
    print("  ".join(f"{k}={row[k]}" for k in keys))


def _dispatch(args) -> int:
    if args.command == "ablation":
        for dest in ABLATION_REFUSES:
            if getattr(args, dest) is not None:
                raise ConfigError(f"--{dest}", "ablation trains one dho policy per mask and evaluates none")
    spec = _load_spec(args)
    out_dir = _out_dir(spec)

    if args.command == "run":
        artifacts = experiments.run_experiment(spec, out_dir)
        _print_row(artifacts["row"])
        print(f"artifacts in {out_dir}")
        return EXIT_OK

    if args.command == "eval":
        if spec.agent == "dho" and not spec.checkpoint:
            raise ConfigError("checkpoint", "eval of the learned agent needs --checkpoint")
        artifacts = experiments.run_experiment(spec, out_dir)
        _print_row(artifacts["row"])
        return EXIT_OK

    if args.command == "sweep":
        if not spec.sweep_parameter:
            raise ConfigError("sweep.parameter", "sweep needs --parameter or sweep.parameter")
        if not spec.sweep_values:
            raise ConfigError("sweep.values", "sweep needs --values or sweep.values")
        result = experiments.sweep_experiment(spec, spec.sweep_parameter, spec.sweep_values, out_dir)
        for row in result["rows"]:
            _print_row(row)
        print(f"sweep table: {result['sweep']}")
        return EXIT_OK

    if args.command == "behavior":
        if not spec.checkpoint:
            raise ConfigError("checkpoint", "behavior stats need --checkpoint")
        params = load_checkpoint(spec.checkpoint, [spec.scenario])
        request_fraction, wait_fraction = experiments.behavior_stats(
            params, spec.scenario, spec.eval_episodes, spec.master_seed
        )
        print(f"request_fraction={request_fraction:.4f} no_request_fraction={wait_fraction:.4f}")
        return EXIT_OK

    if args.command == "ablation":
        masks = args.mask.split(",") if args.mask is not None else list(experiments.ABLATION_MASKS)
        result = experiments.ablation(spec, masks, out_dir)
        print(f"ablation curves: {result['path']}")
        return EXIT_OK

    raise ConfigError("command", f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CheckpointError, OSError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (MemoryError, OverflowError) as exc:
        # Scenario counts are bounded up front; this covers what still
        # outgrows the machine, such as a vast training batch.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
