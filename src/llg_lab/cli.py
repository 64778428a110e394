"""Command-line entry point: run config-driven experiments, emit CSV.

Progress and log lines go to stderr; data goes to files (with --out) or to
stdout, so pipelines stay clean. Exit code 0 on success, 2 on any config or
I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llg-lab",
        description="Federated-learning label-leakage laboratory.",
    )
    parser.add_argument(
        "--list-experiments", action="store_true",
        help="print the experiment catalog and exit",
    )
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run an experiment described by a JSON config")
    run.add_argument("--config", required=True, help="path to the experiment config")
    run.add_argument("--seed", type=int, help="override the config's master seed")
    run.add_argument("--out", help="output directory for the CSV (default: CSV to stdout)")
    run.add_argument("--trials", type=int, help="override the trial count of a grid experiment")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_experiments:
        for name, description in experiments.EXPERIMENTS.items():
            print(f"{name}: {description}")
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        _log("error: nothing to do; use 'run --config <path>' or --list-experiments")
        return 2
    try:
        config = experiments.load_config(args.config)
        if args.trials is not None and config.experiment == "convergence_sweep":
            raise ValueError(f"--trials applies to grid experiments only: a convergence_sweep "
                             f"runs `rounds` rounds ({config.rounds} in {args.config})")
        overrides = {"master_seed": args.seed, "trials": args.trials}
        config = replace(config, **{name: value for name, value in overrides.items()
                                    if value is not None})
        if args.out:
            # made before the run, so that a bad --out fails before any work
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)

        total = experiments.task_count(config)
        done = {"n": 0}
        step = max(1, total // 20)

        def progress():
            done["n"] += 1
            if done["n"] % step == 0 or done["n"] == total:
                _log(f"progress: {done['n']}/{total}")

        rows = experiments.run_experiment(config, progress=progress)
        if args.out:
            # named after the config file: several configs share an experiment
            csv_path = out_dir / f"{Path(args.config).stem}.csv"
            experiments.emit_csv(rows, csv_path)
            _log(f"wrote {csv_path}")
            print(experiments.format_summary(rows))
        else:
            experiments.emit_csv(rows, sys.stdout)
            _log(experiments.format_summary(rows))
    except (ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
