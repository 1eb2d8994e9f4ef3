"""Command line interface.

Subcommands mirror the pipeline stages plus the one-shot ``run``:

    rtm run --config run.cfg --out outdir [--seed N]
    rtm select-interpretants | build-resources | extract-features |
        train | predict | evaluate   (same flags, one stage each)
    rtm evaluate --pred predictions.tsv --gold gold.tsv [--epsilon half_step:1]

Stage subcommands read their inputs from the files earlier stages wrote into
the output directory, so a stage-wise sequence reproduces ``run`` exactly.
The stand-alone evaluate form needs no config and scores any predictions TSV
against a gold file.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .pipeline import (
    STAGES,
    ConfigError,
    StageError,
    evaluate_files,
    parse_config,
    parse_epsilon,
    run_pipeline,
    run_stage,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rtm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rtm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="run configuration file (key = value lines)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="rtm_out", help="output directory")
        p.add_argument("--jobs", type=int, default=1, help="worker hint (runs are single-process)")

    add_common(sub.add_parser("run", help="execute the full pipeline"))

    stage_parsers = {}
    for stage in STAGES:
        stage_parsers[stage] = sub.add_parser(stage, help=f"run the {stage} stage")
        add_common(stage_parsers[stage])

    eval_p = stage_parsers["evaluate"]
    eval_p.add_argument("--pred", help="stand-alone mode: predictions TSV")
    eval_p.add_argument("--gold", help="stand-alone mode: gold TSV")
    eval_p.add_argument(
        "--epsilon",
        default="half_mae",
        help="stand-alone mode epsilon: half_mae or half_step:<step>",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "evaluate" and args.pred:
            if not args.gold:
                raise ConfigError("--pred requires --gold")
            report = evaluate_files(args.pred, args.gold, parse_epsilon(args.epsilon))
            print(report.format())
            return 0
        if not args.config:
            raise ConfigError("--config is required")
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        cfg = parse_config(args.config, seed_override=args.seed)
        if args.command == "run":
            report = run_pipeline(cfg, args.out)
            if report.metrics is not None:
                print(report.metrics.format())
            return 0
        result = run_stage(cfg, args.out, args.command)
        if args.command == "evaluate" and result is not None:
            print(result.format())
        return 0
    except (ConfigError, StageError, OSError, ValueError) as exc:
        print(f"rtm: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
