"""Command-line front end: run experiments, validate configs, emit figure CSVs.

Exit codes: 0 success, 2 configuration error, 3 trial-failure-rate breach.
"""

from __future__ import annotations

import argparse
import sys

from . import harness


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="espritsim",
        description="Beamspace multidimensional ESPRIT experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte-Carlo experiment")
    run.add_argument("--config", required=True, help="experiment config JSON")
    run.add_argument("--out", default=None, help="output directory for CSVs")
    run.add_argument("--threads", type=int, default=None,
                     help="worker processes for the trials (overrides the config's "
                          "threads); 1 runs them in this process, and the metric "
                          "CSVs do not depend on the count")
    run.add_argument("--dump-trials", action="store_true",
                     help="also write trials.csv, one row per trial")

    val = sub.add_parser("validate-config", help="validate a config file")
    val.add_argument("config", help="experiment config JSON")

    fig = sub.add_parser("figures", help="emit one figure's CSV to stdout")
    fig.add_argument("--which", required=True,
                     choices=sorted(harness.FIGURE_FILES),
                     help="figure analog: 3a|3b|3c|4|5|6")
    fig.add_argument("--config", required=True, help="experiment config JSON")
    fig.add_argument("--out", default=None,
                     help="also write the full CSV set to this directory")
    return parser


def _load_config(path, args=None):
    import dataclasses

    cfg = harness.ExperimentConfig.from_json(path)
    if args is not None:
        overrides = {}
        if getattr(args, "out", None):
            overrides["outputs"] = args.out
        if getattr(args, "threads", None) is not None:
            overrides["threads"] = args.threads
        if getattr(args, "dump_trials", False):
            overrides["dump_trials"] = True
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate-config":
            harness.ExperimentConfig.from_json(args.config)
            print("config ok")
            return 0
        cfg = _load_config(args.config, args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        rows, files = harness.run_experiment(cfg)
    except harness.TrialFailureRateError as exc:
        print(f"trial failures: {exc}", file=sys.stderr)
        return 3

    if args.command == "figures":
        metrics = harness.FIGURE_METRICS[args.which]
        print(",".join(harness.METRIC_COLUMNS))
        for row in rows:
            if row.metric in metrics:
                print(",".join(row.as_csv_row()))
        return 0

    for fig, path in sorted(files.items()):
        print(f"wrote {path}")
    if not files:
        for row in rows:
            print(",".join(row.as_csv_row()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
