"""Command line front end: one subcommand per experiment kind.

Each subcommand loads an optional JSON config, merges it over the built-in
defaults, runs the experiment, writes <out>/<kind>.csv and prints one
verdict line per named check.  Exit status is zero only when every check
passed, 1 when one failed or a solve raised ConvergenceError, and 2 for a
config error, such as an --out that cannot be a directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import harness
from .linsolve import ConvergenceError


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: argparse keeps no state between parse_args calls."""
    parser = argparse.ArgumentParser(
        prog="fluxopt",
        description="Convergence experiments for flux-controlled boundary problems",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, experiment in harness.EXPERIMENTS.items():
        p = sub.add_parser(kind, help=experiment.summary)
        p.add_argument("--config", metavar="PATH", help="JSON config file (defaults apply if omitted)")
        p.add_argument("--out", metavar="DIR", default=".", help="output directory for the CSV report")
        p.add_argument("--seed", type=int, metavar="N", help="override the config seed for random starts")
    return parser


def _load_config(kind: str, path, seed) -> harness.ExperimentConfig:
    data = {}
    if path is not None:
        with open(path) as handle:
            data = json.load(handle)
    if seed is not None and isinstance(data, dict):
        data = {**data, "seed": seed}
    return harness.config_from_dict(kind, data)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.kind, args.config, args.seed)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    made = not os.path.isdir(args.out)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"config error: --out: {exc}", file=sys.stderr)
        return 2
    try:
        report = harness.run(config)
    except ConvergenceError as exc:
        if made:
            os.rmdir(args.out)
        message = str(exc)
        if exc.residual is not None:
            message += f" (residual {exc.residual:.3e})"
        elif exc.ratios:
            message += f" (last ratio {exc.ratios[-1]:.3e})"
        print(f"solver error: {message}", file=sys.stderr)
        return 1
    out_path = os.path.join(args.out, f"{config.kind}.csv")
    harness.write_csv(report, out_path)
    for name in sorted(report.checks):
        print(f"check {name}: {harness.verdict(report.checks[name])}")
    print(f"report written to {out_path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
