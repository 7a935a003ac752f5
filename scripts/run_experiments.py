#!/usr/bin/env python3
"""Run every experiment kind with its default configuration.

Each kind runs through the command line front end (``fluxopt.cli``), which
writes one CSV per kind into the output directory (default: ./reports) and
prints the kind's checks.  Exit status is the worst of the kinds'.
Individual kinds can be selected by name on the command line:

    python3 scripts/run_experiments.py diagram alpha-sweep --out /tmp/r
"""

import argparse
import sys
import time

from fluxopt import cli, harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kinds", nargs="*", default=list(harness.KINDS),
                        help="experiment kinds to run (default: all)")
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    unknown = set(args.kinds) - set(harness.KINDS)
    if unknown:
        parser.error(f"unknown kinds {sorted(unknown)}; choose from {harness.KINDS}")

    seed_args = [] if args.seed is None else ["--seed", str(args.seed)]
    worst = 0
    for kind in args.kinds:
        start = time.perf_counter()
        status = cli.main([kind, "--out", args.out] + seed_args)
        print(f"== {kind}: exit status {status} ({time.perf_counter() - start:.1f} s)")
        worst = max(worst, status)
    print("all checks passed" if worst == 0 else "SOME CHECKS FAILED")
    return worst


if __name__ == "__main__":
    sys.exit(main())
