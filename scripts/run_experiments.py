#!/usr/bin/env python3
"""Run every experiment kind with its default configuration.

Writes one CSV per kind into the output directory (default: ./reports) and
prints the named checks as they complete.  Exit status is nonzero if any
check fails.  Individual kinds can be selected by name on the command line:

    python3 scripts/run_experiments.py diagram alpha-sweep --out /tmp/r
"""

import argparse
import os
import sys
import time

from fluxopt import harness


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

    os.makedirs(args.out, exist_ok=True)
    all_good = True
    for kind in args.kinds:
        data = {} if args.seed is None else {"seed": args.seed}
        config = harness.config_from_dict(kind, data)
        start = time.perf_counter()
        report = harness.run(config)
        elapsed = time.perf_counter() - start
        path = os.path.join(args.out, f"{kind}.csv")
        harness.write_csv(report, path)
        print(f"== {kind} ({elapsed:.1f} s) -> {path}")
        for name, fit in sorted(report.rates.items()):
            print(f"   rate {name}: {fit.rate:.3f} ({fit.status})")
        for name in sorted(report.checks):
            print(f"   check {name}: {harness.verdict(report.checks[name])}")
        all_good = all_good and report.passed
    print("all checks passed" if all_good else "SOME CHECKS FAILED")
    return 0 if all_good else 1


if __name__ == "__main__":
    sys.exit(main())
