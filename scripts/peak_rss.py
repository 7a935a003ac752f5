#!/usr/bin/env python3
"""Run a command and print its peak resident memory.

    python3 scripts/peak_rss.py [--limit MB] -- CMD...

The peak is the largest resident set of the command's process or of any
process it waited for (``RUSAGE_CHILDREN``), in MB.  The exit status is the
command's when it fails, 1 when its peak exceeds the limit, else 0.
"""

import argparse
import resource
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], usage="%(prog)s [--limit MB] -- CMD..."
    )
    parser.add_argument("--limit", type=float, default=None, help="largest peak allowed, in MB")
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv or argv.index("--") == len(argv) - 1:
        parser.error("give the command to run after --")
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    command = argv[split + 1 :]
    status = subprocess.run(command).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    limit = "" if args.limit is None else f", limit {args.limit:g} MB"
    print(f"{' '.join(command)}: peak resident memory {peak_mb:.1f} MB{limit}")
    if status != 0:
        return status if status > 0 else 1
    return 0 if args.limit is None or peak_mb <= args.limit else 1


if __name__ == "__main__":
    sys.exit(main())
