"""One benchmark process: build a workload's inputs, then run and check its ops.

Started by run.py in a fresh interpreter.  It prints ``ready`` once fluxopt is
imported and the inputs are built (run.py times set-up up to that line), then
runs ops and writes its measurements as JSON to the --result path.

Modes: ``cold`` runs the cold op alone; ``run`` runs whole passes while the
next one should end within --seconds, and at least one warm pass.  Pass 0 is
the warm-up: the cold op, the first op of the process, and for the suite
the rest of the first pass, so that every kind has run once.  With --trace 1
the ops run under the outside-in tracer.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
from time import perf_counter

import workloads

# ru_maxrss is read after this many warm passes, or at the end of a shorter
# run: a suite process peaks some 22 MB lower after its first warm pass about
# half the time, and reaches the same peak by its second
RSS_WARM_PASSES = 2


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def provenance():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def _run_op(workload, tracer, i):
    """Run op i; returns (seconds, outcome, reason the op failed or None).

    The outcome is ``ok``, or ``failed`` when the op raised or its output
    failed its check.
    """
    inputs = workload.prepare(i)
    start = perf_counter()
    try:
        output = workload.run(inputs)
    except Exception as exc:  # a failed op, not a crashed run
        return perf_counter() - start, "failed", f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    try:
        failure = workload.check(inputs, output)
    except Exception as exc:
        failure = f"check raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = True
    return seconds, "ok" if failure is None else "failed", failure


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stream", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("cold", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.stream, args.workdir)
    print("ready", flush=True)
    # run.py stops reading here; the CLI's verdict lines are checked from the CSVs
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    ops = []  # [pass, seconds, outcome, failure]
    cold_trace = None
    rss_mb = None
    start = perf_counter()
    i = 0
    passes = 0
    while True:
        if passes == 1 and tracer is not None:
            tracer.reset()  # per-layer figures cover the warm passes only
        pass_start = perf_counter()
        warmup_ops = 1 if args.mode == "cold" else workload.warmup_ops
        for _ in range(workload.ops_per_pass if passes else warmup_ops):
            ops.append([passes, *_run_op(workload, tracer, i)])
            if i == 0 and tracer is not None:
                cold_trace = tracer.snapshot()
            i += 1
        passes += 1
        if args.mode == "cold":
            break
        if passes <= RSS_WARM_PASSES + 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # start a pass only if it should end within --seconds
        now = perf_counter()
        if passes >= 2 and now + (now - pass_start) - start > args.seconds:
            break

    result = {
        "ops": ops,
        "rss_mb": rss_mb,
        "provenance": provenance(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.snapshot()
        result["cold_trace"] = cold_trace
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
