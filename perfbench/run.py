#!/usr/bin/env python3
"""fluxopt benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics, measured untraced; with
--trace 1 the per-layer metrics of a traced run, next to an untraced run of
the same length for the overhead ratio.  The last line of standard output is
one JSON object; a full record with samples, quartiles and provenance goes to
.perfbench_out/.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from tracing import SPANS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("suite", "fine_opt", "alpha_churn")
# Processes that each run a share of --seconds: set-up, the warm-up pass, then
# warm passes.  Each process pays for its own warm-up pass, which on suite is
# as long as a warm pass, so suite runs one process.  fine_opt runs three, each
# fitting one warm pass whose Robin op is in the same alpha decade, so that
# its pass_s samples do like work whatever the machine's speed.
PROCESSES = {"suite": 1, "fine_opt": 3, "alpha_churn": 4}
# set-up and cold-op samples per run; the processes beyond PROCESSES run the
# cold op alone, half of them before the others and half after
COLD_SAMPLES = 5
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170
# harness.KINDS; this process does not import fluxopt
KINDS = ("state-conv", "control-conv", "alpha-sweep", "diagram", "constants")
# layers each workload must reach in its warm passes
REACHES = {
    "suite": tuple(SPANS),
    "fine_opt": ("assembly.matrices", "assembly.load", "assembly.norms", "linsolve.solve_spd",
                 "pde.solve_state", "pde.solve_adjoint", "optctl.fixed_point"),
    "alpha_churn": ("assembly.matrices", "assembly.load", "linsolve.solve_spd",
                    "pde.solve_state", "pde.solve_adjoint"),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _summary(values):
    values = list(values)
    quart = statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quart[0], "q3": quart[2], "n": len(values),
            "samples": values}


def _commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _source_digest(root):
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "fluxopt", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


class Runner:
    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=self.out_dir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.spawned = 0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def spawn(self, mode, trace, seconds=0.0, stream=0):
        """Run one worker process; returns its result with the measured set-up time."""
        self.spawned += 1
        result_path = os.path.join(self.workdir, f"worker-{self.spawned}.json")
        cmd = [
            sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed), "--stream", str(stream),
            "--seconds", str(seconds), "--mode", mode, "--trace", str(trace),
            "--workdir", self.workdir, "--result", result_path,
        ]
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env, cwd=self.root)
        try:
            line = proc.stdout.readline()
            setup_s = perf_counter() - start
            proc.stdout.close()
            status = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s")
        if line.strip() != "ready" or status != 0:
            raise BenchError(f"{mode} worker failed with status {status}")
        with open(result_path) as handle:
            result = json.load(handle)
        result["setup_s"] = setup_s
        return result


def _warm(results, clean=True):
    """Per-op and per-pass seconds of the warm passes (pass 0 is the warm-up).

    With ``clean`` only ops that ran correctly count, and only passes whose
    every op did; an op that failed was timed only up to its failure.
    """
    ops, passes, failed = [], {}, set()
    for n, result in enumerate(results):
        for pass_no, seconds, outcome, _ in result["ops"]:
            if pass_no == 0:
                continue
            key = (n, pass_no)
            passes[key] = passes.get(key, 0.0) + seconds
            if clean and outcome != "ok":
                failed.add(key)
            else:
                ops.append(seconds)
    return ops, [total for key, total in passes.items() if key not in failed]


def _samples(name, values):
    values = list(values)
    if not values:
        raise BenchError(f"no op ran correctly to give {name} a sample")
    return _summary(values)


def end_to_end(runner, workload):
    count = PROCESSES[workload]
    share = runner.args.seconds / count
    extra = max(0, COLD_SAMPLES - count)
    colds = [runner.spawn("cold", 0, stream=count + k) for k in range(extra // 2)]
    runs = [runner.spawn("run", 0, share, stream) for stream in range(count)]
    colds += [runner.spawn("cold", 0, stream=count + k) for k in range(extra // 2, extra)]
    workers = runs + colds
    warm_ops, warm_passes = _warm(runs)
    stats = {
        "setup_s": (_summary(w["setup_s"] for w in workers), "s"),
        "cold_op_s": (_samples("cold_op_s", (w["ops"][0][1] for w in workers if w["ops"][0][2] == "ok")), "s"),
        "op_p50_s": (_samples("op_p50_s", warm_ops), "s"),
        "pass_s": (_samples("pass_s", warm_passes), "s"),
        "peak_rss_mb": (max(w["rss_mb"] for w in runs), "MB"),
    }
    return workers, stats, runs[-1]["provenance"]


def per_layer(runner, workload):
    plain = runner.spawn("run", 0, runner.args.seconds / 2)
    traced = runner.spawn("run", 1, runner.args.seconds / 2)
    # every warm pass: the spans cover failed ops too, up to their failure
    _, plain_passes = _warm([plain], clean=False)
    _, traced_passes = _warm([traced], clean=False)
    snap, cold = traced["trace"], traced["cold_trace"]
    npass = len(traced_passes)
    calls, self_s = snap["calls"], snap["self_s"]

    missing = [layer for layer in REACHES[workload] if calls.get(layer, 0) == 0]
    if missing:
        raise BenchError(f"traced {workload} recorded no calls into {', '.join(missing)}")

    def share(num, den):
        return num / den if den else 0.0

    stats = {}
    for span in SPANS:
        if span.startswith(("harness.", "cli.")):
            continue
        stats[f"{span}.calls"] = (calls.get(span, 0) / npass, "count")
        stats[f"{span}.self_s"] = (self_s.get(span, 0.0) / npass, "s")
    stats["assembly.matrices.first_call_ratio"] = (
        share(cold["matrix_first"], cold["calls"].get("assembly.matrices", 0)), "ratio")
    stats["assembly.load.repeat_ratio"] = (
        share(snap["load_repeat"], calls.get("assembly.load", 0)), "ratio")
    stats["linsolve.solve_spd.unknowns_max"] = (snap["spd_unknowns_max"], "count")
    stats["linsolve.solve_spd.max_rel_residual"] = (snap["spd_residual_max"], "ratio")
    stats["linsolve.solve_spd.failed"] = (snap["spd_failed"] / npass, "count")
    stats["linsolve.lu_solve.rhs_columns"] = (snap["lu_columns"] / npass, "count")
    stats["linsolve.solves_per_operator"] = (share(snap["solves"], snap["operators"]), "ratio")
    stats["pde.distinct_operators"] = (snap["distinct_pde"] / npass, "count")
    stats["optctl.fixed_point.iterations"] = (snap["fp_iterations"] / npass, "count")
    stats["optctl.fixed_point.contraction_ratio_max"] = (snap["fp_ratio_max"], "ratio")
    stats["optctl.reduced.trace_dofs_max"] = (snap["reduced_dofs_max"], "count")
    stats["harness.run.self_s"] = (self_s.get("harness.run", 0.0) / npass, "s")
    for kind in KINDS:
        stats[f"harness.run.wall_s.{kind}"] = (snap["wall_by_kind"].get(kind, 0.0) / npass, "s")
    stats["harness.write_csv.self_s"] = (self_s.get("harness.write_csv", 0.0) / npass, "s")
    stats["cli.main.self_s"] = (self_s.get("cli.main", 0.0) / npass, "s")

    traced_pass = sum(traced_passes) / npass
    toplevel = snap["toplevel_s"] / npass
    unattributed = traced_pass - toplevel
    if unattributed < -1e-6:
        raise BenchError(f"top-level spans ({toplevel:.6f} s) exceed the traced pass ({traced_pass:.6f} s)")
    stats["trace.pass_s"] = (traced_pass, "s")
    stats["trace.toplevel_s"] = (toplevel, "s")
    stats["trace.unattributed_s"] = (unattributed, "s")
    stats["trace.check_s"] = (snap["check_s"] / npass, "s")
    stats["trace.overhead_ratio"] = (traced_pass / (sum(plain_passes) / len(plain_passes)) - 1.0, "ratio")
    stats["trace.warm_passes"] = (npass, "count")
    return [plain, traced], stats, traced["provenance"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fluxopt", "__init__.py")):
        print("perfbench: no src/fluxopt under the current directory; run from the repository root",
              file=sys.stderr)
        return 2
    # compile once so that every set-up sample imports bytecode
    if not compileall.compile_dir(os.path.join(root, "src"), quiet=1):
        print("perfbench: fluxopt sources do not compile", file=sys.stderr)
        return 2

    runner = Runner(root, args)
    try:
        if args.trace:
            workers, stats, prov = per_layer(runner, args.workload)
        else:
            workers, stats, prov = end_to_end(runner, args.workload)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    ops = [op for w in workers for op in w["ops"]]
    attempted = len(ops)
    failures = [failure for _, _, outcome, failure in ops if outcome != "ok"]
    correct = not failures
    prov.update({
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "seed": args.seed,
        "blas_threads_pinned": BLAS_THREADS,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    })

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    metrics = {}
    for name, (value, unit) in stats.items():
        if isinstance(value, dict):
            print(f"  {name:<44} {value['median']:.6g} {unit}  "
                  f"(median of {value['n']}; quartiles {value['q1']:.6g} .. {value['q3']:.6g})")
            metrics[name] = {"value": value["median"], "unit": unit}
        else:
            print(f"  {name:<44} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    print(f"  {'failed_ratio':<44} {len(failures) / attempted:.6g} ratio  "
          f"({len(failures)} of {attempted} ops raised or returned a wrong output)")
    for failure in failures[:5]:
        print(f"  failed op: {failure}")

    record = {"provenance": prov, "stats": {k: {"value": v, "unit": u} for k, (v, u) in stats.items()},
              "failures": failures, "attempted": attempted}
    record_path = os.path.join(runner.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
