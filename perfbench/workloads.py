"""The benchmark's workloads: seeded inputs, one timed op each, and output checks.

A workload is built from the run's seed, which fixes its data, and the
worker's stream number, which fixes the ops it draws, so the workers of one
run measure different ops.  Every workload splits an op into ``prepare``
(untimed: draw the op's inputs), ``run`` (timed: the calls into fluxopt)
and ``check`` (untimed: verify the output without trusting the code under
test; returns None or the reason the op failed).  An op that raises is a
failed op too.  ``run`` looks fluxopt functions up on their modules at call
time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

import fluxopt.assembly as assembly
import fluxopt.cli as cli
import fluxopt.harness as harness
import fluxopt.linsolve as linsolve
import fluxopt.mesh as mesh_mod
import fluxopt.optctl as optctl
import fluxopt.pde as pde

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# A direct sparse solver in place of the Jacobi-CG path moves report values by
# up to 1.3e-6 relative (rate-fit residuals) and 1.3e-8 absolute, so 1e-9
# relative would reject it.  Values below the absolute floor are solver noise
# (gradient norms, start gaps), fixed by the 1e-10 fixed-point tolerance.
CSV_RTOL = 1e-5
CSV_ATOL = 1e-10

# solve_spd accepts a stalled solve up to this relative residual
RESIDUAL_LIMIT = 1e-10

# default stopping tolerance of solve_optimal_fixed_point
FIXED_POINT_TOL = 1e-10

_SPLIT = re.compile(r"([,\s=:]+)")


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def compare_csv(text, reference):
    """None when a CSV report matches its reference, else the first mismatch.

    Non-numeric tokens must be equal; numbers must agree within
    CSV_RTOL relative plus CSV_ATOL absolute.
    """
    got, want = text.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return f"report has {len(got)} lines, reference has {len(want)}"
    for lineno, (line, ref) in enumerate(zip(got, want), start=1):
        toks, ref_toks = _SPLIT.split(line), _SPLIT.split(ref)
        if len(toks) != len(ref_toks):
            return f"line {lineno}: {line!r} does not match reference {ref!r}"
        for tok, ref_tok in zip(toks, ref_toks):
            a, b = _number(tok), _number(ref_tok)
            if a is None or b is None:
                if tok != ref_tok:
                    return f"line {lineno}: {tok!r} differs from reference {ref_tok!r}"
            elif not abs(a - b) <= CSV_RTOL * abs(b) + CSV_ATOL:
                return f"line {lineno}: {a!r} differs from reference {b!r}"
    return None


def check_report(text, reference):
    """None when every named check PASSes and the values match the reference."""
    verdicts = re.findall(r"^# check (\S+): (\S+)$", text, flags=re.M)
    if not verdicts:
        return "report names no checks"
    failed = [name for name, verdict in verdicts if verdict != "PASS"]
    if failed:
        return f"checks not PASS: {', '.join(failed)}"
    return compare_csv(text, reference)


def check_optimum(mesh, spec, sol, tol=FIXED_POINT_TOL):
    """None when an optimum is finite and its recomputed gradient is small.

    At the fixed-point stop the step is at most tol * max(1, |q|); for a
    contraction the gradient M (q - T q) is then at most M times that.
    """
    if not (math.isfinite(sol.cost) and math.isfinite(sol.gradient_norm)):
        return f"non-finite optimum: cost {sol.cost!r}, gradient norm {sol.gradient_norm!r}"
    q = sol.q_opt
    if not np.all(np.isfinite(q.coefficients)):
        return "non-finite optimal control"
    with np.errstate(all="ignore"):
        gnorm = assembly.norm(optctl.gradient(mesh, spec, q), "Q")
        qnorm = assembly.norm(q, "Q")
    if not math.isfinite(gnorm):
        return f"non-finite recomputed gradient norm {gnorm!r}"
    limit = spec.M * tol * max(1.0, qnorm)
    if gnorm > limit:
        return f"recomputed gradient norm {gnorm:.3e} exceeds {limit:.3e}"
    return None


def robin_residuals(mesh, spec, q, u, p):
    """Relative residuals of the Robin state and adjoint equations.

    The system is rebuilt from assembly's public matrices and load vectors,
    not from the solver's cached operator.
    """
    gamma1, gamma2 = mesh_mod.BoundaryTag.GAMMA1, mesh_mod.BoundaryTag.GAMMA2
    stiff = assembly.assemble_stiffness(mesh)
    b1 = assembly.assemble_boundary_mass(mesh, gamma1)
    b2 = assembly.assemble_boundary_mass(mesh, gamma2)
    mass = assembly.assemble_mass(mesh)
    matrix = stiff + spec.alpha * b1
    flux = np.zeros(len(mesh.vertices))
    flux[mesh_mod.dof_partition(mesh).gamma2_trace_dofs] = q.coefficients
    ones = np.ones(len(mesh.vertices))
    rhs_u = assembly.assemble_load(mesh, spec.g) - b2 @ flux + spec.alpha * spec.b * (b1 @ ones)
    rhs_p = mass @ u.coefficients - assembly.assemble_load(mesh, spec.z_d)
    res_u = np.linalg.norm(matrix @ u.coefficients - rhs_u) / np.linalg.norm(rhs_u)
    res_p = np.linalg.norm(matrix @ p.coefficients - rhs_p) / np.linalg.norm(rhs_p)
    return float(res_u), float(res_p)


def _sin_product(rng):
    # kx = ky = 1: with the default ky = 2 the optimal control nearly cancels
    # (|q| ~ 0.01), the fixed-point stop runs on absolute steps and the
    # iteration count jumps between 5 and 8 with the data scale
    return harness.field_from_config(
        {"name": "sin_product", "scale": float(rng.uniform(5.0, 15.0)), "kx": 1, "ky": 1}
    )


class Suite:
    """The five default experiments through the CLI, in harness.KINDS order."""

    name = "suite"

    def __init__(self, seed, stream, workdir):
        self.seed = seed
        self.out = workdir
        self.kinds = tuple(harness.KINDS)
        self.ops_per_pass = self.warmup_ops = len(self.kinds)
        self.reference = {}
        for kind in self.kinds:
            with open(os.path.join(REFERENCE_DIR, f"{kind}.csv")) as handle:
                self.reference[kind] = handle.read()

    def prepare(self, i):
        kind = self.kinds[i % len(self.kinds)]
        path = os.path.join(self.out, f"{kind}.csv")
        if os.path.exists(path):
            os.remove(path)
        return kind

    def run(self, kind):
        return cli.main([kind, "--out", self.out, "--seed", str(self.seed)])

    def check(self, kind, status):
        if status != 0:
            return f"fluxopt {kind} exited with status {status}"
        with open(os.path.join(self.out, f"{kind}.csv")) as handle:
            return check_report(handle.read(), self.reference[kind])


class FineOpt:
    """Fixed-point optima on one n = 128 mesh, clamped and Robin ops alternating."""

    name = "fine_opt"
    ops_per_pass = 2
    warmup_ops = 1

    def __init__(self, seed, stream, workdir):
        self.rng = np.random.default_rng([seed, stream])
        self.mesh = mesh_mod.build_structured_mesh(128, ("bottom",))
        coarse = mesh_mod.build_structured_mesh(8, ("bottom",))
        penalty = 4.0 * linsolve.estimate_constants(coarse).contraction_bound()
        self.spec = pde.ProblemSpec(
            g=_sin_product(np.random.default_rng(seed)), z_d=harness.field_from_config(0.0),
            b=1.0, M=penalty,
        )

    def prepare(self, i):
        if i % 2 == 0:
            return self.spec
        # alpha stratified over [10, 1e4], jittered in its decade; the decade
        # follows the pass, so the workers' passes of one number do like work
        decade = (i // 2) % 3
        return self.spec.with_alpha(10.0 ** (1 + decade + self.rng.uniform()))

    def run(self, spec):
        return optctl.solve_optimal_fixed_point(self.mesh, spec)

    def check(self, spec, sol):
        return check_optimum(self.mesh, spec, sol)


class AlphaChurn:
    """Robin state + adjoint on one n = 128 mesh, a fresh alpha every op."""

    name = "alpha_churn"
    ops_per_pass = 6
    warmup_ops = 1

    def __init__(self, seed, stream, workdir):
        self.rng = np.random.default_rng([seed, stream])
        self.mesh = mesh_mod.build_structured_mesh(128, ("bottom",))
        self.trace_size = len(mesh_mod.dof_partition(self.mesh).gamma2_trace_dofs)
        self.spec = pde.ProblemSpec(
            g=_sin_product(np.random.default_rng(seed)), z_d=harness.field_from_config(0.0),
            b=1.0, M=1.0,
        )

    def prepare(self, i):
        # alpha stratified over [10, 1e4], jittered in its decade.  Below 10
        # solve_spd's Jacobi-CG can stall just above RESIDUAL_LIMIT and raise
        # (alpha 1 to 1.7, a few % of random controls; a case is pinned in
        # tests/test_perfbench.py), and no op of a workload may fail.
        decade = 1 + i % 3
        spec = self.spec.with_alpha(10.0 ** (decade + self.rng.uniform()))
        q = mesh_mod.TraceField(self.mesh, self.rng.standard_normal(self.trace_size))
        return spec, q

    def run(self, inputs):
        spec, q = inputs
        u = pde.solve_state(self.mesh, spec, q)
        return u, pde.solve_adjoint(self.mesh, spec, u)

    def check(self, inputs, states):
        spec, q = inputs
        res_u, res_p = robin_residuals(self.mesh, spec, q, *states)
        if not (res_u <= RESIDUAL_LIMIT and res_p <= RESIDUAL_LIMIT):
            return f"Robin residuals {res_u:.3e} (state), {res_p:.3e} (adjoint) exceed {RESIDUAL_LIMIT:g}"
        return None


WORKLOADS = {w.name: w for w in (Suite, FineOpt, AlphaChurn)}
