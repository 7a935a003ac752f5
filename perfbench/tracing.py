"""Outside-in tracing of fluxopt's public functions, by layer.

The tracer replaces each traced function at every binding site: the module
that defines it and every fluxopt module that imported it by name (for
example ``pde.solve_spd`` or ``harness.estimate_constants``).  The solve
callable returned by ``linsolve.factorize`` is wrapped as well.  No source
file of the program is changed; the wrappers live only in the traced process.

A span's self time is its duration minus the time of the spans it caused.
Counters are recorded at the same boundaries.  Work the tracer does itself
(the residual recomputation after each ``solve_spd``) is excluded from every
layer's self time and reported as ``trace.check_s``.
"""

from __future__ import annotations

import functools
import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer -> (defining module, public functions timed under that layer)
LAYERS = {
    "mesh.build": ("mesh", ("build_structured_mesh", "refine")),
    "mesh.transfer": ("mesh", ("prolongate", "prolongate_trace", "restrict_trace", "interpolate_trace")),
    "assembly.matrices": ("assembly", ("assemble_stiffness", "assemble_mass", "assemble_boundary_mass")),
    "assembly.load": ("assembly", ("assemble_load",)),
    "assembly.norms": ("assembly", ("norm", "l2_misfit_sq", "v_error_vs_exact")),
    "linsolve.solve_spd": ("linsolve", ("solve_spd",)),
    "linsolve.factorize": ("linsolve", ("factorize",)),
    "linsolve.estimate_constants": ("linsolve", ("estimate_constants",)),
    "pde.solve_state": ("pde", ("solve_state",)),
    "pde.solve_adjoint": ("pde", ("solve_adjoint",)),
    "optctl.fixed_point": ("optctl", ("solve_optimal_fixed_point",)),
    "optctl.reduced": ("optctl", ("solve_optimal_reduced",)),
    "harness.run": ("harness", ("run",)),
    "harness.write_csv": ("harness", ("write_csv",)),
    "cli.main": ("cli", ("main",)),
}
# spans with calls and self time; lu_solve has no binding site of its own
SPANS = tuple(LAYERS) + ("linsolve.lu_solve",)


class Tracer:
    """Span and counter recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.active = True
        self._stack = []
        self._restore = []
        self._seen_matrices = weakref.WeakKeyDictionary()
        self._seen_loads = weakref.WeakKeyDictionary()
        self.reset()

    def reset(self):
        """Zero the accumulators; the record of what was seen before stays."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.wall_by_kind = defaultdict(float)
        self.toplevel_s = 0.0
        self.check_s = 0.0
        self.matrix_first = 0
        self.load_repeat = 0
        self.spd_failed = 0
        self.spd_unknowns_max = 0
        self.spd_residual_max = 0.0
        self.lu_columns = 0
        self.fp_iterations = 0
        self.fp_ratio_max = 0.0
        self.reduced_dofs_max = 0
        self._operators = {}  # id -> weakref for matrices and factors used since reset
        self.distinct_operators = 0
        self._pde_pairs = weakref.WeakKeyDictionary()  # mesh -> alphas solved since reset
        self.distinct_pde = 0

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced function at every binding site; returns the site count."""
        import fluxopt  # noqa: F401  (loads every submodule)

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fluxopt" or name.startswith("fluxopt."))]
        sites = 0
        for layer, (modname, names) in LAYERS.items():
            defining = sys.modules[f"fluxopt.{modname}"]
            for fname in names:
                original = getattr(defining, fname, None)
                if not callable(original):
                    raise RuntimeError(f"fluxopt.{modname}.{fname} is missing: layer {layer} cannot be traced")
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
                            sites += 1
        return sites

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer, fn):
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if layer == "linsolve.solve_spd":
                    self.spd_failed += 1
                raise
            finally:
                self._close(layer, start, frame)
            if after is not None:
                t0 = perf_counter()
                result = after(fn, args, kwargs, result, perf_counter() - start)
                self._exclude(perf_counter() - t0)
            return result

        return wrapper

    def _close(self, layer, start, frame):
        duration = perf_counter() - start
        self._stack.pop()
        self.calls[layer] += 1
        self.self_s[layer] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        else:
            self.toplevel_s += duration

    def _exclude(self, seconds):
        """Keep tracer bookkeeping out of the self time of the enclosing span."""
        self.check_s += seconds
        if self._stack:
            self._stack[-1][0] += seconds

    def _operator_used(self, obj):
        # a dead reference under a reused id is a new operator, not the old one
        key = id(obj)
        ref = self._operators.get(key)
        if ref is None or ref() is not obj:
            self._operators[key] = weakref.ref(obj)
            self.distinct_operators += 1

    # -- per-layer counters ---------------------------------------------------

    def _after_assembly_matrices(self, fn, args, kwargs, result, _dur):
        mesh = args[0]
        key = (fn.__name__, args[1:], tuple(sorted(kwargs.items())))
        seen = self._seen_matrices.setdefault(mesh, set())
        if key not in seen:
            seen.add(key)
            self.matrix_first += 1
        return result

    def _after_assembly_load(self, fn, args, kwargs, result, _dur):
        mesh, f = args[0], args[1] if len(args) > 1 else kwargs["f"]
        seen = self._seen_loads.setdefault(mesh, [])
        if any(g is f for g in seen):
            self.load_repeat += 1
        else:
            seen.append(f)
        return result

    def _after_linsolve_solve_spd(self, fn, args, kwargs, result, _dur):
        matrix = args[0]
        rhs = np.asarray(args[1] if len(args) > 1 else kwargs["rhs"], dtype=float)
        self.spd_unknowns_max = max(self.spd_unknowns_max, int(matrix.shape[0]))
        bnorm = float(np.linalg.norm(rhs))
        if bnorm > 0.0:
            res = float(np.linalg.norm(matrix @ result - rhs)) / bnorm
            self.spd_residual_max = max(self.spd_residual_max, res)
        self._operator_used(matrix)
        return result

    def _after_linsolve_factorize(self, fn, args, kwargs, solve, _dur):
        tracer = self

        def lu_solve(rhs):
            if not tracer.active:
                return solve(rhs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                return solve(rhs)
            finally:
                tracer._close("linsolve.lu_solve", start, frame)
                tracer.lu_columns += 1 if np.ndim(rhs) < 2 else int(np.shape(rhs)[1])
                tracer._operator_used(lu_solve)

        return lu_solve

    def _after_pde_solve_state(self, fn, args, kwargs, result, _dur):
        mesh, spec = args[0], args[1]
        alphas = self._pde_pairs.setdefault(mesh, set())
        if spec.alpha not in alphas:
            alphas.add(spec.alpha)
            self.distinct_pde += 1
        return result

    _after_pde_solve_adjoint = _after_pde_solve_state

    def _after_optctl_fixed_point(self, fn, args, kwargs, result, _dur):
        self.fp_iterations += int(result.iterations)
        finite = [r for r in result.contraction_ratios if np.isfinite(r)]
        if finite:
            self.fp_ratio_max = max(self.fp_ratio_max, max(finite))
        return result

    def _after_optctl_reduced(self, fn, args, kwargs, result, _dur):
        self.reduced_dofs_max = max(self.reduced_dofs_max, len(result.q_opt.coefficients))
        return result

    def _after_harness_run(self, fn, args, kwargs, result, duration):
        config = args[0] if args else kwargs["config"]
        self.wall_by_kind[config.kind] += duration
        return result

    # -- report -------------------------------------------------------------

    def snapshot(self):
        """Totals since the last reset, as a plain dict."""
        solves = self.calls["linsolve.solve_spd"] + self.calls["linsolve.lu_solve"]
        data = {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "wall_by_kind": dict(self.wall_by_kind),
            "toplevel_s": self.toplevel_s,
            "check_s": self.check_s,
            "matrix_first": self.matrix_first,
            "load_repeat": self.load_repeat,
            "spd_failed": self.spd_failed,
            "spd_unknowns_max": self.spd_unknowns_max,
            "spd_residual_max": self.spd_residual_max,
            "lu_columns": self.lu_columns,
            "fp_iterations": self.fp_iterations,
            "fp_ratio_max": self.fp_ratio_max,
            "reduced_dofs_max": self.reduced_dofs_max,
            "distinct_pde": self.distinct_pde,
            "solves": solves,
            "operators": self.distinct_operators,
        }
        return data
