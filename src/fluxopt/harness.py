"""Experiment runners for the convergence studies and their CSV reports.

EXPERIMENTS holds one entry per experiment kind: its runner, a one-line
summary, its report's column notes and its default configuration.  An
ExperimentConfig takes its kind's defaults and is checked once, when it is
built.  run fetches the config's meshes, those of its levels and of its
n_ref, and hands them to the kind's runner, which takes its problem data and
ProblemSpec from prepare and returns rows keyed by column name, meta
entries, least-squares rate fits and named pass/fail checks; run builds the
ConvergenceReport of them, and write_csv writes it.  Reference
solutions for the vanishing-mesh-size limit are computed on a fine nested
mesh and compared through exact prolongation, so no cross-mesh interpolation
error enters the reported numbers.

Problem data fields (forcing, target, fixed control, exact solution) are
named built-in expressions rather than arbitrary code, which keeps configs
portable and runs bit-reproducible.  Fields built from equal config entries
are equal, so a mesh's store keeps one load vector per entry.

run takes the meshes from one registry per process (``_kept_mesh``), keyed
by cells per side and clamped sides.  A kept mesh's store (matrices, modes,
solvers, constants and loads) serves every later run of the process, of any
kind, within a budget of ``_KEPT_VERTICES`` vertices; a process that runs
one kind once gains nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import assembly, optctl, pde
from .linsolve import ConvergenceError, estimate_constants
from .mesh import (
    BoundaryTag,
    Mesh,
    NodalField,
    TraceField,
    build_structured_mesh,
    check_grid,
    check_nesting,
    interpolate_trace,
    prolongate,
    prolongate_trace,
    restrict_trace,
)

class Field:
    """Scalar field callable with an optional closed-form gradient.

    bound, if given, is at least |f|, |df/dx| and |df/dy| on the unit square;
    an infinite one means the field may overflow there (``field_from_config``).
    key, set by ``field_from_config``, is the field's config entry: fields
    with equal keys are equal and hash alike, and a field without one equals
    only itself.
    """

    def __init__(self, name, fn, grad=None, bound=None):
        self.name = name
        self._fn = fn
        self._grad = grad
        self.bound = bound
        self.key = None

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return self is other or (self.key is not None and self.key == other.key)

    def __hash__(self):
        return object.__hash__(self) if self.key is None else hash(self.key)

    def __call__(self, x, y):
        return self._fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def gradient(self, x, y):
        if self._grad is None:
            raise ValueError(f"field {self.name!r} has no closed-form gradient")
        return self._grad(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def _const_field(value=0.0):
    v = float(value)
    return Field(
        "constant",
        lambda x, y: np.full(np.shape(x), v),
        lambda x, y: (np.zeros(np.shape(x)), np.zeros(np.shape(x))),
    )


_DERIVATIVE = {np.sin: np.cos, np.cos: lambda t: -np.sin(t)}


def _separable(name, f, scale=1.0, kx=1, ky=1, offset=0.0):
    """offset + scale f(kx pi x) f(ky pi y), with f = sin or cos; its gradient goes through f'."""
    off, s, wx, wy = float(offset), float(scale), float(kx) * np.pi, float(ky) * np.pi
    df = _DERIVATIVE[f]
    return Field(
        name,
        lambda x, y: off + s * f(wx * x) * f(wy * y),
        lambda x, y: (s * wx * df(wx * x) * f(wy * y), s * wy * f(wx * x) * df(wy * y)),
        abs(off) + abs(s) * max(1.0, abs(wx), abs(wy)),
    )


def _polynomial(coefficients=((0.0,),)):
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 2:
        raise ValueError("polynomial coefficients must be a 2D array, entry [i][j] scaling x^i y^j")
    P = np.polynomial.polynomial
    with np.errstate(over="ignore"):  # an overflowing derivative makes the bound infinite
        cx = P.polyder(c, axis=0) if c.shape[0] > 1 else np.zeros((1, 1))
        cy = P.polyder(c, axis=1) if c.shape[1] > 1 else np.zeros((1, 1))
    # |x|, |y| <= 1 bound p by its sum of |coefficients|, in Python floats (inf on overflow)
    return Field(
        "polynomial",
        lambda x, y: P.polyval2d(x, y, c),
        lambda x, y: (P.polyval2d(x, y, cx), P.polyval2d(x, y, cy)),
        max(sum(np.abs(a).ravel().tolist()) for a in (c, cx, cy)),
    )


def _mms_flux():
    # Outward flux -du/dn of the verification solution, defined edge by edge:
    # pi sin(pi y) on the vertical sides, pi sin(pi x) on the horizontal ones.
    # Both expressions vanish at the corners, so the pointwise choice there
    # is immaterial.
    def fn(x, y):
        vertical = (x < 1e-12) | (x > 1.0 - 1e-12)
        return np.where(vertical, np.pi * np.sin(np.pi * y), np.pi * np.sin(np.pi * x))

    return Field("mms_flux", fn)


# each field's parameters are its builder's keyword arguments
_FIELD_BUILDERS = {
    "constant": _const_field,
    "zero": lambda: _const_field(0.0),
    "sin_product": lambda scale=1.0, kx=1, ky=1: _separable("sin_product", np.sin, scale, kx, ky),
    "trig_product": lambda scale=1.0, kx=1, ky=1: _separable("trig_product", np.cos, scale, kx, ky),
    "polynomial": _polynomial,
    # Built-in smooth verification solution offset + sin(pi x) sin(pi y) and its
    # load, the negative Laplacian 2 pi^2 sin(pi x) sin(pi y).  The solution is
    # constant on the whole square boundary and its normal flux vanishes at
    # every corner, so vertex interpolation of the flux carries no corner defect.
    "mms_solution": lambda offset=0.0: _separable("mms_solution", np.sin, offset=offset),
    "mms_load": lambda: _separable("mms_load", np.sin, 2.0 * np.pi * np.pi),
    "mms_flux": _mms_flux,
}


def field_from_config(value) -> Field:
    """Build a named field from a config entry: a number or {"name": ..., params}."""
    if _is_number(value):
        value = {"name": "constant", "value": _number(value, "field value")}
    if not isinstance(value, dict) or "name" not in value:
        raise ValueError(f"field config must be a number or a dict with a 'name' key, got {value!r}")
    name = value["name"]
    if not isinstance(name, str) or name not in _FIELD_BUILDERS:
        raise ValueError(f"unknown field {name!r}; known fields: {sorted(_FIELD_BUILDERS)}")
    builder = _FIELD_BUILDERS[name]
    params = {k: v for k, v in value.items() if k != "name"}
    unknown = set(params) - set(inspect.signature(builder).parameters)
    if unknown:
        raise ValueError(f"field {name!r} does not accept parameters {sorted(unknown)}")
    try:
        built = builder(**params)
    except (TypeError, OverflowError) as exc:  # OverflowError: an integer beyond the float range
        raise ValueError(f"field {name!r} has a parameter of the wrong type: {exc}") from None
    for key, param in params.items():
        if not _is_finite(param):
            raise ValueError(f"field {name!r} parameter {key} must be finite numbers, got {param!r}")
    if built.bound is not None and not math.isfinite(built.bound):
        raise ValueError(
            f"field {name!r} overflows on the unit square: its values or gradient "
            "can exceed the largest float"
        )
    built.key = (name,) + tuple((k, _exact(v)) for k, v in sorted(params.items()))
    return built


def _exact(value):
    """A finite parameter, or nested list of them, as a hashable key of the float bits it is read as."""
    if isinstance(value, (list, tuple)):
        return tuple(_exact(v) for v in value)
    return float(value).hex()


_DATA_FIELDS = ("g", "z_d", "q_star", "exact")

# the vertices the kept meshes hold at most: the default kinds' 7 meshes hold
# 22,359, and a mesh of n >= 256 is never kept
_KEPT_VERTICES = 2**16
# (n, gamma1_sides) -> kept mesh, least recently used first
_KEPT: Dict[tuple, Mesh] = {}


def _kept_mesh(n, gamma1_sides) -> Mesh:
    """The process's mesh of n cells per side clamped on gamma1_sides, kept with its store.

    The mesh is built on every call, which checks n and the sides and gives
    the key; a kept mesh of that key is returned in its place.  A kept mesh
    does not skip the build because the benchmark's traced suite must reach
    ``mesh.build`` in its warm passes (``perfbench/run.py``, ``REACHES``).
    The least recently used meshes go first once the kept ones hold more
    than ``_KEPT_VERTICES`` vertices, and a larger mesh is returned but not
    kept.
    """
    built = build_structured_mesh(n, gamma1_sides)
    key = (built.n, built.gamma1_sides)
    mesh = _KEPT.pop(key, built)
    if len(mesh.vertices) <= _KEPT_VERTICES:
        _KEPT[key] = mesh
        while sum(len(kept.vertices) for kept in _KEPT.values()) > _KEPT_VERTICES:
            del _KEPT[next(iter(_KEPT))]
    return mesh


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run, checked when it is built.

    Fields left as None take the kind's defaults from EXPERIMENTS, and
    ``problem`` is merged over the kind's own.  A config sets only what its
    kind reads, never the thresholds of its checks (ExperimentKind.tol); a
    config that sets anything else, or that the runners cannot execute
    faithfully, raises ValueError at construction.  ``mesh.check_grid`` and
    ``mesh.check_nesting`` check its levels and n_ref, with their messages.
    """

    kind: str
    problem: dict = field(default_factory=dict)
    gamma1_sides: Tuple[str, ...] = ("bottom",)
    levels: Optional[Tuple[int, ...]] = None
    alphas: Optional[Tuple[float, ...]] = None
    n_ref: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in EXPERIMENTS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; known kinds: {KINDS}")
        experiment = EXPERIMENTS[self.kind]
        for key in ("levels", "alphas", "gamma1_sides"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, (list, tuple)):
                raise ValueError(f"{key} must be a list, got {value!r}")
        if not isinstance(self.problem, dict):
            raise ValueError(f"problem must be a JSON object, got {self.problem!r}")
        if self.alphas not in (None, ()) and not experiment.alphas:
            raise ValueError(f"{self.kind} does not read alphas, got {self.alphas!r}")
        if self.n_ref is not None and experiment.n_ref is None:
            raise ValueError(f"{self.kind} does not read n_ref, got {self.n_ref!r}")
        unknown = set(self.problem) - set(experiment.problem)
        if unknown:
            allowed = sorted(experiment.problem)
            raise ValueError(f"unknown problem keys {sorted(unknown)} for {self.kind}; allowed: {allowed}")
        levels = experiment.levels if self.levels is None else self.levels
        alphas = experiment.alphas if self.alphas is None else self.alphas
        n_ref = experiment.n_ref if self.n_ref is None else check_grid(self.n_ref, self.gamma1_sides)[0]
        filled = {
            "problem": {**experiment.problem, **self.problem},
            "gamma1_sides": tuple(self.gamma1_sides),
            "levels": tuple(check_grid(n, self.gamma1_sides)[0] for n in levels),
            "alphas": tuple(_number(a, "alpha") for a in alphas),
            "n_ref": n_ref,
            "seed": _integer(self.seed, "seed"),
        }
        for name, value in filled.items():
            object.__setattr__(self, name, value)
        levels = self.levels
        if len(levels) < experiment.min_levels:
            raise ValueError(
                f"{self.kind} needs at least {experiment.min_levels} mesh levels, got {len(levels)}"
            )
        if experiment.max_levels is not None and len(levels) > experiment.max_levels:
            raise ValueError(
                f"{self.kind} reads at most {experiment.max_levels} mesh level, got {len(levels)}"
            )
        ladder = levels if n_ref is None else levels + (n_ref,)
        for coarse, fine in zip(ladder, ladder[1:]):
            check_nesting(coarse, fine)
        if experiment.alphas and len(self.alphas) < 2:
            raise ValueError(f"{self.kind} needs an alpha ladder with at least 2 entries")
        for a, b in zip(self.alphas, self.alphas[1:]):
            if b <= a:
                raise ValueError(f"alphas must be strictly increasing, got {a} -> {b}")
        if any(a <= 0 for a in self.alphas):
            raise ValueError("alphas must be positive")
        if experiment.oracle:
            optctl.check_response_size(build_structured_mesh(levels[-1], self.gamma1_sides))
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.problem:
            prepare(self)


@dataclass(frozen=True)
class ExperimentKind:
    """Runner, summary, column notes and defaults of one experiment kind.

    ``runner(config, meshes, ref_mesh)`` gets the kept meshes of the
    config's levels, in order, and of its n_ref (None for a kind without
    one), and returns the report's (rows, meta, rates, checks); ``run``
    builds the ConvergenceReport with the kind's ``column_notes``.

    A kind compares against a fine reference mesh when its default n_ref is
    set, needs an alpha ladder when its default alphas are nonempty, and
    checks its finest level against the dense route when ``oracle`` is set,
    so that level must fit ``optctl.check_response_size``.  A config has
    ``min_levels`` to ``max_levels`` mesh levels (no upper bound if None),
    sets only its default problem keys and never ``tol``, its checks'
    thresholds.
    """

    runner: Callable[[ExperimentConfig, List[Mesh], Optional[Mesh]], tuple]
    summary: str
    column_notes: str
    problem: dict
    levels: Tuple[int, ...]
    tol: Dict[str, float]
    min_levels: int
    max_levels: Optional[int] = None
    alphas: Tuple[float, ...] = ()
    n_ref: Optional[int] = None
    oracle: bool = False


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """Whether value is a number a float holds finitely, or a nested list of them."""
    if isinstance(value, (list, tuple)):
        return all(_is_finite(v) for v in value)
    return _is_number(value) and abs(value) <= sys.float_info.max  # exact, no OverflowError, for any int


def _number(value, what: str) -> float:
    if not _is_number(value) or not _is_finite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"kind"}


def config_from_dict(kind: str, data: dict) -> ExperimentConfig:
    """The config of a JSON object keyed by field name; absent keys take the kind's defaults."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}; allowed: {sorted(_CONFIG_KEYS)}")
    return ExperimentConfig(kind, **data)


def prepare(
    config: ExperimentConfig, mesh: Optional[Mesh] = None
) -> Tuple[Dict[str, Field], pde.ProblemSpec]:
    """The data fields and the ProblemSpec of a config's problem.

    The returned dict maps each data field name present in the config's
    problem, which only the constants kind leaves empty, to its Field.
    M = "auto" is 4x the clamped-family contraction threshold on ``mesh``,
    the coarsest of the run; the factor keeps the
    default experiments inside the contraction regime for both families
    with margin, since the Robin threshold at unit or larger transfer
    coefficient is below 2.6x the clamped one on these meshes.  Runs that
    do not optimize pass no mesh, and "auto" then means 1.
    """
    problem = config.problem
    b = _number(problem["b"], "boundary value b")
    m_val = problem["M"]
    if m_val == "auto":
        M = 1.0 if mesh is None else 4.0 * estimate_constants(mesh).contraction_bound()
    elif _is_number(m_val) and m_val > 0:
        M = _number(m_val, "penalty weight M")
    else:
        raise ValueError(f"penalty weight M must be 'auto' or a positive number, got {m_val!r}")
    fields = {key: field_from_config(problem[key]) for key in _DATA_FIELDS if key in problem}
    if "exact" in fields and fields["exact"]._grad is None:
        raise ValueError(f"exact field {fields['exact'].name!r} has no closed-form gradient")
    return fields, pde.ProblemSpec(g=fields["g"], z_d=fields["z_d"], b=b, M=M)


# errors at or below this count as solved exactly
_RATE_FLOOR = 1e-10

# First-order-norm rate of P1 errors in h.  Every supported geometry splits
# the boundary at right-angled corners, where smooth data give H^2 solutions
# (Grisvard, Elliptic Problems in Nonsmooth Domains, 1985).
_EXPECTED_RATE = 1.0


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log error against log mesh size."""

    rate: float
    residual: float
    status: str  # "ok", "exact", "unreliable", or "short"
    points: int


def fit_rate(hs, errs, floor=_RATE_FLOOR) -> RateFit:
    """Fit err ~ C*h^rate in log10 space, ignoring error values at the floor.

    Values at or below the floor (default 1e-10, for first-order errors) are
    treated as exactly zero (converged to solver precision): if nothing lies
    above the floor the fit is "exact".
    A log-space residual above 0.1 marks the fit "unreliable" and its verdict
    is reported as such instead of pass or fail.
    """
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if hs.shape != errs.shape or hs.ndim != 1:
        raise ValueError("rate fit needs matching 1D arrays of sizes and errors")
    if np.any(errs < 0) or np.any(hs <= 0):
        raise ValueError("rate fit needs positive sizes and nonnegative errors")
    keep = errs > floor
    if not np.any(keep):
        return RateFit(rate=math.inf, residual=0.0, status="exact", points=0)
    if np.count_nonzero(keep) < 3:
        return RateFit(rate=math.nan, residual=math.nan, status="short", points=int(keep.sum()))
    logh = np.log10(hs[keep])
    loge = np.log10(errs[keep])
    slope, intercept = np.polyfit(logh, loge, 1)
    resid = float(np.sqrt(np.mean((loge - (slope * logh + intercept)) ** 2)))
    status = "unreliable" if resid > 0.1 else "ok"
    return RateFit(rate=float(slope), residual=resid, status=status, points=int(keep.sum()))


@dataclass
class ConvergenceReport:
    """Raw experiment numbers plus fitted rates and named verdicts.

    Each row is a dict from column name to value, with the same keys in the
    same order in every row; the first row's keys are the columns.
    """

    kind: str
    column_notes: str
    rows: List[Dict[str, object]]
    meta: Dict[str, object]
    rates: Dict[str, RateFit]
    checks: Dict[str, object]  # True, False, or "UNRELIABLE"

    @property
    def passed(self) -> bool:
        return all(v is True for v in self.checks.values())

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(self.rows[0]) if self.rows else ()


def _column(rows, name: str) -> list:
    return [row[name] for row in rows]


def verdict(value) -> str:
    """PASS for a True check, FAIL for False, else the check's own word."""
    return "PASS" if value is True else ("FAIL" if value is False else str(value))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(report: ConvergenceReport, path: str) -> None:
    """Write the report to CSV atomically; byte-identical for identical runs."""
    lines = [f"# {report.kind} report"]
    lines.append(f"# columns: {report.column_notes}")
    for key in sorted(report.meta):
        lines.append(f"# meta {key} = {_fmt(report.meta[key])}")
    for key in sorted(report.rates):
        fit = report.rates[key]
        lines.append(
            f"# rate {key}: rate={_fmt(fit.rate)} residual={_fmt(fit.residual)} "
            f"status={fit.status} points={fit.points}"
        )
    for key in sorted(report.checks):
        lines.append(f"# check {key}: {verdict(report.checks[key])}")
    columns = report.columns
    lines.append(",".join(columns))
    for row in report.rows:
        lines.append(",".join(_fmt(row[name]) for name in columns))
    text = "\n".join(lines) + "\n"
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _rate_check(fit: RateFit, threshold: float):
    if fit.status == "exact":
        return True
    if fit.status != "ok":
        return "UNRELIABLE"
    return bool(fit.rate >= threshold)


def _strictly_decreasing(values) -> bool:
    values = list(values)
    return all(b < a for a, b in zip(values, values[1:]))


def _decay_ok(values, factor: float) -> bool:
    values = list(values)
    if values[0] <= 0.0:
        return values[-1] <= 0.0 or values[-1] <= factor
    return values[-1] <= factor * values[0]


# ladder entries at or below this are too small to scale the others by
_LADDER_FLOOR = 1e-14


def _bounded_along_ladder(values, growth: float) -> bool:
    """True when no entry exceeds growth times the first meaningful entry."""
    values = list(values)
    ref = next((v for v in values if v > _LADDER_FLOOR), None)
    if ref is None:
        return True
    return max(values) <= growth * ref


def _boundary_energy(mesh: Mesh, coefficients: np.ndarray) -> float:
    """Squared clamped-boundary integral of a nodal coefficient vector."""
    b1 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
    return float(coefficients @ (b1 @ coefficients))


def _run_state_convergence(config: ExperimentConfig, meshes, ref_mesh):
    """Mesh-size convergence of state and adjoint at a fixed control.

    The state error is measured against the closed-form exact solution; the
    adjoint, which has no closed form, is compared against the fine reference
    mesh through exact prolongation.
    """
    fields, spec = prepare(config)
    q_star, exact = fields["q_star"], fields["exact"]

    u_ref = pde.solve_state(ref_mesh, spec, interpolate_trace(q_star, ref_mesh))
    p_ref = pde.solve_adjoint(ref_mesh, spec, u_ref)

    rows = []
    for mesh in meshes:
        u = pde.solve_state(mesh, spec, interpolate_trace(q_star, mesh))
        p = pde.solve_adjoint(mesh, spec, u)
        rows.append(
            {
                "n": mesh.n,
                "h": mesh.h,
                "state_err": assembly.v_error_vs_exact(u, exact, exact.gradient),
                "adjoint_err": assembly.norm(prolongate(p, ref_mesh) - p_ref, "V"),
            }
        )

    hs = _column(rows, "h")
    rates = {
        "state_rate": fit_rate(hs, _column(rows, "state_err")),
        "adjoint_rate": fit_rate(hs, _column(rows, "adjoint_err")),
    }
    threshold = _EXPECTED_RATE - EXPERIMENTS[config.kind].tol["rate_slack"]
    checks = {name: _rate_check(fit, threshold) for name, fit in rates.items()}
    return rows, {"n_ref": config.n_ref, "expected_rate": _EXPECTED_RATE, "M": spec.M}, rates, checks


def _run_control_convergence(config: ExperimentConfig, level_meshes, ref_mesh):
    """Mesh-size convergence of the optimal control, its state and adjoint.

    Per-level optima come from the contraction iteration; the fine reference
    optimum comes from conjugate gradients on the reduced Hessian, so the
    reference is not generated by the code path under test, and the finest
    level's optimum must agree with the dense reduced solve within its
    gradient bound.  Cost columns record the two quadratic optimal-value
    gaps, each as its quadratic form about the optimum, and the two
    cost-consistency distances.
    """
    _, spec = prepare(config, level_meshes[0])
    ref = optctl.solve_optimal_cg(ref_mesh, spec)

    rows = []
    solutions = []
    for mesh in level_meshes:
        sol = optctl.solve_optimal_fixed_point(mesh, spec)
        solutions.append(sol)
        q_up = prolongate_trace(sol.q_opt, ref_mesh)
        q_down = restrict_trace(ref.q_opt, mesh)
        row = {
            "n": mesh.n,
            "h": mesh.h,
            "control_err": assembly.norm(q_up - ref.q_opt, "Q"),
            "state_err": assembly.norm(prolongate(sol.u_opt, ref_mesh) - ref.u_opt, "V"),
            "adjoint_err": assembly.norm(prolongate(sol.p_opt, ref_mesh) - ref.p_opt, "V"),
            "cost_gap_ref": optctl.cost_gap(ref_mesh, spec, q_up, ref),
            "cost_gap_level": optctl.cost_gap(mesh, spec, q_down, sol),
        }
        for name in ("cost_gap_ref", "cost_gap_level"):
            if row[name] < 0.0:
                raise ConvergenceError(
                    f"{name} at level n = {mesh.n} rounds below zero ({row[name]:.3e}): "
                    "the gap is under the roundoff of forming it"
                )
        row["cost_value_gap"] = abs(sol.cost + row["cost_gap_level"] - ref.cost)
        row["cost_opt_value_gap"] = abs(sol.cost - ref.cost)
        rows.append(row)
    optctl.check_with_reduced(level_meshes[-1], spec, solutions[-1])

    # start independence: rerun the coarsest level from a seeded random control
    mesh0 = level_meshes[0]
    rng = np.random.default_rng(config.seed)
    q_rand = TraceField(mesh0, rng.standard_normal(len(solutions[0].q_opt.coefficients)))
    alt = optctl.solve_optimal_fixed_point(mesh0, spec, q0=q_rand)
    start_gap = assembly.norm(alt.q_opt - solutions[0].q_opt, "Q")

    hs = _column(rows, "h")
    rates = {
        "control_rate": fit_rate(hs, _column(rows, "control_err")),
        "state_rate": fit_rate(hs, _column(rows, "state_err")),
        "adjoint_rate": fit_rate(hs, _column(rows, "adjoint_err")),
        # the cost gaps are quadratic in the control error: their floor is the floor squared
        "cost_gap_ref_rate": fit_rate(hs, _column(rows, "cost_gap_ref"), _RATE_FLOOR**2),
        "cost_gap_level_rate": fit_rate(hs, _column(rows, "cost_gap_level"), _RATE_FLOOR**2),
        "cost_value_rate": fit_rate(hs, _column(rows, "cost_value_gap")),
        "cost_opt_value_rate": fit_rate(hs, _column(rows, "cost_opt_value_gap")),
    }
    tol = EXPERIMENTS[config.kind].tol
    first = _EXPECTED_RATE - tol["rate_slack"]
    second = 2.0 * _EXPECTED_RATE - tol["cost_rate_slack"]
    checks = {
        "control_rate": _rate_check(rates["control_rate"], first),
        "state_rate": _rate_check(rates["state_rate"], first),
        "adjoint_rate": _rate_check(rates["adjoint_rate"], first),
        "cost_gap_ref_rate": _rate_check(rates["cost_gap_ref_rate"], second),
        "cost_gap_level_rate": _rate_check(rates["cost_gap_level_rate"], second),
        "cost_value_rate": _rate_check(rates["cost_value_rate"], first),
        "start_agreement": bool(start_gap <= tol["start_gap"]),
    }
    meta = {
        "n_ref": config.n_ref,
        "M": spec.M,
        "expected_rate": _EXPECTED_RATE,
        "start_gap": start_gap,
        "reference_cost": ref.cost,
        "reference_gradient_norm": ref.gradient_norm,
    }
    return rows, meta, rates, checks


def _run_alpha_sweep(config: ExperimentConfig, meshes, ref_mesh):
    """Large-transfer-coefficient limit of the Robin family at a fixed mesh.

    Records, per ladder entry, the fixed-control state and adjoint distances
    to the clamped-family solution, the three optimal-solution distances, and
    the weighted boundary penalties whose boundedness encodes the limit.
    """
    (mesh,) = meshes
    fields, spec = prepare(config, mesh)
    constants = estimate_constants(mesh)

    q_star = interpolate_trace(fields["q_star"], mesh)
    u_fix = pde.solve_state(mesh, spec, q_star)
    p_fix = pde.solve_adjoint(mesh, spec, u_fix)
    clamped = optctl.solve_optimal_fixed_point(mesh, spec)
    # the Robin states and adjoints at the fixed control: one block solve each, a column per alpha
    ladder = spec.with_alpha(tuple(config.alphas))
    q_fix = TraceField(mesh, np.tile(q_star.coefficients[:, None], len(config.alphas)))
    u_fix_robin = pde.solve_state(mesh, ladder, q_fix)
    p_fix_robin = pde.solve_adjoint(mesh, ladder, u_fix_robin)

    b_shift = spec.b * np.ones(len(mesh.vertices))
    rows = []
    for j, (alpha, sol) in enumerate(zip(config.alphas, optctl.solve_ladder(mesh, spec, config.alphas))):
        u_fix_a, p_fix_a = (NodalField(mesh, f.coefficients[:, j]) for f in (u_fix_robin, p_fix_robin))
        weight = alpha - 1.0
        rows.append(
            {
                "alpha": alpha,
                "fixed_state_dist": assembly.norm(u_fix_a - u_fix, "V"),
                "fixed_adjoint_dist": assembly.norm(p_fix_a - p_fix, "V"),
                "control_dist": assembly.norm(sol.q_opt - clamped.q_opt, "Q"),
                "state_dist": assembly.norm(sol.u_opt - clamped.u_opt, "V"),
                "adjoint_dist": assembly.norm(sol.p_opt - clamped.p_opt, "V"),
                "fixed_state_penalty": weight * _boundary_energy(mesh, u_fix_a.coefficients - b_shift),
                "state_penalty": weight * _boundary_energy(mesh, sol.u_opt.coefficients - b_shift),
                "adjoint_penalty": weight * _boundary_energy(mesh, sol.p_opt.coefficients),
            }
        )

    tol = EXPERIMENTS[config.kind].tol
    inv_alphas = [1.0 / a for a in config.alphas]
    rates = {}
    checks = {}
    for name in ("fixed_state_dist", "fixed_adjoint_dist", "control_dist", "state_dist", "adjoint_dist"):
        seq = _column(rows, name)
        rates[name + "_alpha_rate"] = fit_rate(inv_alphas, seq)
        checks[name + "_decreasing"] = _strictly_decreasing(seq)
        checks[name + "_small"] = _decay_ok(seq, tol["decay_factor"])
    for name in ("fixed_state_penalty", "state_penalty", "adjoint_penalty"):
        checks[name + "_bounded"] = _bounded_along_ladder(_column(rows, name), tol["penalty_growth"])
    meta = {
        "level": mesh.n,
        "M": spec.M,
        "clamped_cost": clamped.cost,
        "contraction_bound_clamped": constants.contraction_bound(),
        "contraction_bound_robin": constants.contraction_bound(config.alphas[0]),
    }
    return rows, meta, rates, checks


def _run_diagram(config: ExperimentConfig, level_meshes, ref_mesh):
    """Distance table of Robin-family optima to the limit across both axes.

    Cell (level, alpha) holds the boundary-norm distance between the
    prolonged Robin optimum and the clamped-family reference optimum on the
    fine mesh.  The table must shrink along both axes, and the corner cell
    must be controlled by the two single-limit tails: the clamped optimum at
    the finest level (transfer coefficient sent to infinity first) and the
    Robin optimum at the largest ladder entry on the reference mesh (mesh
    size sent to zero first).  The references come from conjugate gradients
    on the reduced Hessian, and every optimum at the finest level must agree
    with the dense reduced solve within its gradient bound.
    """
    _, spec = prepare(config, level_meshes[0])
    ref = optctl.solve_optimal_cg(ref_mesh, spec)
    robin_refs = optctl.solve_ladder(ref_mesh, spec, config.alphas, cg=True)
    pure_alpha = [assembly.norm(robin_ref.q_opt - ref.q_opt, "Q") for robin_ref in robin_refs]

    rows = []
    table = []
    pure_h = []
    meta: Dict[str, object] = {"n_ref": config.n_ref, "M": spec.M, "reference_cost": ref.cost}
    for mesh in level_meshes:
        finest = mesh is level_meshes[-1]
        clamped = optctl.solve_optimal_fixed_point(mesh, spec)
        if finest:
            optctl.check_with_reduced(mesh, spec, clamped)
        tail = assembly.norm(prolongate_trace(clamped.q_opt, ref_mesh) - ref.q_opt, "Q")
        pure_h.append(tail)
        meta[f"pure_h_n{mesh.n}"] = tail
        row_values = []
        for alpha, sol in zip(config.alphas, optctl.solve_ladder(mesh, spec, config.alphas)):
            if finest:
                optctl.check_with_reduced(mesh, spec.with_alpha(alpha), sol)
            dist = assembly.norm(prolongate_trace(sol.q_opt, ref_mesh) - ref.q_opt, "Q")
            row_values.append(dist)
            rows.append({"n": mesh.n, "h": mesh.h, "alpha": alpha, "distance": dist})
        table.append(row_values)
    for alpha, dist in zip(config.alphas, pure_alpha):
        meta[f"pure_alpha_{alpha:g}"] = dist

    tail_h = pure_h[-1]
    tail_alpha = pure_alpha[-1]
    scale = tail_h + tail_alpha
    factor = EXPERIMENTS[config.kind].tol["corner_factor"]
    corner = table[-1][-1]
    limit_gaps = [abs(table[-1][j] - pure_alpha[j]) for j in range(len(config.alphas))]
    limit_gaps += [abs(table[i][-1] - pure_h[i]) for i in range(len(config.levels))]
    checks = {
        "rows_decreasing": all(_strictly_decreasing(row) for row in table),
        "columns_decreasing": all(
            _strictly_decreasing(col) for col in map(list, zip(*table))
        ),
        "corner_small": bool(corner <= factor * scale),
        "path_limits_agree": bool(max(limit_gaps) <= factor * scale),
    }
    meta.update(tail_h=tail_h, tail_alpha=tail_alpha, corner=corner, max_limit_gap=max(limit_gaps))
    return rows, meta, {}, checks


def _run_constants(config: ExperimentConfig, meshes, ref_mesh):
    """Surrogate coercivity and trace constants across mesh levels."""
    rows = []
    for mesh in meshes:
        c = estimate_constants(mesh)
        rows.append(
            {
                "n": mesh.n,
                "h": mesh.h,
                "lambda": c.lambda_h,
                "lambda1": c.lambda1_h,
                "gamma0_norm": c.gamma0_norm_h,
                "bound_clamped": c.contraction_bound(),
                "bound_robin": c.contraction_bound(1.0),
            }
        )
    lam = _column(rows, "lambda")
    lam1 = _column(rows, "lambda1")
    gam = _column(rows, "gamma0_norm")
    checks = {
        "lambda_in_range": all(0.0 < v <= 1.0 for v in lam),
        "lambda1_in_range": all(0.0 < v <= 1.0 for v in lam1),
        "gamma0_positive": all(v > 0.0 for v in gam),
        # nested spaces: minima shrink and the trace supremum grows with level
        "lambda_nonincreasing": all(b <= a * (1.0 + 1e-9) for a, b in zip(lam, lam[1:])),
        "lambda1_nonincreasing": all(b <= a * (1.0 + 1e-9) for a, b in zip(lam1, lam1[1:])),
        "gamma0_nondecreasing": all(b >= a * (1.0 - 1e-9) for a, b in zip(gam, gam[1:])),
    }
    return rows, {}, {}, checks


# The optimizing kinds share one source; the large-alpha kinds one ladder.
_SOURCE = {"name": "sin_product", "scale": 10.0, "ky": 2}
_LADDER = (1.0, 10.0, 100.0, 1000.0, 10000.0)

EXPERIMENTS = {
    "state-conv": ExperimentKind(
        runner=_run_state_convergence,
        summary="mesh convergence of state and adjoint at a fixed control",
        column_notes=(
            "n: cells per side; h: longest triangle side; "
            "state_err: first-order-norm distance of the discrete state to the exact solution; "
            "adjoint_err: first-order-norm distance of the prolonged adjoint to the reference adjoint"
        ),
        problem={
            "g": {"name": "mms_load"},
            "z_d": 0.0,
            "b": 1.0,
            "M": 1.0,
            "q_star": {"name": "mms_flux"},
            "exact": {"name": "mms_solution", "offset": 1.0},
        },
        levels=(8, 16, 32, 64),
        n_ref=128,
        tol={"rate_slack": 0.15},
        min_levels=3,  # a rate fit needs three points
    ),
    "control-conv": ExperimentKind(
        runner=_run_control_convergence,
        summary="mesh convergence of the optimal control",
        column_notes=(
            "control_err/state_err/adjoint_err: distances of the prolonged level optimum "
            "to the reference optimum; "
            "cost_gap_ref: reference cost at the prolonged level control minus the reference "
            "optimal value (nonnegative, second order); "
            "cost_gap_level: level cost at the restricted reference control minus the level "
            "optimal value (nonnegative, second order); "
            "cost_value_gap: |level cost at restricted reference control - reference optimal value|; "
            "cost_opt_value_gap: |level optimal value - reference optimal value|"
        ),
        problem={"g": _SOURCE, "z_d": 0.0, "b": 1.0, "M": "auto"},
        levels=(4, 8, 16, 32),
        n_ref=128,
        tol={"rate_slack": 0.15, "cost_rate_slack": 0.3, "start_gap": 1e-8},
        min_levels=3,
        oracle=True,
    ),
    "alpha-sweep": ExperimentKind(
        runner=_run_alpha_sweep,
        summary="large transfer coefficient limit at a fixed mesh",
        column_notes=(
            "fixed_*_dist: Robin state/adjoint distance to the clamped solution at the fixed "
            "control; control/state/adjoint_dist: Robin optimal solution distances to the "
            "clamped optimum; *_penalty: (alpha-1) times the squared clamped-boundary "
            "integral of the boundary mismatch (state) or of the adjoint"
        ),
        problem={"g": _SOURCE, "z_d": 0.0, "b": 1.0, "M": "auto", "q_star": {"name": "mms_flux"}},
        levels=(16,),
        alphas=_LADDER,
        tol={"decay_factor": 1e-2, "penalty_growth": 10.0},
        min_levels=1,
        max_levels=1,  # runs on one mesh
    ),
    "diagram": ExperimentKind(
        runner=_run_diagram,
        summary="joint mesh/transfer-coefficient distance table",
        column_notes=(
            "distance: boundary-norm distance of the prolonged Robin optimum at (n, alpha) "
            "to the clamped reference optimum at n_ref; pure_h_n*/pure_alpha_* meta entries "
            "hold the single-limit tails"
        ),
        problem={"g": _SOURCE, "z_d": 0.0, "b": 1.0, "M": "auto"},
        levels=(4, 8, 16),
        alphas=_LADDER,
        n_ref=64,
        tol={"corner_factor": 5.0},
        min_levels=2,
        oracle=True,
    ),
    "constants": ExperimentKind(
        runner=_run_constants,
        summary="discrete coercivity and trace constants per level",
        column_notes=(
            "lambda: clamped-space coercivity surrogate; lambda1: unit-transfer Robin "
            "coercivity surrogate; gamma0_norm: flux-boundary trace norm surrogate; "
            "bound_*: contraction thresholds for the penalty weight"
        ),
        problem={},
        levels=(2, 4, 8, 16, 32),
        tol={},
        min_levels=1,
    ),
}
KINDS = tuple(EXPERIMENTS)


def run(config: ExperimentConfig) -> ConvergenceReport:
    """Run a config's experiment on the kept meshes of its levels and n_ref."""
    kind = EXPERIMENTS[config.kind]
    meshes = [_kept_mesh(n, config.gamma1_sides) for n in config.levels]
    ref_mesh = None if config.n_ref is None else _kept_mesh(config.n_ref, config.gamma1_sides)
    rows, meta, rates, checks = kind.runner(config, meshes, ref_mesh)
    return ConvergenceReport(config.kind, kind.column_notes, rows, meta, rates, checks)
