"""Experiment runners for the convergence studies and their CSV reports.

EXPERIMENTS holds one entry per experiment kind: its runner, a one-line
summary and its default configuration.  run validates a config once and
dispatches to the runner, which takes its problem data and ProblemSpec from
prepare and produces a ConvergenceReport: rows keyed by column name, least-
squares rate fits and named pass/fail checks; write_csv writes it.  Reference
solutions for the vanishing-mesh-size limit are computed on a fine nested
mesh and compared through exact prolongation, so no cross-mesh interpolation
error enters the reported numbers.

Problem data fields (forcing, target, fixed control, exact solution) are
named built-in expressions rather than arbitrary code, which keeps configs
portable and runs bit-reproducible.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import assembly, optctl, pde
from .linsolve import estimate_constants
from .mesh import (
    SIDES,
    BoundaryTag,
    Mesh,
    TraceField,
    build_structured_mesh,
    interpolate_trace,
    prolongate,
    prolongate_trace,
    restrict_trace,
)

class Field:
    """Scalar field callable with an optional closed-form gradient."""

    def __init__(self, name, fn, grad=None):
        self.name = name
        self._fn = fn
        self._grad = grad

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


def _sin_product(scale=1.0, kx=1, ky=1):
    s, wx, wy = float(scale), float(kx) * np.pi, float(ky) * np.pi
    return Field(
        "sin_product",
        lambda x, y: s * np.sin(wx * x) * np.sin(wy * y),
        lambda x, y: (
            s * wx * np.cos(wx * x) * np.sin(wy * y),
            s * wy * np.sin(wx * x) * np.cos(wy * y),
        ),
    )


def _trig_product(scale=1.0, kx=1, ky=1):
    s, wx, wy = float(scale), float(kx) * np.pi, float(ky) * np.pi
    return Field(
        "trig_product",
        lambda x, y: s * np.cos(wx * x) * np.cos(wy * y),
        lambda x, y: (
            -s * wx * np.sin(wx * x) * np.cos(wy * y),
            -s * wy * np.cos(wx * x) * np.sin(wy * y),
        ),
    )


def _polynomial(coefficients=((0.0,),)):
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 2:
        raise ValueError("polynomial coefficients must be a 2D array, entry [i][j] scaling x^i y^j")
    P = np.polynomial.polynomial
    cx = P.polyder(c, axis=0) if c.shape[0] > 1 else np.zeros((1, 1))
    cy = P.polyder(c, axis=1) if c.shape[1] > 1 else np.zeros((1, 1))
    return Field(
        "polynomial",
        lambda x, y: P.polyval2d(x, y, c),
        lambda x, y: (P.polyval2d(x, y, cx), P.polyval2d(x, y, cy)),
    )


# Built-in smooth verification solution offset + sin(pi x) sin(pi y).  It is
# constant on the whole square boundary and its normal flux vanishes at every
# corner, so vertex interpolation of the flux carries no corner defect.
def _mms_solution(offset=0.0):
    base = _sin_product(1.0)
    off = float(offset)
    return Field("mms_solution", lambda x, y: off + base(x, y), base.gradient)


def _mms_load():
    w = np.pi
    return Field("mms_load", lambda x, y: 2.0 * w * w * np.sin(w * x) * np.sin(w * y))


def _mms_flux():
    # Outward flux -du/dn of the verification solution, defined edge by edge:
    # pi sin(pi y) on the vertical sides, pi sin(pi x) on the horizontal ones.
    # Both expressions vanish at the corners, so the pointwise choice there
    # is immaterial.
    def fn(x, y):
        vertical = (x < 1e-12) | (x > 1.0 - 1e-12)
        return np.where(vertical, np.pi * np.sin(np.pi * y), np.pi * np.sin(np.pi * x))

    return Field("mms_flux", fn)


_FIELD_BUILDERS = {
    "constant": (_const_field, {"value"}),
    "zero": (lambda: _const_field(0.0), set()),
    "sin_product": (_sin_product, {"scale", "kx", "ky"}),
    "trig_product": (_trig_product, {"scale", "kx", "ky"}),
    "polynomial": (_polynomial, {"coefficients"}),
    "mms_solution": (_mms_solution, {"offset"}),
    "mms_load": (_mms_load, set()),
    "mms_flux": (_mms_flux, set()),
}


def field_from_config(value) -> Field:
    """Build a named field from a config entry: a number or {"name": ..., params}."""
    if _is_number(value):
        return _const_field(_number(value, "field value"))
    if isinstance(value, Field):
        return value
    if not isinstance(value, dict) or "name" not in value:
        raise ValueError(f"field config must be a number or a dict with a 'name' key, got {value!r}")
    name = value["name"]
    if not isinstance(name, str) or name not in _FIELD_BUILDERS:
        raise ValueError(f"unknown field {name!r}; known fields: {sorted(_FIELD_BUILDERS)}")
    builder, allowed = _FIELD_BUILDERS[name]
    params = {k: v for k, v in value.items() if k != "name"}
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"field {name!r} does not accept parameters {sorted(unknown)}")
    try:
        built = builder(**params)
    except TypeError as exc:
        raise ValueError(f"field {name!r} has a parameter of the wrong type: {exc}") from None
    for key, param in params.items():
        if not np.all(np.isfinite(np.asarray(param, dtype=float))):
            raise ValueError(f"field {name!r} parameter {key} must be finite, got {param!r}")
    return built


_DATA_FIELDS = ("g", "z_d", "q_star", "exact")
_PROBLEM_KEYS = {"b", "M", *_DATA_FIELDS}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run."""

    kind: str
    problem: dict
    gamma1_sides: Tuple[str, ...]
    levels: Tuple[int, ...]
    alphas: Tuple[float, ...]
    n_ref: Optional[int]
    r: float = 2.0
    seed: int = 0
    tol: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentKind:
    """Runner, summary and defaults of one experiment kind.

    A kind compares against a fine reference mesh when its default n_ref is
    set, and needs an alpha ladder when its default alphas are nonempty.
    Its default tol keys are the only ones a config may set.
    """

    runner: Callable[[ExperimentConfig], ConvergenceReport]
    summary: str
    problem: dict
    levels: Tuple[int, ...]
    tol: Dict[str, float]
    min_levels: int
    alphas: Tuple[float, ...] = ()
    n_ref: Optional[int] = None


def default_config(kind: str) -> ExperimentConfig:
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {kind!r}; known kinds: {KINDS}")
    experiment = EXPERIMENTS[kind]
    return ExperimentConfig(
        kind=kind,
        problem=dict(experiment.problem),
        gamma1_sides=("bottom",),
        levels=experiment.levels,
        alphas=experiment.alphas,
        n_ref=experiment.n_ref,
        tol=dict(experiment.tol),
    )


def _is_pow2(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    if not _is_number(value) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def validate_config(config: ExperimentConfig) -> None:
    """Reject configurations the runners cannot execute faithfully."""
    if config.kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {config.kind!r}")
    experiment = EXPERIMENTS[config.kind]
    levels = config.levels
    if len(levels) < experiment.min_levels:
        raise ValueError(
            f"{config.kind} needs at least {experiment.min_levels} mesh levels, got {len(levels)}"
        )
    for n in levels:
        if _integer(n, "mesh level") < 1:
            raise ValueError(f"mesh levels must be positive integers, got {n!r}")
    for a, b in zip(levels, levels[1:]):
        # nesting requires each step to be a whole number of halvings
        if b <= a or b % a != 0 or not _is_pow2(b // a):
            raise ValueError(f"levels must increase by power-of-two factors, got {a} -> {b}")
    if experiment.n_ref is not None:
        n_ref = config.n_ref
        if n_ref is None or n_ref <= max(levels):
            raise ValueError(f"n_ref must exceed the finest level {max(levels)}, got {n_ref!r}")
        for n in levels:
            if n_ref % n != 0 or not _is_pow2(n_ref // n):
                raise ValueError(
                    f"n_ref = {n_ref} must be a power-of-two multiple of every level (level {n})"
                )
    if experiment.alphas and len(config.alphas) < 2:
        raise ValueError(f"{config.kind} needs an alpha ladder with at least 2 entries")
    for a, b in zip(config.alphas, config.alphas[1:]):
        if b <= a:
            raise ValueError(f"alphas must be strictly increasing, got {a} -> {b}")
    if any(a <= 0 for a in config.alphas):
        raise ValueError("alphas must be positive")
    named = all(isinstance(side, str) for side in config.gamma1_sides)
    sides = set(config.gamma1_sides) if named else set()
    if not sides or sides == set(SIDES) or sides - set(SIDES):
        raise ValueError(f"gamma1_sides must be a nonempty proper subset of {SIDES}")
    if not 1.0 < config.r <= 2.0:
        raise ValueError(f"regularity exponent r must lie in (1, 2], got {config.r}")
    unknown = set(config.problem) - _PROBLEM_KEYS
    if unknown:
        raise ValueError(f"unknown problem keys {sorted(unknown)}; allowed: {sorted(_PROBLEM_KEYS)}")
    unknown = set(config.tol) - set(experiment.tol)
    if unknown:
        raise ValueError(
            f"unknown tol keys {sorted(unknown)} for {config.kind}; allowed: {sorted(experiment.tol)}"
        )
    for key, value in config.tol.items():
        _number(value, f"tol {key}")
    prepare(config)


_CONFIG_KEYS = {"problem", "levels", "alphas", "n_ref", "tol", "gamma1_sides", "seed", "r"}


def _list(data: dict, key: str, default) -> tuple:
    value = data.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return tuple(value)


def _object(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a JSON object, got {value!r}")
    return value


def config_from_dict(kind: str, data: dict) -> ExperimentConfig:
    """Merge a JSON config dict over the per-kind defaults and validate."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}; allowed: {sorted(_CONFIG_KEYS)}")
    base = default_config(kind)
    n_ref = data.get("n_ref")
    config = ExperimentConfig(
        kind=kind,
        problem={**base.problem, **_object(data, "problem")},
        gamma1_sides=_list(data, "gamma1_sides", base.gamma1_sides),
        levels=tuple(_integer(n, "mesh level") for n in _list(data, "levels", base.levels)),
        alphas=tuple(_number(a, "alpha") for a in _list(data, "alphas", base.alphas)),
        n_ref=base.n_ref if n_ref is None else _integer(n_ref, "n_ref"),
        r=_number(data.get("r", base.r), "regularity exponent r"),
        seed=_integer(data.get("seed", base.seed), "seed"),
        tol={**base.tol, **_object(data, "tol")},
    )
    validate_config(config)
    return config


def prepare(
    config: ExperimentConfig, mesh: Optional[Mesh] = None
) -> Tuple[Dict[str, Field], pde.ProblemSpec]:
    """The data fields and the ProblemSpec of a config's problem.

    The config's problem entries are merged over its kind's defaults; the
    returned dict maps each data field name present to its Field.  M = "auto"
    is 4x the clamped-family contraction threshold on ``mesh``, the coarsest
    of the run; the factor keeps the default experiments inside the
    contraction regime for both families with margin, since the Robin
    threshold at unit or larger transfer coefficient is below 2.6x the
    clamped one on these meshes.  Runs that do not optimize pass no mesh,
    and "auto" then means 1.
    """
    problem = {**EXPERIMENTS[config.kind].problem, **config.problem}
    b = _number(problem["b"], "boundary value b")
    m_val = problem["M"]
    if m_val == "auto":
        M = 1.0 if mesh is None else 4.0 * estimate_constants(mesh).contraction_bound()
    elif _is_number(m_val) and m_val > 0:
        M = float(m_val)
    else:
        raise ValueError(f"penalty weight M must be 'auto' or a positive number, got {m_val!r}")
    fields = {key: field_from_config(problem[key]) for key in _DATA_FIELDS if key in problem}
    return fields, pde.ProblemSpec(g=fields["g"], z_d=fields["z_d"], b=b, M=M)


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log error against log mesh size."""

    rate: float
    residual: float
    status: str  # "ok", "exact", "unreliable", or "short"
    points: int


def fit_rate(hs, errs, floor: float = 1e-10) -> RateFit:
    """Fit err ~ C*h^rate in log10 space, ignoring error values at the floor.

    Values at or below the floor are treated as exactly zero (converged to
    solver precision): if nothing lies above the floor the fit is "exact".
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

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValueError(f"no column {name!r}; columns: {self.columns}")
        return np.asarray(_column(self.rows, name), dtype=float)


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


def _bounded_along_ladder(values, growth: float, floor: float = 1e-14) -> bool:
    """True when no entry exceeds growth times the first meaningful entry."""
    values = list(values)
    ref = next((v for v in values if v > floor), None)
    if ref is None:
        return True
    return max(values) <= growth * ref


def _boundary_energy(mesh: Mesh, coefficients: np.ndarray) -> float:
    """Squared clamped-boundary integral of a nodal coefficient vector."""
    b1 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
    return float(coefficients @ (b1 @ coefficients))


def _run_state_convergence(config: ExperimentConfig) -> ConvergenceReport:
    """Mesh-size convergence of state and adjoint at a fixed control.

    The state error is measured against the closed-form exact solution; the
    adjoint, which has no closed form, is compared against the fine reference
    mesh through exact prolongation.
    """
    fields, spec = prepare(config)
    q_star, exact = fields["q_star"], fields["exact"]

    ref_mesh = build_structured_mesh(config.n_ref, config.gamma1_sides)
    u_ref = pde.solve_state(ref_mesh, spec, interpolate_trace(q_star, ref_mesh))
    p_ref = pde.solve_adjoint(ref_mesh, spec, u_ref)

    rows = []
    for n in config.levels:
        mesh = build_structured_mesh(n, config.gamma1_sides)
        u = pde.solve_state(mesh, spec, interpolate_trace(q_star, mesh))
        p = pde.solve_adjoint(mesh, spec, u)
        rows.append(
            {
                "n": n,
                "h": mesh.h,
                "state_err": assembly.v_error_vs_exact(u, exact, exact.gradient),
                "adjoint_err": assembly.norm(prolongate(p, mesh, ref_mesh) - p_ref, "V"),
            }
        )

    hs = _column(rows, "h")
    rates = {
        "state_rate": fit_rate(hs, _column(rows, "state_err")),
        "adjoint_rate": fit_rate(hs, _column(rows, "adjoint_err")),
    }
    expected = config.r - 1.0
    slack = config.tol["rate_slack"]
    checks = {name: _rate_check(fit, expected - slack) for name, fit in rates.items()}
    return ConvergenceReport(
        kind=config.kind,
        column_notes=(
            "n: cells per side; h: longest triangle side; "
            "state_err: first-order-norm distance of the discrete state to the exact solution; "
            "adjoint_err: first-order-norm distance of the prolonged adjoint to the reference adjoint"
        ),
        rows=rows,
        meta={"n_ref": config.n_ref, "expected_rate": expected, "M": spec.M},
        rates=rates,
        checks=checks,
    )


def _run_control_convergence(config: ExperimentConfig) -> ConvergenceReport:
    """Mesh-size convergence of the optimal control, its state and adjoint.

    Per-level optima come from the contraction iteration; the fine reference
    optimum comes from the dense reduced solve, so the reference is not
    generated by the code path under test.  Cost columns record the two
    quadratic optimal-value gaps and the two cost-consistency distances.
    """
    level_meshes = [build_structured_mesh(n, config.gamma1_sides) for n in config.levels]
    _, spec = prepare(config, level_meshes[0])

    ref_mesh = build_structured_mesh(config.n_ref, config.gamma1_sides)
    ref = optctl.solve_optimal_reduced(ref_mesh, spec)

    rows = []
    solutions = []
    for mesh in level_meshes:
        sol = optctl.solve_optimal_fixed_point(mesh, spec, constants=estimate_constants(mesh))
        solutions.append(sol)
        q_up = prolongate_trace(sol.q_opt, mesh, ref_mesh)
        row = {
            "n": mesh.n,
            "h": mesh.h,
            "control_err": assembly.norm(q_up - ref.q_opt, "Q"),
            "state_err": assembly.norm(prolongate(sol.u_opt, mesh, ref_mesh) - ref.u_opt, "V"),
            "adjoint_err": assembly.norm(prolongate(sol.p_opt, mesh, ref_mesh) - ref.p_opt, "V"),
            "cost_gap_ref": optctl.cost(ref_mesh, spec, q_up) - ref.cost,
        }
        cost_down = optctl.cost(mesh, spec, restrict_trace(ref.q_opt, ref_mesh, mesh))
        row["cost_gap_level"] = cost_down - sol.cost
        row["cost_value_gap"] = abs(cost_down - ref.cost)
        row["cost_opt_value_gap"] = abs(sol.cost - ref.cost)
        rows.append(row)

    # start independence: rerun the coarsest level from a seeded random control
    mesh0 = level_meshes[0]
    rng = np.random.default_rng(config.seed)
    q_rand = TraceField(mesh0, rng.standard_normal(len(solutions[0].q_opt.coefficients)))
    alt = optctl.solve_optimal_fixed_point(mesh0, spec, q0=q_rand, constants=estimate_constants(mesh0))
    start_gap = assembly.norm(alt.q_opt - solutions[0].q_opt, "Q")

    hs = _column(rows, "h")
    rates = {
        "control_rate": fit_rate(hs, _column(rows, "control_err")),
        "state_rate": fit_rate(hs, _column(rows, "state_err")),
        "adjoint_rate": fit_rate(hs, _column(rows, "adjoint_err")),
        "cost_gap_ref_rate": fit_rate(hs, _column(rows, "cost_gap_ref")),
        "cost_gap_level_rate": fit_rate(hs, _column(rows, "cost_gap_level")),
        "cost_value_rate": fit_rate(hs, _column(rows, "cost_value_gap")),
        "cost_opt_value_rate": fit_rate(hs, _column(rows, "cost_opt_value_gap")),
    }
    expected = config.r - 1.0
    first = expected - config.tol["rate_slack"]
    second = 2.0 * expected - config.tol["cost_rate_slack"]
    checks = {
        "control_rate": _rate_check(rates["control_rate"], first),
        "state_rate": _rate_check(rates["state_rate"], first),
        "adjoint_rate": _rate_check(rates["adjoint_rate"], first),
        "cost_gap_ref_rate": _rate_check(rates["cost_gap_ref_rate"], second),
        "cost_gap_level_rate": _rate_check(rates["cost_gap_level_rate"], second),
        "cost_value_rate": _rate_check(rates["cost_value_rate"], first),
        "start_agreement": bool(start_gap <= config.tol["start_gap"]),
    }
    return ConvergenceReport(
        kind=config.kind,
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
        rows=rows,
        meta={
            "n_ref": config.n_ref,
            "M": spec.M,
            "expected_rate": expected,
            "start_gap": start_gap,
            "reference_cost": ref.cost,
            "reference_gradient_norm": ref.gradient_norm,
        },
        rates=rates,
        checks=checks,
    )


def _run_alpha_sweep(config: ExperimentConfig) -> ConvergenceReport:
    """Large-transfer-coefficient limit of the Robin family at a fixed mesh.

    Records, per ladder entry, the fixed-control state and adjoint distances
    to the clamped-family solution, the three optimal-solution distances, and
    the weighted boundary penalties whose boundedness encodes the limit.
    """
    mesh = build_structured_mesh(config.levels[-1], config.gamma1_sides)
    fields, spec = prepare(config, mesh)
    constants = estimate_constants(mesh)

    q_star = interpolate_trace(fields["q_star"], mesh)
    u_fix = pde.solve_state(mesh, spec, q_star)
    p_fix = pde.solve_adjoint(mesh, spec, u_fix)
    clamped = optctl.solve_optimal_fixed_point(mesh, spec, constants=constants)

    b_shift = spec.b * np.ones(len(mesh.vertices))
    rows = []
    for alpha in config.alphas:
        spec_a = spec.with_alpha(alpha)
        u_fix_a = pde.solve_state(mesh, spec_a, q_star)
        p_fix_a = pde.solve_adjoint(mesh, spec_a, u_fix_a)
        sol = optctl.solve_optimal_fixed_point(mesh, spec_a, constants=constants)
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

    inv_alphas = [1.0 / a for a in config.alphas]
    rates = {}
    checks = {}
    for name in ("fixed_state_dist", "fixed_adjoint_dist", "control_dist", "state_dist", "adjoint_dist"):
        seq = _column(rows, name)
        rates[name + "_alpha_rate"] = fit_rate(inv_alphas, seq)
        checks[name + "_decreasing"] = _strictly_decreasing(seq)
        checks[name + "_small"] = _decay_ok(seq, config.tol["decay_factor"])
    for name in ("fixed_state_penalty", "state_penalty", "adjoint_penalty"):
        checks[name + "_bounded"] = _bounded_along_ladder(_column(rows, name), config.tol["penalty_growth"])
    return ConvergenceReport(
        kind=config.kind,
        column_notes=(
            "fixed_*_dist: Robin state/adjoint distance to the clamped solution at the fixed "
            "control; control/state/adjoint_dist: Robin optimal solution distances to the "
            "clamped optimum; *_penalty: (alpha-1) times the squared clamped-boundary "
            "integral of the boundary mismatch (state) or of the adjoint"
        ),
        rows=rows,
        meta={
            "level": mesh.n,
            "M": spec.M,
            "clamped_cost": clamped.cost,
            "contraction_bound_clamped": constants.contraction_bound(),
            "contraction_bound_robin": constants.contraction_bound(config.alphas[0]),
        },
        rates=rates,
        checks=checks,
    )


def _run_diagram(config: ExperimentConfig) -> ConvergenceReport:
    """Distance table of Robin-family optima to the limit across both axes.

    Cell (level, alpha) holds the boundary-norm distance between the
    prolonged Robin optimum and the clamped-family reference optimum on the
    fine mesh.  The table must shrink along both axes, and the corner cell
    must be controlled by the two single-limit tails: the clamped optimum at
    the finest level (transfer coefficient sent to infinity first) and the
    Robin optimum at the largest ladder entry on the reference mesh (mesh
    size sent to zero first).
    """
    level_meshes = [build_structured_mesh(n, config.gamma1_sides) for n in config.levels]
    _, spec = prepare(config, level_meshes[0])

    ref_mesh = build_structured_mesh(config.n_ref, config.gamma1_sides)
    ref = optctl.solve_optimal_reduced(ref_mesh, spec)
    pure_alpha = []
    for alpha in config.alphas:
        robin_ref = optctl.solve_optimal_reduced(ref_mesh, spec.with_alpha(alpha))
        pure_alpha.append(assembly.norm(robin_ref.q_opt - ref.q_opt, "Q"))

    rows = []
    table = []
    pure_h = []
    meta: Dict[str, object] = {"n_ref": config.n_ref, "M": spec.M, "reference_cost": ref.cost}
    for mesh in level_meshes:
        constants = estimate_constants(mesh)
        clamped = optctl.solve_optimal_fixed_point(mesh, spec, constants=constants)
        tail = assembly.norm(prolongate_trace(clamped.q_opt, mesh, ref_mesh) - ref.q_opt, "Q")
        pure_h.append(tail)
        meta[f"pure_h_n{mesh.n}"] = tail
        row_values = []
        for alpha in config.alphas:
            sol = optctl.solve_optimal_fixed_point(mesh, spec.with_alpha(alpha), constants=constants)
            dist = assembly.norm(prolongate_trace(sol.q_opt, mesh, ref_mesh) - ref.q_opt, "Q")
            row_values.append(dist)
            rows.append({"n": mesh.n, "h": mesh.h, "alpha": alpha, "distance": dist})
        table.append(row_values)
    for alpha, dist in zip(config.alphas, pure_alpha):
        meta[f"pure_alpha_{alpha:g}"] = dist

    tail_h = pure_h[-1]
    tail_alpha = pure_alpha[-1]
    scale = tail_h + tail_alpha
    factor = config.tol["corner_factor"]
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
    meta.update(
        {
            "tail_h": tail_h,
            "tail_alpha": tail_alpha,
            "corner": corner,
            "max_limit_gap": max(limit_gaps),
        }
    )
    return ConvergenceReport(
        kind=config.kind,
        column_notes=(
            "distance: boundary-norm distance of the prolonged Robin optimum at (n, alpha) "
            "to the clamped reference optimum at n_ref; pure_h_n*/pure_alpha_* meta entries "
            "hold the single-limit tails"
        ),
        rows=rows,
        meta=meta,
        rates={},
        checks=checks,
    )


def _run_constants(config: ExperimentConfig) -> ConvergenceReport:
    """Surrogate coercivity and trace constants across mesh levels."""
    rows = []
    for n in config.levels:
        mesh = build_structured_mesh(n, config.gamma1_sides)
        c = estimate_constants(mesh)
        rows.append(
            {
                "n": n,
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
    return ConvergenceReport(
        kind=config.kind,
        column_notes=(
            "lambda: clamped-space coercivity surrogate; lambda1: unit-transfer Robin "
            "coercivity surrogate; gamma0_norm: flux-boundary trace norm surrogate; "
            "bound_*: contraction thresholds for the penalty weight"
        ),
        rows=rows,
        meta={},
        rates={},
        checks=checks,
    )


# The optimizing kinds share one source; the large-alpha kinds one ladder.
_SOURCE = {"name": "sin_product", "scale": 10.0, "ky": 2}
_LADDER = (1.0, 10.0, 100.0, 1000.0, 10000.0)

EXPERIMENTS = {
    "state-conv": ExperimentKind(
        runner=_run_state_convergence,
        summary="mesh convergence of state and adjoint at a fixed control",
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
        problem={"g": _SOURCE, "z_d": 0.0, "b": 1.0, "M": "auto"},
        levels=(4, 8, 16, 32),
        n_ref=128,
        tol={"rate_slack": 0.15, "cost_rate_slack": 0.3, "start_gap": 1e-8},
        min_levels=3,
    ),
    "alpha-sweep": ExperimentKind(
        runner=_run_alpha_sweep,
        summary="large transfer coefficient limit at a fixed mesh",
        problem={"g": _SOURCE, "z_d": 0.0, "b": 1.0, "M": "auto", "q_star": {"name": "mms_flux"}},
        levels=(16,),
        alphas=_LADDER,
        tol={"decay_factor": 1e-2, "penalty_growth": 10.0},
        min_levels=1,  # runs on the finest level only
    ),
    "diagram": ExperimentKind(
        runner=_run_diagram,
        summary="joint mesh/transfer-coefficient distance table",
        problem={"g": _SOURCE, "z_d": 0.0, "b": 1.0, "M": "auto"},
        levels=(4, 8, 16),
        alphas=_LADDER,
        n_ref=64,
        tol={"corner_factor": 5.0},
        min_levels=2,
    ),
    "constants": ExperimentKind(
        runner=_run_constants,
        summary="discrete coercivity and trace constants per level",
        problem={"g": 0.0, "z_d": 0.0, "b": 1.0, "M": 1.0},
        levels=(2, 4, 8, 16, 32),
        tol={},
        min_levels=1,
    ),
}
KINDS = tuple(EXPERIMENTS)


def run(config: ExperimentConfig) -> ConvergenceReport:
    """Validate a config and run its kind's experiment."""
    validate_config(config)
    return EXPERIMENTS[config.kind].runner(config)
