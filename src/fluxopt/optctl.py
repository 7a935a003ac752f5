"""Optimal boundary-flux control: cost, gradient, three routes to the optimum.

The cost is the quadrature-evaluated tracking term plus a boundary penalty
M/2 on the control.  Its gradient has the boundary representation
M q - (trace of adjoint); dividing the adjoint trace by M gives the control
update map whose fixed point is the optimal control, a contraction whenever
M exceeds the square of the trace norm over the squared coercivity floor.
The gradient is affine in q, and its linear part H, the gradient of the
homogeneous problem, is self-adjoint in the boundary inner product and at
least M times the identity there.

Three routes compute the optimum:

* ``solve_optimal_fixed_point`` iterates the update map.  It is the
  paper's characterization of the optimum, and the route the harness
  tests at every mesh level.
* ``solve_optimal_cg`` runs conjugate gradients on H, one state and one
  adjoint solve per step; it converges for every M > 0, and gives the
  harness its fine reference optima.
* ``solve_optimal_reduced`` solves the dense reduced normal system built
  from the state responses to unit trace excitations.  Its optimum comes
  without an adjoint solve, so it is the oracle for the other two:
  ``check_with_reduced`` raises ConvergenceError, carrying the ratio of
  the distance to its bound as its residual, when an optimum disagrees
  with it beyond what the two gradients allow.

``solve_ladder`` runs either of the first two for a whole alpha ladder on
one mesh in lockstep, a block column per alpha; each is its ladder of one.

The dense route shares the linear solver with the others: it takes its
base state from ``pde.solve_state``, its responses from
``linsolve.solve_family``, which picks the operator that the state solves
use (K_ff, or the Robin operator at the same alpha), and its optimum from
``solve_spd`` with a factor of G whose pivots certify G.
Every solve is checked by its residual.  The routes stay independent only
because the dense one never solves the adjoint equation for its optimum,
so its agreement with the others tests the formulations, not the solver.
It forms its responses whole, though it densifies and solves their
right-hand side only 8 trace columns at a time (``_RESPONSE_COLUMNS``), so
it serves as the oracle on coarse meshes only: ``_MAX_RESPONSE_BYTES``
bounds them.

No route returns an optimum whose cost, control or gradient is not finite,
nor one whose gradient is above its limit, its stop rule's or, for the dense
route, the fixed-point route's; it raises ConvergenceError instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import assembly, pde
from .linsolve import (  # noqa: F401  (factorize stays importable from optctl)
    ConvergenceError,
    certified,
    factorize,
    solve_family,
    solve_spd,
)
from .mesh import BoundaryTag, Mesh, NodalField, TraceField, dof_partition, trace_restrict, zero_trace

# the fixed-point iteration stops once a step is at most this relative to |q|
_STEP_TOL = 1e-10
# fixed-point steps before the iteration gives up
_MAX_ITER = 10000
# bytes up to which the dense reduced system forms its vertex-by-trace responses
_MAX_RESPONSE_BYTES = 64 << 20
# trace columns of -B2 E that the dense reduced system densifies and solves at a time
_RESPONSE_COLUMNS = 8
# conjugate gradients stop once the residual is this relative to the first
_CG_TOL = 1e-12
# conjugate-gradient steps before the iteration gives up
_MAX_CG_ITER = 1000


@dataclass(frozen=True)
class OptimalSolution:
    """Optimal control with its state, adjoint and solve diagnostics.

    distance_bound = gradient_norm / M bounds |q_opt - q*|_Q, since H is at
    least M times the identity; NaN, which no check accepts, when a
    solution is built by hand.
    """

    q_opt: TraceField
    u_opt: NodalField
    p_opt: NodalField
    cost: float
    gradient_norm: float
    iterations: int
    contraction_ratios: List[float]
    distance_bound: float = float("nan")


def cost(mesh: Mesh, spec: pde.ProblemSpec, q: TraceField) -> float:
    """Half the quadrature tracking misfit plus M/2 times the squared control norm."""
    u = pde.solve_state(mesh, spec, q)
    return _cost_of_state(spec, u, q)


def _cost_of_state(spec, u, q) -> float:
    track = assembly.l2_misfit_sq(u, spec.z_d)
    return 0.5 * track + 0.5 * spec.M * assembly.norm(q, "Q") ** 2


def gradient(mesh: Mesh, spec: pde.ProblemSpec, q: TraceField) -> TraceField:
    """Boundary representation M q - (adjoint trace) of the cost derivative.

    The boundary mass matrix cancels between the two terms of the derivative,
    so the nodal combination below is the exact representer of the derivative
    in the boundary inner product.
    """
    return TraceField(mesh, _representer(spec, q.coefficients, _adjoint_trace(mesh, spec, q)))


def _representer(spec, q, trace):
    """M q - trace, the gradient's representer at the control array q from its adjoint's trace array."""
    return spec.M * q - trace


def _zero(x, y):
    return np.zeros_like(x)


def _homogeneous(spec: pde.ProblemSpec) -> pde.ProblemSpec:
    """The homogeneous problem (g = z_d = 0, b = 0): its cost is J's quadratic part.

    One module-level zero callable keeps its load vectors cached per mesh.
    """
    return pde.ProblemSpec(g=_zero, z_d=_zero, b=0.0, M=spec.M, alpha=spec.alpha)


def cost_gap(mesh: Mesh, spec: pde.ProblemSpec, q: TraceField, opt: OptimalSolution) -> float:
    """J(q) - J(q*) as the quadratic form 1/2 <e, H e> + <grad J(q*), e>, e = q - q*.

    The cost is quadratic, so the expansion is exact; unlike the difference
    of the two costs, it does not cancel, and it stays accurate to roundoff
    relative to the gap itself.  1/2 <e, H e> is the homogeneous problem's
    cost at e, the quadrature misfit of the state S e plus M |e|^2, halved:
    one state solve and no adjoint.  The gradient at q* comes from the state
    and adjoint that opt holds.
    """
    e = q - opt.q_opt
    grad = _representer(spec, opt.q_opt.coefficients, trace_restrict(opt.p_opt).coefficients)
    return cost(mesh, _homogeneous(spec), e) + float(assembly.trace_inners(mesh, grad, e.coefficients)[0])


def solve_optimal_fixed_point(
    mesh: Mesh,
    spec: pde.ProblemSpec,
    q0: Optional[TraceField] = None,
) -> OptimalSolution:
    """Iterate the control update map to its fixed point: the ladder of one (``solve_ladder``).

    Stops when the boundary-norm step drops below 1e-10 * max(1, |q|).
    Whether the map contracts is decided by the measured step ratios, not by
    a bound: the map is affine and its linear part is self-adjoint in the
    boundary inner product (the gradient is an exact representer), so the
    steps of a contraction never grow.  Two consecutive step ratios above 1
    therefore mean divergence and raise ConvergenceError with the step
    ratios so far, as do a step or control norm that is not finite and an
    exhausted iteration budget.  The step is -grad J / M, so the returned q
    must also have a gradient of at most M 1e-10 max(1, |q|); a larger one
    raises ConvergenceError carrying their ratio as its residual.
    """
    if q0 is not None and q0.mesh is not mesh:
        raise ValueError("start control lives on a different mesh")
    return _fixed_points(mesh, spec, q0)[0]


def solve_optimal_cg(mesh: Mesh, spec: pde.ProblemSpec) -> OptimalSolution:
    """Conjugate gradients on H q = -grad J(0) in the boundary inner product: the ladder of one.

    H is self-adjoint and at least M times the identity in that inner
    product, so the iteration converges for every M > 0; each step costs one
    H product, a state and an adjoint solve.  It stops once the recursive
    residual is at most 1e-12 of the first gradient in the boundary norm.  A
    nonpositive curvature <d, H d>, an exhausted step budget, or a
    recomputed gradient at the result above the same relative tolerance
    raise ConvergenceError; the last carries the gradient's ratio to that
    limit as its residual.
    """
    return _conjugate_gradients(mesh, spec)[0]


def solve_ladder(mesh: Mesh, spec: pde.ProblemSpec, alphas, cg: bool = False) -> List[OptimalSolution]:
    """The Robin optimum at each alpha of a ladder, all in lockstep, by fixed point or by ``cg``.

    spec gives all but alpha.  A step makes one ``pde.solve_state`` and one
    ``pde.solve_adjoint`` call, at the ladder spec of the alphas still
    stepping, a block column each.  Each column keeps its route's stop and
    divergence rules and final gradient check, applied to it alone, and one
    that stops takes no further step.  An error names its alpha.
    """
    ladder = spec.with_alpha(tuple(map(float, alphas)))
    return (_conjugate_gradients if cg else _fixed_points)(mesh, ladder) if ladder.alpha else []


def _alphas(spec):
    # the alpha of each column: a ladder spec's, or the one alpha (None for the clamped family)
    return list(spec.alpha) if isinstance(spec.alpha, tuple) else [spec.alpha]


def _rungs(spec, alphas, cols):
    # spec at the alphas of cols: a ladder spec, or for one column its alpha alone
    return spec.with_alpha(tuple(alphas[j] for j in cols) if len(cols) > 1 else alphas[cols[0]])


def _block(rows, cols):
    # rows of a (k, m) array as an (m, len(cols)) block; one row stays a vector, bit for bit
    return rows[cols].T if len(cols) > 1 else rows[cols[0]]


def _adjoint_trace(mesh, spec, q):
    """The adjoint's trace at the control q, a trace field, or for a ladder spec a block of them."""
    u = pde.solve_state(mesh, spec, q)
    return trace_restrict(pde.solve_adjoint(mesh, spec, u)).coefficients


def _hessian(mesh, spec, d):
    """H d, the gradient of the homogeneous problem at d, for a vector or a block."""
    return _representer(spec, d, _adjoint_trace(mesh, _homogeneous(spec), TraceField(mesh, d)))


def _at(alpha) -> str:
    return "" if alpha is None else f" at alpha={alpha:g}"


def _iteration_error(alpha, why, ratios) -> ConvergenceError:
    last = f"{ratios[-1]:.3g}" if ratios else "n/a"
    return ConvergenceError(f"control iteration{_at(alpha)} {why} (last step ratio {last})", ratios=ratios)


def _fixed_points(mesh, spec, q0=None) -> List[OptimalSolution]:
    """The fixed-point iteration of each column of spec in lockstep (``solve_ladder``)."""
    alphas = _alphas(spec)
    k, active, size = len(alphas), list(range(len(alphas))), len(dof_partition(mesh).gamma2_trace_dofs)
    rows = np.zeros((k, size)) if q0 is None else np.tile(q0.coefficients, (k, 1))
    ratios, prev, iterations, limits = [[] for _ in alphas], [0.0] * k, [0] * k, [0.0] * k
    for iteration in range(1, _MAX_ITER + 1):
        q = _block(rows, active)
        q_new = _adjoint_trace(mesh, _rungs(spec, alphas, active), TraceField(mesh, q)) / spec.M
        steps, qnorms = assembly.trace_norms(mesh, q_new - q).tolist(), assembly.trace_norms(mesh, q_new).tolist()
        rows[active] = q_new.T
        for j, step, qnorm in zip(list(active), steps, qnorms):
            if prev[j] > 1e-300:
                ratios[j].append(step / prev[j])
            prev[j] = step
            if not (np.isfinite(step) and np.isfinite(qnorm)):
                raise _iteration_error(
                    alphas[j], f"diverged: non-finite step or control norm after {iteration} steps", ratios[j]
                )
            if step <= _STEP_TOL * max(1.0, qnorm):
                iterations[j], limits[j] = iteration, spec.M * _STEP_TOL * max(1.0, qnorm)
                active.remove(j)
            elif len(ratios[j]) >= 2 and min(ratios[j][-2:]) > 1.0:
                raise _iteration_error(
                    alphas[j], f"diverged: two consecutive steps grew after {iteration} steps", ratios[j]
                )
        if not active:
            return _optima(mesh, spec, rows, iterations, ratios, limits)
    raise _iteration_error(alphas[active[0]], f"did not converge in {_MAX_ITER} steps", ratios[active[0]])


def _conjugate_gradients(mesh, spec) -> List[OptimalSolution]:
    """Conjugate gradients for each column of spec in lockstep (``solve_ladder``)."""
    alphas = _alphas(spec)
    k, active = len(alphas), list(range(len(alphas)))
    controls, residuals = np.zeros((2, k, len(dof_partition(mesh).gamma2_trace_dofs)))
    # -grad J(0) is the adjoint trace at the zero control
    zero = TraceField(mesh, _block(controls, active))
    residuals[active] = _adjoint_trace(mesh, _rungs(spec, alphas, active), zero).T
    first = assembly.trace_inners(mesh, _block(residuals, active), _block(residuals, active))
    rr, directions, iterations = first.copy(), residuals.copy(), [0] * k
    for iteration in range(1, _MAX_CG_ITER + 1):
        d = _block(directions, active)
        hd = _hessian(mesh, _rungs(spec, alphas, active), d)
        curvature = assembly.trace_inners(mesh, d, hd)
        for j, c in zip(active, curvature.tolist()):
            if not c > 0.0:
                why = f"met the nonpositive curvature {c!r} at step {iteration}"
                raise ConvergenceError(f"conjugate gradients{_at(alphas[j])} {why}")
        step = rr[active] / curvature
        controls[active] = (_block(controls, active) + d * step).T
        r = _block(residuals, active) - hd * step
        rr_new = assembly.trace_inners(mesh, r, r)
        directions[active], residuals[active] = (r + d * (rr_new / rr[active])).T, r.T
        rr[active] = rr_new
        for j in [j for j in active if rr[j] <= _CG_TOL**2 * first[j]]:
            iterations[j] = iteration
            active.remove(j)
        if not active:
            limits = (_CG_TOL * np.sqrt(first)).tolist()
            return _optima(mesh, spec, controls, iterations, [[] for _ in alphas], limits)
    j = active[0]
    raise ConvergenceError(
        f"conjugate gradients{_at(alphas[j])} did not converge in {_MAX_CG_ITER} steps "
        f"(residual {np.sqrt(rr[j] / first[j]):.3g} of the first)"
    )


def _optima(mesh, spec, rows, iterations, ratios, limits) -> List[OptimalSolution]:
    """State, adjoint, cost, gradient and distance bound at each row of controls, one block solve each.

    Raises ConvergenceError, naming the alpha, unless all are finite and
    each gradient norm is at most its limit; above it the error carries
    their ratio as its residual.
    """
    alphas, cols = _alphas(spec), list(range(len(rows)))
    q, block_spec = _block(rows, cols), _rungs(spec, alphas, cols)
    u = pde.solve_state(mesh, block_spec, TraceField(mesh, q))
    p = pde.solve_adjoint(mesh, block_spec, u)
    gradient_norms = assembly.trace_norms(mesh, _representer(spec, q, trace_restrict(p).coefficients)).tolist()
    us, ps = np.atleast_2d(u.coefficients.T), np.atleast_2d(p.coefficients.T)
    optima = []
    for j, (alpha, gradient_norm) in enumerate(zip(alphas, gradient_norms)):
        q_j, u_j, p_j = TraceField(mesh, rows[j]), NodalField(mesh, us[j]), NodalField(mesh, ps[j])
        value = _cost_of_state(spec, u_j, q_j)
        if not (np.isfinite(value) and np.isfinite(gradient_norm)):
            raise ConvergenceError(
                f"optimum{_at(alpha)} is not finite: cost {value!r}, gradient norm {gradient_norm!r}",
                ratios=ratios[j],
            )
        if gradient_norm > limits[j]:
            raise ConvergenceError(
                f"optimum{_at(alpha)} has gradient norm {gradient_norm:.3e}, above its limit {limits[j]:.3e}",
                residual=gradient_norm / limits[j],
                ratios=ratios[j],
            )
        bound = gradient_norm / spec.M
        optima.append(OptimalSolution(q_j, u_j, p_j, value, gradient_norm, iterations[j], ratios[j], bound))
    return optima


def reduced_normal_system(mesh: Mesh, spec: pde.ProblemSpec):
    """Dense normal operator and linear term of the reduced cost.

    The cost as a function of the control alone is 1/2 q' G q - L' q plus a
    constant that no optimum reads.  The state responses R to the unit trace
    excitations solve the family's system with right-hand side -B2 E
    (``linsolve.solve_family``): K_ff on the free vertices for the clamped
    family, whose clamped rows of R are zero, and K + alpha B1 on every
    vertex for the Robin family.  -B2 E is sliced to the trace columns while
    sparse, then densified and solved 8 columns at a time, each checked by
    its residual, into one array R.  With Mass the vertex mass matrix,
    G = R' Mass R, symmetrized, plus M times the boundary mass on the
    trace, and L = R' (load(z_d) - Mass u_base), with the base state u_base
    from ``pde.solve_state`` at the zero control.  G is symmetric positive
    definite; ``solve_optimal_reduced`` certifies that by the pivots of its
    factor.  The route shares its linear solves with the others; what keeps
    it independent is that it never solves the adjoint equation.

    R is a dense vertex-by-trace matrix: a request whose R would exceed
    64 MiB raises ValueError before any solve (``check_response_size``).
    """
    check_response_size(mesh)
    g2 = dof_partition(mesh).gamma2_trace_dofs
    excitations = -assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)[:, g2].tocsc()
    response = np.empty(excitations.shape)
    for s in range(0, len(g2), _RESPONSE_COLUMNS):
        span = slice(s, s + _RESPONSE_COLUMNS)
        response[:, span] = solve_family(mesh, spec.alpha, excitations[:, span].toarray())
    mass = assembly.assemble_mass(mesh)
    base = pde.solve_state(mesh, spec, zero_trace(mesh))
    gmat = response.T @ (mass @ response)
    gmat = 0.5 * (gmat + gmat.T) + spec.M * assembly.trace_mass(mesh).toarray()
    lvec = response.T @ (assembly.assemble_load(mesh, spec.z_d) - mass @ base.coefficients)
    return gmat, lvec


def check_response_size(mesh: Mesh) -> None:
    """Raise ValueError if the dense route's responses on mesh would exceed the cap, before any solve.

    They hold a row per vertex and a column per trace vertex (``dof_partition``).
    """
    nvert, m = len(mesh.vertices), len(dof_partition(mesh).gamma2_trace_dofs)
    if 8 * nvert * m > _MAX_RESPONSE_BYTES:
        raise ValueError(
            f"reduced system guard: at n = {mesh.n} a {nvert} x {m} response exceeds the cap of "
            f"{_MAX_RESPONSE_BYTES} bytes"
        )


def solve_optimal_reduced(mesh: Mesh, spec: pde.ProblemSpec) -> OptimalSolution:
    """Solve G q = L by ``solve_spd`` with G's factor, whose pivots certify G; the oracle route.

    Its gradient is held to the fixed-point route's limit, M 1e-10 max(1, |q|_Q): a wrong G or L fails it.
    """
    gmat, lvec = reduced_normal_system(mesh, spec)
    q = TraceField(mesh, solve_spd(certified(gmat), lvec))
    limit = spec.M * _STEP_TOL * max(1.0, assembly.norm(q, "Q"))
    return _optima(mesh, spec, q.coefficients[None, :], [0], [[]], [limit])[0]


def check_with_reduced(mesh: Mesh, spec: pde.ProblemSpec, sol: OptimalSolution) -> None:
    """Raise unless sol lies within the gradient bound of the dense route's optimum.

    H is at least M times the identity in the boundary inner product, so
    each optimum lies within its ``distance_bound`` |grad J| / M of q*, and
    the two within the sum of their bounds of each other.  A larger
    distance raises ConvergenceError carrying their ratio as its residual
    (inf for a zero bound), as ``_optima`` carries a gradient's.
    """
    dense = solve_optimal_reduced(mesh, spec)
    gap = assembly.norm(sol.q_opt - dense.q_opt, "Q")
    bound = sol.distance_bound + dense.distance_bound
    if not gap <= bound:
        raise ConvergenceError(
            f"optimum is {gap:.3e} from the dense route's, above the gradient bound {bound:.3e}",
            residual=gap / bound if bound else np.inf,
        )
