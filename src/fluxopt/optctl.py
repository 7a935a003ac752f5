"""Optimal boundary-flux control: cost, gradient, fixed point, reduced system.

The cost is the quadrature-evaluated tracking term plus a boundary penalty
M/2 on the control.  Its gradient has the boundary representation
M q - (trace of adjoint); dividing the adjoint trace by M gives the control
update map whose fixed point is the optimal control, a contraction whenever
M exceeds the square of the trace norm over the squared coercivity floor.

Two independent routes compute the optimum: iterating the update map, and
solving the dense reduced normal system built from the state responses to
unit trace excitations.  The second path exists to cross-check the first, so
the two must never share their formulation.  They do share the linear
solver, and more than that: the reduced route takes its base state from
``pde.solve_state``, and its responses from two blocks solved once per mesh
with the K_ff factor that the state and adjoint solves use and from the
Robin operator's Schur solve at the same alpha.  Every solve and every
response is checked by its residual.
The two routes stay independent only because the reduced route never
applies the update map, so their agreement tests the formulations, not the
solver.

Neither route returns an optimum whose cost, control or gradient is not
finite; it raises ConvergenceError instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import assembly, pde
from .linsolve import (  # noqa: F401  (factorize stays importable from optctl)
    ConvergenceError,
    DiscreteConstants,
    factorize,
    operators,
    refinement,
    robin_operator,
    solve_columns,
)
from .mesh import BoundaryTag, Mesh, NodalField, TraceField, cached, dof_partition, zero_trace


@dataclass(frozen=True)
class OptimalSolution:
    """Optimal control with its state, adjoint and solve diagnostics."""

    q_opt: TraceField
    u_opt: NodalField
    p_opt: NodalField
    cost: float
    gradient_norm: float
    iterations: int
    contraction_ratios: List[float]


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
    u = pde.solve_state(mesh, spec, q)
    p = pde.solve_adjoint(mesh, spec, u)
    return _gradient_of_adjoint(spec, q, p)


def _gradient_of_adjoint(spec, q, p) -> TraceField:
    return TraceField(q.mesh, spec.M * q.coefficients - assembly.trace_restrict(p).coefficients)


def fixed_point_map(mesh: Mesh, spec: pde.ProblemSpec, q: TraceField) -> TraceField:
    """Control update map: adjoint trace divided by M."""
    u = pde.solve_state(mesh, spec, q)
    p = pde.solve_adjoint(mesh, spec, u)
    return TraceField(q.mesh, assembly.trace_restrict(p).coefficients / spec.M)


def solve_optimal_fixed_point(
    mesh: Mesh,
    spec: pde.ProblemSpec,
    q0: Optional[TraceField] = None,
    tol: float = 1e-10,
    max_iter: int = 10000,
    constants: Optional[DiscreteConstants] = None,
) -> OptimalSolution:
    """Iterate the control update map to its fixed point.

    Stops when the boundary-norm step drops below tol * max(1, |q|).  When
    discrete constants are supplied and M sits at or below the contraction
    threshold, a warning is issued and the iteration proceeds anyway.

    The update map is affine and its linear part is self-adjoint in the
    boundary inner product (the gradient is an exact representer), so the
    steps of a contraction never grow.  Two consecutive step ratios above 1
    therefore mean divergence and raise ConvergenceError with the step
    ratios so far, as do a step or control norm that is not finite and an
    exhausted iteration budget.
    """
    if constants is not None:
        bound = constants.contraction_bound(spec.alpha)
        if spec.M <= bound:
            warnings.warn(
                f"penalty weight M={spec.M:g} is not above the contraction bound "
                f"{bound:g}; the control iteration may diverge",
                stacklevel=2,
            )
    q = q0 if q0 is not None else zero_trace(mesh)
    if q.mesh is not mesh:
        raise ValueError("start control lives on a different mesh")
    ratios: List[float] = []
    prev_step = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        q_new = fixed_point_map(mesh, spec, q)
        step = assembly.norm(q_new - q, "Q")
        if prev_step is not None and prev_step > 1e-300:
            ratios.append(step / prev_step)
        q = q_new
        qnorm = assembly.norm(q, "Q")
        if not (np.isfinite(step) and np.isfinite(qnorm)):
            raise ConvergenceError(
                f"control iteration diverged: non-finite step or control norm after "
                f"{iterations} steps (last step ratio {_last_ratio(ratios)})",
                ratios=ratios,
            )
        if step <= tol * max(1.0, qnorm):
            break
        if len(ratios) >= 2 and min(ratios[-2:]) > 1.0:
            raise ConvergenceError(
                f"control iteration diverged: two consecutive steps grew after "
                f"{iterations} steps (last step ratio {_last_ratio(ratios)})",
                ratios=ratios,
            )
        prev_step = step
    else:
        raise ConvergenceError(
            f"control iteration did not converge in {max_iter} steps "
            f"(last step ratio {_last_ratio(ratios)})",
            ratios=ratios,
        )
    return _optimum(mesh, spec, q, iterations, ratios)


def _last_ratio(ratios) -> str:
    return f"{ratios[-1]:.3g}" if ratios else "n/a"


def _optimum(mesh, spec, q, iterations, ratios) -> OptimalSolution:
    """State, adjoint, cost and gradient at q; raises unless all are finite."""
    u = pde.solve_state(mesh, spec, q)
    p = pde.solve_adjoint(mesh, spec, u)
    value = _cost_of_state(spec, u, q)
    gradient_norm = assembly.norm(_gradient_of_adjoint(spec, q, p), "Q")
    if not (np.isfinite(value) and np.isfinite(gradient_norm)):
        raise ConvergenceError(
            f"optimum is not finite: cost {value!r}, gradient norm {gradient_norm!r}",
            ratios=ratios,
        )
    return OptimalSolution(
        q_opt=q,
        u_opt=u,
        p_opt=p,
        cost=value,
        gradient_norm=gradient_norm,
        iterations=iterations,
        contraction_ratios=ratios,
    )


# bytes of one block of response columns: wide enough for the products with
# the block to run at matrix-matrix speed, small enough that the block and
# its products add little to the peak memory
_BLOCK_BYTES = 4 << 20


def _excitation(mesh: Mesh) -> sp.csc_matrix:
    """-B2 E: the load of each unit trace excitation, one sparse column each."""
    g2 = dof_partition(mesh).gamma2_trace_dofs
    return -assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)[:, g2].tocsc()


def _frozen(block: np.ndarray) -> np.ndarray:
    block.setflags(write=False)
    return block


@cached
def clamped_response(mesh: Mesh) -> np.ndarray:
    """Y = K_ff^-1 (-B2 E)_f: the clamped responses to the unit trace excitations.

    One column per flux-boundary trace vertex, on the free vertices; the
    clamped values are zero.  Read-only, since every reduced system of the
    mesh shares it.
    """
    free = dof_partition(mesh).free_dofs
    return _frozen(solve_columns(operators(mesh).clamped, _excitation(mesh)[free]))


@cached
def clamped_coupling(mesh: Mesh) -> np.ndarray:
    """W = K_ff^-1 K_fc: the free-vertex responses to unit clamped values, negated.

    Read-only, since every Robin reduced system of the mesh shares it.
    """
    ops = operators(mesh)
    return _frozen(solve_columns(ops.clamped, ops.k_fc))


class _Response:
    """State responses R to the unit trace excitations.

    R = Y - W X on the free vertices and X on the clamped ones; the clamped
    family has X = 0.  Blocks of columns are formed on demand, so the full
    vertex-by-trace matrix never exists.
    """

    def __init__(self, part, y, w=None, x=None):
        self.free, self.clamped = part.free_dofs, part.gamma1_dofs
        self.nvert = len(self.free) + len(self.clamped)
        self.y, self.w, self.x = y, w, x

    def block(self, cols) -> np.ndarray:
        y = self.y[:, cols]
        r = np.zeros((self.nvert, y.shape[1]))
        if self.x is None:
            r[self.free] = y
        else:
            x = self.x[:, cols]
            r[self.free] = y - self.w @ x
            r[self.clamped] = x
        return r

    def t_dot(self, v, rows) -> np.ndarray:
        """Rows of R' v for an array v of vertex columns."""
        v_f = v[self.free]
        out = self.y[:, rows].T @ v_f
        if self.x is not None:
            out += self.x[:, rows].T @ (v[self.clamped] - self.w.T @ v_f)
        return out


def reduced_normal_system(mesh: Mesh, spec: pde.ProblemSpec, max_trace_dofs: int = 2000):
    """Dense normal operator, linear term and constant of the reduced cost.

    The cost as a function of the control alone is
    1/2 q' G q - L' q + c0.  G couples unit trace excitations through the
    state responses R and adds M times the boundary mass; it is symmetric
    positive definite, so a factorization failure downstream signals an
    assembly bug.  G and L are accumulated a block of columns at a time as
    R' M R_j and R_j' v, so neither R nor M R is ever formed whole.

    R is built from two blocks that each mesh solves once with the K_ff
    factor its Robin operators share: the clamped responses
    Y = K_ff^-1 (-B2 E)_f, and for the Robin family W = K_ff^-1 K_fc.  At
    any alpha the clamped values X = (S0 + alpha B1_cc)^-1 ((-B2 E)_c - K_cf Y)
    come from the Robin operator's Schur solve, R_f = Y - W X,
    and every block of R is checked against (K + alpha B1) R = -B2 E as
    ``solve_spd`` checks its solves: a column above both the target and its
    roundoff floor, or above the limit, gets one refinement step through
    the Robin operator's solve, which G and L use on both sides.  Small
    alpha needs that step on fine meshes, where roundoff in W X grows with
    |X| ~ 1/alpha.  This route thus shares its responses with the state
    solves of the iterative one; what keeps the two independent is that
    this one never applies the update map.
    """
    part = dof_partition(mesh)
    m = len(part.gamma2_trace_dofs)
    if m > max_trace_dofs:
        raise ValueError(f"reduced system guard: {m} trace vertices exceed the cap {max_trace_dofs}")

    mass = assembly.assemble_mass(mesh)
    nvert = len(mesh.vertices)
    y = clamped_response(mesh)
    base = pde.solve_state(mesh, spec, zero_trace(mesh))

    if spec.alpha is None:
        response = _Response(part, y)
    else:
        robin = robin_operator(mesh, spec.alpha)
        excitation = _excitation(mesh)
        clamped = part.gamma1_dofs
        x = robin.solve_schur(excitation[clamped].toarray() - operators(mesh).k_cf @ y)
        response = _Response(part, y, clamped_coupling(mesh), x)

    v = assembly.assemble_load(mesh, spec.z_d) - mass @ base.coefficients
    gmat = np.empty((m, m))
    lvec = np.empty(m)
    mass_steps = []  # M times the refinement steps taken so far, with their columns
    width = max(1, _BLOCK_BYTES // (8 * nvert))
    for start in range(0, m, width):
        cols = slice(start, start + width)
        r = response.block(cols)
        if spec.alpha is not None:
            step = refinement(robin, excitation[:, cols].toarray(), r)
            if step is not None:
                r += step
                mass_steps.append((cols, mass @ step))
        # G is symmetric: only its upper triangle is formed, its rows from
        # the blocks of R as formed plus their refinement steps
        upper = slice(0, cols.stop)
        gmat[upper, cols] = response.t_dot(mass @ r, upper)
        for rows, mass_step in mass_steps:
            gmat[rows, cols] += mass_step.T @ r
        lvec[cols] = r.T @ v
    gmat = np.triu(gmat) + np.triu(gmat, 1).T
    b2 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    g2 = part.gamma2_trace_dofs
    gmat += spec.M * b2[g2][:, g2].toarray()
    c0 = 0.5 * assembly.l2_misfit_sq(base, spec.z_d)
    return gmat, lvec, c0


def solve_optimal_reduced(
    mesh: Mesh, spec: pde.ProblemSpec, max_trace_dofs: int = 2000
) -> OptimalSolution:
    """Solve the dense reduced normal system directly; the oracle route."""
    gmat, lvec, _ = reduced_normal_system(mesh, spec, max_trace_dofs)
    try:
        chol = scipy.linalg.cho_factor(gmat)
    except scipy.linalg.LinAlgError as exc:
        raise ConvergenceError(f"reduced operator is not positive definite: {exc}") from exc
    q = TraceField(mesh, scipy.linalg.cho_solve(chol, lvec))
    return _optimum(mesh, spec, q, 0, [])
