"""Optimal boundary-flux control: cost, gradient, fixed point, reduced system.

The cost is the quadrature-evaluated tracking term plus a boundary penalty
M/2 on the control.  Its gradient has the boundary representation
M q - (trace of adjoint); dividing the adjoint trace by M gives the control
update map whose fixed point is the optimal control, a contraction whenever
M exceeds the square of the trace norm over the squared coercivity floor.

Two independent routes compute the optimum: iterating the update map, and
solving the dense reduced normal system assembled column by column from unit
trace excitations.  The second path exists to cross-check the first, so the
two must never share their formulation.  They do share the linear solver:
both solve with the mesh's one factorization, and every solve is checked by
its residual, so their agreement tests the formulations, not the solver.

Neither route returns an optimum whose cost, control or gradient is not
finite; it raises ConvergenceError instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.linalg

from . import assembly, pde
from .linsolve import (  # noqa: F401  (factorize stays importable from optctl)
    ConvergenceError,
    DiscreteConstants,
    factorize,
    operators,
    robin_operator,
    solve_spd,
)
from .mesh import BoundaryTag, Mesh, NodalField, TraceField, dof_partition, zero_trace


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
    threshold, a warning is issued and the iteration proceeds anyway.  A step
    or control norm that overflows raises ConvergenceError with the step
    ratios so far, as does an exhausted iteration budget.
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


def reduced_normal_system(mesh: Mesh, spec: pde.ProblemSpec, max_trace_dofs: int = 2000):
    """Dense normal operator, linear term and constant of the reduced cost.

    The cost as a function of the control alone is
    1/2 q' G q - L' q + c0.  G couples unit trace excitations through the
    state response and adds M times the boundary mass; it is symmetric
    positive definite, so a factorization failure downstream signals an
    assembly bug.  The state responses to all unit excitations are solved as
    one block of right-hand sides with the mesh's shared operator, the one
    the iterative route uses; what keeps the two routes independent is that
    this one never applies the update map.
    """
    part = dof_partition(mesh)
    g2 = part.gamma2_trace_dofs
    m = len(g2)
    if m > max_trace_dofs:
        raise ValueError(f"reduced system guard: {m} trace vertices exceed the cap {max_trace_dofs}")

    stiff = assembly.assemble_stiffness(mesh)
    mass = assembly.assemble_mass(mesh)
    b2 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    b2_cols = np.asarray(b2[:, g2].todense())
    load_g = assembly.assemble_load(mesh, spec.g)
    nvert = len(mesh.vertices)

    if spec.alpha is None:
        free = part.free_dofs
        clamped = operators(mesh).clamped
        u0 = np.zeros(nvert)
        u0[part.gamma1_dofs] = spec.b
        rhs0 = load_g - stiff @ u0
        u0[free] = solve_spd(clamped, rhs0[free])
        response = np.zeros((nvert, m))
        response[free, :] = solve_spd(clamped, -b2_cols[free, :])
    else:
        b1 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
        robin = robin_operator(mesh, spec.alpha)
        u0 = solve_spd(robin, load_g + spec.alpha * spec.b * (b1 @ np.ones(nvert)))
        response = solve_spd(robin, -b2_cols)

    trace_mass = np.asarray(b2[g2][:, g2].todense())
    gmat = response.T @ (mass @ response) + spec.M * trace_mass
    gmat = 0.5 * (gmat + gmat.T)
    lvec = response.T @ (assembly.assemble_load(mesh, spec.z_d) - mass @ u0)
    u0_field = NodalField(mesh, u0)
    c0 = 0.5 * assembly.l2_misfit_sq(u0_field, spec.z_d)
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
