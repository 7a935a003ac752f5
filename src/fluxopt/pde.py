"""State and adjoint solvers for the two boundary families.

Both families share the same interior equation driven by a source g and a
boundary flux control q on the flux portion of the boundary; the flux enters
the weak form with a minus sign, so the strong normal derivative there is -q.
The clamped family imposes the value b directly on the clamped portion; the
Robin-type family replaces that constraint by a boundary penalty of weight
alpha pulling the trace toward b.

Data functions g and z_d always enter through the degree-2 midpoint-rule load
vector, never through vertex interpolation, so the adjoint right side matches
the derivative of the quadrature-evaluated tracking term exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import assembly
from .linsolve import operators, robin_operator, solve_spd
from .mesh import BoundaryTag, Mesh, NodalField, TraceField, dof_partition

_SOLVE_TOL = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """Data of one control problem instance.

    g : interior source, callable of coordinate arrays.
    z_d : tracking target, callable of coordinate arrays.
    b : clamped boundary value (a constant).
    M : control penalty weight in the cost, positive.
    alpha : Robin penalty weight; None selects the clamped family.
    """

    g: Callable
    z_d: Callable
    b: float
    M: float
    alpha: Optional[float] = None

    def __post_init__(self):
        if not np.isfinite(self.b):
            raise ValueError("boundary value b must be finite")
        if not (np.isfinite(self.M) and self.M > 0):
            raise ValueError("penalty weight M must be positive and finite")
        if self.alpha is not None and not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("Robin weight alpha must be positive and finite")

    def with_alpha(self, alpha) -> "ProblemSpec":
        return replace(self, alpha=alpha)


def _flux_term(mesh: Mesh, q: TraceField) -> np.ndarray:
    if q.mesh is not mesh:
        raise ValueError("control lives on a different mesh")
    b2 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    return b2 @ assembly.trace_extend(q).coefficients


def _tracking_load(mesh: Mesh, spec: ProblemSpec, u: NodalField) -> np.ndarray:
    return assembly.assemble_mass(mesh) @ u.coefficients - assembly.assemble_load(mesh, spec.z_d)


def solve_state_dirichlet(mesh: Mesh, spec: ProblemSpec, q: TraceField) -> NodalField:
    """State of the clamped family: value b on the clamped portion, flux q applied.

    The clamped value is lifted by b times the indicator of the clamped
    vertices, so only the free-vertex block is solved.
    """
    clamped = operators(mesh).clamped
    part = dof_partition(mesh)
    u = np.zeros(len(mesh.vertices))
    u[part.gamma1_dofs] = spec.b
    rhs = assembly.assemble_load(mesh, spec.g) - _flux_term(mesh, q)
    rhs -= assembly.assemble_stiffness(mesh) @ u
    u[part.free_dofs] = solve_spd(clamped, rhs[part.free_dofs], tol=_SOLVE_TOL)
    return NodalField(mesh, u)


def solve_adjoint_dirichlet(mesh: Mesh, spec: ProblemSpec, u: NodalField) -> NodalField:
    """Adjoint of the clamped family: tracks u - z_d, zero on the clamped portion."""
    if u.mesh is not mesh:
        raise ValueError("state lives on a different mesh")
    free = dof_partition(mesh).free_dofs
    rhs = _tracking_load(mesh, spec, u)
    p = np.zeros(len(mesh.vertices))
    p[free] = solve_spd(operators(mesh).clamped, rhs[free], tol=_SOLVE_TOL)
    return NodalField(mesh, p)


def solve_state_robin(mesh: Mesh, spec: ProblemSpec, q: TraceField) -> NodalField:
    """State of the Robin-type family with boundary penalty weight spec.alpha."""
    if spec.alpha is None:
        raise ValueError("Robin solve needs spec.alpha")
    robin = robin_operator(mesh, spec.alpha)
    b1 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
    rhs = (
        assembly.assemble_load(mesh, spec.g)
        - _flux_term(mesh, q)
        + spec.alpha * spec.b * (b1 @ np.ones(len(mesh.vertices)))
    )
    return NodalField(mesh, solve_spd(robin, rhs, tol=_SOLVE_TOL))


def solve_adjoint_robin(mesh: Mesh, spec: ProblemSpec, u: NodalField) -> NodalField:
    """Adjoint of the Robin-type family, homogeneous penalty boundary term."""
    if spec.alpha is None:
        raise ValueError("Robin solve needs spec.alpha")
    if u.mesh is not mesh:
        raise ValueError("state lives on a different mesh")
    rhs = _tracking_load(mesh, spec, u)
    p = solve_spd(robin_operator(mesh, spec.alpha), rhs, tol=_SOLVE_TOL)
    return NodalField(mesh, p)


def solve_state(mesh: Mesh, spec: ProblemSpec, q: TraceField) -> NodalField:
    """State of the family selected by spec.alpha."""
    if spec.alpha is None:
        return solve_state_dirichlet(mesh, spec, q)
    return solve_state_robin(mesh, spec, q)


def solve_adjoint(mesh: Mesh, spec: ProblemSpec, u: NodalField) -> NodalField:
    """Adjoint of the family selected by spec.alpha."""
    if spec.alpha is None:
        return solve_adjoint_dirichlet(mesh, spec, u)
    return solve_adjoint_robin(mesh, spec, u)
