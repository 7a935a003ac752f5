"""State and adjoint solvers for the two boundary families.

Both families share the same interior equation driven by a source g and a
boundary flux control q on the flux portion of the boundary; the flux enters
the weak form with a minus sign, so the strong normal derivative there is -q.
The clamped family imposes the value b directly on the clamped portion; the
Robin-type family replaces that constraint by a boundary penalty of weight
alpha pulling the trace toward b.

One solve_state and one solve_adjoint serve both families: both solve
through ``linsolve.solve_family``, which picks the family's operator from
spec.alpha (None selects the clamped family).  The constant b enters both
families only through u - b on the clamped portion, and constants lie in
the kernel of the gradient form, so u - b solves the same problem with
b = 0 and the state is b plus that solve.  For a ladder spec both take
and return a block of fields, one per alpha, in one ``solve_family`` call.

Data functions g and z_d always enter through the degree-2 midpoint-rule load
vector, never through vertex interpolation, so the adjoint right side matches
the derivative of the quadrature-evaluated tracking term exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import assembly
from .linsolve import solve_family, solve_spd  # noqa: F401  (solve_spd stays importable from pde)
from .mesh import Mesh, NodalField, TraceField, dof_partition


@dataclass(frozen=True)
class ProblemSpec:
    """Data of one control problem instance.

    g : interior source, a pure callable of coordinate arrays.
    z_d : tracking target, a pure callable of coordinate arrays.
    b : clamped boundary value (a constant); it enters only through u - b
        on the clamped portion, so it adds to the state as a constant.
    M : control penalty weight in the cost, positive.
    alpha : Robin penalty weight; None selects the clamped family.  A tuple
        of weights is a ladder: the Robin problems at each, one per column
        of the field blocks its solves take and return.

    The load vectors of g and z_d are kept per mesh, keyed by the callable
    object, so a callable must return the same values on every call.
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
        if self.alpha is not None and not all(0 < a < np.inf for a in np.ravel(self.alpha)):
            raise ValueError("Robin weight alpha must be positive and finite")

    def with_alpha(self, alpha) -> "ProblemSpec":
        return ProblemSpec(self.g, self.z_d, self.b, self.M, alpha)


def solve_state(mesh: Mesh, spec: ProblemSpec, q: TraceField) -> NodalField:
    """State of the family selected by spec.alpha, with source g and flux q applied.

    The stiffness annihilates constants, so w = u - b takes the same source
    and flux and solves the family's problem with b = 0: w vanishes on the
    clamped vertices for the clamped family, and the Robin penalty
    alpha*(u - b) on the clamped portion is alpha*w.  Both families make
    one ``solve_family`` call and add b, for a ladder's block as well.
    """
    if q.mesh is not mesh:
        raise ValueError("control lives on a different mesh")
    rhs = np.empty(q.coefficients.shape[1:] + (len(mesh.vertices),))
    rhs[...] = assembly.assemble_load(mesh, spec.g)
    # B2's nonzeros lie on the trace vertices, so this is load - B2 trace_extend(q) bit for bit
    rhs[..., dof_partition(mesh).gamma2_trace_dofs] -= (assembly.trace_mass(mesh) @ q.coefficients).T
    return NodalField(mesh, spec.b + solve_family(mesh, spec.alpha, rhs.T))


def solve_adjoint(mesh: Mesh, spec: ProblemSpec, u: NodalField) -> NodalField:
    """Adjoint of the family selected by spec.alpha, tracking u - z_d.

    It is zero on the clamped portion for the clamped family and carries a
    homogeneous penalty term there for the Robin-type family.
    """
    if u.mesh is not mesh:
        raise ValueError("state lives on a different mesh")
    tracking = (assembly.assemble_mass(mesh) @ u.coefficients).T - assembly.assemble_load(mesh, spec.z_d)
    return NodalField(mesh, solve_family(mesh, spec.alpha, tracking.T))
