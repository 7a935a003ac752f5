"""Finite element study of boundary-flux control with a clamped/Robin pair.

Two families of discrete optimal control problems posed on nested structured
triangulations of the unit square: one clamps the controlled boundary value
directly, the other enforces it through a Robin transfer term.  The package
provides the mesh and assembly layers, deterministic linear solvers with
discrete constant estimation, the two solver families, three optimizer
routes (contraction iteration, conjugate gradients and dense reduced solve),
and experiment runners that measure both limits and their commutation.
"""

from .assembly import norm, v_error_vs_exact
from .harness import (
    ConvergenceReport,
    ExperimentConfig,
    config_from_dict,
    run,
    write_csv,
)
from .linsolve import ConvergenceError, estimate_constants, solve_spd
from .mesh import BoundaryTag, Mesh, NodalField, TraceField, build_structured_mesh
from .optctl import solve_optimal_cg, solve_optimal_fixed_point, solve_optimal_reduced
from .pde import ProblemSpec, solve_adjoint, solve_state

__all__ = [
    "BoundaryTag",
    "ConvergenceError",
    "ConvergenceReport",
    "ExperimentConfig",
    "Mesh",
    "NodalField",
    "ProblemSpec",
    "TraceField",
    "build_structured_mesh",
    "config_from_dict",
    "estimate_constants",
    "norm",
    "run",
    "solve_adjoint",
    "solve_optimal_cg",
    "solve_optimal_fixed_point",
    "solve_optimal_reduced",
    "solve_spd",
    "solve_state",
    "v_error_vs_exact",
    "write_csv",
]
