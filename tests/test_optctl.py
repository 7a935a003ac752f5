"""Quadratic cost structure, gradient consistency, the contraction of the
update map, and agreement between the iterative and dense solution routes."""

import numpy as np
import pytest
import scipy.linalg

from fluxopt import harness, optctl, pde
from fluxopt.assembly import assemble_boundary_mass, norm
from fluxopt.linsolve import ConvergenceError, estimate_constants
from fluxopt.mesh import (
    BoundaryTag,
    TraceField,
    build_structured_mesh,
    dof_partition,
    evaluate_nodal,
    zero_trace,
)


def make_spec(alpha=None, M=25.0):
    return pde.ProblemSpec(
        g=lambda x, y: 10.0 * np.sin(np.pi * x) * np.sin(2.0 * np.pi * y),
        z_d=lambda x, y: np.zeros_like(x),
        b=1.0,
        M=M,
        alpha=alpha,
    )


def random_trace(mesh, seed):
    rng = np.random.default_rng(seed)
    return TraceField(mesh, rng.standard_normal(len(zero_trace(mesh).coefficients)))


def contraction_floor(mesh, alpha):
    c = estimate_constants(mesh)
    if alpha is None:
        return c.lambda_h, c.gamma0_norm_h
    return c.lambda1_h * min(1.0, alpha), c.gamma0_norm_h


@pytest.mark.parametrize("alpha", [None, 10.0])
def test_perfect_target_makes_zero_control_optimal(alpha):
    mesh = build_structured_mesh(8, ["bottom"])
    probe = make_spec(alpha)
    u0 = pde.solve_state(mesh, probe, zero_trace(mesh))
    spec = pde.ProblemSpec(
        g=probe.g,
        z_d=lambda x, y: evaluate_nodal(u0, x, y),
        b=probe.b,
        M=probe.M,
        alpha=alpha,
    )
    assert optctl.cost(mesh, spec, zero_trace(mesh)) == pytest.approx(0.0, abs=1e-18)
    assert norm(optctl.gradient(mesh, spec, zero_trace(mesh)), "Q") < 1e-12
    sol = optctl.solve_optimal_fixed_point(mesh, spec)
    assert sol.iterations == 1
    assert sol.contraction_ratios == []
    assert norm(sol.q_opt, "Q") < 1e-12


@pytest.mark.parametrize("alpha", [None, 1.0])
def test_cost_dominates_the_penalty_term(alpha):
    mesh = build_structured_mesh(4, ["bottom"])
    spec = make_spec(alpha)
    for seed in range(4):
        q = random_trace(mesh, seed)
        assert optctl.cost(mesh, spec, q) >= 0.5 * spec.M * norm(q, "Q") ** 2


@pytest.mark.parametrize("alpha", [None, 1.0, 100.0])
def test_midpoint_convexity_identity(alpha):
    # exact quadratic expansion: the midpoint cost sits below the average of
    # the endpoint costs by an eighth of the squared state and control gaps
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec(alpha)
    q1 = random_trace(mesh, 11)
    q2 = random_trace(mesh, 12)
    mid = (q1 + q2) * 0.5
    u1 = pde.solve_state(mesh, spec, q1)
    u2 = pde.solve_state(mesh, spec, q2)
    gap = (
        0.5 * (optctl.cost(mesh, spec, q1) + optctl.cost(mesh, spec, q2))
        - optctl.cost(mesh, spec, mid)
    )
    expect = 0.125 * norm(u2 - u1, "H") ** 2 + 0.125 * spec.M * norm(q2 - q1, "Q") ** 2
    assert gap == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("alpha", [None, 100.0])
def test_gradient_matches_central_differences(alpha):
    # the cost is quadratic in the control, so a central difference is exact
    # up to solver tolerance at any step size
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec(alpha)
    q = random_trace(mesh, 3)
    f = random_trace(mesh, 4)
    b2 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    g2 = dof_partition(mesh).gamma2_trace_dofs
    trace_mass = np.asarray(b2[g2][:, g2].todense())
    grad = optctl.gradient(mesh, spec, q)
    pairing = float(grad.coefficients @ (trace_mass @ f.coefficients))
    for t in (1e-3, 1e-4):
        diff = (
            optctl.cost(mesh, spec, q + f * t) - optctl.cost(mesh, spec, q - f * t)
        ) / (2.0 * t)
        assert diff == pytest.approx(pairing, rel=1e-6)


@pytest.mark.parametrize("alpha", [None, 1.0])
def test_gradient_monotonicity_identity(alpha):
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec(alpha)
    q1 = random_trace(mesh, 7)
    q2 = random_trace(mesh, 8)
    b2 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    g2 = dof_partition(mesh).gamma2_trace_dofs
    trace_mass = np.asarray(b2[g2][:, g2].todense())
    dgrad = optctl.gradient(mesh, spec, q2) - optctl.gradient(mesh, spec, q1)
    dq = q2 - q1
    lhs = float(dgrad.coefficients @ (trace_mass @ dq.coefficients))
    u1 = pde.solve_state(mesh, spec, q1)
    u2 = pde.solve_state(mesh, spec, q2)
    rhs = norm(u2 - u1, "H") ** 2 + spec.M * norm(dq, "Q") ** 2
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_update_map_is_scaled_gradient_step():
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec()
    q = random_trace(mesh, 13)
    step = optctl.fixed_point_map(mesh, spec, q) - q
    grad = optctl.gradient(mesh, spec, q)
    assert np.allclose(
        step.coefficients, -grad.coefficients / spec.M, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("alpha", [None, 0.5, 100.0])
def test_update_map_contracts_within_the_bound(alpha):
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec(alpha)
    floor, gamma0 = contraction_floor(mesh, alpha)
    factor = gamma0**2 / (spec.M * floor**2)
    for seed in range(4):
        q1 = random_trace(mesh, 300 + seed)
        q2 = random_trace(mesh, 400 + seed)
        w1 = optctl.fixed_point_map(mesh, spec, q1)
        w2 = optctl.fixed_point_map(mesh, spec, q2)
        assert norm(w2 - w1, "Q") <= factor * norm(q2 - q1, "Q") * (1.0 + 1e-6)


@pytest.mark.parametrize("alpha", [None, 1.0, 100.0])
def test_iteration_reaches_a_fixed_point(alpha):
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec(alpha)
    constants = estimate_constants(mesh)
    sol = optctl.solve_optimal_fixed_point(mesh, spec, constants=constants)
    residual = norm(optctl.fixed_point_map(mesh, spec, sol.q_opt) - sol.q_opt, "Q")
    assert residual <= 1e-8
    assert sol.gradient_norm <= 1e-8
    bound_factor = constants.contraction_bound(alpha) / spec.M
    assert max(sol.contraction_ratios) <= bound_factor + 0.05


@pytest.mark.parametrize("alpha", [None, 1.0, 100.0])
def test_iterative_and_dense_routes_agree(alpha):
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec(alpha)
    fp = optctl.solve_optimal_fixed_point(mesh, spec)
    dense = optctl.solve_optimal_reduced(mesh, spec)
    assert norm(fp.q_opt - dense.q_opt, "Q") <= 1e-7
    assert dense.gradient_norm <= 1e-8
    assert fp.cost == pytest.approx(dense.cost, rel=1e-10)


@pytest.mark.parametrize("alpha", [None, 2.0])
def test_reduced_quadratic_reproduces_the_cost(alpha):
    mesh = build_structured_mesh(6, ["bottom"])
    spec = make_spec(alpha)
    gmat, lvec, c0 = optctl.reduced_normal_system(mesh, spec)
    for seed in range(10):
        q = random_trace(mesh, 500 + seed)
        v = q.coefficients
        quadratic = 0.5 * float(v @ (gmat @ v)) - float(lvec @ v) + c0
        direct = optctl.cost(mesh, spec, q)
        assert quadratic == pytest.approx(direct, rel=1e-9)


def test_reduced_operator_positive_definite():
    mesh = build_structured_mesh(4, ["bottom"])
    spec = make_spec()
    gmat, _, _ = optctl.reduced_normal_system(mesh, spec)
    assert np.allclose(gmat, gmat.T, atol=1e-14)
    b2 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    g2 = dof_partition(mesh).gamma2_trace_dofs
    trace_mass = np.asarray(b2[g2][:, g2].todense())
    floor = spec.M * scipy.linalg.eigvalsh(trace_mass)[0]
    assert scipy.linalg.eigvalsh(gmat)[0] >= floor - 1e-12


def test_two_starting_points_agree():
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec()
    a = optctl.solve_optimal_fixed_point(mesh, spec)
    b = optctl.solve_optimal_fixed_point(mesh, spec, q0=random_trace(mesh, 99))
    assert norm(a.q_opt - b.q_opt, "Q") <= 1e-8


def test_cost_decreases_along_the_iteration():
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec()
    q = zero_trace(mesh)
    values = [optctl.cost(mesh, spec, q)]
    for _ in range(6):
        q = optctl.fixed_point_map(mesh, spec, q)
        values.append(optctl.cost(mesh, spec, q))
    assert values[1] < values[0]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_warning_when_penalty_sits_below_the_bound():
    mesh = build_structured_mesh(4, ["bottom"])
    spec = make_spec(M=6.0)  # just under the estimated contraction threshold
    constants = estimate_constants(mesh)
    assert spec.M <= constants.contraction_bound(None)
    with pytest.warns(UserWarning, match="contraction bound"):
        optctl.solve_optimal_fixed_point(mesh, spec, constants=constants)


def test_iteration_budget_exhaustion_raises():
    mesh = build_structured_mesh(4, ["bottom"])
    spec = make_spec()
    with pytest.raises(ConvergenceError, match="last step ratio"):
        optctl.solve_optimal_fixed_point(mesh, spec, max_iter=1)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_diverging_iteration_raises_where_the_dense_route_converges():
    # M = 0.3 sits far below the contraction threshold: the iterates grow
    # until the control norm overflows, which once passed the stop test
    mesh = build_structured_mesh(16, ["bottom"])
    spec = pde.ProblemSpec(
        g=harness.field_from_config({"name": "sin_product", "scale": 10.0, "kx": 1, "ky": 1}),
        z_d=harness.field_from_config(0.0),
        b=1.0,
        M=0.3,
    )
    with pytest.raises(ConvergenceError, match="diverged") as info:
        optctl.solve_optimal_fixed_point(mesh, spec)
    ratios = info.value.ratios
    assert len(ratios) > 100 and ratios[-1] > 1.0
    dense = optctl.solve_optimal_reduced(mesh, spec)
    assert np.isfinite(dense.cost) and dense.gradient_norm < 1e-10


def test_start_control_mesh_mismatch():
    mesh = build_structured_mesh(4, ["bottom"])
    other = build_structured_mesh(8, ["bottom"])
    with pytest.raises(ValueError):
        optctl.solve_optimal_fixed_point(mesh, make_spec(), q0=zero_trace(other))


def test_reduced_system_trace_cap():
    mesh = build_structured_mesh(8, ["bottom"])
    with pytest.raises(ValueError, match="cap"):
        optctl.reduced_normal_system(mesh, make_spec(), max_trace_dofs=3)
