"""Quadratic cost structure, gradient consistency, the contraction of the
update map, and agreement between the iterative and dense solution routes."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from fluxopt import assembly, harness, linsolve, optctl, pde
from fluxopt.assembly import assemble_boundary_mass, norm
from fluxopt.linsolve import (
    ConvergenceError,
    estimate_constants,
    operators,
    robin_operator,
    schur_pencil,
)
from fluxopt.mesh import (
    BoundaryTag,
    NodalField,
    TraceField,
    build_structured_mesh,
    dof_partition,
    zero_trace,
)
from oracles import evaluate_nodal


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


def divergence_case(M):
    # n = 16, bottom clamped: the surrogate contraction bound is 6.36, while
    # the step ratio is about 0.66 / M, so the iteration contracts for M > 0.66
    mesh = build_structured_mesh(16, ["bottom"])
    spec = pde.ProblemSpec(
        g=harness.field_from_config({"name": "sin_product", "scale": 10.0, "kx": 1, "ky": 1}),
        z_d=harness.field_from_config(0.0),
        b=1.0,
        M=M,
    )
    return mesh, spec


def test_diverging_iteration_raises_where_the_dense_route_converges():
    # M = 0.3 sits far below the contraction threshold: every step ratio is
    # about 2.2, so the second growing step ends the run, long before the
    # iterates could overflow
    mesh, spec = divergence_case(0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="diverged") as info:
            optctl.solve_optimal_fixed_point(mesh, spec)
        ratios = info.value.ratios
        assert len(ratios) <= 2  # at most 3 steps
        assert all(r > 1.0 for r in ratios)
        dense = optctl.solve_optimal_reduced(mesh, spec)
    assert np.isfinite(dense.cost) and dense.gradient_norm < 1e-10


def test_contracting_iteration_below_the_surrogate_bound_runs_to_the_end():
    # M = 1 is below the pessimistic bound but the map still contracts
    # (ratio 0.66): no step grows, and the run is not cut short
    mesh, spec = divergence_case(1.0)
    sol = optctl.solve_optimal_fixed_point(mesh, spec)
    assert max(sol.contraction_ratios) < 1.0
    assert sol.gradient_norm <= 1e-8
    assert sol.cost == pytest.approx(optctl.solve_optimal_reduced(mesh, spec).cost, rel=1e-10)


def test_start_control_mesh_mismatch():
    mesh = build_structured_mesh(4, ["bottom"])
    other = build_structured_mesh(8, ["bottom"])
    with pytest.raises(ValueError):
        optctl.solve_optimal_fixed_point(mesh, make_spec(), q0=zero_trace(other))


def test_reduced_system_trace_cap():
    mesh = build_structured_mesh(8, ["bottom"])
    with pytest.raises(ValueError, match="cap"):
        optctl.reduced_normal_system(mesh, make_spec(), max_trace_dofs=3)


def per_alpha_reduced_system(mesh, spec):
    """The reduced system as built before the response blocks were shared.

    Every call solves the full responses to all unit trace excitations with
    the family's operator; the oracle for ``optctl.reduced_normal_system``.
    """
    part = dof_partition(mesh)
    g2 = part.gamma2_trace_dofs
    stiff = assembly.assemble_stiffness(mesh)
    mass = assembly.assemble_mass(mesh)
    b2 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    b2_cols = np.asarray(b2[:, g2].todense())
    load_g = assembly.assemble_load(mesh, spec.g)
    nvert = len(mesh.vertices)
    if spec.alpha is None:
        free = part.free_dofs
        clamped = operators(mesh).clamped
        u0 = np.zeros(nvert)
        u0[part.gamma1_dofs] = spec.b
        rhs0 = load_g - stiff @ u0
        u0[free] = linsolve.solve_spd(clamped, rhs0[free])
        response = np.zeros((nvert, len(g2)))
        response[free, :] = linsolve.solve_spd(clamped, -b2_cols[free, :])
    else:
        b1 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
        robin = robin_operator(mesh, spec.alpha)
        u0 = linsolve.solve_spd(robin, load_g + spec.alpha * spec.b * (b1 @ np.ones(nvert)))
        response = linsolve.solve_spd(robin, -b2_cols)
    trace_mass = np.asarray(b2[g2][:, g2].todense())
    gmat = response.T @ (mass @ response) + spec.M * trace_mass
    gmat = 0.5 * (gmat + gmat.T)
    lvec = response.T @ (assembly.assemble_load(mesh, spec.z_d) - mass @ u0)
    c0 = 0.5 * assembly.l2_misfit_sq(NodalField(mesh, u0), spec.z_d)
    return gmat, lvec, c0


def relative_gap(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


ALPHAS = (None, 1e-3, 1.0, 1.035, 1e4)


@pytest.mark.parametrize(
    "n, sides, alphas",
    [(8, ["bottom", "left"], ALPHAS), (16, ["bottom", "left"], ALPHAS), (64, ["bottom"], (1e-3,))],
    ids=["8", "16", "64-small-alpha"],
)
def test_shared_blocks_reproduce_the_per_alpha_reduced_system(n, sides, alphas):
    # at n = 64, alpha = 1e-3 the Robin blocks as formed miss the residual
    # limit (1.7e-10, roundoff in W X) and pass after their refinement step
    mesh = build_structured_mesh(n, sides)
    for alpha in alphas:
        spec = make_spec(alpha)
        got = optctl.reduced_normal_system(mesh, spec)
        want = per_alpha_reduced_system(mesh, spec)
        for g, w in zip(got, want):
            assert relative_gap(g, w) <= 1e-9, alpha


@pytest.mark.parametrize("n, sides", [(8, ("bottom", "right")), (16, ("bottom",))])
def test_coupling_block_rebuilds_the_schur_complement(n, sides):
    # K_cc - K_cf W and the certifying factor's trailing block are two
    # independent constructions of S0
    mesh = build_structured_mesh(n, sides)
    ops = operators(mesh)
    clamped = ops.clamped_dofs
    schur = ops.stiff[clamped][:, clamped].toarray() - ops.k_fc.T @ optctl.clamped_coupling(mesh)
    b1_cc = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)[clamped][:, clamped].toarray()
    eigenvalues, v = schur_pencil(mesh)
    rebuilt = b1_cc @ v @ np.diag(eigenvalues) @ v.T @ b1_cc
    assert relative_gap(rebuilt, schur) <= 1e-12
    assert relative_gap(v.T @ b1_cc @ v, np.eye(len(clamped))) <= 1e-12


def test_robin_reduced_systems_share_one_response_and_one_coupling_solve(monkeypatch):
    mesh = build_structured_mesh(16, ["bottom"])
    ops = operators(mesh)
    block_solves = []
    solve_columns = optctl.solve_columns

    def counted(matrix, columns, *args):
        block_solves.append((matrix, columns.shape))
        return solve_columns(matrix, columns, *args)

    factor_columns = [0]
    factor_solve = ops.clamped.solve

    def counted_factor(rhs):
        factor_columns[0] += 1 if rhs.ndim == 1 else rhs.shape[1]
        return factor_solve(rhs)

    monkeypatch.setattr(optctl, "solve_columns", counted)
    monkeypatch.setattr(ops.clamped, "solve", counted_factor)
    for alpha in (0.5, 1.0, 10.0, 100.0, 1e4):
        optctl.reduced_normal_system(mesh, make_spec(alpha))
    nfree, nclamped = len(ops.free), len(ops.clamped_dofs)
    ntrace = len(dof_partition(mesh).gamma2_trace_dofs)
    assert block_solves == [(ops.clamped, (nfree, ntrace)), (ops.clamped, (nfree, nclamped))]
    # each block column once and two vector solves per alpha for the offset
    # state, at most doubled by refinement steps; per-alpha responses would
    # take 2 ntrace columns for every alpha
    once = ntrace + nclamped + 5 * 2
    assert once <= factor_columns[0] <= 2 * once


def test_corrupted_coupling_block_is_refined_away_or_raises(monkeypatch):
    # the refinement step solves with the Robin operator, which does not use
    # W, so one step repairs a wrong W in the columns of G and, through the
    # kept steps, in its rows; a W too wrong for one step fails the check
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec(10.0)
    want = optctl.reduced_normal_system(mesh, spec)
    coupling = optctl.clamped_coupling(mesh)
    monkeypatch.setattr(optctl, "clamped_coupling", lambda _mesh: coupling * (1.0 + 1e-3))
    for g, w in zip(optctl.reduced_normal_system(mesh, spec), want):
        assert relative_gap(g, w) <= 1e-12
    monkeypatch.setattr(optctl, "clamped_coupling", lambda _mesh: coupling * 1e8)
    with pytest.raises(ConvergenceError, match="residual") as info:
        optctl.reduced_normal_system(mesh, spec)
    assert info.value.residual > 1e-10
