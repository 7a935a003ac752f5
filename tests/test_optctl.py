"""Quadratic cost structure, gradient consistency, the contraction of the
update map, and agreement between the fixed-point, conjugate-gradient and
dense solution routes."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg

from fluxopt import assembly, harness, linsolve, optctl, pde
from fluxopt.assembly import assemble_boundary_mass, norm
from fluxopt.linsolve import (
    ConvergenceError,
    RobinOperator,
    clamped_operator,
    estimate_constants,
    schur_pencil,
)
from fluxopt.mesh import (
    SIDES,
    BoundaryTag,
    TraceField,
    build_structured_mesh,
    dof_partition,
    trace_restrict,
    zero_trace,
)
from oracles import (
    cg_by_steps,
    coupling_block,
    evaluate_nodal,
    fixed_point_by_steps,
    fixed_point_map,
    has_free_vertex,
    hessian_product,
    q_inner,
    reduced_cost_constant,
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
    step = fixed_point_map(mesh, spec, q) - q
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
        w1 = fixed_point_map(mesh, spec, q1)
        w2 = fixed_point_map(mesh, spec, q2)
        assert norm(w2 - w1, "Q") <= factor * norm(q2 - q1, "Q") * (1.0 + 1e-6)


@pytest.mark.parametrize("alpha", [None, 1.0, 100.0])
def test_iteration_reaches_a_fixed_point(alpha):
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec(alpha)
    constants = estimate_constants(mesh)
    sol = optctl.solve_optimal_fixed_point(mesh, spec)
    residual = norm(fixed_point_map(mesh, spec, sol.q_opt) - sol.q_opt, "Q")
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
    gmat, lvec = optctl.reduced_normal_system(mesh, spec)
    c0 = reduced_cost_constant(mesh, spec)
    for seed in range(10):
        q = random_trace(mesh, 500 + seed)
        v = q.coefficients
        quadratic = 0.5 * float(v @ (gmat @ v)) - float(lvec @ v) + c0
        direct = optctl.cost(mesh, spec, q)
        assert quadratic == pytest.approx(direct, rel=1e-9)


def test_reduced_operator_positive_definite():
    mesh = build_structured_mesh(4, ["bottom"])
    spec = make_spec()
    gmat, _ = optctl.reduced_normal_system(mesh, spec)
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
        q = fixed_point_map(mesh, spec, q)
        values.append(optctl.cost(mesh, spec, q))
    assert values[1] < values[0]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_iteration_budget_exhaustion_raises(monkeypatch):
    mesh = build_structured_mesh(4, ["bottom"])
    spec = make_spec()
    monkeypatch.setattr(optctl, "_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="last step ratio"):
        optctl.solve_optimal_fixed_point(mesh, spec)


@pytest.mark.parametrize("alpha", [None, 10.0])
def test_fixed_point_checks_the_gradient_of_its_optimum(monkeypatch, alpha):
    # T q + c contracts like T and its steps meet the stop rule, but its
    # fixed point q = T q + c has the gradient M (q - T q) = M c
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec(alpha)
    sol = optctl.solve_optimal_fixed_point(mesh, spec)
    assert sol.gradient_norm <= spec.M * optctl._STEP_TOL * max(1.0, norm(sol.q_opt, "Q"))
    # the iteration takes the adjoint trace, M times the update map, from its block form
    trace = optctl._adjoint_trace
    monkeypatch.setattr(optctl, "_adjoint_trace", lambda *args: trace(*args) + spec.M * 1e-6)
    with pytest.raises(ConvergenceError, match="gradient norm") as info:
        optctl.solve_optimal_fixed_point(mesh, spec)
    assert info.value.residual > 1.0


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


@pytest.mark.parametrize("M, alpha", [(0.3, None), (0.03, None), (0.3, 10.0)])
def test_conjugate_gradients_agree_with_the_dense_route(M, alpha):
    # M = 0.3 and 0.03 sit where the fixed-point iteration diverges
    mesh, spec = divergence_case(M)
    spec = spec.with_alpha(alpha)
    cg = optctl.solve_optimal_cg(mesh, spec)
    dense = optctl.solve_optimal_reduced(mesh, spec)
    assert norm(cg.q_opt - dense.q_opt, "Q") <= 1e-9 * norm(dense.q_opt, "Q")
    assert cg.cost == pytest.approx(dense.cost, rel=1e-9)
    assert cg.contraction_ratios == []
    optctl.check_with_reduced(mesh, spec, cg)


def count_solves(monkeypatch):
    counts = {"solve_state": 0, "solve_adjoint": 0}
    for name in counts:

        def counted(*args, _solve=getattr(pde, name), _name=name):
            counts[_name] += 1
            return _solve(*args)

        monkeypatch.setattr(pde, name, counted)
    return counts


@pytest.mark.parametrize("alpha", [None, 10.0])
def test_conjugate_gradients_take_no_more_solves_than_the_fixed_point_iteration(
    monkeypatch, alpha
):
    # the default M of the optimizing experiments: 4x the contraction bound
    # of their coarsest mesh
    config = harness.ExperimentConfig("control-conv")
    _, spec = harness.prepare(config, build_structured_mesh(config.levels[0], ["bottom"]))
    spec = spec.with_alpha(alpha)
    mesh = build_structured_mesh(16, ["bottom"])
    counts = count_solves(monkeypatch)
    fp = optctl.solve_optimal_fixed_point(mesh, spec)
    fp_counts = dict(counts)
    counts.update(solve_state=0, solve_adjoint=0)
    cg = optctl.solve_optimal_cg(mesh, spec)
    assert counts["solve_state"] == counts["solve_adjoint"] == cg.iterations + 2
    assert all(counts[name] <= fp_counts[name] for name in counts)
    assert norm(cg.q_opt - fp.q_opt, "Q") <= 1e-8


def test_nonpositive_curvature_raises(monkeypatch):
    mesh = build_structured_mesh(8, ["bottom"])
    # the iteration takes H d from its block form
    hessian = optctl._hessian
    monkeypatch.setattr(optctl, "_hessian", lambda *args: -hessian(*args))
    with pytest.raises(ConvergenceError, match="nonpositive curvature"):
        optctl.solve_optimal_cg(mesh, make_spec())


def test_conjugate_gradient_budget_exhaustion_raises(monkeypatch):
    mesh = build_structured_mesh(8, ["bottom"])
    monkeypatch.setattr(optctl, "_MAX_CG_ITER", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 steps"):
        optctl.solve_optimal_cg(mesh, make_spec())


def test_conjugate_gradients_check_the_recomputed_gradient(monkeypatch):
    # with H doubled the recursion converges, to half the optimum, and only
    # the recomputed gradient at the result shows it
    mesh = build_structured_mesh(8, ["bottom"])
    hessian = optctl._hessian
    monkeypatch.setattr(optctl, "_hessian", lambda *args: hessian(*args) * 2.0)
    with pytest.raises(ConvergenceError, match="gradient norm") as info:
        optctl.solve_optimal_cg(mesh, make_spec())
    assert info.value.residual > optctl._CG_TOL


@pytest.mark.parametrize("alpha", [None, 10.0])
def test_every_route_carries_a_distance_bound_that_holds(alpha):
    # H >= M I, so each optimum lies within |grad J| / M of q*, and any two
    # within the sum of their bounds of each other
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec(alpha)
    optima = [
        optctl.solve_optimal_fixed_point(mesh, spec),
        optctl.solve_optimal_cg(mesh, spec),
        optctl.solve_optimal_reduced(mesh, spec),
    ]
    for sol in optima:
        assert sol.distance_bound == sol.gradient_norm / spec.M
    for first, second in itertools.combinations(optima, 2):
        gap = norm(first.q_opt - second.q_opt, "Q")
        assert gap <= first.distance_bound + second.distance_bound


def test_a_hand_built_solution_has_no_distance_the_cross_check_accepts():
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec()
    sol = optctl.solve_optimal_fixed_point(mesh, spec)
    fields = {f.name: getattr(sol, f.name) for f in dataclasses.fields(sol)}
    del fields["distance_bound"]
    with pytest.raises(ConvergenceError, match="gradient bound nan"):
        optctl.check_with_reduced(mesh, spec, optctl.OptimalSolution(**fields))


@pytest.mark.parametrize("alpha", [None, 1.0])
def test_perturbed_optimum_fails_the_dense_cross_check(alpha):
    mesh = build_structured_mesh(8, ["bottom"])
    spec = make_spec(alpha)
    sol = optctl.solve_optimal_fixed_point(mesh, spec)
    optctl.check_with_reduced(mesh, spec, sol)
    shifted = TraceField(mesh, sol.q_opt.coefficients + 1e-8)
    with pytest.raises(ConvergenceError, match="gradient bound") as info:
        optctl.check_with_reduced(mesh, spec, dataclasses.replace(sol, q_opt=shifted))
    assert info.value.residual > 1.0


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("alpha", [None, 10.0])
@pytest.mark.parametrize("scale", [1.0, 1e-4])
def test_quadratic_form_gap_is_the_difference_of_costs(n, alpha, scale):
    mesh = build_structured_mesh(n, ["bottom"])
    spec = make_spec(alpha)
    opt = optctl.solve_optimal_fixed_point(mesh, spec)
    q = opt.q_opt + random_trace(mesh, 21) * scale
    difference = optctl.cost(mesh, spec, q) - opt.cost
    # a few roundoffs of the two costs; measured at most 4.6e-16 of their sum
    noise = 4.0 * np.finfo(float).eps * (optctl.cost(mesh, spec, q) + opt.cost)
    gap = optctl.cost_gap(mesh, spec, q, opt)
    assert gap > 0.0
    assert abs(gap - difference) <= noise


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("alpha", [None, 10.0])
def test_cost_gap_takes_its_quadratic_term_from_one_state_solve(monkeypatch, n, alpha):
    # 1/2 <e, H e> is the homogeneous cost at e: no adjoint solve, and the
    # same value as the form through the full H product
    mesh = build_structured_mesh(n, ["bottom"])
    spec = make_spec(alpha)
    opt = optctl.solve_optimal_fixed_point(mesh, spec)
    q = opt.q_opt + random_trace(mesh, 21)
    e = q - opt.q_opt
    trace = trace_restrict(opt.p_opt).coefficients
    grad = TraceField(mesh, optctl._representer(spec, opt.q_opt.coefficients, trace))
    through_h = 0.5 * q_inner(e, hessian_product(mesh, spec, e)) + q_inner(grad, e)
    counts = count_solves(monkeypatch)
    gap = optctl.cost_gap(mesh, spec, q, opt)
    assert counts == {"solve_state": 1, "solve_adjoint": 0}
    assert abs(gap - through_h) <= 1e-13 * abs(through_h)


@pytest.mark.parametrize("M", [1.0, 6.0])
def test_contracting_iteration_below_the_surrogate_bound_runs_to_the_end(M):
    # both M sit below the pessimistic bound but the map still contracts
    # (ratio 0.66 / M): no step grows, the run is not cut short and, with
    # warnings as errors, nothing warns
    mesh, spec = divergence_case(M)
    assert spec.M <= estimate_constants(mesh).contraction_bound()
    sol = optctl.solve_optimal_fixed_point(mesh, spec)
    assert max(sol.contraction_ratios) < 1.0
    assert sol.gradient_norm <= 1e-8
    assert sol.cost == pytest.approx(optctl.solve_optimal_reduced(mesh, spec).cost, rel=1e-10)


def test_start_control_mesh_mismatch():
    mesh = build_structured_mesh(4, ["bottom"])
    other = build_structured_mesh(8, ["bottom"])
    with pytest.raises(ValueError):
        optctl.solve_optimal_fixed_point(mesh, make_spec(), q0=zero_trace(other))


def test_reduced_system_trace_cap(monkeypatch):
    mesh = build_structured_mesh(8, ["bottom"])
    monkeypatch.setattr(optctl, "_MAX_RESPONSE_BYTES", 1000)
    with pytest.raises(ValueError, match="cap"):
        optctl.reduced_normal_system(mesh, make_spec())


def test_a_response_too_large_for_the_cap_raises_before_any_solve(monkeypatch):
    # n = 256 with one clamped side: 66049 x 769 responses, 406 MB, against
    # 64 MiB; n = 128 needs 51 MB and still builds
    calls = []
    monkeypatch.setattr(linsolve, "solve_spd", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="cap"):
        optctl.reduced_normal_system(build_structured_mesh(256, ["bottom"]), make_spec())
    assert calls == []


@pytest.mark.parametrize("count", [1, 2, 3])
def test_response_size_counts_the_trace_vertices_of_the_mesh(monkeypatch, count):
    for sides in itertools.combinations(SIDES, count):
        for n in [n for n in (1, 2, 5) if has_free_vertex(n, sides)]:
            mesh = build_structured_mesh(n, sides)
            size = 8 * len(mesh.vertices) * len(dof_partition(mesh).gamma2_trace_dofs)
            monkeypatch.setattr(optctl, "_MAX_RESPONSE_BYTES", size)
            optctl.check_response_size(mesh)
            monkeypatch.setattr(optctl, "_MAX_RESPONSE_BYTES", size - 1)
            with pytest.raises(ValueError, match="cap"):
                optctl.check_response_size(mesh)


def per_alpha_reduced_system(mesh, spec):
    """The reduced system from dense right-hand sides and its own base state.

    Every call solves the full responses to all unit trace excitations with
    the family's operator, 8 columns at a time as the oracle does (one wide
    block moves them by roundoff that grows like 1/alpha: 5e-11 in G at
    n = 64, alpha = 1e-3), and the base state without ``pde``, as b plus
    the solve of the source load with b = 0 (the stiffness annihilates
    constants); the oracle for ``optctl.reduced_normal_system``.
    """
    part = dof_partition(mesh)
    g2 = part.gamma2_trace_dofs
    mass = assembly.assemble_mass(mesh)
    b2 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    b2_cols = np.asarray(b2[:, g2].todense())
    load_g = assembly.assemble_load(mesh, spec.g)
    nvert = len(mesh.vertices)
    response = np.zeros((nvert, len(g2)))
    spans = [slice(s, s + 8) for s in range(0, len(g2), 8)]
    if spec.alpha is None:
        free = part.free_dofs
        clamped = clamped_operator(mesh)
        u0 = np.full(nvert, spec.b)
        u0[free] += linsolve.solve_spd(clamped, load_g[free])
        for span in spans:
            response[free, span] = linsolve.solve_spd(clamped, -b2_cols[free, span])
    else:
        robin = RobinOperator(mesh, spec.alpha)
        u0 = spec.b + linsolve.solve_spd(robin, load_g)
        for span in spans:
            response[:, span] = linsolve.solve_spd(robin, -b2_cols[:, span])
    trace_mass = np.asarray(b2[g2][:, g2].todense())
    gmat = response.T @ (mass @ response) + spec.M * trace_mass
    gmat = 0.5 * (gmat + gmat.T)
    lvec = response.T @ (assembly.assemble_load(mesh, spec.z_d) - mass @ u0)
    return gmat, lvec


def relative_gap(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


ALPHAS = (None, 1e-3, 1.0, 1.035, 1e4)


@pytest.mark.parametrize(
    "n, sides, alphas",
    [(8, ["bottom", "left"], ALPHAS), (16, ["bottom", "left"], ALPHAS), (64, ["bottom"], (1e-3,))],
    ids=["8", "16", "64-small-alpha"],
)
def test_shared_blocks_reproduce_the_per_alpha_reduced_system(n, sides, alphas):
    # both constructions solve every response column with the family's
    # operator and the base state as b plus a solve with b = 0, so they agree
    # to roundoff in the products (measured at most 1.2e-16, in G at
    # alpha = 1e-3, where the responses grow like 1/alpha)
    mesh = build_structured_mesh(n, sides)
    for alpha in alphas:
        spec = make_spec(alpha)
        got = optctl.reduced_normal_system(mesh, spec)
        want = per_alpha_reduced_system(mesh, spec)
        for g, w in zip(got, want):
            assert relative_gap(g, w) <= 1e-9, alpha
            assert relative_gap(g, w) <= 1e-13, alpha


@pytest.mark.parametrize(
    "n, sides",
    [
        (8, ("bottom", "right")),
        (16, ("bottom",)),
        (64, ("bottom", "left", "right")),
        (64, ("left", "top", "right")),
        (64, ("bottom", "top")),
    ],
)
def test_coupling_block_rebuilds_the_schur_complement(n, sides):
    # K_cc - K_cf W with W = K_ff^-1 K_fc, from K_ff solves, and the sum
    # over pairs of grid lines in schur_complement are two independent
    # constructions of S0; measured at most 4.5e-15 through the pencil and
    # 2.7e-16 for S0 itself
    mesh = build_structured_mesh(n, sides)
    clamped, k_fc = dof_partition(mesh).gamma1_dofs, coupling_block(mesh)
    coupling = linsolve.solve_spd(clamped_operator(mesh), k_fc.toarray())
    schur = assembly.assemble_stiffness(mesh)[clamped][:, clamped].toarray() - k_fc.T @ coupling
    b1_cc = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)[clamped][:, clamped].toarray()
    eigenvalues, v = schur_pencil(mesh)
    rebuilt = b1_cc @ v @ np.diag(eigenvalues) @ v.T @ b1_cc
    assert relative_gap(rebuilt, schur) <= 1e-12
    assert relative_gap(v.T @ b1_cc @ v, np.eye(len(clamped))) <= 1e-12
    assert relative_gap(rebuilt, schur) <= 1e-14
    assert relative_gap(v.T @ b1_cc @ v, np.eye(len(clamped))) <= 1e-14
    assert relative_gap(linsolve.schur_complement(mesh), schur) <= 8.0 * np.finfo(float).eps


@pytest.mark.parametrize("alpha", [None, 0.5, 1e4])
def test_each_reduced_system_solves_its_responses_8_trace_columns_at_a_time(monkeypatch, alpha):
    # the response solves take at most 8 columns each and cover the trace
    # columns in order, then one solve of the base state follows, each with
    # the family's operator on the rows it solves
    mesh = build_structured_mesh(16, ["bottom"])
    clamped = clamped_operator(mesh)
    calls = []
    solve_spd = linsolve.solve_spd

    def counted(matrix, rhs):
        calls.append((matrix, rhs.copy()))
        return solve_spd(matrix, rhs)

    monkeypatch.setattr(linsolve, "solve_spd", counted)
    optctl.reduced_normal_system(mesh, make_spec(alpha))
    part = dof_partition(mesh)
    excitations = -assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)[:, part.gamma2_trace_dofs].toarray()
    if alpha is None:
        size, rows = len(part.free_dofs), part.free_dofs
        assert all(matrix is clamped for matrix, _ in calls)
    else:
        size, rows = len(mesh.vertices), slice(None)
        for matrix, _ in calls:
            assert isinstance(matrix, linsolve.RobinOperator) and matrix.alpha == alpha
    *responses, (_, base) = calls
    assert base.shape == (size,)
    # 49 trace columns: six chunks of 8 and one of 1
    assert [rhs.shape for _, rhs in responses] == [(size, 8)] * 6 + [(size, 1)]
    assert np.array_equal(np.hstack([rhs for _, rhs in responses]), excitations[rows])


def test_a_wrong_robin_solve_makes_the_reduced_system_raise(monkeypatch):
    # the responses are checked like every solve: a solve that doubles its
    # answer leaves a residual of |b|, and its refinement step, doubled too,
    # takes x to zero, which leaves |b| again
    mesh = build_structured_mesh(8, ["bottom"])
    solve = linsolve.RobinOperator.solve
    monkeypatch.setattr(linsolve.RobinOperator, "solve", lambda self, rhs: 2.0 * solve(self, rhs))
    with pytest.raises(ConvergenceError, match="residual") as info:
        optctl.reduced_normal_system(mesh, make_spec(10.0))
    assert info.value.residual > 1e-10


@pytest.mark.parametrize("alpha", [None, 10.0])
def test_the_oracle_checks_its_normal_solve(monkeypatch, alpha):
    # G q = L is solved and checked like every other system: a factor whose
    # solve doubles its answer fails the residual check, step included
    factorize = linsolve.factorize

    def doubled(matrix):
        solve = factorize(matrix)
        return lambda rhs: 2.0 * solve(rhs)

    monkeypatch.setattr(linsolve, "factorize", doubled)
    with pytest.raises(ConvergenceError, match="residual") as info:
        optctl.solve_optimal_reduced(build_structured_mesh(8, ["bottom"]), make_spec(alpha))
    assert info.value.residual > 1e-10


def test_an_indefinite_normal_operator_raises(monkeypatch):
    # G is certified positive definite before it is solved, and -G is not
    system = optctl.reduced_normal_system

    def negated(mesh, spec):
        gmat, lvec = system(mesh, spec)
        return -gmat, lvec

    monkeypatch.setattr(optctl, "reduced_normal_system", negated)
    with pytest.raises(ConvergenceError, match="not positive definite"):
        optctl.solve_optimal_reduced(build_structured_mesh(8, ["bottom"]), make_spec())


LADDER = (1.0, 10.0, 100.0, 1000.0, 10000.0)


def ladder_spec(sides):
    # the optimizing experiments' default problem: M is 4x the clamped
    # contraction bound of the coarsest mesh (n = 4)
    config = harness.ExperimentConfig("diagram", gamma1_sides=sides)
    return harness.prepare(config, build_structured_mesh(4, sides))[1]


def assert_matches_the_ladders_of_one(mesh, spec, alphas, cg):
    ladder = optctl.solve_ladder(mesh, spec, alphas, cg=cg)
    assert len(ladder) == len(alphas)
    for alpha, sol in zip(alphas, ladder):
        (one,) = optctl.solve_ladder(mesh, spec, [alpha], cg=cg)
        assert sol.iterations == one.iterations
        assert norm(sol.q_opt - one.q_opt, "Q") <= 1e-14 * norm(one.q_opt, "Q")
        assert norm(sol.u_opt - one.u_opt, "V") <= 1e-14 * norm(one.u_opt, "V")
        assert sol.cost == pytest.approx(one.cost, rel=1e-14)


@pytest.mark.parametrize("cg", [False, True])
@pytest.mark.parametrize("sides", [("bottom",), ("bottom", "left")])
def test_a_ladder_solves_each_alpha_as_its_ladder_of_one(sides, cg):
    # a block that mixed its columns, or paired a column with another's
    # alpha, would move the controls far beyond 1e-14 or change a count
    assert_matches_the_ladders_of_one(build_structured_mesh(8, sides), ladder_spec(sides), LADDER, cg)


@pytest.mark.parametrize("cg", [False, True])
def test_a_ladder_of_19_alphas_solves_each_alpha_alone(cg):
    alphas = tuple(np.geomspace(1.0, 1e5, 19))
    mesh = build_structured_mesh(4, ("bottom",))
    assert_matches_the_ladders_of_one(mesh, ladder_spec(("bottom",)), alphas, cg)


@pytest.mark.parametrize("alpha", [None, 1.0, 1e4])
@pytest.mark.parametrize("sides", [("bottom",), ("left", "top", "right")])
@pytest.mark.parametrize("n", [4, 16])
def test_a_ladder_of_one_is_the_single_route_bit_for_bit(n, sides, alpha):
    # the single routes iterate one control through pde.solve_state and
    # pde.solve_adjoint, as the routes did before they became ladders
    mesh, spec = build_structured_mesh(n, sides), ladder_spec(sides).with_alpha(alpha)
    routes = ((optctl.solve_optimal_fixed_point, fixed_point_by_steps), (optctl.solve_optimal_cg, cg_by_steps))
    for route, by_steps in routes:
        sol = route(mesh, spec)
        q, iterations = by_steps(mesh, spec)
        assert sol.iterations == iterations
        assert np.array_equal(sol.q_opt.coefficients, q.coefficients)
        if alpha is not None:
            (rung,) = optctl.solve_ladder(mesh, spec, [alpha], cg=route is optctl.solve_optimal_cg)
            assert np.array_equal(rung.q_opt.coefficients, q.coefficients)
            assert np.array_equal(rung.u_opt.coefficients, sol.u_opt.coefficients)


@pytest.mark.parametrize("cg", [False, True])
def test_a_ladder_solves_only_through_one_state_and_one_adjoint_call_per_step(monkeypatch, cg):
    # every solve of the block goes through pde.solve_state and pde.solve_adjoint,
    # one call each per step, plus the start residual (cg) and the final check
    mesh, spec = build_structured_mesh(8, ("bottom",)), ladder_spec(("bottom",))
    counts = count_solves(monkeypatch)
    family = pde.solve_family
    families = []
    monkeypatch.setattr(pde, "solve_family", lambda *args: families.append(args[1]) or family(*args))
    ladder = optctl.solve_ladder(mesh, spec, LADDER, cg=cg)
    calls = max(sol.iterations for sol in ladder) + (2 if cg else 1)
    assert counts == {"solve_state": calls, "solve_adjoint": calls}
    assert len(families) == 2 * calls
    assert families[:2] == [LADDER, LADDER]


def test_one_diverging_alpha_stops_the_ladder_and_is_named():
    # M = 2 at n = 16: the step ratio is about 6.0 / M at alpha = 1, so
    # that column diverges, and at most 0.92 / M at alpha >= 10, which contract
    mesh, spec = divergence_case(2.0)
    alphas = (10.0, 1.0, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="alpha=1 diverged: two consecutive steps grew") as info:
            optctl.solve_ladder(mesh, spec, alphas)
    ratios = info.value.ratios
    assert len(ratios) == 2 and all(r > 1.0 for r in ratios)
    for alpha in (10.0, 100.0):
        sol = optctl.solve_optimal_fixed_point(mesh, spec.with_alpha(alpha))
        assert max(sol.contraction_ratios) < 1.0


def test_a_ladder_checks_each_gradient_and_names_the_alpha(monkeypatch):
    # shifting the update map moves the fixed point off the optimum: the
    # final gradient check of the first column raises and names its alpha
    mesh, spec = build_structured_mesh(8, ("bottom",)), ladder_spec(("bottom",))
    trace = optctl._adjoint_trace
    monkeypatch.setattr(optctl, "_adjoint_trace", lambda *args: trace(*args) + spec.M * 1e-6)
    with pytest.raises(ConvergenceError, match="optimum at alpha=1 has gradient norm") as info:
        optctl.solve_ladder(mesh, spec, LADDER)
    assert info.value.residual > 1.0


def test_a_ladder_rejects_a_nonpositive_alpha_and_an_empty_one_has_no_optima():
    mesh = build_structured_mesh(4, ("bottom",))
    with pytest.raises(ValueError, match="Robin weight alpha"):
        optctl.solve_ladder(mesh, make_spec(), (1.0, 0.0))
    assert optctl.solve_ladder(mesh, make_spec(), []) == []
    assert optctl.solve_ladder(mesh, make_spec(), [], cg=True) == []
