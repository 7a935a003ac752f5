import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fluxopt import harness, pde
from fluxopt.assembly import (
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    norm,
    trace_extend,
    trace_restrict,
)
from fluxopt.linsolve import (
    ConvergenceError,
    FactoredMatrix,
    RobinOperator,
    certified,
    certified_stieltjes,
    estimate_constants,
    factorize,
    operators,
    refinement,
    robin_operator,
    schur_pencil,
    solve_columns,
    solve_spd,
)
from fluxopt.mesh import BoundaryTag, NodalField, TraceField, build_structured_mesh, dof_partition


def free_block(mesh):
    part = dof_partition(mesh)
    a = assemble_stiffness(mesh)
    return a[part.free_dofs][:, part.free_dofs].tocsr(), part


def test_diagonal_system():
    d = sp.diags([1.0, 2.0, 4.0]).tocsr()
    x = solve_spd(d, np.array([1.0, 4.0, 12.0]))
    assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)


def test_recovers_manufactured_solution():
    mesh = build_structured_mesh(8, ["bottom"])
    a, part = free_block(mesh)
    rng = np.random.default_rng(3)
    x_star = rng.standard_normal(a.shape[0])
    x = solve_spd(a, a @ x_star, tol=1e-13)
    assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) < 1e-10


def test_zero_rhs_gives_zero():
    mesh = build_structured_mesh(4, ["bottom"])
    a, _ = free_block(mesh)
    assert np.all(solve_spd(a, np.zeros(a.shape[0])) == 0.0)


def test_solver_linearity():
    # a block of right-hand sides is solved column by column, in blocks, on
    # both families' operators; the columns must combine linearly
    mesh = build_structured_mesh(6, ["left"])
    rng = np.random.default_rng(11)
    for op in (operators(mesh).clamped, robin_operator(mesh, 3.0)):
        r1 = rng.standard_normal(op.shape[0])
        r2 = rng.standard_normal(op.shape[0])
        block = np.column_stack([r1, r2, r1 + r2, rng.standard_normal((op.shape[0], 8))])
        x = solve_spd(op, block, tol=1e-13)
        assert np.linalg.norm(x[:, 2] - x[:, 0] - x[:, 1]) / np.linalg.norm(x[:, 2]) < 1e-12
        assert np.allclose(x[:, 0], solve_spd(op, r1, tol=1e-13), rtol=0.0, atol=1e-12)
        assert np.allclose(x[:, 10], solve_spd(op, block[:, 10]), rtol=0.0, atol=1e-12)


def test_sparse_columns_solve_like_their_dense_copy():
    # solve_columns densifies a sparse block a few columns at a time; the
    # blocks reaching the factor are the ones a dense right-hand side makes
    mesh = build_structured_mesh(8, ["bottom", "left"])
    for op in (operators(mesh).clamped, robin_operator(mesh, 2.0)):
        columns = sp.random(op.shape[0], 19, density=0.05, format="csc", random_state=3)
        x = solve_columns(op, columns)
        assert x.shape == columns.shape
        assert np.array_equal(x, solve_spd(op, columns.toarray()))


def test_refinement_accepts_repairs_or_rejects_a_given_solution():
    mesh = build_structured_mesh(8, ["bottom"])
    for op in (operators(mesh).clamped, robin_operator(mesh, 2.0)):
        rhs = np.random.default_rng(5).standard_normal((op.shape[0], 3))
        x = solve_spd(op, rhs)
        assert refinement(op, rhs, x) is None
        for scale in (1e-6, 1e-11):  # above the limit; above the target only
            near = x * (1.0 + scale)
            step = refinement(op, rhs, near)
            assert np.allclose(near + step, x, rtol=0.0, atol=1e-12 * np.abs(x).max())
        # only the column above its target gets a step
        near = x.copy()
        near[:, 1] *= 1.0 + 1e-6
        step = refinement(op, rhs, near)
        assert np.all(step[:, [0, 2]] == 0.0)
        assert np.allclose(near + step, x, rtol=0.0, atol=1e-12 * np.abs(x).max())
        with pytest.raises(ConvergenceError, match="residual") as info:
            refinement(op, rhs, x * 1e9)
        assert info.value.residual > 1e-10


def test_operator_norms_bound_the_matrix_and_leave_it_alone():
    mesh = build_structured_mesh(8, ("bottom", "left"))
    stiff = assemble_stiffness(mesh)
    b1 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
    part = dof_partition(mesh)
    # column indexing leaves the indices unsorted, as in estimate_constants
    block = (stiff + assemble_mass(mesh))[part.free_dofs][:, part.free_dofs]
    assert not block.has_sorted_indices
    indices = block.indices.copy()
    norm_inf = FactoredMatrix(block, None).norm_inf
    assert np.array_equal(block.indices, indices)
    # scipy's own norm sorts the indices
    assert norm_inf == pytest.approx(spla.norm(block, np.inf), rel=1e-15)
    assert operators(mesh).clamped.norm_inf == pytest.approx(
        spla.norm(free_block(mesh)[0], np.inf), rel=1e-15
    )
    # K and B1 cancel in part on the clamped edges: |K| + alpha |B1| would overstate it
    for alpha in (0.1, 10.0, 500.0, 1e4):
        exact = spla.norm(stiff + alpha * b1, np.inf)
        assert robin_operator(mesh, alpha).norm_inf == pytest.approx(exact, rel=1e-14)


def test_refinement_floor_and_limit_decide_the_step():
    # diag(d, 1) x = (0, 1) solved exactly by x = (0, 1); an x off by delta in
    # its second entry has relative residual delta and floor eps d (1 + delta)
    for d, delta, taken in (
        (1e4, 1.5e-12, False),  # above the 1e-12 target, below the floor 2.2e-12
        (1e4, 3e-12, True),  # above both
        (1e8, 1e-9, True),  # below the floor 2.2e-8, above the limit 1e-10
    ):
        matrix = sp.diags([d, 1.0]).tocsc()
        op = FactoredMatrix(matrix, factorize(matrix))
        rhs = np.array([0.0, 1.0])
        near = np.array([0.0, 1.0 + delta])
        step = refinement(op, rhs, near)
        assert (step is not None) == taken
        if taken:
            assert np.array_equal(near + step, rhs)


def test_dimension_mismatch_rejected():
    d = sp.eye(3).tocsr()
    with pytest.raises(ValueError):
        solve_spd(d, np.ones(4))


def test_singular_matrix_raises():
    # full stiffness matrix has the constants in its null space: the factor's
    # last pivot is roundoff, and the inconsistent system fails its residual
    mesh = build_structured_mesh(4, ["bottom"])
    a = assemble_stiffness(mesh)
    rhs = assemble_mass(mesh) @ np.ones(a.shape[0])
    with pytest.raises(ConvergenceError, match="relative residual") as info:
        solve_spd(a, rhs)
    assert info.value.residual > 1e-10


def test_indefinite_matrix_raises():
    m = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ConvergenceError, match="not positive definite: factor pivot"):
        solve_spd(m, np.array([1.0, -1.0]))


def test_nonpositive_diagonal_raises():
    m = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ConvergenceError, match="nonpositive diagonal"):
        solve_spd(m, np.ones(2))
    with pytest.raises(ConvergenceError, match="nonpositive diagonal"):
        factorize(m)


def test_factorize_matches_direct_solve():
    mesh = build_structured_mesh(6, ["bottom"])
    a, _ = free_block(mesh)
    solve = factorize(a)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(a.shape[0])
    x = solve(rhs)
    assert np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs) < 1e-12


@pytest.mark.parametrize(
    "sides", [("bottom",), ("top",), ("bottom", "right"), ("left", "top", "right")]
)
def test_m_matrix_certificate_accepts_the_clamped_block(sides):
    mesh = build_structured_mesh(8, sides)
    a, _ = free_block(mesh)
    op = certified_stieltjes(a)
    rhs = np.random.default_rng(3).standard_normal(a.shape[0])
    x_ref = np.linalg.solve(a.toarray(), rhs)
    assert np.linalg.norm(op.solve(rhs) - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def shifted_between_smallest_eigenvalues(a):
    low = np.linalg.eigvalsh(a.toarray())[:2]
    assert low[1] - low[0] > 1e-3 * low[1]
    return (a - 0.5 * (low[0] + low[1]) * sp.eye(a.shape[0])).tocsr()


@pytest.mark.parametrize(
    "case, message",
    [
        ("stiffness+mass", "not a Z-matrix"),
        # constants span the null space: the witness solve misses its residual
        ("neumann", "relative residual"),
        ("shifted", "not an M-matrix"),
    ],
)
def test_m_matrix_certificate_rejects(case, message):
    mesh = build_structured_mesh(8, ("bottom",))
    stiff = assemble_stiffness(mesh)
    matrices = {
        "stiffness+mass": stiff + assemble_mass(mesh),
        "neumann": stiff,
        "shifted": shifted_between_smallest_eigenvalues(free_block(mesh)[0]),
    }
    with pytest.raises(ConvergenceError, match=message):
        certified_stieltjes(matrices[case])


def test_m_matrix_certificate_rejects_an_unsymmetric_matrix():
    m = sp.csr_matrix(np.array([[2.0, -1.0], [-0.5, 2.0]]))
    with pytest.raises(ConvergenceError, match="not exactly symmetric"):
        certified_stieltjes(m)


@pytest.fixture
def factorizations(monkeypatch):
    """Sizes of the SuperLU factorizations made, in order."""
    sizes = []
    splu = spla.splu

    def counted(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    return sizes


def clamped_and_robin_use(n=8):
    mesh = build_structured_mesh(n, ("bottom",))
    spec = pde.ProblemSpec(g=lambda x, y: 1.0 + x, z_d=lambda x, y: 0.0 * x, b=1.0, M=1.0)
    q = TraceField(mesh, np.ones(len(dof_partition(mesh).gamma2_trace_dofs)))

    def solve(alpha):
        s = spec.with_alpha(alpha)
        pde.solve_adjoint(mesh, s, pde.solve_state(mesh, s, q))

    return mesh, solve, len(mesh.vertices), len(dof_partition(mesh).free_dofs)


def test_certified_makes_one_factorization(factorizations):
    mesh = build_structured_mesh(8, ("bottom",))
    v_gram = (assemble_stiffness(mesh) + assemble_mass(mesh)).tocsr()
    op = certified(v_gram)
    rhs = np.random.default_rng(2).standard_normal(v_gram.shape[0])
    x = solve_spd(op, rhs)
    assert np.linalg.norm(v_gram @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    solve_spd(v_gram, rhs)
    assert factorizations == [v_gram.shape[0]] * 2


def test_clamped_mesh_makes_exactly_one_factorization(factorizations):
    _, solve, _, nfree = clamped_and_robin_use()
    solve(None)
    solve(None)
    assert factorizations == [nfree]


def test_robin_first_mesh_makes_the_schur_factor_before_the_kept_one(factorizations):
    _, solve, nvert, nfree = clamped_and_robin_use()
    for alpha in (2.0, 50.0, None):
        solve(alpha)
    assert factorizations == [nvert, nfree]


def test_robin_after_clamped_adds_the_schur_factor_once(factorizations):
    _, solve, nvert, nfree = clamped_and_robin_use()
    for alpha in (None, 2.0, 50.0, 2.0):
        solve(alpha)
    assert factorizations == [nfree, nvert]


def test_deleting_a_mesh_frees_it_without_the_cycle_collector():
    # a store -> operators -> mesh reference would keep every factor of the
    # mesh alive until the next collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        mesh, solve, _, _ = clamped_and_robin_use()
        solve(None)
        solve(2.0)
        estimate_constants(mesh)
        ref = weakref.ref(mesh)
        del mesh, solve
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_constants_ranges():
    for n in (2, 4, 8):
        c = estimate_constants(build_structured_mesh(n, ["bottom"]))
        assert 0.0 < c.lambda_h <= 1.0
        assert 0.0 < c.lambda1_h <= 1.0
        assert c.lambda1_h <= c.lambda_h + 1e-12
        assert c.gamma0_norm_h > 0.0


def test_constants_monotone_in_refinement():
    values = [estimate_constants(build_structured_mesh(n, ["bottom"])) for n in (2, 4, 8, 16)]
    lams = [c.lambda_h for c in values]
    lams1 = [c.lambda1_h for c in values]
    gams = [c.gamma0_norm_h for c in values]
    # nested spaces: minima cannot grow, the trace supremum cannot shrink
    slack = 1.0 + 1e-8
    assert all(b <= a * slack for a, b in zip(lams, lams[1:]))
    assert all(b <= a * slack for a, b in zip(lams1, lams1[1:]))
    assert all(b * slack >= a for a, b in zip(gams, gams[1:]))


def test_constants_are_extremal_bounds():
    mesh = build_structured_mesh(6, ["bottom", "left"])
    c = estimate_constants(mesh)
    part = dof_partition(mesh)
    stiff = assemble_stiffness(mesh)
    b1 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
    rng = np.random.default_rng(42)
    slack = 1.0 + 1e-6
    for _ in range(100):
        v = rng.standard_normal(len(mesh.vertices))
        field = NodalField(mesh, v)
        vnorm_sq = norm(field, "V") ** 2
        # coercivity over the whole space, gradient form plus clamped boundary mass
        energy1 = v @ (stiff @ v) + v @ (b1 @ v)
        assert energy1 * slack >= c.lambda1_h * vnorm_sq
        # trace bound over the whole space
        qnorm = norm(trace_restrict(field), "Q")
        assert qnorm <= c.gamma0_norm_h * np.sqrt(vnorm_sq) * slack
        # coercivity of the gradient form over the clamped subspace
        v0 = np.zeros_like(v)
        v0[part.free_dofs] = v[part.free_dofs]
        field0 = NodalField(mesh, v0)
        energy = v0 @ (stiff @ v0)
        assert energy * slack >= c.lambda_h * norm(field0, "V") ** 2


def test_constants_deterministic_across_equal_meshes():
    a = estimate_constants(build_structured_mesh(4, ["bottom"]))
    b = estimate_constants(build_structured_mesh(4, ["bottom"]))
    assert (a.lambda_h, a.lambda1_h, a.gamma0_norm_h) == (b.lambda_h, b.lambda1_h, b.gamma0_norm_h)


def test_contraction_bound_formula():
    c = estimate_constants(build_structured_mesh(4, ["bottom"]))
    base = c.gamma0_norm_h**2
    assert c.contraction_bound() == pytest.approx(base / c.lambda_h**2, rel=1e-15)
    assert c.contraction_bound(2.0) == c.contraction_bound(1.0)
    assert c.contraction_bound(0.5) == pytest.approx(4.0 * c.contraction_bound(1.0), rel=1e-12)
    assert c.contraction_bound(1.0) == pytest.approx(base / c.lambda1_h**2, rel=1e-15)


def robin_residuals(mesh, spec, q, u, p):
    """Relative residuals of the Robin state and adjoint, from assembled matrices."""
    stiff = assemble_stiffness(mesh)
    b1 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
    b2 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    matrix = stiff + spec.alpha * b1
    rhs_u = (
        assemble_load(mesh, spec.g)
        - b2 @ trace_extend(q).coefficients
        + spec.alpha * spec.b * (b1 @ np.ones(len(mesh.vertices)))
    )
    rhs_p = assemble_mass(mesh) @ u.coefficients - assemble_load(mesh, spec.z_d)
    res_u = np.linalg.norm(matrix @ u.coefficients - rhs_u) / np.linalg.norm(rhs_u)
    res_p = np.linalg.norm(matrix @ p.coefficients - rhs_p) / np.linalg.norm(rhs_p)
    return res_u, res_p


@pytest.fixture(scope="module")
def fine_robin_case():
    # the n = 128 data on which Jacobi-CG stalled at alpha 1.035 and raised
    # at alpha 0.1: scale from default_rng(1), control from default_rng(29)
    # after one uniform draw
    mesh = build_structured_mesh(128, ("bottom",))
    scale = float(np.random.default_rng(1).uniform(5.0, 15.0))
    g = harness.field_from_config({"name": "sin_product", "scale": scale, "kx": 1, "ky": 1})
    spec = pde.ProblemSpec(g=g, z_d=harness.field_from_config(0.0), b=1.0, M=1.0)
    rng = np.random.default_rng(29)
    rng.uniform()
    q = TraceField(mesh, rng.standard_normal(len(dof_partition(mesh).gamma2_trace_dofs)))
    return mesh, spec, q


@pytest.mark.parametrize("alpha", [1.035, 0.1])
def test_fine_robin_solves_meet_the_residual_limit(fine_robin_case, alpha):
    mesh, spec, q = fine_robin_case
    spec = spec.with_alpha(alpha)
    u = pde.solve_state(mesh, spec, q)
    p = pde.solve_adjoint(mesh, spec, u)
    res_u, res_p = robin_residuals(mesh, spec, q, u, p)
    assert res_u <= 1e-10 and res_p <= 1e-10


def test_tiny_alpha_is_solved_or_raises_with_its_residual(fine_robin_case):
    # K + alpha B1 nears the singular Neumann matrix as alpha -> 0; a solve
    # that misses the limit must say so, never return unchecked
    mesh, spec, q = fine_robin_case
    spec = spec.with_alpha(1e-3)
    try:
        u = pde.solve_state(mesh, spec, q)
        p = pde.solve_adjoint(mesh, spec, u)
    except ConvergenceError as exc:
        assert exc.residual > 1e-10
    else:
        assert max(robin_residuals(mesh, spec, q, u, p)) <= 1e-10


@pytest.mark.parametrize("alpha", [None, 100.0])
def test_fine_adjoint_at_its_roundoff_floor_takes_no_step(fine_robin_case, monkeypatch, alpha):
    # at n = 128 the adjoint's residual as solved sits near eps cond(K_ff),
    # above the 1e-12 target but below its roundoff floor, where a step
    # cannot take it: one factor solve per K_ff, no refinement step.  The
    # count rests on this build's roundoff (3.8e-12 against a floor of
    # 1.2e-11); test_refinement_floor_and_limit_decide_the_step checks the
    # rule itself exactly
    mesh, spec, q = fine_robin_case
    spec = spec.with_alpha(alpha)
    u = pde.solve_state(mesh, spec, q)
    ops = operators(mesh)
    factor_solve = ops.clamped.solve
    solves = [0]

    def counted(rhs):
        solves[0] += 1
        return factor_solve(rhs)

    monkeypatch.setattr(ops.clamped, "solve", counted)
    adjoint = pde.solve_adjoint(mesh, spec, u)
    assert solves[0] == (1 if alpha is None else 2)
    monkeypatch.undo()

    rhs = assemble_mass(mesh) @ u.coefficients - assemble_load(mesh, spec.z_d)
    if alpha is None:
        op, rhs, x = ops.clamped, rhs[ops.free], adjoint.coefficients[ops.free]
    else:
        op, x = robin_operator(mesh, alpha), adjoint.coefficients
        assert robin_residuals(mesh, spec, q, u, adjoint)[1] <= 1e-10
    residual = np.linalg.norm(rhs - op @ x) / np.linalg.norm(rhs)
    assert residual <= 1e-10
    assert refinement(op, rhs, x) is None
    refined = x + op.solve(rhs - op @ x)
    assert np.linalg.norm(x - refined) <= 1e-11 * np.linalg.norm(refined)
    # an x off by a few times the floor, within the limit, still gets its step
    floor = np.finfo(float).eps * op.norm_inf * np.linalg.norm(x) / np.linalg.norm(rhs)
    near = x * (1.0 + 4.0 * floor)
    assert np.linalg.norm(rhs - op @ near) <= 1e-10 * np.linalg.norm(rhs)
    for near in (near, x * (1.0 + 1e-6)):
        step = refinement(op, rhs, near)
        assert step is not None
        assert np.linalg.norm(near + step - refined) <= 1e-11 * np.linalg.norm(refined)


@pytest.mark.parametrize("alpha", [0.1, 1.0, 1.035, 10.0, 1e4, 1e8])
def test_schur_path_matches_a_one_shot_factorization(alpha):
    mesh = build_structured_mesh(16, ("bottom", "left"))
    matrix = assemble_stiffness(mesh) + alpha * assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
    rhs = np.random.default_rng(5).standard_normal(matrix.shape[0]) + alpha
    x_ref = solve_spd(matrix, rhs)
    x = solve_spd(robin_operator(mesh, alpha), rhs)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_schur_complement_matches_the_dense_formula():
    mesh = build_structured_mesh(8, ("bottom", "right"))
    part = dof_partition(mesh)
    stiff = assemble_stiffness(mesh).toarray()
    free, clamped = part.free_dofs, part.gamma1_dofs
    k_fc = stiff[np.ix_(free, clamped)]
    dense = stiff[np.ix_(clamped, clamped)] - k_fc.T @ np.linalg.solve(stiff[np.ix_(free, free)], k_fc)
    b1_cc = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)[clamped][:, clamped].toarray()
    eigenvalues, v = schur_pencil(mesh)
    rebuilt = b1_cc @ v @ np.diag(eigenvalues) @ v.T @ b1_cc
    assert np.abs(rebuilt - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.abs(v.T @ b1_cc @ v - np.eye(len(clamped))).max() <= 1e-12
    assert not (eigenvalues.flags.writeable or v.flags.writeable)


def test_robin_operator_below_the_pencil_is_not_positive_definite():
    mesh = build_structured_mesh(8, ("bottom",))
    with pytest.raises(ConvergenceError, match="alpha=-1 is not positive definite"):
        robin_operator(mesh, -1.0)


def test_many_alphas_keep_no_robin_operator():
    mesh = build_structured_mesh(8, ("bottom",))
    spec = pde.ProblemSpec(g=lambda x, y: 1.0 + x, z_d=lambda x, y: 0.0 * x, b=1.0, M=1.0)
    q = TraceField(mesh, np.ones(len(dof_partition(mesh).gamma2_trace_dofs)))
    alphas = np.geomspace(0.5, 5e3, 50)
    pde.solve_adjoint(mesh, spec.with_alpha(alphas[0]), pde.solve_state(mesh, spec.with_alpha(alphas[0]), q))
    keys = set(mesh.store)
    for alpha in alphas[1:]:
        pde.solve_adjoint(mesh, spec.with_alpha(alpha), pde.solve_state(mesh, spec.with_alpha(alpha), q))
    gc.collect()
    assert set(mesh.store) == keys
    assert not any(isinstance(obj, RobinOperator) for obj in gc.get_objects())
