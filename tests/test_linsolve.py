import gc
import itertools
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fluxopt import harness, linsolve, pde
from fluxopt.assembly import (
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    norm,
)
from fluxopt.linsolve import (
    ConvergenceError,
    FactoredMatrix,
    RobinOperator,
    certified,
    certified_stieltjes,
    clamped_operator,
    estimate_constants,
    factorize,
    fast_diagonalization,
    refinement,
    schur_complement,
    schur_pencil,
    solve_family,
    solve_spd,
)
from fluxopt.mesh import (
    SIDES,
    BoundaryTag,
    NodalField,
    TraceField,
    build_structured_mesh,
    dof_partition,
    trace_extend,
    trace_restrict,
)
import oracles
from oracles import kronecker_sum


def free_block(mesh):
    part = dof_partition(mesh)
    a = assemble_stiffness(mesh)
    return a[part.free_dofs][:, part.free_dofs].tocsr(), part


def dense_solve(matrix):
    """The least-squares solve with a sparse matrix's dense copy, singular or not."""
    dense = matrix.toarray()
    return lambda rhs: np.linalg.lstsq(dense, rhs, rcond=None)[0]


def test_diagonal_system():
    d = sp.diags([1.0, 2.0, 4.0]).tocsr()
    x = solve_spd(certified(d), np.array([1.0, 4.0, 12.0]))
    assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)


def test_recovers_manufactured_solution():
    mesh = build_structured_mesh(8, ["bottom"])
    a, part = free_block(mesh)
    rng = np.random.default_rng(3)
    x_star = rng.standard_normal(a.shape[0])
    x = solve_spd(certified(a), a @ x_star)
    assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) < 1e-10


def test_zero_rhs_gives_zero():
    mesh = build_structured_mesh(4, ["bottom"])
    a, _ = free_block(mesh)
    assert np.all(solve_spd(certified(a), np.zeros(a.shape[0])) == 0.0)


def test_solver_linearity():
    # a block of right-hand sides is solved column by column, in blocks, on
    # both families' operators; the columns must combine linearly
    mesh = build_structured_mesh(6, ["left"])
    rng = np.random.default_rng(11)
    for op in (clamped_operator(mesh), RobinOperator(mesh, 3.0)):
        r1 = rng.standard_normal(op.shape[0])
        r2 = rng.standard_normal(op.shape[0])
        block = np.column_stack([r1, r2, r1 + r2, rng.standard_normal((op.shape[0], 8))])
        x = solve_spd(op, block)
        assert np.linalg.norm(x[:, 2] - x[:, 0] - x[:, 1]) / np.linalg.norm(x[:, 2]) < 1e-12
        assert np.allclose(x[:, 0], solve_spd(op, r1), rtol=0.0, atol=1e-12)
        assert np.allclose(x[:, 10], solve_spd(op, block[:, 10]), rtol=0.0, atol=1e-12)


def test_refinement_accepts_repairs_or_rejects_a_given_solution():
    mesh = build_structured_mesh(8, ["bottom"])
    for op in (clamped_operator(mesh), RobinOperator(mesh, 2.0)):
        rhs = np.random.default_rng(5).standard_normal((op.shape[0], 3))
        x = solve_spd(op, rhs)
        assert refinement(op, rhs, x) is None
        # below the limit 1e-10 a solution is accepted as it is
        assert refinement(op, rhs, x * (1.0 + 1e-11)) is None
        near = x * (1.0 + 1e-6)
        step = refinement(op, rhs, near)
        assert np.allclose(near + step, x, rtol=0.0, atol=1e-12 * np.abs(x).max())
        # only the column above the limit gets a step
        near = x.copy()
        near[:, 1] *= 1.0 + 1e-6
        step = refinement(op, rhs, near)
        assert np.all(step[:, [0, 2]] == 0.0)
        assert np.allclose(near + step, x, rtol=0.0, atol=1e-12 * np.abs(x).max())
        with pytest.raises(ConvergenceError, match="residual") as info:
            refinement(op, rhs, x * 1e9)
        assert info.value.residual > 1e-10


def test_the_limit_alone_decides_the_step():
    def decide(matrix, solution, near):
        # the relative residual of near and whether refinement steps to the solution
        op = FactoredMatrix(matrix, factorize(matrix))
        rhs = matrix @ solution
        step = refinement(op, rhs, near)
        if step is not None:
            assert np.array_equal(near + step, solution)
        return np.linalg.norm(rhs - matrix @ near) / np.linalg.norm(rhs), step is not None

    # diag(d, 1) x = (0, 1) solved exactly by x = (0, 1); an x off by delta in
    # its second entry has relative residual delta, and its componentwise
    # roundoff floor 8 eps (2 + delta) is 3.6e-15 whatever d
    for d, delta, taken in (
        (1e4, 2e-15, False),  # below the floor
        (1e4, 1.5e-12, False),  # above the floor, below the limit 1e-10
        (1e8, 1e-9, True),  # above the limit
    ):
        near = np.array([0.0, 1.0 + delta])
        relative, step = decide(sp.diags([d, 1.0]).tocsc(), np.array([0.0, 1.0]), near)
        assert relative == pytest.approx(delta, rel=0.1) and step == taken
    # [[d, 1 - d], [1 - d, d]] (1, 1) = (1, 1) cancels in both rows; for
    # powers of two d and delta, x = (1 + delta)(1, 1) has relative residual
    # exactly delta, and the floor is 8 eps ((2 d - 1)(1 + delta) + 1):
    # 2.3e-10 at d = 2^16, 3.6e-12 at d = 2^10
    for d, delta, taken in (
        (2.0**16, 2.0**-36, False),  # 1.5e-11: below the floor and the limit
        (2.0**10, 2.0**-36, False),  # above the floor, below the limit
        (2.0**16, 2.0**-33, True),  # 1.2e-10: below the floor, above the limit
    ):
        matrix = sp.csc_matrix(np.array([[d, 1.0 - d], [1.0 - d, d]]))
        relative, step = decide(matrix, np.ones(2), np.full(2, 1.0 + delta))
        assert relative == delta and step == taken


def test_dimension_mismatch_rejected():
    d = sp.eye(3).tocsr()
    with pytest.raises(ValueError):
        solve_spd(certified(d), np.ones(4))


def test_singular_matrix_raises():
    # full stiffness matrix has the constants in its null space: the factor's
    # last pivot is roundoff, and the inconsistent system fails its residual
    mesh = build_structured_mesh(4, ["bottom"])
    a = assemble_stiffness(mesh)
    rhs = assemble_mass(mesh) @ np.ones(a.shape[0])
    with pytest.raises(ConvergenceError, match="relative residual") as info:
        solve_spd(certified(a), rhs)
    assert info.value.residual > 1e-10


def test_indefinite_matrix_raises():
    m = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ConvergenceError, match="not positive definite: factor pivot"):
        solve_spd(certified(m), np.array([1.0, -1.0]))


def test_nonpositive_diagonal_raises():
    m = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ConvergenceError, match="nonpositive diagonal"):
        solve_spd(certified(m), np.ones(2))
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
    op = certified_stieltjes(a, fast_diagonalization(mesh))
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
        certified_stieltjes(matrices[case], dense_solve(matrices[case]))


def test_m_matrix_witness_is_checked_like_every_solve():
    # a solve to twice the solution leaves residual 1, and the refinement
    # step through the same solve cannot mend it
    mesh = build_structured_mesh(8, ("bottom",))
    a, _ = free_block(mesh)
    solve = fast_diagonalization(mesh)
    with pytest.raises(ConvergenceError, match="relative residual") as caught:
        certified_stieltjes(a, lambda b: 2.0 * solve(b))
    assert caught.value.residual > 1e-10


def test_m_matrix_certificate_rejects_an_unsymmetric_matrix():
    m = sp.csr_matrix(np.array([[2.0, -1.0], [-0.5, 2.0]]))
    with pytest.raises(ConvergenceError, match="not exactly symmetric"):
        certified_stieltjes(m, dense_solve(m))


SIDE_SETS = [
    sides for count in (1, 2, 3) for sides in itertools.combinations(SIDES, count)
]


@pytest.mark.parametrize("sides", SIDE_SETS)
def test_the_robin_product_is_k_plus_alpha_b1_bit_for_bit(sides):
    # B1 is applied on its clamped block alone, whose rows hold all of its
    # nonzeros, in the same order
    rng = np.random.default_rng(len(sides))
    for n in [n for n in (1, 4, 16) if oracles.has_free_vertex(n, sides)]:
        mesh = build_structured_mesh(n, sides)
        stiff = assemble_stiffness(mesh)
        b1 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
        for alpha in (1e-3, 1.0, 1e4):
            op = RobinOperator(mesh, alpha)
            for shape in ((op.shape[0],), (op.shape[0], 8)):
                for x in (rng.standard_normal(shape), np.asfortranarray(rng.standard_normal(shape))):
                    assert (op @ x).tobytes() == (stiff @ x + alpha * (b1 @ x)).tobytes()


@pytest.mark.parametrize("sides", SIDE_SETS)
def test_grid_modes_read_off_the_clamped_sides_are_those_of_the_free_vertices(sides):
    for n in [n for n in (*range(1, 10), 128) if oracles.has_free_vertex(n, sides)]:
        mesh = build_structured_mesh(n, sides)
        modes = zip(linsolve._grid_modes(mesh), oracles.grid_modes_by_free_vertices(mesh), strict=True)
        for got, expect in modes:
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("sides", SIDE_SETS)
def test_clamped_block_is_a_kronecker_sum_on_a_tensor_grid(sides):
    for n in [n for n in (1, 2, 3, 5, 8, 16) if oracles.has_free_vertex(n, sides)]:
        mesh = build_structured_mesh(n, sides)
        a, part = free_block(mesh)
        ix, iy, kron = kronecker_sum(n, sides)
        assert np.array_equal(part.free_dofs, (iy[:, None] * (n + 1) + ix).ravel())
        scale = np.abs(a.toarray()).max(initial=0.0)
        assert np.abs((a - kron).toarray()).max(initial=0.0) <= 8.0 * np.finfo(float).eps * scale


@pytest.mark.parametrize("sides", SIDE_SETS)
def test_fast_diagonalization_solves_like_a_sparse_factor(sides):
    rng = np.random.default_rng(17)
    for n in [n for n in (1, 2, 3, 5, 8, 16) if oracles.has_free_vertex(n, sides)]:
        mesh = build_structured_mesh(n, sides)
        a, _ = free_block(mesh)
        solve, factored = fast_diagonalization(mesh), certified(a)
        for rhs in (rng.standard_normal(a.shape[0]), rng.standard_normal((a.shape[0], 8))):
            x_ref = solve_spd(factored, rhs)
            x = solve(np.asfortranarray(rhs))
            assert x.shape == rhs.shape
            assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("sides", SIDE_SETS)
def test_schur_complement_matches_dense_elimination(sides):
    # measured at most 4.3 eps relative to |S0|_max (row sums: 22 eps), n <= 8
    eps = np.finfo(float).eps
    for n in [n for n in (1, 2, 3, 5, 8) if oracles.has_free_vertex(n, sides)]:
        mesh = build_structured_mesh(n, sides)
        schur0, dense = schur_complement(mesh), oracles.schur_complement(mesh)
        scale = np.abs(dense).max()
        assert np.abs(schur0 - dense).max() <= 8.0 * eps * scale
        # K 1 = 0 puts the constants in the kernel of S0
        assert np.abs(schur0.sum(axis=1)).max() <= 48.0 * eps * scale


@pytest.mark.parametrize("sides", SIDE_SETS)
def test_schur_complement_matches_the_sum_over_all_grid_modes(sides):
    # the blocks between grid lines at sizes dense elimination cannot reach;
    # measured at most 1.9 eps relative to |S0|_max
    eps = np.finfo(float).eps
    for n in (16, 32, 64):
        mesh = build_structured_mesh(n, sides)
        schur0, summed = schur_complement(mesh), oracles.schur_complement_by_modes(mesh)
        assert np.array_equal(schur0, schur0.T)
        assert np.abs(schur0 - summed).max() <= 8.0 * eps * np.abs(summed).max()


def test_zeroed_blocks_between_a_row_and_a_column_fail_the_residual_check(monkeypatch):
    # K_ff^-1 between the bottom row and the left column dropped from S0: the
    # Robin solve is off on the clamped vertices, and one refinement step
    # through it cannot mend that
    line_pair = linsolve._line_pair

    def corrupted(first, second):
        block = line_pair(first, second)
        return block if first.row == second.row else np.zeros_like(block)

    monkeypatch.setattr(linsolve, "_line_pair", corrupted)
    rng = np.random.default_rng(6)
    for n in (8, 16, 64):
        mesh = build_structured_mesh(n, ("bottom", "left"))
        summed = oracles.schur_complement_by_modes(mesh)
        assert np.abs(schur_complement(mesh) - summed).max() > 1e-2 * np.abs(summed).max()
        op = RobinOperator(mesh, 1.0)
        with pytest.raises(ConvergenceError, match="relative residual") as caught:
            solve_spd(op, rng.standard_normal(op.shape[0]))
        assert caught.value.residual > 1e-10


@pytest.mark.parametrize("sides", SIDE_SETS)
def test_robin_solve_matches_the_two_solve_elimination(sides):
    # one pair of modal transforms against two whole K_ff solves, on vectors
    # and 8-column blocks; measured at most 8.0 eps relative per column
    # (alpha 1, n = 64)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(23)
    for n in [n for n in (1, 2, 8, 16, 64) if oracles.has_free_vertex(n, sides)]:
        mesh = build_structured_mesh(n, sides)
        for alpha in (1.0, 1e4):
            op = RobinOperator(mesh, alpha)
            for rhs in (rng.standard_normal(op.shape[0]), rng.standard_normal((op.shape[0], 8))):
                rhs = np.asfortranarray(rhs)
                x, x_ref = op.solve(rhs), oracles.robin_solve_by_elimination(mesh, alpha, rhs)
                assert x.shape == rhs.shape
                gap = np.linalg.norm(x - x_ref, axis=0) / np.linalg.norm(x_ref, axis=0)
                assert np.all(gap <= 16.0 * eps), (n, alpha)


@pytest.mark.parametrize(
    "sides, n", [(sides, n) for sides in SIDE_SETS for n in (16, 64)] + [(("bottom",), 128)]
)
def test_every_first_solve_sits_at_or_below_its_roundoff_floor(sides, n):
    # refinement holds a solve to its limit 1e-10 alone, so an exact solve
    # must already sit at the componentwise roundoff floor of its residual,
    # for a random and a smooth right-hand side; measured at most 0.25 of it
    # (bottom, n = 128, both families)
    mesh = build_structured_mesh(n, sides)
    x, y = mesh.vertices.T
    smooth = assemble_mass(mesh) @ (1.0 + x * np.cos(np.pi * y))
    block = np.column_stack([np.random.default_rng(37).standard_normal(len(x)), smooth])
    free = dof_partition(mesh).free_dofs
    cases = [(None, clamped_operator(mesh), block[free])]
    cases += [(alpha, RobinOperator(mesh, alpha), block) for alpha in (1.0, 1e2, 1e4)]
    for alpha, op, rhs in cases:
        rhs = np.asfortranarray(rhs)
        solution = op.solve(rhs)
        relative = np.linalg.norm(rhs - op @ solution, axis=0) / np.linalg.norm(rhs, axis=0)
        assert np.all(relative <= oracles.roundoff_floor(mesh, alpha, rhs, solution)), alpha


@pytest.mark.parametrize("sides", SIDE_SETS)
def test_solve_family_is_the_direct_construction_bit_for_bit(sides):
    # picking a family's operator adds nothing to its solve: K_ff on the free
    # rows and exact zeros on the clamped rows for alpha None, the Robin
    # operator on every row for a value of alpha
    rng = np.random.default_rng(31)
    for n in [n for n in (1, 2, 8) if oracles.has_free_vertex(n, sides)]:
        mesh = build_structured_mesh(n, sides)
        part = dof_partition(mesh)
        nvert = len(mesh.vertices)
        for rhs in (rng.standard_normal(nvert), rng.standard_normal((nvert, 3))):
            x = solve_family(mesh, None, rhs)
            assert x.shape == rhs.shape
            want = solve_spd(clamped_operator(mesh), rhs[part.free_dofs])
            assert np.array_equal(x[part.free_dofs], want)
            assert np.array_equal(x[part.gamma1_dofs], np.zeros_like(x[part.gamma1_dofs]))
            for alpha in (1.0, 1e4):
                x = solve_family(mesh, alpha, rhs)
                assert np.array_equal(x, solve_spd(RobinOperator(mesh, alpha), rhs))


@pytest.fixture
def transforms(monkeypatch):
    """Calls of the forward and the back modal transform, counted by name."""
    calls = {"_to_modes": 0, "_from_modes": 0}
    for name in calls:

        def counted(*args, name=name, transform=getattr(linsolve, name)):
            calls[name] += 1
            return transform(*args)

        monkeypatch.setattr(linsolve, name, counted)
    return calls


@pytest.mark.parametrize("n", [8, 16, 64, 128])
def test_a_robin_block_solve_makes_one_pair_of_modal_transforms(transforms, n):
    # the K_ff solves the elimination once made (two forward and two back
    # transforms) fold into one forward and one back transform, and the
    # checked solve takes no refinement step
    mesh = build_structured_mesh(n, ("bottom",))
    op = RobinOperator(mesh, 10.0)
    transforms.update(_to_modes=0, _from_modes=0)
    rhs = np.random.default_rng(n).standard_normal((op.shape[0], 8))
    solve_spd(op, rhs)
    assert transforms == {"_to_modes": 1, "_from_modes": 1}


@pytest.mark.parametrize("sides", [("bottom",), ("bottom", "left"), ("left", "top", "right")])
def test_a_skipped_line_correction_is_caught_and_repaired_by_one_step(
    monkeypatch, transforms, sides
):
    # K_ff^-1 K_fc x_c left out on the last line next to the clamped sides
    # puts the free values off: the residual check sees a relative residual
    # of 0.31 to 4.6.  The error lies in the free block alone, and the
    # elimination solves such an error exactly even with the line left out
    # (its clamped part is zero), so the one refinement step repairs it: the
    # solve is accepted, at the cost of a second pair of transforms
    line_modes = linsolve._line_modes
    rng = np.random.default_rng(8)
    for n in (8, 16, 64):
        mesh = build_structured_mesh(n, sides)
        op = RobinOperator(mesh, 1.0)
        rhs = rng.standard_normal(op.shape[0])
        x = solve_spd(op, rhs)
        last = linsolve._clamped_coupling(mesh)[1][-1]

        def skipped(line, values, last=last):
            image = line_modes(line, values)
            return np.zeros_like(image) if line is last else image

        monkeypatch.setattr(linsolve, "_line_modes", skipped)
        wrong = op.solve(rhs)
        assert np.linalg.norm(rhs - op @ wrong) > 0.1 * np.linalg.norm(rhs)
        transforms.update(_to_modes=0, _from_modes=0)
        assert np.linalg.norm(solve_spd(op, rhs) - x) <= 1e-10 * np.linalg.norm(x)
        assert transforms == {"_to_modes": 2, "_from_modes": 2}
        monkeypatch.setattr(linsolve, "_line_modes", line_modes)


def test_a_corrupted_eigenvalue_fails_the_residual_check(monkeypatch):
    # the smallest eigenvalue of each 1-D pencil raised to 2 lambda + 1: the
    # solve is off in the smoothest modes, and one refinement step through it
    # cannot mend that
    pencil_1d = linsolve._pencil_1d

    def corrupted(n, index):
        eigenvalues, v = pencil_1d(n, index)
        eigenvalues[0] = 2.0 * eigenvalues[0] + 1.0
        return eigenvalues, v

    monkeypatch.setattr(linsolve, "_pencil_1d", corrupted)
    mesh = build_structured_mesh(8, ("bottom",))
    a, _ = free_block(mesh)
    op = FactoredMatrix(a, fast_diagonalization(mesh))
    rhs = np.random.default_rng(4).standard_normal(a.shape[0])
    with pytest.raises(ConvergenceError, match="relative residual") as caught:
        refinement(op, rhs, op.solve(rhs))
    assert caught.value.residual > 1e-10
    # both families' operators rest on the certificate of K_ff, which the
    # corrupted modes fail
    with pytest.raises(ConvergenceError, match="relative residual"):
        clamped_operator(mesh)
    with pytest.raises(ConvergenceError, match="relative residual"):
        RobinOperator(mesh, 1.0)


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

    return mesh, solve


def test_certified_makes_one_factorization(factorizations):
    mesh = build_structured_mesh(8, ("bottom",))
    v_gram = (assemble_stiffness(mesh) + assemble_mass(mesh)).tocsr()
    op = certified(v_gram)
    rhs = np.random.default_rng(2).standard_normal(v_gram.shape[0])
    x = solve_spd(op, rhs)
    assert np.linalg.norm(v_gram @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    solve_spd(certified(v_gram), rhs)
    assert factorizations == [v_gram.shape[0]] * 2


def test_clamped_mesh_makes_no_sparse_factorization(factorizations):
    _, solve = clamped_and_robin_use()
    solve(None)
    solve(None)
    assert factorizations == []


@pytest.fixture
def schur_builds(monkeypatch):
    """Number of times the dense Schur complement S0 is built."""
    calls = []
    build = linsolve.schur_complement

    def counted(mesh):
        calls.append(mesh)
        return build(mesh)

    monkeypatch.setattr(linsolve, "schur_complement", counted)
    return calls


def test_robin_mesh_makes_only_the_schur_factor(factorizations, schur_builds):
    # the Robin solves share one eigendecomposition of the Schur pencil and
    # make no sparse factorization
    _, solve = clamped_and_robin_use()
    for alpha in (2.0, 50.0, None, 1e4):
        solve(alpha)
    assert factorizations == []
    assert len(schur_builds) == 1


def test_robin_after_clamped_adds_the_schur_factor_once(factorizations, schur_builds):
    _, solve = clamped_and_robin_use()
    solve(None)
    assert schur_builds == []
    for alpha in (2.0, 50.0, 2.0):
        solve(alpha)
    assert factorizations == []
    assert len(schur_builds) == 1


def test_deleting_a_mesh_frees_it_without_the_cycle_collector():
    # a store -> operator -> mesh reference would keep every factor of the
    # mesh alive until the next collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        mesh, solve = clamped_and_robin_use()
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


def test_constants_converge_at_h_squared():
    # extremal eigenvalues of P1 pencils converge at h^2 (Babuska & Osborn,
    # Handbook of Numerical Analysis II, 1991; Boffi, Acta Numerica 19,
    # 2010); on the constants kind's default levels the successive
    # differences fit 1.95 (lambda), 1.96 (lambda1) and 1.90 (gamma0)
    config = harness.ExperimentConfig("constants")
    hs = [1.0 / n for n in config.levels]
    values = [estimate_constants(build_structured_mesh(n, config.gamma1_sides)) for n in config.levels]
    for name in ("lambda_h", "lambda1_h", "gamma0_norm_h"):
        differences = np.abs(np.diff([getattr(c, name) for c in values]))
        fit = harness.fit_rate(hs[1:], differences)
        assert fit.status == "ok" and fit.rate >= 1.8, name


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


def constants_of(mesh):
    c = estimate_constants(mesh)
    return c.lambda_h, c.lambda1_h, c.gamma0_norm_h


@pytest.mark.parametrize("sides", SIDE_SETS)
def test_constants_are_the_dense_pencils_extreme_eigenvalues(sides):
    # Lanczos runs to machine precision, so the constants are the pencils'
    # eigenvalues to roundoff, not merely estimates that stopped moving
    for n in (2, 4, 8, 16):
        mesh = build_structured_mesh(n, sides)
        assert constants_of(mesh) == pytest.approx(oracles.dense_constants(mesh), rel=1e-12, abs=0)


@pytest.mark.parametrize("sides", SIDE_SETS)
def test_constants_on_one_cell(sides):
    # at n = 1 one clamped side leaves two free vertices, the fewest Lanczos
    # takes; two adjacent sides leave one, whose pencil is its exact ratio;
    # two opposite sides or three leave none, and no such grid is built
    opposite = set(sides) in ({"bottom", "top"}, {"left", "right"})
    free = {1: 2, 2: 0 if opposite else 1, 3: 0}[len(sides)]
    if free == 0:
        with pytest.raises(ValueError, match="leaves no free vertex"):
            build_structured_mesh(1, sides)
    else:
        mesh = build_structured_mesh(1, sides)
        assert len(dof_partition(mesh).free_dofs) == free
        assert constants_of(mesh) == pytest.approx(oracles.dense_constants(mesh), rel=1e-12, abs=0)


def test_a_lanczos_run_that_fails_raises_convergence_error(monkeypatch):
    # a den solve that doubles its answer on every call is no fixed operator,
    # so no Ritz value settles; 272 unknowns leave room for the whole budget
    mesh = build_structured_mesh(16, ["bottom"])
    clamped_operator(mesh)
    calls = itertools.count()

    def inconsistent(matrix, rhs):
        return solve_spd(matrix, rhs) * 2.0 ** next(calls)

    monkeypatch.setattr(linsolve, "solve_spd", inconsistent)
    with pytest.raises(ConvergenceError, match="did not converge in 100 steps") as caught:
        estimate_constants(mesh)
    assert caught.value.residual > linsolve._RITZ_TOL
    assert next(calls) == linsolve._LANCZOS_STEPS


class CountedProducts:
    """An operator whose products are counted; its shape and solve are the wrapped one's."""

    def __init__(self, op):
        self.op, self.shape, self.solve, self.products = op, op.shape, op.solve, 0

    def __matmul__(self, x):
        self.products += 1
        return self.op @ x


@pytest.mark.parametrize("sides", [("bottom",), ("bottom", "left"), ("left", "top", "right")])
def test_a_lanczos_step_makes_one_den_product_besides_its_checked_solve(monkeypatch, sides):
    # the kept images den q_k serve both reorthogonalization passes, and one
    # product den w gives beta and the next image; one more product scales
    # the start vector.  Each checked solve makes one product, its residual
    mesh = build_structured_mesh(16, sides)
    v_gram = (assemble_stiffness(mesh) + assemble_mass(mesh)).tocsr()
    free = dof_partition(mesh).free_dofs
    pencils = [
        (v_gram[free][:, free], clamped_operator(mesh)),
        (v_gram, RobinOperator(mesh, 1.0)),
        (assemble_boundary_mass(mesh, BoundaryTag.GAMMA2), certified(v_gram)),
    ]
    rng = np.random.default_rng(16)
    starts = [rng.standard_normal(den.shape[0]) for _, den in pencils]
    values = [linsolve._pencil_largest(num, den, start) for (num, den), start in zip(pencils, starts)]
    solve, inside = linsolve.solve_spd, []

    def counted(matrix, rhs):
        before = matrix.products
        x = solve(matrix, rhs)
        inside.append(matrix.products - before)
        return x

    monkeypatch.setattr(linsolve, "solve_spd", counted)
    for (num, den), start, value in zip(pencils, starts, values):
        wrapped = CountedProducts(den)
        inside.clear()
        assert linsolve._pencil_largest(num, wrapped, start) == value
        assert len(inside) > 5 and inside == [1] * len(inside)
        assert wrapped.products - sum(inside) == len(inside) + 1


@pytest.fixture
def lanczos_runs(monkeypatch):
    """(num, den, start, value, den solves) of every ``_pencil_largest`` run."""
    runs, pencil_largest, solve = [], linsolve._pencil_largest, linsolve.solve_spd

    def recorded(num, den, start):
        solves = []

        def counted(matrix, rhs):
            solves.append(matrix)
            return solve(matrix, rhs)

        monkeypatch.setattr(linsolve, "solve_spd", counted)
        try:
            value = pencil_largest(num, den, start)
        finally:
            monkeypatch.setattr(linsolve, "solve_spd", solve)
        assert all(matrix is den for matrix in solves)
        runs.append((num, den, start, value, len(solves)))
        return value

    monkeypatch.setattr(linsolve, "_pencil_largest", recorded)
    return runs


@pytest.mark.parametrize("sides", SIDE_SETS)
def test_lanczos_agrees_with_arpack_in_fewer_solves(lanczos_runs, sides):
    # from the same start vectors, the package's Lanczos takes 36-54 den solves per mesh
    # at n = 32 and ARPACK's (eigsh, 8 vectors) 43-87
    mesh = build_structured_mesh(32, sides)
    clamped_operator(mesh)
    estimate_constants(mesh)
    assert len(lanczos_runs) == 3
    ours = theirs = 0
    for num, den, start, value, solves in lanczos_runs:
        mu, arpack_solves = oracles.arpack_largest(num, den, start)
        assert value == pytest.approx(mu, rel=1e-12, abs=0)
        ours, theirs = ours + solves, theirs + arpack_solves
    assert ours < theirs


ONE_D_ENDS = [(low, high) for low in (0, 1) for high in (0, 1)]


@pytest.mark.parametrize(
    "low, high, n",
    [(low, high, n) for low, high in ONE_D_ENDS for n in (1, 2, 3, 8, 64, 512) if low + high <= n],
)
def test_the_closed_form_1d_modes_are_the_dense_pencils(low, high, n):
    # low and high ends dropped (Dirichlet) or kept (Neumann); n = 1 with both
    # dropped, the empty index, is no grid line of a mesh
    index = np.arange(low, n + 1 - high)
    eigenvalues, v = linsolve._pencil_1d(n, index)
    dense_values, dense_v = oracles.pencil_1d_dense(n, index)
    assert eigenvalues.shape == dense_values.shape and v.shape == dense_v.shape
    assert np.abs(eigenvalues - dense_values).max() <= 4e-15
    d1 = np.where((index == 0) | (index == n), 0.5, 1.0)
    # D1-orthonormal to 1.3e-15 at n = 512, where eigh's vectors reach 2.7e-15
    assert np.abs(v.T @ (d1[:, None] * v) - np.eye(len(index))).max() <= 2e-15
    k1 = 2.0 * np.diag(d1) - np.eye(len(index), k=1) - np.eye(len(index), k=-1)
    assert np.abs(k1 @ v - d1[:, None] * v * eigenvalues).max() <= 1e-14


@pytest.mark.parametrize("index", [range(2, 9), range(0, 7), [0, 1, 3, 4, 5, 6, 7, 8]])
def test_the_1d_modes_reject_an_index_with_inner_ends_or_a_gap(index):
    with pytest.raises(ValueError, match="1-D modes"):
        linsolve._pencil_1d(8, np.array(index))


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("sides", [("bottom",), ("left", "top", "right")])
def test_the_schur_pencil_matches_dense_eigh(n, sides):
    mesh = build_structured_mesh(n, sides)
    clamped = dof_partition(mesh).gamma1_dofs
    b1_cc = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)[clamped][:, clamped].toarray()
    eigenvalues, v = schur_pencil(mesh)
    dense_values, _ = oracles.schur_pencil_dense(mesh)
    scale = np.abs(dense_values).max()
    assert np.abs(eigenvalues - dense_values).max() <= 2e-15 * scale
    assert np.abs(v.T @ b1_cc @ v - np.eye(len(clamped))).max() <= 1e-14


IMPORT_PROBE = """
import json
import sys
import tempfile

import numpy as np

import fluxopt
import fluxopt.cli as cli
from fluxopt import estimate_constants, optctl, pde
from fluxopt.mesh import TraceField, build_structured_mesh, dof_partition


def loaded():
    return [name in sys.modules for name in ("scipy.linalg", "scipy.sparse.linalg")]


mesh = build_structured_mesh(16, ("bottom",))
spec = pde.ProblemSpec(g=lambda x, y: 1.0 + x, z_d=lambda x, y: 0.0 * x, b=1.0, M=25.0)
q = TraceField(mesh, np.ones(len(dof_partition(mesh).gamma2_trace_dofs)))
for alpha in (None, 10.0):
    family = spec.with_alpha(alpha)
    pde.solve_adjoint(mesh, family, pde.solve_state(mesh, family, q))
optctl.solve_optimal_fixed_point(mesh, spec)
with tempfile.TemporaryDirectory() as out:
    status = cli.main(["state-conv", "--out", out])
before = loaded()
estimate_constants(build_structured_mesh(4, ("bottom",)))
print(json.dumps({"status": status, "before": before, "after": loaded()}))
"""


def test_solves_and_state_conv_load_no_dense_or_sparse_linalg():
    # a fresh interpreter: this one has loaded scipy.linalg through the oracles
    src = os.path.dirname(os.path.dirname(os.path.abspath(linsolve.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["status"] == 0
    # scipy.linalg, then scipy.sparse.linalg: neither before a factorization
    assert probe["before"] == [False, False]
    assert probe["after"][1]


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
def test_fine_adjoint_below_its_roundoff_floor_takes_no_step(
    fine_robin_case, monkeypatch, transforms, alpha
):
    # at n = 128 the adjoint's residual as solved by fast diagonalization is
    # about 2.2e-11, about 0.23 of its componentwise roundoff floor
    # 8 eps | |A| |x| + |b| | / |b| (9.2e-11 clamped, 9.4e-11 at alpha 100),
    # which no step could lower, and below the limit 1e-10: no refinement
    # step, so one solve, which in both families makes one forward modal
    # transform.  The margin rests on this build's roundoff;
    # test_the_limit_alone_decides_the_step checks the rule itself exactly
    mesh, spec, q = fine_robin_case
    spec = spec.with_alpha(alpha)
    u = pde.solve_state(mesh, spec, q)
    free = dof_partition(mesh).free_dofs
    transforms.update(_to_modes=0, _from_modes=0)
    adjoint = pde.solve_adjoint(mesh, spec, u)
    assert transforms == {"_to_modes": 1, "_from_modes": 1}
    monkeypatch.undo()

    rhs = assemble_mass(mesh) @ u.coefficients - assemble_load(mesh, spec.z_d)
    if alpha is None:
        op, rhs, x = clamped_operator(mesh), rhs[free], adjoint.coefficients[free]
    else:
        op, x = RobinOperator(mesh, alpha), adjoint.coefficients
        assert robin_residuals(mesh, spec, q, u, adjoint)[1] <= 1e-10
    bnorm = np.linalg.norm(rhs)
    floor = oracles.roundoff_floor(mesh, alpha, rhs, x)
    residual = np.linalg.norm(rhs - op @ x) / bnorm
    assert 1e-12 < residual <= 0.5 * floor
    assert refinement(op, rhs, x) is None
    refined = x + op.solve(rhs - op @ x)
    assert np.linalg.norm(x - refined) <= 1e-11 * np.linalg.norm(refined)
    # an x off by four times the floor still gets its step, because that is
    # above the limit 1e-10; the floor alone would never call for one
    near = x * (1.0 + 4.0 * floor)
    assert np.linalg.norm(rhs - op @ near) > floor * bnorm
    for near in (near, x * (1.0 + 1e-6)):
        step = refinement(op, rhs, near)
        assert step is not None
        assert np.linalg.norm(near + step - refined) <= 1e-11 * np.linalg.norm(refined)


@pytest.mark.parametrize("alpha", [0.1, 1.0, 1.035, 10.0, 1e4, 1e8])
def test_schur_path_matches_a_one_shot_factorization(alpha):
    mesh = build_structured_mesh(16, ("bottom", "left"))
    matrix = assemble_stiffness(mesh) + alpha * assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
    rhs = np.random.default_rng(5).standard_normal(matrix.shape[0]) + alpha
    x_ref = solve_spd(certified(matrix), rhs)
    x = solve_spd(RobinOperator(mesh, alpha), rhs)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_schur_complement_matches_the_dense_formula():
    mesh = build_structured_mesh(8, ("bottom", "right"))
    clamped = dof_partition(mesh).gamma1_dofs
    dense = oracles.schur_complement(mesh)
    b1_cc = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)[clamped][:, clamped].toarray()
    eigenvalues, v = schur_pencil(mesh)
    rebuilt = b1_cc @ v @ np.diag(eigenvalues) @ v.T @ b1_cc
    assert np.abs(rebuilt - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.abs(v.T @ b1_cc @ v - np.eye(len(clamped))).max() <= 1e-12
    assert not (eigenvalues.flags.writeable or v.flags.writeable)


def test_robin_operator_below_the_pencil_is_not_positive_definite():
    mesh = build_structured_mesh(8, ("bottom",))
    with pytest.raises(ConvergenceError, match="alpha=-1 is not positive definite"):
        RobinOperator(mesh, -1.0)


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


@pytest.mark.parametrize(
    "sides", [("bottom",), ("bottom", "left"), ("left", "top", "right"), ("bottom", "top")]
)
def test_one_alpha_per_column_solves_and_multiplies_each_column_at_its_alpha(sides):
    # 19 columns, one block solve, each column at its own alpha
    mesh = build_structured_mesh(8, sides)
    alphas = np.geomspace(1e-2, 1e6, 19)
    rng = np.random.default_rng(4)
    rhs, x = rng.standard_normal((2, len(mesh.vertices), len(alphas)))
    solved = solve_spd(RobinOperator(mesh, alphas), rhs)
    product = RobinOperator(mesh, alphas) @ x
    for j, alpha in enumerate(alphas):
        single = RobinOperator(mesh, alpha)
        want = solve_spd(single, rhs[:, j].copy())
        assert np.linalg.norm(solved[:, j] - want) <= 1e-14 * np.linalg.norm(want)
        assert np.array_equal(product[:, j], single @ x[:, j].copy())
    assert np.array_equal(solve_family(mesh, alphas, rhs), solved)


def test_a_robin_operator_names_the_alpha_it_is_not_positive_definite_at():
    mesh = build_structured_mesh(8, ("bottom",))
    smallest = schur_pencil(mesh)[0].min()
    bad = -smallest - 1.0
    with pytest.raises(ConvergenceError, match=f"alpha={bad:g} is not positive definite"):
        RobinOperator(mesh, np.array([1.0, bad, 2.0 * bad]))
    assert np.array_equal(RobinOperator(mesh, np.array([1.0, 10.0])).alpha, [1.0, 10.0])
