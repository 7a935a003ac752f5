"""Element matrices, global operators, quadrature and norms.

Frozen matrix entries and the 4/3 value below come from direct symbolic
integration; see scripts/derive_reference_values.py.
"""

import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from fluxopt import assembly, pde
from fluxopt.assembly import (
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    l2_misfit_sq,
    norm,
    v_error_vs_exact,
)
from fluxopt.mesh import (
    BoundaryTag,
    NodalField,
    TraceField,
    build_structured_mesh,
    csr_pattern,
    dof_partition,
    interpolate_trace,
    prolongate,
    trace_extend,
    trace_restrict,
    zero_trace,
)
from oracles import (
    bincount_load,
    element_blocks,
    interpolate_nodal,
    local_edge_mass,
    local_mass,
    local_stiffness,
    mms_load,
    scatter_triangles,
    sin_product,
    trig_product,
    v_error_by_gather,
)

REFERENCE_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_local_stiffness_reference_triangle():
    expect = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(local_stiffness(REFERENCE_TRIANGLE), expect, atol=1e-15)


def test_local_stiffness_scale_invariant():
    # gradients scale as 1/h, areas as h^2, so the matrix is h-independent
    assert np.allclose(
        local_stiffness(0.125 * REFERENCE_TRIANGLE), local_stiffness(REFERENCE_TRIANGLE), atol=1e-14
    )


def test_local_mass_unit_area_triangle():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])  # area 1
    expect = (np.ones((3, 3)) + np.eye(3)) / 12.0
    assert np.allclose(local_mass(coords), expect, atol=1e-15)


def test_local_edge_mass_unit_length():
    expect = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    assert np.allclose(local_edge_mass(1.0), expect, atol=1e-15)
    with pytest.raises(ValueError):
        local_edge_mass(0.0)


def test_local_matrices_reject_inverted_triangles():
    flipped = REFERENCE_TRIANGLE[[0, 2, 1]]
    with pytest.raises(ValueError):
        local_stiffness(flipped)
    with pytest.raises(ValueError):
        local_mass(flipped)


def test_stiffness_annihilates_constants():
    m = build_structured_mesh(4, ["bottom"])
    a = assemble_stiffness(m)
    ones = np.ones(len(m.vertices))
    assert np.max(np.abs(a @ ones)) < 1e-14


@pytest.mark.parametrize("n", [4, 16, 128])
def test_stiffness_stores_no_zero_and_multiplies_like_the_unpruned_scatter(n):
    # the 2 n^2 couplings across the diagonal edges cancel to exactly 0.0;
    # dropping them changes no product, bit for bit
    mesh = build_structured_mesh(n, ("bottom",))
    stiff = assemble_stiffness(mesh)
    cells = mesh.triangles
    blocks = np.array([local_stiffness(mesh.vertices[cell]) for cell in cells])
    scattered = scatter_triangles(mesh, blocks)
    assert np.all(stiff.data != 0.0)
    assert scattered.nnz - stiff.nnz == 2 * n * n
    x = np.random.default_rng(n).standard_normal((stiff.shape[0], 3))
    assert np.array_equal(stiff @ x, scattered @ x)
    assert np.array_equal(stiff @ x[:, 0], scattered @ x[:, 0])


def test_element_blocks_are_the_element_matrices_of_each_triangle():
    mesh = build_structured_mesh(3, ("bottom",))
    stiff, mass = element_blocks(mesh)
    for t, cell in enumerate(mesh.triangles):
        assert np.array_equal(stiff[t], local_stiffness(mesh.vertices[cell]))
        # area * (base / 12) and (area / 12) * base may part in the last bit
        assert np.allclose(mass[t], local_mass(mesh.vertices[cell]), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [*range(1, 34), 48, 96, 127, 255, 256])
def test_stiffness_and_mass_match_the_coordinate_scatter(n):
    # at a power-of-two n every summand of an entry is exact or equal to the
    # others, so the order of summation cannot show; elsewhere it moves the
    # last bit
    exact = n & (n - 1) == 0
    for sides in (("bottom",), ("left", "top", "right"), ("bottom", "left")):
        mesh = build_structured_mesh(n, sides)
        stiff_blocks, mass_blocks = element_blocks(mesh)
        expect_stiff = scatter_triangles(mesh, stiff_blocks)
        expect_stiff.eliminate_zeros()
        pairs = ((assemble_stiffness(mesh), expect_stiff), (assemble_mass(mesh), scatter_triangles(mesh, mass_blocks)))
        for got, expect in pairs:
            assert got.indptr.dtype == got.indices.dtype == np.int32
            assert got.has_canonical_format
            assert np.array_equal(got.indptr, expect.indptr)
            assert np.array_equal(got.indices, expect.indices)
            if exact:
                assert np.array_equal(got.data, expect.data)
            else:
                assert np.all(np.abs(got.data - expect.data) <= 4e-16 * np.abs(expect.data))


def test_assembling_the_stiffness_leaves_the_mass_and_the_pattern_intact():
    mesh = build_structured_mesh(6, ("bottom",))
    mass = assemble_mass(mesh)
    pattern = csr_pattern(mesh)
    arrays = (mass.indptr, mass.indices, mass.data, pattern.indptr, pattern.indices, pattern.slots)
    before = [array.copy() for array in arrays]
    stiff = assemble_stiffness(mesh)
    # the stiffness dropped its zeros in place, in arrays of its own
    assert stiff.nnz == mass.nnz - 2 * 6 * 6
    for array, saved in zip(arrays, before):
        assert np.array_equal(array, saved)
    for matrix in (mass, stiff):
        for name in ("indptr", "indices"):
            for shared in (pattern.indptr, pattern.indices):
                assert not np.shares_memory(getattr(matrix, name), shared)


def test_element_geometry_is_computed_once_per_mesh():
    build = assembly._triangle_geometry.__wrapped__.__code__
    meshes = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is build:
            meshes.append(frame.f_locals["mesh"])

    m = build_structured_mesh(5, ["bottom"])
    u = interpolate_nodal(lambda x, y: x * y, m)
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        assemble_stiffness(m)
        assemble_mass(m)
        assemble_load(m, lambda x, y: x + y)
        l2_misfit_sq(u, lambda x, y: x * y)
        v_error_vs_exact(u, lambda x, y: x * y, lambda x, y: (y, x))
        norm(u, "V")
    finally:
        sys.setprofile(previous)
    assert meshes == [m]


LOAD_FIELDS = (
    lambda x, y: 1.5,
    lambda x, y: 0.3 * x * y + 0.5 * x - y * y,
    sin_product(7.0, 1, 2)[0],
    trig_product(5.0, 2, 1)[0],
    mms_load()[0],
)


@pytest.mark.parametrize("n", [*range(1, 34), 48, 96, 127, 128, 255, 256])
def test_load_added_by_grid_slices_is_the_bincount_load_bit_for_bit(n):
    for sides in (("bottom",), ("left", "top", "right"), ("bottom", "left")):
        mesh = build_structured_mesh(n, sides)
        for f in LOAD_FIELDS:
            load, expect = assemble_load(mesh, f), bincount_load(mesh, f)
            assert load.shape == expect.shape
            assert load.tobytes() == expect.tobytes()


def store_arrays(value, seen=None):
    """The base arrays a store value holds, through containers, sparse matrices, objects and closures."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        while isinstance(value.base, np.ndarray):
            value = value.base
        if ("base", id(value)) not in seen:
            seen.add(("base", id(value)))
            yield value
    elif sp.issparse(value):
        for array in (value.data, value.indices, value.indptr):
            yield from store_arrays(array, seen)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from store_arrays(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from store_arrays(item, seen)
    else:
        for cell in getattr(value, "__closure__", None) or ():
            yield from store_arrays(cell.cell_contents, seen)
        yield from store_arrays(getattr(value, "__dict__", {}), seen)


def robin_state_and_adjoint(n):
    mesh = build_structured_mesh(n, ("bottom",))
    spec = pde.ProblemSpec(g=sin_product(7.0)[0], z_d=lambda x, y: 0.0, b=1.0, M=1.0, alpha=100.0)
    q = TraceField(mesh, np.random.default_rng(n).standard_normal(len(zero_trace(mesh).coefficients)))
    pde.solve_adjoint(mesh, spec, pde.solve_state(mesh, spec, q))
    return mesh


def test_store_after_a_robin_state_and_adjoint_stays_small():
    # 5.6 MB at n = 128; the per-triangle geometry, midpoints and slot map
    # that were kept before made it 10.4 MB
    mesh = robin_state_and_adjoint(128)
    assert sum(array.nbytes for array in store_arrays(mesh.store)) <= 6e6


def test_the_store_holds_no_per_triangle_array_but_the_areas():
    mesh = robin_state_and_adjoint(128)
    u = NodalField(mesh, np.sin(mesh.vertices[:, 0] + 2.0 * mesh.vertices[:, 1]))
    v_error_vs_exact(u, lambda x, y: x * y, lambda x, y: (y, x))
    for which in "HVQ":
        norm(u, which)
    clamped = pde.ProblemSpec(g=sin_product()[0], z_d=lambda x, y: 0.0, b=1.0, M=1.0)
    pde.solve_state(mesh, clamped, zero_trace(mesh))
    # an array with a value per triangle, (T,) or (3, T) or (3, n, n, 2)
    # alike, has a size that is a multiple of T
    areas, count = assembly._areas(mesh), len(mesh.triangles)
    arrays = list(store_arrays(mesh.store))
    assert sum(np.shares_memory(array, areas) for array in arrays) == 1
    for array in arrays:
        if not np.shares_memory(array, areas):
            assert array.size < count or array.size % count != 0, array.shape


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 127, 128])
def test_v_error_is_the_gathered_corner_formula_bit_for_bit(n):
    mesh = build_structured_mesh(n, ("bottom",))
    u = interpolate_nodal(lambda x, y: np.sin(3.0 * x) * np.cos(2.0 * y) + x, mesh)
    f, grad_f = sin_product(2.0, 1, 2)
    assert v_error_vs_exact(u, f, grad_f) == v_error_by_gather(u, f, grad_f)


def test_v_error_evaluates_the_gradient_once_per_call():
    m = build_structured_mesh(4, ["bottom"])
    u = interpolate_nodal(lambda x, y: x * y, m)
    calls = []

    def gradient(x, y):
        calls.append(x.shape)
        return y, x

    err = v_error_vs_exact(u, lambda x, y: x * y, gradient)
    assert calls == [(len(m.triangles), 3)]
    assert err > 0.0
    assert err == v_error_vs_exact(u, lambda x, y: x * y, lambda x, y: (y, x))


def test_stiffness_quadratic_form_of_linear():
    for n in (1, 5):
        m = build_structured_mesh(n, ["bottom"])
        a = assemble_stiffness(m)
        fx = interpolate_nodal(lambda x, y: x, m).coefficients
        assert fx @ (a @ fx) == pytest.approx(1.0, rel=1e-14)


def test_mass_total_is_domain_area():
    m = build_structured_mesh(3, ["top"])
    mm = assemble_mass(m)
    ones = np.ones(len(m.vertices))
    assert ones @ (mm @ ones) == pytest.approx(1.0, rel=1e-14)
    assert mm.data.sum() == pytest.approx(1.0, rel=1e-14)
    # assembly is deterministic: a fresh mesh gives the same sorted CSR arrays
    again = assemble_mass(build_structured_mesh(3, ["top"]))
    assert mm.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(again, name), getattr(mm, name))
    one_field = NodalField(m, ones)
    assert norm(one_field, "H") == pytest.approx(1.0, rel=1e-14)
    assert norm(one_field, "V") == pytest.approx(1.0, rel=1e-14)


def test_boundary_mass_total_is_portion_length():
    m = build_structured_mesh(4, ["bottom", "left"])
    ones = np.ones(len(m.vertices))
    b1 = assemble_boundary_mass(m, BoundaryTag.GAMMA1)
    b2 = assemble_boundary_mass(m, BoundaryTag.GAMMA2)
    assert ones @ (b1 @ ones) == pytest.approx(2.0, rel=1e-14)
    assert ones @ (b2 @ ones) == pytest.approx(2.0, rel=1e-14)


def test_first_order_norm_of_vertical_coordinate():
    # int over the square of y^2 + |grad y|^2 = 1/3 + 1 = 4/3
    m = build_structured_mesh(2, ["bottom"])
    v = interpolate_nodal(lambda x, y: y, m)
    assert norm(v, "V") ** 2 == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_operators_symmetric():
    m = build_structured_mesh(6, ["right"])
    for mat in (
        assemble_stiffness(m),
        assemble_mass(m),
        assemble_boundary_mass(m, BoundaryTag.GAMMA1),
        assemble_boundary_mass(m, BoundaryTag.GAMMA2),
    ):
        gap = np.abs((mat - mat.T)).max()
        assert gap < 1e-14


def test_operators_positive_semidefinite():
    m = build_structured_mesh(8, ["bottom"])
    a = assemble_stiffness(m).toarray()
    mm = assemble_mass(m).toarray()
    b2 = assemble_boundary_mass(m, BoundaryTag.GAMMA2).toarray()
    assert np.linalg.eigvalsh(a).min() > -1e-12
    assert np.linalg.eigvalsh(b2).min() > -1e-12
    assert np.linalg.eigvalsh(mm).min() > 0.0


def test_trace_space_mass_positive_definite():
    m = build_structured_mesh(4, ["bottom"])
    g2 = dof_partition(m).gamma2_trace_dofs
    b2 = assemble_boundary_mass(m, BoundaryTag.GAMMA2).toarray()[np.ix_(g2, g2)]
    assert np.linalg.eigvalsh(b2).min() > 0.0


def test_load_of_constant_matches_mass_row_sums():
    m = build_structured_mesh(4, ["bottom"])
    load = assemble_load(m, lambda x, y: 1.0)
    assert load.sum() == pytest.approx(1.0, rel=1e-14)
    mass_rows = np.asarray(assemble_mass(m).sum(axis=1)).ravel()
    assert np.allclose(load, mass_rows, atol=1e-15)


def test_load_of_linear_matches_mass_times_interpolant():
    m = build_structured_mesh(5, ["left"])
    load = assemble_load(m, lambda x, y: x + y)
    u = interpolate_nodal(lambda x, y: x + y, m)
    assert np.allclose(load, assemble_mass(m) @ u.coefficients, atol=1e-12)


def test_load_vector_is_evaluated_once_per_mesh_and_callable():
    m = build_structured_mesh(4, ["bottom"])
    evaluations = []

    def f(x, y):
        evaluations.append(x.shape)
        return x * y

    first = assemble_load(m, f)
    assert assemble_load(m, f) is first
    assert len(evaluations) == 1
    assemble_load(build_structured_mesh(4, ["bottom"]), f)
    assert len(evaluations) == 2


def test_cached_load_vector_is_read_only():
    m = build_structured_mesh(3, ["left"])
    load = assemble_load(m, lambda x, y: x + 1.0)
    with pytest.raises(ValueError, match="read-only"):
        load[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        load += 1.0


def test_data_callables_are_checked_at_the_quadrature_points():
    # x[:, 0] is one value per triangle: it must not broadcast against the rule
    m = build_structured_mesh(4, ["bottom"])
    zero = NodalField(m, np.zeros(len(m.vertices)))

    def per_triangle(x, y):
        return x[:, 0]

    with pytest.raises(ValueError, match="field callable returned shape"):
        assemble_load(m, per_triangle)
    with pytest.raises(ValueError, match="field callable returned shape"):
        l2_misfit_sq(zero, per_triangle)
    # NaN on the edge midpoints x = 0.125, none of which is a vertex
    with pytest.raises(ValueError, match="non-finite value at a quadrature point"):
        l2_misfit_sq(zero, lambda x, y: np.where(x == 0.125, np.nan, x))


def test_gradient_callables_are_checked_at_the_quadrature_points():
    m = build_structured_mesh(4, ["bottom"])
    u = interpolate_nodal(lambda x, y: x, m)
    # one value per triangle must not broadcast into a triangles-by-triangles array
    with pytest.raises(ValueError, match="field callable returned shape"):
        v_error_vs_exact(u, lambda x, y: x, lambda x, y: (x[:, 0] ** 0, 0.0 * x[:, 0]))
    with pytest.raises(ValueError, match="non-finite value at a quadrature point"):
        v_error_vs_exact(u, lambda x, y: x, lambda x, y: (np.where(x == 0.125, np.nan, 1.0), 0.0 * x))
    # scalar components broadcast, as for the value callable
    assert v_error_vs_exact(u, lambda x, y: x, lambda x, y: (1.0, 0.0)) < 1e-14


def test_misfit_zero_for_exact_linear():
    m = build_structured_mesh(3, ["bottom"])
    u = interpolate_nodal(lambda x, y: 2.0 * x - y, m)
    assert l2_misfit_sq(u, lambda x, y: 2.0 * x - y) < 1e-28
    zero = NodalField(m, np.zeros(len(m.vertices)))
    assert l2_misfit_sq(zero, lambda x, y: 1.0) == pytest.approx(1.0, rel=1e-14)


def test_v_error_zero_for_exact_linear():
    m = build_structured_mesh(3, ["bottom"])
    u = interpolate_nodal(lambda x, y: 1.0 + x, m)
    err = v_error_vs_exact(u, lambda x, y: 1.0 + x, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    assert err < 1e-14


def test_trace_restrict_extend_roundtrip():
    m = build_structured_mesh(4, ["bottom"])
    q = interpolate_trace(lambda x, y: np.sin(x + 2.0 * y), m)
    back = trace_restrict(trace_extend(q))
    assert np.array_equal(back.coefficients, q.coefficients)
    # extension is zero away from the flux boundary vertices
    ext = trace_extend(q)
    g2 = set(dof_partition(m).gamma2_trace_dofs.tolist())
    for k, val in enumerate(ext.coefficients):
        if k not in g2:
            assert val == 0.0


def test_norm_kinds_and_errors():
    m = build_structured_mesh(2, ["bottom"])
    u = interpolate_nodal(lambda x, y: x, m)
    q = interpolate_trace(lambda x, y: x, m)
    assert norm(u, "Q") > 0.0  # nodal fields restrict to their boundary trace
    with pytest.raises(ValueError):
        norm(q, "V")
    with pytest.raises(ValueError):
        norm(u, "W")


def test_norms_stable_under_prolongation():
    coarse = build_structured_mesh(2, ["bottom"])
    fine = build_structured_mesh(8, ["bottom"])
    u = interpolate_nodal(lambda x, y: x * x - 0.5 * y, coarse)
    up = prolongate(u, coarse, fine)
    assert norm(up, "H") == pytest.approx(norm(u, "H"), rel=1e-12)
    assert norm(up, "V") == pytest.approx(norm(u, "V"), rel=1e-12)
    assert norm(up, "Q") == pytest.approx(norm(u, "Q"), rel=1e-12)


@given(n=st.integers(min_value=1, max_value=6), seed=st.integers(min_value=0, max_value=999))
def test_quadratic_forms_nonnegative(n, seed):
    m = build_structured_mesh(n, ["bottom"])
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(len(m.vertices))
    assert v @ (assemble_stiffness(m) @ v) >= -1e-12
    assert v @ (assemble_mass(m) @ v) >= 0.0
    assert v @ (assemble_boundary_mass(m, BoundaryTag.GAMMA2) @ v) >= -1e-12


@given(scale=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_norm_homogeneity(scale):
    m = build_structured_mesh(3, ["bottom"])
    u = interpolate_nodal(lambda x, y: x - y * y, m)
    for which in ("H", "V", "Q"):
        assert norm(scale * u, which) == pytest.approx(scale * norm(u, which), rel=1e-12, abs=1e-12)
