"""Mesh construction, refinement, interpolation and transfer operators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluxopt.assembly import norm
from fluxopt.mesh import (
    SIDES,
    BoundaryTag,
    NodalField,
    TraceField,
    build_structured_mesh,
    dof_partition,
    interpolate_nodal,
    interpolate_trace,
    nested_dissection,
    prolongate,
    prolongate_trace,
    refine,
    restrict_trace,
    zero_trace,
)
from oracles import evaluate_nodal


def triangle_areas(mesh):
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def test_smallest_mesh_counts():
    m = build_structured_mesh(1, ["bottom"])
    assert len(m.vertices) == 4
    assert len(m.triangles) == 2
    assert np.count_nonzero(m.boundary_tags == BoundaryTag.GAMMA1) == 1
    assert np.count_nonzero(m.boundary_tags == BoundaryTag.GAMMA2) == 3


def test_two_cell_mesh_counts():
    m = build_structured_mesh(2, ["bottom"])
    assert len(m.vertices) == 9
    assert len(m.triangles) == 8
    assert m.h == pytest.approx(np.sqrt(2.0) / 2.0, abs=0.0)


def test_two_sided_clamped_portion():
    m = build_structured_mesh(4, ["bottom", "left"])
    assert len(m.boundary_edges) == 16
    assert np.count_nonzero(m.boundary_tags == BoundaryTag.GAMMA1) == 8


def test_areas_positive_and_sum_to_one():
    m = build_structured_mesh(5, ["left"])
    areas = triangle_areas(m)
    assert np.all(areas > 0)
    assert abs(areas.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, "4"])
def test_rejects_bad_cell_count(bad):
    with pytest.raises((ValueError, TypeError)):
        build_structured_mesh(bad, ["bottom"])


@pytest.mark.parametrize("sides", [[], list(SIDES), ["north"], ["bottom", "middle"]])
def test_rejects_bad_side_sets(sides):
    with pytest.raises(ValueError):
        build_structured_mesh(2, sides)


def test_refine_halves_h_and_doubles_boundary_edges():
    m = build_structured_mesh(2, ["bottom", "right"])
    f = refine(m)
    assert f.n == 4
    assert f.h == pytest.approx(m.h / 2.0, rel=1e-15)
    assert np.count_nonzero(f.boundary_tags == BoundaryTag.GAMMA1) == 2 * np.count_nonzero(
        m.boundary_tags == BoundaryTag.GAMMA1
    )
    ff = refine(f)
    assert ff.n == 8
    assert len(ff.triangles) == 128


def test_refined_mesh_contains_coarse_vertices_bitwise():
    m = build_structured_mesh(3, ["top"])
    f = refine(m)
    fine_set = {(vx, vy) for vx, vy in map(tuple, f.vertices)}
    for vx, vy in map(tuple, m.vertices):
        assert (vx, vy) in fine_set  # exact float equality, not approximate


def test_dof_partition_two_cells_bottom():
    m = build_structured_mesh(2, ["bottom"])
    part = dof_partition(m)
    assert part.gamma1_dofs.tolist() == [0, 1, 2]
    # trace dofs cover the closure of the flux boundary, corners included
    assert part.gamma2_trace_dofs.tolist() == [0, 2, 3, 5, 6, 7, 8]
    assert part.free_dofs.tolist() == [3, 4, 5, 6, 7, 8]


def test_dof_partition_corners_clamped_but_traced():
    m = build_structured_mesh(2, ["left"])
    part = dof_partition(m)
    # corner vertices 0 and 6 are clamped (not free) yet still carry trace dofs
    assert set(part.gamma1_dofs) & set(part.gamma2_trace_dofs) == {0, 6}
    assert 0 not in part.free_dofs and 6 not in part.free_dofs
    assert set(part.free_dofs) == set(range(len(m.vertices))) - set(part.gamma1_dofs)


@pytest.mark.parametrize("n", [1, 5, 16])
def test_nested_dissection_is_a_shared_read_only_permutation(n):
    m = build_structured_mesh(n, ["bottom"])
    order = nested_dissection(m)
    assert sorted(order.tolist()) == list(range(len(m.vertices)))
    assert nested_dissection(m) is order
    with pytest.raises(ValueError):
        order[0] = 0


def test_interpolation_reproduces_linears():
    m = build_structured_mesh(4, ["bottom"])
    ones = interpolate_nodal(lambda x, y: np.ones_like(x), m)
    assert np.all(ones.coefficients == 1.0)
    fx = interpolate_nodal(lambda x, y: x, m)
    assert np.array_equal(fx.coefficients, m.vertices[:, 0])


def test_trace_interpolation_lives_on_flux_dofs():
    m = build_structured_mesh(3, ["bottom"])
    q = interpolate_trace(lambda x, y: x + y, m)
    g2 = dof_partition(m).gamma2_trace_dofs
    expect = m.vertices[g2, 0] + m.vertices[g2, 1]
    assert np.array_equal(q.coefficients, expect)


def test_zero_fields():
    m = build_structured_mesh(2, ["right"])
    assert np.all(NodalField(m, np.zeros(len(m.vertices))).coefficients == 0.0)
    assert len(zero_trace(m).coefficients) == len(dof_partition(m).gamma2_trace_dofs)


def test_field_arithmetic():
    m = build_structured_mesh(2, ["bottom"])
    a = interpolate_nodal(lambda x, y: x, m)
    b = interpolate_nodal(lambda x, y: y, m)
    c = a + b
    assert np.allclose(c.coefficients, a.coefficients + b.coefficients)
    d = 2.0 * a - b
    assert np.allclose(d.coefficients, 2.0 * a.coefficients - b.coefficients)


def test_prolongation_is_exact_for_member_functions():
    coarse = build_structured_mesh(4, ["bottom"])
    fine = build_structured_mesh(8, ["bottom"])
    u = interpolate_nodal(lambda x, y: 2.0 * x - 3.0 * y + 1.0, coarse)
    up = prolongate(u, coarse, fine)
    expect = interpolate_nodal(lambda x, y: 2.0 * x - 3.0 * y + 1.0, fine)
    assert np.allclose(up.coefficients, expect.coefficients, atol=1e-14)


def test_prolongation_preserves_norms():
    coarse = build_structured_mesh(4, ["bottom", "left"])
    fine = build_structured_mesh(16, ["bottom", "left"])
    u = interpolate_nodal(lambda x, y: np.sin(x) * np.cosh(y), coarse)
    up = prolongate(u, coarse, fine)
    for which in ("H", "V"):
        assert norm(up, which) == pytest.approx(norm(u, which), rel=1e-12)
    q = interpolate_trace(lambda x, y: x * x - y, coarse)
    qp = prolongate_trace(q, coarse, fine)
    assert norm(qp, "Q") == pytest.approx(norm(q, "Q"), rel=1e-12)


def test_restrict_after_prolong_is_identity():
    coarse = build_structured_mesh(4, ["top"])
    fine = build_structured_mesh(16, ["top"])
    q = interpolate_trace(lambda x, y: np.cos(3.0 * x) + y, coarse)
    back = restrict_trace(prolongate_trace(q, coarse, fine), fine, coarse)
    assert np.array_equal(back.coefficients, q.coefficients)


def test_prolongation_rejects_non_nested_meshes():
    a = build_structured_mesh(4, ["bottom"])
    b = build_structured_mesh(6, ["bottom"])
    u = NodalField(a, np.zeros(len(a.vertices)))
    with pytest.raises(ValueError):
        prolongate(u, a, b)
    c = build_structured_mesh(4, ["left"])
    with pytest.raises(ValueError):
        prolongate(u, a, c)  # same size but different clamped portion


def test_evaluate_nodal_matches_vertex_values():
    m = build_structured_mesh(4, ["bottom"])
    u = interpolate_nodal(lambda x, y: x * y, m)
    xs = m.vertices[:, 0]
    ys = m.vertices[:, 1]
    assert np.allclose(evaluate_nodal(u, xs, ys), xs * ys, atol=1e-14)
    # inside a cell the evaluation is the plane through the cell's vertices
    val = evaluate_nodal(u, np.array([0.125]), np.array([0.0]))
    assert val[0] == pytest.approx(0.0, abs=1e-15)


def test_interpolation_error_first_order_in_v_norm():
    errs = []
    hs = []
    for n in (2, 4, 8, 16):
        m = build_structured_mesh(n, ["bottom"])
        u = interpolate_nodal(lambda x, y: x * x + y * y, m)
        from fluxopt.assembly import v_error_vs_exact

        err = v_error_vs_exact(
            u, lambda x, y: x * x + y * y, lambda x, y: (2.0 * x, 2.0 * y)
        )
        errs.append(err)
        hs.append(m.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 0.85 <= slope <= 1.3


@given(
    n=st.integers(min_value=1, max_value=10),
    mask=st.integers(min_value=1, max_value=14),
)
def test_structural_invariants(n, mask):
    sides = [s for k, s in enumerate(SIDES) if mask & (1 << k)]
    m = build_structured_mesh(n, sides)
    assert len(m.vertices) == (n + 1) ** 2
    assert len(m.triangles) == 2 * n * n
    assert len(m.boundary_edges) == 4 * n
    assert np.count_nonzero(m.boundary_tags == BoundaryTag.GAMMA1) == n * len(sides)
    assert m.gamma1_sides == frozenset(sides)
    assert np.all(triangle_areas(m) > 0)
    part = dof_partition(m)
    assert len(part.gamma1_dofs) + len(part.free_dofs) == len(m.vertices)
    flux_edges = m.boundary_edges[m.boundary_tags == BoundaryTag.GAMMA2]
    assert set(part.gamma2_trace_dofs) == set(flux_edges.ravel())
    g2 = part.gamma2_trace_dofs
    assert np.all(np.diff(g2) > 0)


@given(n=st.integers(min_value=1, max_value=6))
def test_trace_prolongation_identity_roundtrip(n):
    coarse = build_structured_mesh(n, ["bottom"])
    fine = build_structured_mesh(4 * n, ["bottom"])
    rng = np.random.default_rng(n)
    q = TraceField(coarse, rng.standard_normal(len(zero_trace(coarse).coefficients)))
    back = restrict_trace(prolongate_trace(q, coarse, fine), fine, coarse)
    assert np.array_equal(back.coefficients, q.coefficients)


def test_field_mesh_mismatch_rejected():
    a = build_structured_mesh(2, ["bottom"])
    b = build_structured_mesh(4, ["bottom"])
    u = NodalField(a, np.zeros(len(a.vertices)))
    with pytest.raises(ValueError):
        NodalField(a, np.zeros(3))
    v = NodalField(b, np.zeros(len(b.vertices)))
    with pytest.raises(ValueError):
        _ = u + v
