"""Finite element matrices, load vectors and norms for piecewise-linear spaces.

Stiffness, interior mass and boundary mass matrices are assembled exactly.
Data functions enter through a three-edge-midpoint quadrature rule per
triangle, which integrates quadratics exactly; the same rule backs the
tracking-term evaluation so cost, adjoint right side and load vectors stay
mutually consistent.  ``trace_mass`` is the flux-boundary mass on the trace
vertices, the Q inner product of trace fields; their maps to and from the
vertex grid belong to ``mesh``.

Each mesh's element geometry is computed once, from the triangle corners
read off the vertex grid, and shared by the stiffness, the areas and the
first-order error.  The stiffness and the domain mass sum their element
blocks into the mesh's ``csr_pattern`` by one ``np.bincount`` over its
slot map; ``_scatter`` serves only the boundary-edge masses.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import BoundaryTag, Mesh, NodalField, TraceField, cached, corner_views, csr_pattern, dof_partition
from .mesh import _checked_values, _evaluate_callable, trace_restrict


def _corner_coordinates(mesh: Mesh):
    """Pairs of x and y corner views, one per triangle type (``mesh.corner_views``)."""
    grids = (mesh.vertices[:, axis].reshape(mesh.n + 1, mesh.n + 1) for axis in (0, 1))
    return zip(*(corner_views(grid) for grid in grids))


@cached
def _triangle_geometry(mesh: Mesh):
    """b, c (3, T) and area (T,) of every triangle, from its corner coordinates.

    b[k] and c[k] are the gradient components of the barycentric basis of
    corner k scaled by 2*area; each is one contiguous row, in triangle order.
    """
    n = mesh.n
    b = np.empty((3, n, n, 2))
    c = np.empty((3, n, n, 2))
    area = np.empty((n, n, 2))
    for t, (x, y) in enumerate(_corner_coordinates(mesh)):
        for k in range(3):
            np.subtract(y[(k + 1) % 3], y[(k + 2) % 3], out=b[k, :, :, t])
            np.subtract(x[(k + 2) % 3], x[(k + 1) % 3], out=c[k, :, :, t])
        area[:, :, t] = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    if np.any(area <= 0):
        raise ValueError("degenerate or inverted triangle: nonpositive area")
    return b.reshape(3, -1), c.reshape(3, -1), area.ravel()


def _areas(mesh: Mesh) -> np.ndarray:
    return _triangle_geometry(mesh)[2]


def _scatter(cells, blocks, nvert) -> sp.csr_matrix:
    """Sum the k-by-k element blocks of (cells, k) vertex lists into a sparse matrix."""
    # 32-bit indices halve the coordinate-list temporaries, which the heap
    # otherwise keeps resident after assembly
    cells = cells.astype(np.int32 if nvert <= np.iinfo(np.int32).max else np.int64)
    k = cells.shape[1]
    rows = np.repeat(cells, k, axis=1).ravel()
    cols = np.tile(cells, (1, k)).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(nvert, nvert)).tocsr()


def _assemble(mesh: Mesh, blocks) -> sp.csr_matrix:
    """Sum the (3, 3, T) element blocks, entry (a, b) of every triangle, into the mesh's CSR pattern."""
    pattern = csr_pattern(mesh)
    data = np.bincount(pattern.slots.ravel(), weights=blocks.ravel(), minlength=len(pattern.indices))
    # csr_matrix keeps the index arrays it is given, and eliminate_zeros
    # edits them in place, so each matrix owns a copy of the pattern
    nvert = len(mesh.vertices)
    return sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()), shape=(nvert, nvert))


@cached
def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Gradient-gradient matrix of the piecewise-linear space, with no stored zero.

    The couplings across the diagonal edges cancel to exactly 0.0, 2 n^2 of
    them; dropping them leaves every product with the matrix unchanged.
    """
    b, c, area = _triangle_geometry(mesh)
    quad = 4.0 * area
    blocks = np.empty((3, 3, len(area)))
    for i in range(3):
        for j in range(3):
            entry = blocks[i, j]
            np.multiply(b[i], b[j], out=entry)
            entry += c[i] * c[j]
            entry /= quad
    stiff = _assemble(mesh, blocks)
    stiff.eliminate_zeros()
    return stiff


@cached
def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Domain mass matrix of the piecewise-linear space."""
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _assemble(mesh, base[:, :, None] * _areas(mesh))


@cached
def assemble_boundary_mass(mesh: Mesh, tag: BoundaryTag) -> sp.csr_matrix:
    """Mass matrix of the tagged boundary portion, in full vertex dimension.

    Rows and columns away from vertices of tagged edges are zero.
    """
    tag = BoundaryTag(tag)
    edges = mesh.boundary_edges[mesh.boundary_tags == tag]
    if len(edges) == 0:
        raise ValueError(f"no boundary edges carry tag {tag.name}")
    p0 = mesh.vertices[edges[:, 0]]
    p1 = mesh.vertices[edges[:, 1]]
    length = np.sqrt(np.sum((p1 - p0) ** 2, axis=1))
    base = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    blocks = length[:, None, None] * base[None, :, :]
    return _scatter(edges, blocks, len(mesh.vertices))


@cached
def trace_mass(mesh: Mesh) -> sp.csr_matrix:
    """Flux-boundary mass matrix restricted to the trace index set: the Q inner product."""
    g2 = dof_partition(mesh).gamma2_trace_dofs
    return assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)[g2][:, g2].tocsr()


@cached
def _midpoint_data(mesh: Mesh):
    """Coordinates of the three edge midpoints of every triangle; midpoint k ends at corners k, k+1."""
    n = mesh.n
    mids = np.empty((2, n, n, 2, 3))
    for t, corners in enumerate(_corner_coordinates(mesh)):
        for axis, ends in enumerate(corners):
            for k in range(3):
                np.add(ends[k], ends[(k + 1) % 3], out=mids[axis, :, :, t, k])
    mids *= 0.5
    return mids[0].reshape(-1, 3), mids[1].reshape(-1, 3)


def _midpoint_values(mesh: Mesh, f) -> np.ndarray:
    """f at the quadrature points, checked by ``_evaluate_callable``."""
    mx, my = _midpoint_data(mesh)
    return _evaluate_callable(f, mx, my, "quadrature point")


@cached
def assemble_load(mesh: Mesh, f) -> np.ndarray:
    """Load vector of the callable f via the edge-midpoint rule (degree-2 exact).

    The vector is kept in the mesh's store, keyed by the callable object,
    and returned read-only.  Data callables must therefore be pure: f is
    evaluated once per mesh, and a later change in what it returns is not
    seen.
    """
    area = _areas(mesh)
    w = _midpoint_values(mesh, f) * (area / 6.0)[:, None]
    # midpoint k feeds local vertices k and k+1; bincount sums each vertex's
    # contributions in the order of the array
    vertices = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].T.ravel()
    weights = w[:, [0, 0, 1, 1, 2, 2]].T.ravel()
    load = np.bincount(vertices, weights=weights, minlength=len(mesh.vertices))
    load.setflags(write=False)
    return load


def l2_misfit_sq(u: NodalField, f) -> float:
    """Squared domain L2 distance between a nodal field and a callable.

    Uses the edge-midpoint rule per triangle, consistent with assemble_load,
    so it is exact whenever the integrand is piecewise quadratic.
    """
    mesh = u.mesh
    area = _areas(mesh)
    fv = _midpoint_values(mesh, f)
    coeff = u.coefficients[mesh.triangles]
    umid = 0.5 * (coeff + coeff[:, [1, 2, 0]])
    return float(np.sum((area / 3.0)[:, None] * (umid - fv) ** 2))


def v_error_vs_exact(u: NodalField, f, grad_f) -> float:
    """Full first-order-norm distance between a nodal field and a smooth callable.

    grad_f(x, y) must return the pair of partial derivative arrays; it is
    called once.  Both the value and the gradient mismatch are integrated
    with the edge-midpoint rule.
    """
    mesh = u.mesh
    b, c, area = _triangle_geometry(mesh)
    coeff = u.coefficients[mesh.triangles]
    ugx = np.sum(coeff * b.T, axis=1) / (2.0 * area)
    ugy = np.sum(coeff * c.T, axis=1) / (2.0 * area)
    mx, my = _midpoint_data(mesh)
    gfx, gfy = (_checked_values(g, mx.shape, "quadrature point") for g in grad_f(mx, my))
    semi = np.sum((area / 3.0)[:, None] * ((ugx[:, None] - gfx) ** 2 + (ugy[:, None] - gfy) ** 2))
    return float(np.sqrt(l2_misfit_sq(u, f) + semi))


def norm(field, which: str) -> float:
    """Norm of a field: "H" (domain L2), "V" (first order), "Q" (flux-boundary L2).

    "H" and "V" apply to nodal fields.  "Q" applies to trace fields directly
    and to nodal fields through their boundary trace.
    """
    if which == "Q":
        if isinstance(field, NodalField):
            field = trace_restrict(field)
        if not isinstance(field, TraceField):
            raise ValueError("Q norm needs a trace field or a nodal field to restrict")
        bmat = trace_mass(field.mesh)
        val = field.coefficients @ (bmat @ field.coefficients)
        return float(np.sqrt(max(val, 0.0)))
    if not isinstance(field, NodalField):
        raise ValueError(f"{which!r} norm needs a nodal field")
    coeff = field.coefficients
    mass = assemble_mass(field.mesh)
    val = coeff @ (mass @ coeff)
    if which == "H":
        return float(np.sqrt(max(val, 0.0)))
    if which == "V":
        stiff = assemble_stiffness(field.mesh)
        val = val + coeff @ (stiff @ coeff)
        return float(np.sqrt(max(val, 0.0)))
    raise ValueError(f"unknown norm kind {which!r}")
