"""Finite element matrices, load vectors and norms for piecewise-linear spaces.

Stiffness, interior mass and boundary mass matrices are assembled exactly.
Data functions enter through a three-edge-midpoint quadrature rule per
triangle, which integrates quadratics exactly; the same rule backs the
tracking-term evaluation so cost, adjoint right side and load vectors stay
mutually consistent.  ``trace_mass`` is the flux-boundary mass on the trace
vertices, the Q inner product of trace fields; their maps to and from the
vertex grid belong to ``mesh``.

The mesh's store keeps no per-triangle set-up data but the areas.  The
vertex grid is a tensor grid, so the element geometry, computed once per
mesh, keeps b on one grid column and c on one grid row, and the edge
midpoints are kept on grid lines the same way; full per-triangle arrays
exist only while a field is evaluated.  The stiffness and the domain mass
are built together, each one ``np.bincount`` of its element blocks over
the slot map of one ``csr_pattern``, which is dropped once both are built.
Load vectors are added into the vertex grid by slices, in the order that
``np.bincount`` over the triangles would sum them, and the boundary masses
along the side lines of the grid.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import SIDES, BoundaryTag, Mesh, NodalField, TraceField, cached, corner_views, csr_pattern
from .mesh import _COUPLING_STEPS, _SIDE_LINES, _TRIANGLE_CORNERS, _checked_values, _evaluate_callable
from .mesh import dof_partition, trace_restrict


def _corner_lines(mesh: Mesh):
    """Per triangle type, its x corners on one grid row (1, n) and its y corners on one grid column (n, 1).

    The vertex grid is a tensor grid: x depends on the column alone and y
    on the row alone, so these lines broadcast to the corner views.
    """
    grid = mesh.vertices.reshape(mesh.n + 1, mesh.n + 1, 2)
    for xs, ys in zip(corner_views(grid[..., 0]), corner_views(grid[..., 1])):
        yield [x[:1] for x in xs], [y[:, :1] for y in ys]


@cached
def _triangle_geometry(mesh: Mesh):
    """b (3, n, 1, 2), c (3, 1, n, 2) and area (T,) of the triangles, from their corner lines.

    b[k] and c[k] are the gradient components of the barycentric basis of
    corner k scaled by 2*area, indexed [row, column, type] of the cells: b
    comes from y alone and is kept on one grid column, c from x alone and is
    kept on one grid row, and each broadcasts over the other axis.  Only
    the area is per triangle, in triangle order.
    """
    n = mesh.n
    b = np.empty((3, n, 1, 2))
    c = np.empty((3, 1, n, 2))
    area = np.empty((n, n, 2))
    for t, (x, y) in enumerate(_corner_lines(mesh)):
        for k in range(3):
            np.subtract(y[(k + 1) % 3], y[(k + 2) % 3], out=b[k, :, :, t])
            np.subtract(x[(k + 2) % 3], x[(k + 1) % 3], out=c[k, :, :, t])
        area[:, :, t] = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    if np.any(area <= 0):
        raise ValueError("degenerate or inverted triangle: nonpositive area")
    return b, c, area.ravel()


def _areas(mesh: Mesh) -> np.ndarray:
    return _triangle_geometry(mesh)[2]


def _assemble(pattern, blocks) -> sp.csr_matrix:
    """Sum the (3, 3, ...) element blocks, entry (a, b) of every triangle, into the CSR pattern."""
    data = np.bincount(pattern.slots.ravel(), weights=blocks.ravel(), minlength=len(pattern.indices))
    # csr_matrix keeps the index arrays it is given, and eliminate_zeros
    # edits them in place, so each matrix owns a copy of the pattern
    nvert = len(pattern.indptr) - 1
    return sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()), shape=(nvert, nvert))


@cached
def _domain_matrices(mesh: Mesh):
    """(K, M), summed into one ``csr_pattern``, whose slot map is dropped once both are built."""
    b, c, area = _triangle_geometry(mesh)
    pattern = csr_pattern(mesh)
    quad = 4.0 * area.reshape(mesh.n, mesh.n, 2)
    blocks = np.empty((3, 3) + quad.shape)
    for i in range(3):
        for j in range(3):
            entry, bb, cc = blocks[i, j], b[i] * b[j], c[i] * c[j]
            # one triangle type at a time, so the row line broadcasts along
            # whole grid rows, not along pairs of types
            for t in range(2):
                np.add(bb[:, :, t], cc[:, :, t], out=entry[:, :, t])
            entry /= quad
    stiff = _assemble(pattern, blocks)
    stiff.eliminate_zeros()
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    np.multiply(base[:, :, None, None, None], area.reshape(quad.shape), out=blocks)
    return stiff, _assemble(pattern, blocks)


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Gradient-gradient matrix of the piecewise-linear space, with no stored zero.

    The couplings across the diagonal edges cancel to exactly 0.0, 2 n^2 of
    them; dropping them leaves every product with the matrix unchanged.
    """
    return _domain_matrices(mesh)[0]


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Domain mass matrix of the piecewise-linear space."""
    return _domain_matrices(mesh)[1]


@cached
def assemble_boundary_mass(mesh: Mesh, tag: BoundaryTag) -> sp.csr_matrix:
    """Mass matrix of the tagged boundary portion, in full vertex dimension, from the side lines.

    Rows and columns away from vertices of tagged edges are zero.  Each
    tagged side adds its edges' masses l/6 [[2, 1], [1, 2]] along its line
    of the vertex grid into the rows of its vertices alone, a column per
    coupling step of ``csr_pattern``, so the CSR arrays come in O(n).  A
    vertex sums at most two edges' entries, alike in either order.
    """
    n, tag, nvert, step = mesh.n, BoundaryTag(tag), len(mesh.vertices), _COUPLING_STEPS.index
    part = dof_partition(mesh)
    rows = part.gamma1_dofs if tag == BoundaryTag.GAMMA1 else part.gamma2_trace_dofs
    length = np.diff(mesh.vertices[: n + 1, 0])
    values = np.zeros((len(rows), len(_COUPLING_STEPS)))
    grid = np.arange(nvert).reshape(n + 1, n + 1)
    for side in SIDES:
        if (side in mesh.gamma1_sides) == (tag == BoundaryTag.GAMMA1):
            back, ahead = ((0, -1), (0, 1)) if side in ("bottom", "top") else ((-1, 0), (1, 0))
            line = np.searchsorted(rows, grid[_SIDE_LINES[side]])
            values[line[:-1], step((0, 0))] += length * (2.0 / 6.0)
            values[line[1:], step((0, 0))] += length * (2.0 / 6.0)
            values[line[:-1], step(ahead)] = values[line[1:], step(back)] = length * (1.0 / 6.0)
    present = values > 0
    columns = rows[:, None] + np.array([dj * (n + 1) + di for dj, di in _COUPLING_STEPS])
    indptr = np.zeros(nvert + 1, dtype=np.int64)
    indptr[rows + 1] = np.count_nonzero(present, axis=1)
    return sp.csr_matrix((values[present], columns[present], np.cumsum(indptr)), shape=(nvert, nvert))


@cached
def trace_mass(mesh: Mesh) -> sp.csr_matrix:
    """Flux-boundary mass matrix restricted to the trace index set: the Q inner product."""
    g2 = dof_partition(mesh).gamma2_trace_dofs
    return assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)[g2][:, g2].tocsr()


@cached
def _midpoint_lines(mesh: Mesh):
    """x (1, n, 2, 3) and y (n, 1, 2, 3) of the three edge midpoints of every triangle.

    Midpoint k ends at corners k and k+1.  Indexed [row, column, type,
    midpoint] like the cells, x is kept on one grid row and y on one grid
    column (``_corner_lines``).
    """
    n = mesh.n
    mx = np.empty((1, n, 2, 3))
    my = np.empty((n, 1, 2, 3))
    for t, (x, y) in enumerate(_corner_lines(mesh)):
        for k in range(3):
            np.add(x[k], x[(k + 1) % 3], out=mx[:, :, t, k])
            np.add(y[k], y[(k + 1) % 3], out=my[:, :, t, k])
    mx *= 0.5
    my *= 0.5
    return mx, my


def _midpoints(mesh: Mesh):
    """x and y (T, 3) of the quadrature points, broadcast from their lines for one evaluation."""
    shape = (mesh.n, mesh.n, 2, 3)
    return [np.broadcast_to(line, shape).reshape(-1, 3) for line in _midpoint_lines(mesh)]


def _midpoint_values(mesh: Mesh, f) -> np.ndarray:
    """f at the quadrature points, checked by ``_evaluate_callable``."""
    return _evaluate_callable(f, *_midpoints(mesh), "quadrature point")


@cached
def assemble_load(mesh: Mesh, f) -> np.ndarray:
    """Load vector of the callable f via the edge-midpoint rule (degree-2 exact).

    The vector is kept in the mesh's store, keyed by the callable object,
    and returned read-only.  Data callables must therefore be pure: f is
    evaluated once per mesh, and a later change in what it returns is not
    seen.
    """
    n = mesh.n
    w = (_midpoint_values(mesh, f) * (_areas(mesh) / 6.0)[:, None]).reshape(n, n, 2, 3)
    load = np.zeros((n + 1, n + 1))
    views = corner_views(load)
    # midpoint m feeds corners m and m + 1.  Each vertex sums its weights in
    # the order of np.bincount over the triangles' corner lists: six passes,
    # corners 0, 1, 1, 2, 2, 0 fed by midpoints 0, 0, 1, 1, 2, 2, and in a
    # pass the lower triangle index first.  The type-t triangle with the
    # vertex as corner k lies (dj, di) = _TRIANGLE_CORNERS[t][k] cells back,
    # so its index is t - 2 (dj n + di) past one offset for both types.
    for k, m in zip((0, 1, 1, 2, 2, 0), (0, 0, 1, 1, 2, 2)):
        for t in sorted((0, 1), key=lambda t: t - 2 * np.dot(_TRIANGLE_CORNERS[t][k], (n, 1))):
            views[t][k] += w[:, :, t, m]
    load = load.ravel()
    load.setflags(write=False)
    return load


def l2_misfit_sq(u: NodalField, f) -> float:
    """Squared domain L2 distance between a nodal field and a callable.

    Uses the edge-midpoint rule per triangle, consistent with assemble_load,
    so it is exact whenever the integrand is piecewise quadratic.
    """
    return _misfit_sq(u, _midpoint_values(u.mesh, f))


def _misfit_sq(u: NodalField, values) -> float:
    """The edge-midpoint rule for |u - f|^2, given f's (T, 3) values at the midpoints.

    u's midpoint values come from the corner views of its coefficient grid.
    """
    n = u.mesh.n
    umid = np.empty((n, n, 2, 3))
    for t, corners in enumerate(corner_views(u.coefficients.reshape(n + 1, n + 1))):
        for k in range(3):
            np.add(corners[k], corners[(k + 1) % 3], out=umid[:, :, t, k])
    umid *= 0.5
    return float(np.sum((_areas(u.mesh) / 3.0)[:, None] * (umid.reshape(-1, 3) - values) ** 2))


def v_error_vs_exact(u: NodalField, f, grad_f) -> float:
    """Full first-order-norm distance between a nodal field and a smooth callable.

    grad_f(x, y) must return the pair of partial derivative arrays; it is
    called once.  Both the value and the gradient mismatch are integrated
    with the edge-midpoint rule.
    """
    mesh, n = u.mesh, u.mesh.n
    b, c, area = _triangle_geometry(mesh)
    grads = np.empty((2, n, n, 2))
    for t, corners in enumerate(corner_views(u.coefficients.reshape(n + 1, n + 1))):
        for grad, lines in zip(grads, (b, c)):
            u0, u1, u2 = (corner * line[:, :, t] for corner, line in zip(corners, lines))
            grad[:, :, t] = u0 + u1 + u2
    ugx, ugy = grads.reshape(2, -1) / (2.0 * area)
    mx, my = _midpoints(mesh)
    gfx, gfy = (_checked_values(g, mx.shape, "quadrature point") for g in grad_f(mx, my))
    semi = np.sum((area / 3.0)[:, None] * ((ugx[:, None] - gfx) ** 2 + (ugy[:, None] - gfy) ** 2))
    misfit = _misfit_sq(u, _evaluate_callable(f, mx, my, "quadrature point"))
    return float(np.sqrt(misfit + semi))


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
