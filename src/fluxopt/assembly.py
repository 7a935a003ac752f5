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
exist only while a field is evaluated.  Load vectors are added into the
vertex grid by slices, and the stiffness and the domain mass into one band
of the grid per coupling step, each in the order that ``np.bincount`` over
the triangles would sum them; the boundary masses are added along the side
lines of the grid.  One function, ``_couplings``, reads the bands of the
vertex rows they hold into CSR for all four matrices.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import SIDES, BoundaryTag, Mesh, NodalField, TraceField, cached, corner_views, dof_partition
from .mesh import _SIDE_LINES, _TRIANGLE_CORNERS, _checked_values, _evaluate_callable, trace_restrict

# the grid steps from a vertex to the vertices it shares a triangle with,
# itself included, in increasing vertex index
_COUPLING_STEPS = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))

# per corner k, the types of the two triangles having a vertex as corner k,
# lower triangle index first: the type-t one lies (dj, di) =
# _TRIANGLE_CORNERS[t][k] cells back, so its index is t - 2 (dj n + di) past
# one offset for both types, in the same order for every n
_INDEX_ORDER = ((0, 1), (1, 0), (0, 1))


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


def _couplings(mesh: Mesh, rows, bands) -> sp.csr_matrix:
    """The CSR matrix coupling vertex rows[r] to the vertex ``_COUPLING_STEPS[k]`` away by bands[k, r].

    ``rows`` increase, and the other rows are empty.  An exact zero, such
    as a step off the grid, is not stored.  The index arrays are 32-bit, as
    scipy keeps them, unless the couplings outnumber them.
    """
    n, nvert = mesh.n, len(mesh.vertices)
    index = np.int32 if len(_COUPLING_STEPS) * nvert <= np.iinfo(np.int32).max else np.int64
    present = bands.T != 0
    offsets = np.array([dj * (n + 1) + di for dj, di in _COUPLING_STEPS], dtype=index)
    # each row's steps increase its column, so the arrays are canonical
    columns = (rows.astype(index)[:, None] + offsets)[present]
    indptr = np.zeros(nvert + 1, dtype=index)
    indptr[rows + 1] = np.count_nonzero(present, axis=1)
    return sp.csr_matrix((bands.T[present], columns, np.cumsum(indptr, out=indptr)), shape=(nvert, nvert))


def _sum_blocks(mesh: Mesh, entry) -> sp.csr_matrix:
    """The sum of the triangles' (3, 3) blocks; entry(a, b, t) is entry (a, b) of the type-t ones, (n, n).

    Each entry is added through ``corner_views`` into the band of its
    coupling step, so every coupling sums its terms in the order of
    ``np.bincount`` over the blocks' entries: by a, then by b, and the lower
    triangle index first.
    """
    n = mesh.n
    bands = np.zeros((len(_COUPLING_STEPS), n + 1, n + 1))
    views = [corner_views(band) for band in bands]
    for a in range(3):
        for b in range(3):
            for t in _INDEX_ORDER[a]:
                (ja, ia), (jb, ib) = _TRIANGLE_CORNERS[t][a], _TRIANGLE_CORNERS[t][b]
                views[_COUPLING_STEPS.index((jb - ja, ib - ia))][t][a] += entry(a, b, t)
    return _couplings(mesh, np.arange((n + 1) ** 2), bands.reshape(len(_COUPLING_STEPS), -1))


@cached
def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Gradient-gradient matrix of the piecewise-linear space, with no stored zero.

    The couplings across the diagonal edges cancel to exactly 0.0, 2 n^2 of
    them; dropping them leaves every product with the matrix unchanged.
    """
    b, c, area = _triangle_geometry(mesh)
    quad = 4.0 * area.reshape(mesh.n, mesh.n, 2)
    # one triangle type at a time, so the row line broadcasts along whole
    # grid rows, not along pairs of types
    return _sum_blocks(
        mesh, lambda i, j, t: (b[i, ..., t] * b[j, ..., t] + c[i, ..., t] * c[j, ..., t]) / quad[..., t]
    )


@cached
def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Domain mass matrix of the piecewise-linear space."""
    area = _areas(mesh).reshape(mesh.n, mesh.n, 2)
    return _sum_blocks(mesh, lambda i, j, t: (1.0 + (i == j)) / 12.0 * area[..., t])


@cached
def assemble_boundary_mass(mesh: Mesh, tag: BoundaryTag) -> sp.csr_matrix:
    """Mass matrix of the tagged boundary portion, in full vertex dimension, from the side lines.

    Rows and columns away from vertices of tagged edges are zero.  Each
    tagged side adds its edges' masses l/6 [[2, 1], [1, 2]] along its line
    of the vertex grid into the bands of its vertices' rows alone, so the
    CSR arrays come in O(n).  A vertex sums at most two edges' entries,
    alike in either order.
    """
    n, tag, step = mesh.n, BoundaryTag(tag), _COUPLING_STEPS.index
    part = dof_partition(mesh)
    rows = part.gamma1_dofs if tag == BoundaryTag.GAMMA1 else part.gamma2_trace_dofs
    length = np.diff(mesh.vertices[: n + 1, 0])
    bands = np.zeros((len(_COUPLING_STEPS), len(rows)))
    grid = np.arange(len(mesh.vertices)).reshape(n + 1, n + 1)
    for side in SIDES:
        if (side in mesh.gamma1_sides) == (tag == BoundaryTag.GAMMA1):
            back, ahead = ((0, -1), (0, 1)) if side in ("bottom", "top") else ((-1, 0), (1, 0))
            line = np.searchsorted(rows, grid[_SIDE_LINES[side]])
            bands[step((0, 0)), line[:-1]] += length * (2.0 / 6.0)
            bands[step((0, 0)), line[1:]] += length * (2.0 / 6.0)
            bands[step(ahead), line[:-1]] = bands[step(back), line[1:]] = length * (1.0 / 6.0)
    return _couplings(mesh, rows, bands)


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
    # pass the lower triangle index first.
    for k, m in zip((0, 1, 1, 2, 2, 0), (0, 0, 1, 1, 2, 2)):
        for t in _INDEX_ORDER[k]:
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
