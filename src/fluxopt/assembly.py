"""Finite element matrices, load vectors and norms for piecewise-linear spaces.

Stiffness, interior mass and boundary mass matrices are assembled exactly.
Data functions enter through a three-edge-midpoint quadrature rule per
triangle, which integrates quadratics exactly; the same rule backs the
tracking-term evaluation so cost, adjoint right side and load vectors stay
mutually consistent.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .mesh import BoundaryTag, Mesh, NodalField, TraceField, cached, dof_partition


def _triangle_geometry(mesh: Mesh):
    pts = mesh.vertices[mesh.triangles]
    x = pts[:, :, 0]
    y = pts[:, :, 1]
    # b_i, c_i are the gradient components of the barycentric basis scaled by 2*area
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    if np.any(area <= 0):
        raise ValueError("degenerate or inverted triangle: nonpositive area")
    return b, c, area


@cached
def _areas(mesh: Mesh) -> np.ndarray:
    return _triangle_geometry(mesh)[2]


def local_stiffness(coords) -> np.ndarray:
    """Element stiffness matrix for one triangle given as a (3, 2) array."""
    coords = np.asarray(coords, dtype=float)
    x = coords[:, 0]
    y = coords[:, 1]
    b = y[[1, 2, 0]] - y[[2, 0, 1]]
    c = x[[2, 0, 1]] - x[[1, 2, 0]]
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    if area <= 0:
        raise ValueError("degenerate or inverted triangle: nonpositive area")
    return (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)


def local_mass(coords) -> np.ndarray:
    """Element mass matrix for one triangle given as a (3, 2) array."""
    coords = np.asarray(coords, dtype=float)
    x = coords[:, 0]
    y = coords[:, 1]
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    if area <= 0:
        raise ValueError("degenerate or inverted triangle: nonpositive area")
    return area / 12.0 * (np.ones((3, 3)) + np.eye(3))


def local_edge_mass(length) -> np.ndarray:
    """Element mass matrix of one boundary edge of the given length."""
    if length <= 0:
        raise ValueError("edge length must be positive")
    return length / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])


def _scatter(cells, blocks, nvert) -> sp.csr_matrix:
    """Sum the k-by-k element blocks of (cells, k) vertex lists into a sparse matrix."""
    # 32-bit indices halve the coordinate-list temporaries, which the heap
    # otherwise keeps resident after assembly
    cells = cells.astype(np.int32 if nvert <= np.iinfo(np.int32).max else np.int64)
    k = cells.shape[1]
    rows = np.repeat(cells, k, axis=1).ravel()
    cols = np.tile(cells, (1, k)).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(nvert, nvert)).tocsr()


@cached
def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Gradient-gradient matrix of the piecewise-linear space."""
    b, c, area = _triangle_geometry(mesh)
    blocks = b[:, :, None] * b[:, None, :]
    blocks += c[:, :, None] * c[:, None, :]
    blocks /= (4.0 * area)[:, None, None]
    return _scatter(mesh.triangles, blocks, len(mesh.vertices))


@cached
def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Domain mass matrix of the piecewise-linear space."""
    area = _areas(mesh)
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    blocks = area[:, None, None] * base[None, :, :]
    return _scatter(mesh.triangles, blocks, len(mesh.vertices))


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
def _trace_mass(mesh: Mesh) -> sp.csr_matrix:
    """Flux-boundary mass matrix restricted to the trace index set."""
    g2 = dof_partition(mesh).gamma2_trace_dofs
    return assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)[g2][:, g2].tocsr()


@cached
def _midpoint_data(mesh: Mesh):
    """Coordinates of the three edge midpoints of every triangle."""
    pts = mesh.vertices[mesh.triangles]
    mids = 0.5 * (pts + pts[:, [1, 2, 0], :])
    return mids[:, :, 0], mids[:, :, 1]


def assemble_load(mesh: Mesh, f) -> np.ndarray:
    """Load vector of the callable f via the edge-midpoint rule (degree-2 exact)."""
    area = _areas(mesh)
    mx, my = _midpoint_data(mesh)
    vals = np.asarray(f(mx, my), dtype=float)
    if vals.shape == ():
        vals = np.full(mx.shape, float(vals))
    if not np.all(np.isfinite(vals)):
        raise ValueError("load integrand returned a non-finite value")
    w = vals * (area / 6.0)[:, None]
    # midpoint k feeds local vertices k and k+1; bincount sums each vertex's
    # contributions in the order of the array
    vertices = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].T.ravel()
    weights = w[:, [0, 0, 1, 1, 2, 2]].T.ravel()
    return np.bincount(vertices, weights=weights, minlength=len(mesh.vertices))


def l2_misfit_sq(u: NodalField, f) -> float:
    """Squared domain L2 distance between a nodal field and a callable.

    Uses the edge-midpoint rule per triangle, consistent with assemble_load,
    so it is exact whenever the integrand is piecewise quadratic.
    """
    mesh = u.mesh
    area = _areas(mesh)
    mx, my = _midpoint_data(mesh)
    fv = np.asarray(f(mx, my), dtype=float)
    if fv.shape == ():
        fv = np.full(mx.shape, float(fv))
    coeff = u.coefficients[mesh.triangles]
    umid = 0.5 * (coeff + coeff[:, [1, 2, 0]])
    return float(np.sum((area / 3.0)[:, None] * (umid - fv) ** 2))


def v_error_vs_exact(u: NodalField, f, grad_f) -> float:
    """Full first-order-norm distance between a nodal field and a smooth callable.

    grad_f(x, y) must return the pair of partial derivative arrays.  Both the
    value and the gradient mismatch are integrated with the edge-midpoint rule.
    """
    mesh = u.mesh
    b, c, area = _triangle_geometry(mesh)
    coeff = u.coefficients[mesh.triangles]
    ugx = np.sum(coeff * b, axis=1) / (2.0 * area)
    ugy = np.sum(coeff * c, axis=1) / (2.0 * area)
    mx, my = _midpoint_data(mesh)
    gfx, gfy = grad_f(mx, my)
    gfx = np.asarray(gfx, dtype=float)
    gfy = np.asarray(gfy, dtype=float)
    semi = np.sum((area / 3.0)[:, None] * ((ugx[:, None] - gfx) ** 2 + (ugy[:, None] - gfy) ** 2))
    return float(np.sqrt(l2_misfit_sq(u, f) + semi))


def trace_restrict(v: NodalField) -> TraceField:
    """Values of a nodal field at the flux-boundary trace vertices."""
    g2 = dof_partition(v.mesh).gamma2_trace_dofs
    return TraceField(v.mesh, v.coefficients[g2])


def trace_extend(q: TraceField) -> NodalField:
    """Extension by zero of a trace function to the full vertex set."""
    coeff = np.zeros(len(q.mesh.vertices))
    coeff[dof_partition(q.mesh).gamma2_trace_dofs] = q.coefficients
    return NodalField(q.mesh, coeff)


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
        bmat = _trace_mass(field.mesh)
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


def coo_text(matrix) -> str:
    """Coordinate-triplet text form of a sparse matrix, one "row col value" per line."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    lines = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        lines.append(f"{r} {c} {v:.17g}")
    return "\n".join(lines) + "\n"
