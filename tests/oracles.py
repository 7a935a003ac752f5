"""Reference implementations the tests compare the package against.

The element matrices are the loop-free textbook formulas for one triangle or
edge; the package assembles every element at once.  element_blocks applies
them to every triangle's gathered corner coordinates, and scatter_triangles
sums the blocks through a coordinate list converted to CSR, which sorts its
indices, where the package reads the corners from slices of the vertex grid
and sums into a CSR pattern built from the grid.  dof_partition_by_edges
takes the vertex partition from the tagged boundary edges by sorted set
operations, where the package reads it off the side lines of the grid.
bincount_load sums the load vector by np.bincount over the gathered corners
of every triangle, where the package adds it into the vertex grid by
slices, and v_error_by_gather takes each triangle's gradient from its
gathered corners, where the package broadcasts grid lines.
grid_modes_by_free_vertices finds the free grid rows and columns by
sorting the free vertices, where the package reads them off the clamped
sides.
evaluate_nodal evaluates a piecewise-linear field at arbitrary points of
the unit square, and interpolate_nodal takes a callable's vertex values; the
package itself never needs either.  column reads one column of a report's rows.
kronecker_sum builds a clamped block K_ff from 1-D matrices, where the
package assembles it from triangles.  schur_complement eliminates the free
block densely, and schur_complement_by_modes sums over all grid modes at
every point pair, where the package sums one pair of grid lines at a time.
robin_solve_by_elimination solves K + alpha B1 with two whole K_ff solves,
where the package makes one forward and one back modal transform.
roundoff_floor bounds the rounding of a solve's residual componentwise,
where the package holds every residual to its acceptance limit alone.
prolongate_trace_inline extends a trace by zero with its own index writes,
and restrict_trace_by_index finds each coarse flux vertex in the fine trace
set by index arithmetic and a sorted search; the package routes both
transfers through its trace maps and the vertex grid.  dense_constants takes
the discrete stability constants from dense eigendecompositions of their
pencils, where the package runs its own Lanczos with checked solves, and
arpack_largest takes one pencil's largest eigenvalue from ARPACK's Lanczos
(``eigsh``), which the package ran before.  pencil_1d_dense diagonalizes a
1-D pencil and schur_pencil_dense the Schur pencil by ``scipy.linalg.eigh``,
where the package writes the first in closed form and reduces the second
by a Cholesky factor to ``numpy.linalg.eigh``.
sin_product, trig_product, mms_solution and mms_load write out each
separable data field and its gradient, where the package builds all four
from one product of sines or cosines.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fluxopt import linsolve
from fluxopt.assembly import assemble_boundary_mass, assemble_mass, assemble_stiffness
from fluxopt.linsolve import _grid_modes, clamped_operator, schur_pencil, solve_spd
from fluxopt.mesh import (
    BoundaryTag,
    DofPartition,
    NodalField,
    TraceField,
    _evaluate_callable,
    dof_partition,
    prolongate,
)


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


def element_blocks(mesh) -> tuple:
    """Stiffness and mass blocks, each (T, 3, 3), of every triangle from its (3, 2) corners."""
    pts = mesh.vertices[mesh.triangles]
    x = pts[:, :, 0]
    y = pts[:, :, 1]
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    stiff = b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    stiff /= (4.0 * area)[:, None, None]
    mass = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)
    return stiff, mass


def scatter_triangles(mesh, blocks) -> sp.csr_matrix:
    """Sum (T, 3, 3) triangle blocks by a coordinate list converted to CSR."""
    cells = mesh.triangles.astype(np.int32)
    rows = np.repeat(cells, 3, axis=1).ravel()
    cols = np.tile(cells, (1, 3)).ravel()
    nvert = len(mesh.vertices)
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(nvert, nvert)).tocsr()


def bincount_load(mesh, f) -> np.ndarray:
    """Edge-midpoint load vector of f, summed by np.bincount over the gathered triangle corners."""
    pts = mesh.vertices[mesh.triangles]
    x = pts[:, :, 0]
    y = pts[:, :, 1]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    # midpoint k ends at corners k and k + 1, and feeds both
    mx, my = ((v + v[:, [1, 2, 0]]) * 0.5 for v in (x, y))
    w = _evaluate_callable(f, mx, my, "quadrature point") * (area / 6.0)[:, None]
    vertices = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].T.ravel()
    weights = w[:, [0, 0, 1, 1, 2, 2]].T.ravel()
    return np.bincount(vertices, weights=weights, minlength=len(mesh.vertices))


def v_error_by_gather(u, f, grad_f) -> float:
    """First-order-norm distance of u from f, with each triangle's gradient from its gathered corners."""
    mesh = u.mesh
    pts = mesh.vertices[mesh.triangles]
    x = pts[:, :, 0]
    y = pts[:, :, 1]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    coeff = u.coefficients[mesh.triangles]
    ugx = np.sum(coeff * b, axis=1) / (2.0 * area)
    ugy = np.sum(coeff * c, axis=1) / (2.0 * area)
    mx, my = ((v + v[:, [1, 2, 0]]) * 0.5 for v in (x, y))
    gfx, gfy = grad_f(mx, my)
    umid = 0.5 * (coeff + coeff[:, [1, 2, 0]])
    misfit = np.sum((area / 3.0)[:, None] * (umid - f(mx, my)) ** 2)
    semi = np.sum((area / 3.0)[:, None] * ((ugx[:, None] - gfx) ** 2 + (ugy[:, None] - gfy) ** 2))
    return float(np.sqrt(misfit + semi))


def dof_partition_by_edges(mesh) -> DofPartition:
    """The vertex partition from the vertices of the tagged boundary edges."""
    g1 = np.unique(mesh.boundary_edges[mesh.boundary_tags == BoundaryTag.GAMMA1])
    g2 = np.unique(mesh.boundary_edges[mesh.boundary_tags == BoundaryTag.GAMMA2])
    free = np.setdiff1d(np.arange(len(mesh.vertices)), g1)
    return DofPartition(gamma1_dofs=g1, free_dofs=free, gamma2_trace_dofs=g2)


def evaluate_nodal(field: NodalField, x, y) -> np.ndarray:
    """Evaluate a piecewise-linear field at points of the unit square."""
    mesh = field.mesh
    n = mesh.n
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx = x * n
    fy = y * n
    i = np.clip(np.floor(fx), 0, n - 1).astype(np.int64)
    j = np.clip(np.floor(fy), 0, n - 1).astype(np.int64)
    lx = fx - i
    ly = fy - j
    grid = field.coefficients.reshape(n + 1, n + 1)
    c00 = grid[j, i]
    c10 = grid[j, i + 1]
    c01 = grid[j + 1, i]
    c11 = grid[j + 1, i + 1]
    lower = lx >= ly
    vals = np.where(
        lower,
        c00 * (1.0 - lx) + c10 * (lx - ly) + c11 * ly,
        c00 * (1.0 - ly) + c01 * (ly - lx) + c11 * lx,
    )
    return vals


def interpolate_nodal(f, mesh) -> NodalField:
    """Vertex interpolant of the callable f(x, y) (accepts coordinate arrays)."""
    vals = _evaluate_callable(f, mesh.vertices[:, 0], mesh.vertices[:, 1], "vertex")
    return NodalField(mesh, vals)


def column(report, name: str) -> np.ndarray:
    """One column of a ConvergenceReport's rows as a float array."""
    if name not in report.columns:
        raise ValueError(f"no column {name!r}; columns: {report.columns}")
    return np.asarray([row[name] for row in report.rows], dtype=float)


def kronecker_sum(n, sides):
    """Free grid indices Ix, Iy and Ky (x) Dx + Dy (x) Kx on them, for the clamped sides.

    K1 = tridiag(-1, 2, -1) with 1 in both corners and D1 = diag(1/2, 1, ...,
    1, 1/2), both of size n + 1, restricted to Ix (x-matrices) and Iy
    (y-matrices); a clamped side drops its end of the x or y range.  The
    matrix is in row-major grid order, y slow and x fast.
    """
    ends = {"left": (0, 0), "right": (0, n), "bottom": (1, 0), "top": (1, n)}
    keep = np.ones((2, n + 1), dtype=bool)
    for side in sides:
        keep[ends[side]] = False
    ix, iy = np.flatnonzero(keep[0]), np.flatnonzero(keep[1])
    d1 = np.ones(n + 1)
    d1[[0, n]] = 0.5
    k1 = 2.0 * np.diag(d1) - np.eye(n + 1, k=1) - np.eye(n + 1, k=-1)
    kx, ky = k1[np.ix_(ix, ix)], k1[np.ix_(iy, iy)]
    dx, dy = np.diag(d1[ix]), np.diag(d1[iy])
    return ix, iy, sp.csr_matrix(sp.kron(ky, dx) + sp.kron(dy, kx))


def schur_complement(mesh) -> np.ndarray:
    """S0 = K_cc - K_cf solve(K_ff, K_fc) by dense elimination of the free vertices."""
    part = dof_partition(mesh)
    stiff = assemble_stiffness(mesh).toarray()
    free, clamped = part.free_dofs, part.gamma1_dofs
    k_fc = stiff[np.ix_(free, clamped)]
    return stiff[np.ix_(clamped, clamped)] - k_fc.T @ np.linalg.solve(stiff[np.ix_(free, free)], k_fc)


def schur_complement_by_modes(mesh) -> np.ndarray:
    """S0 = K_cc - K_Sc' Z K_Sc, symmetrized, with Z = K_ff^-1 on S summed over all grid modes.

    S is the set of free vertices that K_fc couples, and
    Z[s, t] = sum over a, b of Vy[j_s, a] Vy[j_t, a] Vx[i_s, b] Vx[i_t, b]
    / (lambda_y_a + lambda_x_b) is formed as B B' from the |S| x N_free
    Khatri-Rao array B, for |S|^2 N_free multiply-adds.
    """
    ly, vy, lx, vx, _ = _grid_modes(mesh)
    k_fc = coupling_block(mesh)
    support = np.unique(k_fc.indices)
    rows, cols = np.divmod(support, len(lx))
    scale = 1.0 / np.sqrt(ly[:, None] + lx)
    modes = (vy[rows, :, None] * vx[cols, None, :] * scale).reshape(len(support), scale.size)
    k_sc = k_fc[support].toarray()
    z = modes @ modes.T
    clamped = dof_partition(mesh).gamma1_dofs
    schur0 = assemble_stiffness(mesh)[clamped][:, clamped].toarray() - k_sc.T @ z @ k_sc
    return 0.5 * (schur0 + schur0.T)


def coupling_block(mesh) -> sp.csc_matrix:
    """K_fc, the stiffness between the free (rows) and the clamped vertices (columns)."""
    part = dof_partition(mesh)
    return assemble_stiffness(mesh)[part.free_dofs][:, part.gamma1_dofs].tocsc()


def robin_solve_by_elimination(mesh, alpha, rhs) -> np.ndarray:
    """(K + alpha B1)^-1 rhs by block elimination, with two whole K_ff solves.

    y = K_ff^-1 r_f, then x_c = (S0 + alpha B1_cc)^-1 (r_c - K_cf y) through
    the Schur pencil, then x_f = y - K_ff^-1 K_fc x_c.  rhs is a vector or
    an (N, k) block; nothing is checked.
    """
    part, k_ff = dof_partition(mesh), clamped_operator(mesh)
    eigenvalues, v = schur_pencil(mesh)
    k_fc = coupling_block(mesh)
    free, clamped = part.free_dofs, part.gamma1_dofs
    y = k_ff.solve(rhs[free])
    x = np.empty(rhs.shape)
    x[clamped] = (v / (eigenvalues + alpha)) @ (v.T @ (rhs[clamped] - k_fc.T @ y))
    x[free] = y - k_ff.solve(k_fc @ x[clamped])
    return x


def roundoff_floor(mesh, alpha, rhs, x) -> np.ndarray:
    """8 eps | |A| |x| + |b| | / |b| per column: the componentwise roundoff floor of b - A x.

    Forming the residual perturbs each entry by up to about eps (|A| |x| + |b|)
    (Oettli & Prager, Numer. Math. 6, 1964), so no solve can be held below
    this floor.  For alpha None, A is the clamped operator K_ff and rhs and x
    live on the free vertices; otherwise A is the Robin operator, whose
    residual is formed as K x + alpha (B1 x), so |A| |x| is
    |K| |x| + alpha B1 |x| (B1 has no negative entry).  |K| takes |data| on
    K's own index arrays: abs(csr) would sort the indices in place, which
    reorders the sums of every later product with the cached matrix.
    """
    if alpha is None:
        magnitude = _abs_product(clamped_operator(mesh).matrix, np.abs(x))
    else:
        magnitude = _abs_product(assemble_stiffness(mesh), np.abs(x))
        magnitude += abs(alpha) * (assemble_boundary_mass(mesh, BoundaryTag.GAMMA1) @ np.abs(x))
    bnorm = np.linalg.norm(rhs, axis=0)
    bnorm = np.where(bnorm > 0.0, bnorm, 1.0)
    return 8.0 * np.finfo(float).eps * np.linalg.norm(magnitude + np.abs(rhs), axis=0) / bnorm


def _abs_product(matrix, x) -> np.ndarray:
    """|A| x for a CSR matrix A, from |data| on A's own index arrays."""
    return sp.csr_matrix((np.abs(matrix.data), matrix.indices, matrix.indptr), shape=matrix.shape) @ x


def prolongate_trace_inline(coarse, coarse_mesh, fine_mesh) -> TraceField:
    """Exact fine representation of a trace: extend by zero, prolongate, restrict."""
    if coarse.mesh is not coarse_mesh:
        raise ValueError("field does not live on the given coarse mesh")
    extended = np.zeros(len(coarse_mesh.vertices))
    extended[dof_partition(coarse_mesh).gamma2_trace_dofs] = coarse.coefficients
    fine = prolongate(NodalField(coarse_mesh, extended), coarse_mesh, fine_mesh)
    return TraceField(fine_mesh, fine.coefficients[dof_partition(fine_mesh).gamma2_trace_dofs])


def restrict_trace_by_index(fine, fine_mesh, coarse_mesh) -> TraceField:
    """Pointwise restriction of a fine trace, each coarse vertex looked up by index."""
    if fine.mesh is not fine_mesh:
        raise ValueError("field does not live on the given fine mesh")
    r = fine_mesh.n // coarse_mesh.n
    g2c = dof_partition(coarse_mesh).gamma2_trace_dofs
    ic = g2c % (coarse_mesh.n + 1)
    jc = g2c // (coarse_mesh.n + 1)
    fine_dofs = (r * jc) * (fine_mesh.n + 1) + r * ic
    g2f = dof_partition(fine_mesh).gamma2_trace_dofs
    pos = np.searchsorted(g2f, fine_dofs)
    if not np.array_equal(g2f[pos], fine_dofs):
        raise ValueError("coarse trace vertices missing from the fine trace set")
    return TraceField(coarse_mesh, fine.coefficients[pos])


def dense_constants(mesh) -> tuple:
    """(lambda_h, lambda1_h, gamma0_norm_h) from ``scipy.linalg.eigh`` of the dense pencils.

    With V = K + M: the smallest eigenvalues of (K_ff, V_ff) and (K + B1, V),
    and the square root of the largest of (B2, V).
    """
    stiff = assemble_stiffness(mesh).toarray()
    gram = stiff + assemble_mass(mesh).toarray()
    b1 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1).toarray()
    b2 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA2).toarray()
    free_dofs = dof_partition(mesh).free_dofs
    free = np.ix_(free_dofs, free_dofs)
    lambda_h = scipy.linalg.eigh(stiff[free], gram[free], eigvals_only=True)[0]
    lambda1_h = scipy.linalg.eigh(stiff + b1, gram, eigvals_only=True)[0]
    gamma_sq = scipy.linalg.eigh(b2, gram, eigvals_only=True)[-1]
    return float(lambda_h), float(lambda1_h), float(np.sqrt(gamma_sq))


def arpack_largest(num, den, start):
    """(mu, den solves) of ARPACK's Lanczos for the largest eigenvalue of (num, den).

    From start, with 8 Lanczos vectors, solving with den by ``solve_spd``.
    """
    size, solves = len(start), [0]

    def den_solve(x):
        solves[0] += 1
        return solve_spd(den, x)

    den_op = spla.LinearOperator((size, size), matvec=lambda x: den @ x, dtype=float)
    den_inv = spla.LinearOperator((size, size), matvec=den_solve, dtype=float)
    (mu,), _ = spla.eigsh(
        num, k=1, M=den_op, Minv=den_inv, which="LA", v0=start, ncv=min(8, size)
    )
    return float(mu), solves[0]


def grid_modes_by_free_vertices(mesh):
    """The 1-D pencils of K_ff and their weights, on the rows and columns the free vertices occupy."""
    n, free = mesh.n, dof_partition(mesh).free_dofs
    rows, cols = np.unique(free // (n + 1)), np.unique(free % (n + 1))
    modes = linsolve._pencil_1d(n, rows) + linsolve._pencil_1d(n, cols)
    return modes + (1.0 / (modes[0][:, None] + modes[2]),)


def pencil_1d_dense(n, index):
    """(lambda, V) of (K1, D1) on n + 1 points restricted to index, by dense ``eigh``."""
    d1 = np.ones(n + 1)
    d1[[0, n]] = 0.5
    k1 = 2.0 * np.diag(d1) - np.eye(n + 1, k=1) - np.eye(n + 1, k=-1)
    return scipy.linalg.eigh(k1[np.ix_(index, index)], np.diag(d1[index]))


def schur_pencil_dense(mesh):
    """(lambda, V) of the pencil (S0, B1_cc) by dense ``eigh``, with S0 from the package."""
    clamped = dof_partition(mesh).gamma1_dofs
    b1 = assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)[clamped][:, clamped].toarray()
    return scipy.linalg.eigh(linsolve.schur_complement(mesh), b1)


def sin_product(scale=1.0, kx=1, ky=1):
    """scale sin(kx pi x) sin(ky pi y) and its gradient, written out."""
    s, wx, wy = float(scale), float(kx) * np.pi, float(ky) * np.pi
    return (
        lambda x, y: s * np.sin(wx * x) * np.sin(wy * y),
        lambda x, y: (
            s * wx * np.cos(wx * x) * np.sin(wy * y),
            s * wy * np.sin(wx * x) * np.cos(wy * y),
        ),
    )


def trig_product(scale=1.0, kx=1, ky=1):
    """scale cos(kx pi x) cos(ky pi y) and its gradient, written out."""
    s, wx, wy = float(scale), float(kx) * np.pi, float(ky) * np.pi
    return (
        lambda x, y: s * np.cos(wx * x) * np.cos(wy * y),
        lambda x, y: (
            -s * wx * np.sin(wx * x) * np.cos(wy * y),
            -s * wy * np.cos(wx * x) * np.sin(wy * y),
        ),
    )


def mms_solution(offset=0.0):
    """offset + sin(pi x) sin(pi y) and its gradient."""
    base, grad = sin_product(1.0)
    off = float(offset)
    return lambda x, y: off + base(x, y), grad


def mms_load():
    """2 pi^2 sin(pi x) sin(pi y), minus the Laplacian of mms_solution, and its gradient."""
    w = np.pi
    return (
        lambda x, y: 2.0 * w * w * np.sin(w * x) * np.sin(w * y),
        lambda x, y: (
            2.0 * w * w * w * np.cos(w * x) * np.sin(w * y),
            2.0 * w * w * w * np.sin(w * x) * np.cos(w * y),
        ),
    )
