"""Linear solves with checked residuals, and discrete stability constants.

Every system the package solves is symmetric positive definite, and
``solve_spd`` holds every solution to one acceptance limit, a relative
residual of 1e-10: a column above it takes one step of iterative
refinement, and one still above it after the step raises ConvergenceError
(``refinement``).

``solve_family`` alone picks a family's operator: K + alpha B1 on every
vertex, or for alpha None the clamped block K_ff on the free vertices, kept
once per mesh (``clamped_operator``) and solved exactly with no sparse
factorization: on the unit-square grid with whole clamped sides, K_ff is a
Kronecker sum of 1-D matrices on a tensor grid of free vertices
(``fast_diagonalization``), whose 1-D eigenpairs are sines and cosines in
closed form (``_pencil_1d``).  P1 stiffness on a mesh of right triangles is
a symmetric Z-matrix, so the assembled K_ff is certified positive definite
by one solve, K_ff^-1 1 >= 0 (an M-matrix test).

The Robin matrix K + alpha B1 differs from the clamped one only on the
clamped vertices, so a Robin solve at any alpha eliminates the free block
and solves the small dense system (S0 + alpha B1_cc) on the clamped
vertices, where S0 = K_cc - K_cf K_ff^-1 K_fc is the Schur complement of
the free block.  K_fc couples the clamped vertices only to the free
vertices on at most three grid lines next to them, so a Robin solve takes
the same one forward and one back modal transform as a K_ff solve, and
works between them on those lines only (``RobinOperator``).  S0 is built
once per mesh, on the first Robin solve only, from the same 1-D
eigenpairs: K_ff^-1 between the lines is summed one pair of lines at a
time, in O(n^3) per pair (``schur_complement``).  One eigendecomposition
of the pencil (S0, B1_cc), by numpy, solves that system at every alpha.
As alpha grows, clamped values are pinned ever harder: the clamped family
is the limit.

So neither family makes a sparse factorization, and neither loads
``scipy.linalg`` or ``scipy.sparse.linalg``.  The one sparse factor,
SuperLU's (``factorize``), serves the oracle's normal system and
``estimate_constants``, whose pencils' largest eigenvalues come from this
module's own Lanczos (``_pencil_largest``); ``factorize`` alone imports
``scipy.sparse.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import assembly
from .mesh import BoundaryTag, Mesh, cached, dof_partition

# right-hand side columns per call into a solve: wider blocks hold more
# memory, and a refinement step solves the whole block when one column needs it
_BLOCK_COLUMNS = 8

# relative residual up to which a solution is accepted
_LIMIT = 1e-10

# Lanczos steps, each one solve, before a pencil eigenvalue run gives up
_LANCZOS_STEPS = 100
# a Ritz value is accepted once its residual is at most this relative to it
_RITZ_TOL = 1e-14


class ConvergenceError(RuntimeError):
    """A solve or an iteration failed; ``residual`` and ``ratios`` carry its diagnostics."""

    def __init__(self, message, *, residual=None, ratios=None):
        super().__init__(message)
        self.residual = residual
        self.ratios = ratios


def factorize(matrix):
    """Factor a symmetric matrix in a fill-reducing order; returns a solve callable.

    The pivots of a symmetric factorization without row exchanges are all
    positive exactly when the matrix is positive definite, and they are
    checked: ConvergenceError otherwise.  Reading them makes SuperLU keep
    sparse copies of both triangles, so the factor serves the solves of one
    call and is not kept.  Neither family's operators make one
    (``fast_diagonalization``, ``schur_complement``).
    """
    # SuperLU is the one user of scipy.sparse.linalg, and its import loads scipy.linalg too
    import scipy.sparse.linalg as spla

    csc = sp.csc_matrix(matrix)
    if np.any(csc.diagonal() <= 0):
        raise ConvergenceError("matrix has a nonpositive diagonal entry: not positive definite")
    try:
        lu = spla.splu(
            csc,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise ConvergenceError(f"factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise ConvergenceError("factorization exchanged rows: pivot signs are not conclusive")
    pivots = lu.U.diagonal()
    if not np.all(pivots > 0):
        raise ConvergenceError(
            f"matrix is not positive definite: factor pivot {pivots.min():.3e}"
        )
    return lu.solve


class FactoredMatrix:
    """A symmetric positive definite matrix, kept sparse, and an exact solve with it.

    The solve is a sparse factor's (``certified``) or, for a mesh's K_ff,
    a fast diagonalization's (``certified_stieltjes``).  A shape, a product
    and a solve are all ``refinement`` needs to hold each solution to the
    acceptance limit 1e-10.
    """

    def __init__(self, matrix, solve):
        self.matrix = sp.csr_matrix(matrix)
        self.shape = self.matrix.shape
        self.solve = solve

    def __matmul__(self, x):
        return self.matrix @ x


def certified(matrix) -> FactoredMatrix:
    """The matrix with its one sparse factor, whose pivots prove it definite (``factorize``).

    For any symmetric matrix, dense or sparse, solved while one call runs.
    """
    return FactoredMatrix(matrix, factorize(matrix))


def certified_stieltjes(matrix, solve) -> FactoredMatrix:
    """The matrix with the given solve, once its M-matrix structure proves it definite.

    A Z-matrix A (every off-diagonal entry <= 0) is a nonsingular M-matrix
    as soon as some x >= 0 has A x > 0, and a symmetric one is positive
    definite (Berman & Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, ch. 6).  P1 stiffness on a non-obtuse triangulation is a
    symmetric Z-matrix (Ciarlet & Raviart, 1973).  The witness is
    x = A^-1 1, solved with the given solve by ``solve_spd``, which checks
    its residual against A.  ConvergenceError unless A is exactly
    symmetric, a Z-matrix and x passes; so the certificate rests on the
    assembled matrix, whatever the solve.
    """
    csr = sp.csr_matrix(matrix)
    if (csr != csr.T).nnz:
        raise ConvergenceError("matrix is not exactly symmetric: no M-matrix certificate")
    coo = csr.tocoo()
    if np.any(coo.data[coo.row != coo.col] > 0):
        raise ConvergenceError("matrix has a positive off-diagonal entry: not a Z-matrix")
    op = FactoredMatrix(csr, solve)
    x = solve_spd(op, np.ones(csr.shape[0]))
    if not (np.all(x >= 0) and np.all(op @ x > 0)):
        raise ConvergenceError(
            "Z-matrix is not an M-matrix, so not positive definite: "
            f"A^-1 1 has minimum {x.min():.3e}"
        )
    return op


def fast_diagonalization(mesh: Mesh):
    """The exact solve with the mesh's K_ff, by fast diagonalization; returns a solve callable.

    P1 stiffness on the grid is K = K1 (x) D1 + D1 (x) K1 in vertex order
    j (n+1) + i, with K1 = tridiag(-1, 2, -1) (1 in both corners) and
    D1 = diag(1/2, 1, ..., 1, 1/2).  The free vertices, in increasing vertex
    order, are a row-major tensor grid Iy x Ix (``dof_partition``), so
    K_ff = Ky (x) Dx + Dy (x) Kx with the 1-D matrices restricted to Ix and
    Iy.  Each 1-D pencil is diagonalized once, V' K V = diag(lambda) and
    V' D V = I, and a right-hand side R on the grid solves to
    X = Vy [W (.) (Vy' R Vx)] Vx', W = 1 / (lambda_y_a + lambda_x_b)
    (Lynch, Rice & Thomas, Numer. Math. 6, 1964; Buzbee, Golub & Nielson,
    SIAM J. Numer. Anal. 7, 1970): one forward and one back modal transform
    (``_to_modes``, ``_from_modes``).  A clamped side drops an end of one
    index range, which makes that pencil definite, so every W is finite.
    The solve takes a vector or an (N, k) block of columns.
    """
    _, vy, _, vx, weights = _grid_modes(mesh)

    def solve(rhs):
        r = rhs.T.reshape(rhs.shape[1:] + weights.shape)
        x = _from_modes(vy, vx, _to_modes(vy, vx, weights, r))
        return x.reshape(rhs.shape[::-1]).T

    return solve


def _to_modes(vy, vx, weights, grid):
    """W (.) (Vy' R Vx): the modal coefficients of K_ff^-1 R, for R of shape (..., ny, nx)."""
    return weights * (vy.T @ grid @ vx)


def _from_modes(vy, vx, coefficients):
    """Vy C Vx': the grid values of modal coefficients C (``_to_modes``)."""
    return vy @ coefficients @ vx.T


@cached
def _grid_modes(mesh: Mesh):
    """(lambda_y, V_y, lambda_x, V_x, W), the 1-D pencils of the mesh's K_ff, read-only.

    Each pencil is in closed form (``_pencil_1d``), on the free grid's
    rows and columns, read off the clamped sides as ``_clamped_coupling``
    does.  W = 1 / (lambda_y_a + lambda_x_b) is indexed [a, b].  Free
    vertex number p sits at row p // len(lambda_x) and column
    p % len(lambda_x) of the free grid (``fast_diagonalization``).  The
    K_ff and Robin solves read them whole, and the Schur complement on the
    grid lines next to the clamped sides, one pair of lines at a time
    (``schur_complement``).
    """
    n, sides = mesh.n, mesh.gamma1_sides
    rows = np.arange(int("bottom" in sides), n + 1 - int("top" in sides))
    cols = np.arange(int("left" in sides), n + 1 - int("right" in sides))
    if len(rows) * len(cols) == 0:
        rows = cols = rows[:0]  # no free vertex: bottom and top clamped at n = 1
    modes = _pencil_1d(n, rows) + _pencil_1d(n, cols)
    modes += (1.0 / (modes[0][:, None] + modes[2]),)
    for array in modes:
        array.setflags(write=False)
    return modes


def _pencil_1d(n, index):
    """(lambda, V) of the 1-D pencil (K1, D1) on n + 1 points, restricted to index, in closed form.

    index runs from 0 or 1 to n - 1 or n: an end it keeps is a half-weight
    Neumann end, and one it drops a Dirichlet end.  The eigenvectors are
    v_j = cos(j theta) from a kept point 0, or sin(j theta) from a dropped
    one, with lambda = 2 - 2 cos(theta) = 4 sin^2(theta / 2) from the
    interior rows.  The far end picks theta = k pi / n for like ends (the
    DCT-I, k = 0, ..., n, and the DST-I, k = 1, ..., n - 1) and
    (k + 1/2) pi / n, k = 0, ..., n - 1, for mixed ones (Strang, SIAM
    Rev. 41, 1999), so lambda ascends.  With theta = m pi / (2n), the angle
    j theta is reduced in integers, j m mod 4n, before the sine or cosine:
    taken directly, it costs V its D1-orthogonality at large n.  Each
    column is scaled to unit D1-norm.
    """
    index = np.asarray(index)
    if len(index) == 0:
        return np.zeros(0), np.zeros((0, 0))
    if index[0] > 1 or index[-1] < n - 1 or np.any(np.diff(index) != 1):
        raise ValueError("1-D modes need the points 0 or 1 to n - 1 or n, in order")
    neumann = index[0] == 0
    k = np.arange(len(index))
    m = 2 * k + 2 * (not neumann) if neumann == (index[-1] == n) else 2 * k + 1
    angles = (np.outer(index, m) % (4 * n)) * (np.pi / (2 * n))
    v = np.cos(angles) if neumann else np.sin(angles)
    d1 = np.where((index == 0) | (index == n), 0.5, 1.0)
    v /= np.sqrt(d1 @ v**2)
    return 4.0 * np.sin(m * (np.pi / (4 * n))) ** 2, v


class RobinOperator:
    """K + alpha B1 on one mesh, solved with one forward and one back modal transform.

    Built afresh on every call: nothing per alpha is kept.  The sum is
    never formed: products apply K and B1 separately, and solves eliminate
    the free block around the mesh's pencil (``schur_pencil``).  B1 lives
    on the clamped vertices only, so by Haynsworth's inertia additivity
    K + alpha B1 is positive definite exactly when K_ff is (its M-matrix
    certificate, ``clamped_operator``, built first) and S0 + alpha B1_cc
    is, that is, when every lambda + alpha is positive.  Of alpha it keeps
    d = 1 / (lambda + alpha), and ConvergenceError is raised unless d > 0.
    Every solve through ``solve_spd`` is checked against the assembled K
    and B1 of the mesh's store, its residual formed as K x + alpha (B1 x)
    and held to the acceptance limit 1e-10 (``refinement``).  No reference
    to the mesh is kept.

    A solve of [K_ff K_fc; K_cf K_cc + alpha B1_cc] x = r needs
    y = K_ff^-1 r_f only on the free vertices S next to the clamped sides,
    which lie on at most three grid lines (``_clamped_coupling``), and
    K_fc x_c is zero off them, so its modal image is one outer product per
    line (the capacitance-matrix method of Buzbee, Dorr, George & Golub,
    SIAM J. Numer. Anal. 8, 1971):
    - Y = W (.) (Vy' R_f Vx), the modes of y (``_to_modes``);
    - y on each line of S, read from Y in O(n^2) (``_line_values``);
    - x_c = V diag(d) V' (r_c - K_Sc' y_S);
    - Y minus W (.) the modes of K_Sc x_c, line by line (``_line_modes``);
    - x_f = Vy Y Vx', the one back transform (``_from_modes``).
    """

    def __init__(self, mesh: Mesh, alpha: float):
        self.alpha = float(alpha)
        clamped_operator(mesh)  # the certificate of K_ff comes first
        eigenvalues, self._v = schur_pencil(mesh)
        shifted = eigenvalues + self.alpha
        if not np.all(shifted > 0):
            raise ConvergenceError(
                f"Robin operator at alpha={self.alpha:g} is not positive definite: "
                f"smallest lambda + alpha is {shifted.min():.3e}"
            )
        self._d = 1.0 / shifted
        self._stiff = assembly.assemble_stiffness(mesh)
        self._b1 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
        self._clamped = dof_partition(mesh).gamma1_dofs
        _, self._vy, _, self._vx, self._weights = _grid_modes(mesh)
        self._window, self._lines, self._k_sc = _clamped_coupling(mesh)
        self._grid = (mesh.n + 1, mesh.n + 1)
        self.shape = self._stiff.shape

    def __matmul__(self, x):
        return self._stiff @ x + self.alpha * (self._b1 @ x)

    def solve(self, rhs):
        vy, vx, weights, k_sc = self._vy, self._vx, self._weights, self._k_sc
        clamped = self._clamped
        # one column per leading index, as values on the vertex grid, of which
        # the free grid is a window
        columns = rhs.T
        grid = columns.shape[:-1] + self._grid
        x = np.empty(columns.shape)
        modes = _to_modes(vy, vx, weights, columns.reshape(grid)[self._window])
        y_s = np.empty(columns.shape[:-1] + (len(k_sc),))
        for line in self._lines:
            y_s[..., line.span] = _line_values(line, modes)
        # (S0 + alpha B1_cc)^-1 = V diag(d) V' on the clamped vertices
        x_c = ((columns[..., clamped] - y_s @ k_sc) @ self._v * self._d) @ self._v.T
        x[..., clamped] = x_c
        source = x_c @ k_sc.T
        for line in self._lines:
            modes -= _line_modes(line, source[..., line.span])
        x.reshape(grid)[self._window] = _from_modes(vy, vx, modes)
        return x.T


def _line_values(line, modes):
    """Vy C Vx' on one line's points, for modal coefficients C (``_from_modes``)."""
    return (line.fixed @ modes if line.row else modes @ line.fixed) @ line.along.T


def _line_modes(line, values):
    """W (.) (Vy' G Vx) for G zero off one line and values on its points (``_to_modes``).

    Vy' G Vx is the outer product of the line's fixed modes and values @ along.
    """
    image = values @ line.along
    return line.weighted * (image[..., None, :] if line.row else image[..., None])


@cached
def clamped_operator(mesh: Mesh) -> FactoredMatrix:
    """The mesh's K_ff, solved by ``fast_diagonalization``, certified by ``certified_stieltjes``.

    Its solve holds the 1-D modes, not the mesh, so the store holds no cycle.
    """
    free = dof_partition(mesh).free_dofs
    stiff_f = assembly.assemble_stiffness(mesh)[free][:, free]
    return certified_stieltjes(stiff_f, fast_diagonalization(mesh))


def solve_family(mesh: Mesh, alpha, rhs) -> np.ndarray:
    """Solve the family's system for rhs on every vertex; the one place that picks its operator.

    rhs is an (N,) vector or an (N, k) block.  With a value of alpha it
    solves K + alpha B1 (``RobinOperator``) on every vertex; with alpha
    None, K_ff (``clamped_operator``) on the free vertices, and x is zero
    on the clamped ones.  ``solve_spd`` checks every column.
    """
    if alpha is not None:
        return solve_spd(RobinOperator(mesh, alpha), rhs)
    free = dof_partition(mesh).free_dofs
    x = np.zeros(rhs.shape)
    x[free] = solve_spd(clamped_operator(mesh), rhs[free])
    return x


@cached
def schur_pencil(mesh: Mesh):
    """(lambda, V) with V' S0 V = diag(lambda) and V' B1_cc V = I, read-only.

    Then (S0 + alpha B1_cc)^-1 = V diag(1 / (lambda + alpha)) V' (Golub &
    Van Loan, Matrix Computations, 4th ed., 8.7), with S0 from
    ``schur_complement``.  B1_cc, the mass of the clamped edges, is
    positive definite, so the pencil is definite and reduces to a standard
    one through B1_cc = L L': with L^-1 S0 L^-T = Y diag(lambda) Y' from
    ``numpy.linalg.eigh``, V = L^-T Y (Golub & Van Loan, 8.7.2).  B1_cc is
    a 1-D mass, so L is well conditioned and its explicit inverse costs
    no accuracy.
    """
    clamped = dof_partition(mesh).gamma1_dofs
    b1 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
    inverse = np.linalg.inv(np.linalg.cholesky(b1[clamped][:, clamped].toarray()))
    eigenvalues, y = np.linalg.eigh(inverse @ schur_complement(mesh) @ inverse.T)
    v = inverse.T @ y
    eigenvalues.setflags(write=False)
    v.setflags(write=False)
    return eigenvalues, v


def schur_complement(mesh: Mesh) -> np.ndarray:
    """S0 = K_cc - K_cf K_ff^-1 K_fc on the clamped vertices, symmetrized, with no factor.

    K_fc couples the clamped vertices only to the free vertices S next to
    them, so S0 = K_cc - K_Sc' Z K_Sc needs only Z = K_ff^-1 restricted to
    S, which the grid modes give entry by entry:
    Z[s, t] = sum over a, b of Vy[j_s, a] Vy[j_t, a] Vx[i_s, b] Vx[i_t, b]
    / (lambda_y_a + lambda_x_b), with (j_s, i_s) the grid place of s
    (``_grid_modes``; the capacitance matrix of Buzbee, Dorr, George &
    Golub, SIAM J. Numer. Anal. 8, 1971).  S lies on at most three grid
    lines (``_clamped_coupling``), and on a pair of lines one index of each
    point is fixed, so the sum over a and b factors:
    - two rows j, j': c_b = sum over a of Vy[j, a] Vy[j', a]
      / (lambda_y_a + lambda_x_b), and the block is Vx[i_s] diag(c) Vx[i_t]',
      and two columns likewise with x and y swapped;
    - row j and column i': T[a, b] = Vy[j, a] Vx[i', b]
      / (lambda_y_a + lambda_x_b), and the block is Vx[i_s] T' Vy[j_t]'.
    Each block costs O(n^3), where the whole sum costs |S| N_free, O(n^4).
    A mesh with no free vertex has S0 = K_cc.
    """
    clamped = dof_partition(mesh).gamma1_dofs
    _, lines, k_sc = _clamped_coupling(mesh)
    z = np.empty((len(k_sc), len(k_sc)))
    for p, first in enumerate(lines):
        for second in lines[p:]:
            block = _line_pair(first, second)
            z[first.span, second.span] = block
            z[second.span, first.span] = block.T
    k_cc = assembly.assemble_stiffness(mesh)[clamped][:, clamped].toarray()
    schur0 = k_cc - k_sc.T @ z @ k_sc
    return 0.5 * (schur0 + schur0.T)


def _line_pair(first, second):
    """The block of Z = K_ff^-1 between the points of two ``_Line``s (``schur_complement``).

    Of a row and a column, the row comes first, as ``_clamped_coupling`` orders them.
    """
    if first.row != second.row:
        return first.along @ (first.weighted * second.fixed).T @ second.along.T
    c = second.fixed @ first.weighted if first.row else first.weighted @ second.fixed
    return (first.along * c) @ second.along.T


class _Line(NamedTuple):
    """One free grid line next to a clamped side (``_clamped_coupling``).

    A row j has fixed = Vy[j] and along = Vx, a column i has fixed = Vx[i]
    and along = Vy on its points' rows.  span is the slice of S that holds
    its points, and weighted[a, b] = W[a, b] Vy[j, a] for a row and
    W[a, b] Vx[i, b] for a column, with W = 1 / (lambda_y_a + lambda_x_b).
    """

    row: bool
    fixed: np.ndarray
    along: np.ndarray
    span: slice
    weighted: np.ndarray


@cached
def _clamped_coupling(mesh: Mesh):
    """(window, lines, K_Sc): the free grid, its lines next to the clamped sides, K_fc on them.

    window indexes the free grid in an (..., n + 1, n + 1) array of vertex
    values.  Every free vertex that K_fc couples to a clamped vertex lies
    on the first or last free row (bottom, top) or column (left, right) of
    a clamped side.  These points S are each given to one line only: a row
    takes its whole row, and a column its points on no clamped row
    (``_Line``).  K_Sc, dense, holds the rows of K_fc on S in the order of
    the lines.
    """
    ly, vy, lx, vx, weights = _grid_modes(mesh)
    ny, nx = len(ly), len(lx)
    window, lines, points = (Ellipsis, slice(0), slice(0)), [], [np.zeros(0, dtype=int)]
    if ny * nx > 0:
        sides = mesh.gamma1_sides
        bottom, left = int("bottom" in sides), int("left" in sides)
        window = (Ellipsis, slice(bottom, bottom + ny), slice(left, left + nx))
        rows = sorted({j for side, j in (("bottom", 0), ("top", ny - 1)) if side in sides})
        cols = sorted({i for side, i in (("left", 0), ("right", nx - 1)) if side in sides})
        rest = np.arange(bottom, ny - int("top" in sides))
        lines = [(True, vy[j], vx, weights * vy[j, :, None]) for j in rows]
        lines += [(False, vx[i], vy[rest], weights * vx[i]) for i in cols]
        points += [j * nx + np.arange(nx) for j in rows] + [rest * nx + i for i in cols]
    edges = np.cumsum([len(p) for p in points])
    lines = [
        _Line(row, fixed, along, slice(a, b), weighted)
        for (row, fixed, along, weighted), a, b in zip(lines, edges, edges[1:])
    ]
    part = dof_partition(mesh)
    support = part.free_dofs[np.concatenate(points)]
    return window, lines, assembly.assemble_stiffness(mesh)[support][:, part.gamma1_dofs].toarray()


def solve_spd(matrix, rhs):
    """Solve a symmetric positive definite system and check the residual.

    Parameters
    ----------
    matrix : ``clamped_operator(mesh)``, a ``RobinOperator(mesh, alpha)``
        (both as ``solve_family`` picks them), or any ``FactoredMatrix``,
        such as ``certified(sparse_matrix)``.
    rhs : right-hand side vector, or an (n, k) array of k right-hand sides,
        solved in blocks of a few columns.

    Each solution is checked by ``refinement`` against the one acceptance
    limit, a relative residual of 1e-10: a column above it takes one
    refinement step, and ConvergenceError is raised with the residual
    attached when it is still above.
    """
    rhs = np.asarray(rhs, dtype=float)
    size = matrix.shape[0]
    if matrix.shape != (size, size) or rhs.ndim not in (1, 2) or rhs.shape[0] != size:
        raise ValueError("matrix and right-hand side dimensions do not match")
    if rhs.ndim == 1:
        blocks = [Ellipsis]  # the whole vector
    else:
        blocks = [np.s_[:, s:s + _BLOCK_COLUMNS] for s in range(0, rhs.shape[1], _BLOCK_COLUMNS)]
    x = np.empty(rhs.shape)
    for cols in blocks:
        block = np.asfortranarray(rhs[cols])
        solved = matrix.solve(block)
        step = refinement(matrix, block, solved)
        x[cols] = solved if step is None else solved + step
    return x


def refinement(op, rhs, x):
    """The step that makes x an accepted solution of op x = rhs, or None if x is one.

    op is a ``FactoredMatrix`` or a ``RobinOperator``; rhs and x are
    vectors or (n, k) arrays.  The acceptance limit 1e-10 on the relative
    residual |A x - b| / |b| is the one rule: a column above it gets one
    step of iterative refinement through op's solve, and the step, zero in
    the other columns, is returned.  No lower target is set: every op's
    solve is direct, so a first solve's residual already sits near the
    roundoff of forming b - A x, about eps (|A| |x| + |b|) per entry
    (Oettli & Prager, Numer. Math. 6, 1964; Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 2002, 7.1 and ch. 12), which no step
    can lower.  ConvergenceError is raised, with the residual attached,
    when x plus the step misses the limit.
    """
    bnorm = np.linalg.norm(rhs, axis=0)
    bnorm = np.where(bnorm > 0.0, bnorm, 1.0)
    residual = rhs - op @ x
    relative = np.linalg.norm(residual, axis=0) / bnorm
    take = relative > _LIMIT
    step = None
    if np.any(take):
        # a zero column solves to an exact zero step
        step = op.solve(residual * take)
        relative = np.linalg.norm(rhs - op @ (x + step), axis=0) / bnorm
    worst = float(np.max(relative))
    if not worst <= _LIMIT:
        raise ConvergenceError(
            f"direct solve missed its tolerance: relative residual {worst:.3e} > {_LIMIT:.0e}",
            residual=worst,
        )
    return step


@dataclass(frozen=True)
class DiscreteConstants:
    """Extremal constants of the discrete spaces on one mesh.

    lambda_h : coercivity floor of the gradient form over the clamped subspace,
        against the full first-order norm.
    lambda1_h : coercivity floor of the gradient form augmented by the clamped
        boundary mass, over the whole space.
    gamma0_norm_h : operator norm of the flux-boundary trace map from the
        first-order norm to the boundary L2 norm.
    """

    lambda_h: float
    lambda1_h: float
    gamma0_norm_h: float

    def contraction_bound(self, alpha=None) -> float:
        """Penalty weight above which the control update map surely contracts.

        A sufficient bound from the pencils' extreme eigenvalues, exact to
        roundoff, and a pessimistic one: measured step ratios sit well below it.

        For the Robin-type family the coercivity floor scales like
        lambda1_h * min(1, alpha).
        """
        if alpha is None:
            floor = self.lambda_h
        else:
            floor = self.lambda1_h * min(1.0, float(alpha))
        return self.gamma0_norm_h**2 / floor**2


def _pencil_largest(num_mat, den, start) -> float:
    """Largest eigenvalue of (num, den), to machine precision, by Lanczos from ``start``.

    den^-1 num is self-adjoint in the den inner product <x, y> = x' den y,
    so Lanczos runs on it in that inner product, one den solve per step
    through ``solve_spd``, and with full reorthogonalization, done twice
    (Paige, 1972; Parlett, The Symmetric Eigenvalue Problem, SIAM 1998,
    ch. 13).  The largest eigenvalue theta of the tridiagonal T_k, from
    ``numpy.linalg.eigh``, is accepted once its residual |beta_k s_k|, with
    s its unit eigenvector, is at most 1e-14 theta.  ConvergenceError if
    that takes more than 100 steps; a run over as many unknowns ends with
    beta_k at roundoff.  One unknown is its exact ratio.
    """
    size = len(start)
    if size == 0:
        raise ConvergenceError("pencil has no unknowns")
    if size == 1:
        return float((num_mat @ start)[0] / (den @ start)[0])
    steps = min(_LANCZOS_STEPS, size)
    basis = np.empty((steps, size))
    diagonal, offdiagonal = [], []
    q = start / np.sqrt(start @ (den @ start))
    for k in range(steps):
        basis[k] = q
        image = num_mat @ q
        diagonal.append(q @ image)
        w = solve_spd(den, image)
        for _ in range(2):  # against every basis vector, which covers the three-term recurrence
            w -= basis[: k + 1].T @ (basis[: k + 1] @ (den @ w))
        beta = np.sqrt(w @ (den @ w))
        ritz, vectors = np.linalg.eigh(
            np.diag(diagonal) + np.diag(offdiagonal, 1) + np.diag(offdiagonal, -1)
        )
        value, miss = ritz[-1], abs(beta * vectors[-1, -1])
        if miss <= _RITZ_TOL * abs(value):
            return float(value)
        offdiagonal.append(beta)
        q = w / beta
    relative = miss / abs(value)
    raise ConvergenceError(
        f"Lanczos for a pencil eigenvalue did not converge in {steps} steps "
        f"(Ritz residual {relative:.3e} of the value)",
        residual=relative,
    )


@cached
def estimate_constants(mesh: Mesh) -> DiscreteConstants:
    """The discrete stability constants: extreme eigenvalues of three pencils (``_pencil_largest``).

    With V = K + M, lambda_h and lambda1_h are 1 / the largest eigenvalues of
    (V_ff, K_ff) and (V, K + B1), and gamma0_norm_h^2 the largest of (B2, V).
    """
    mass = assembly.assemble_mass(mesh)
    b2 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    v_gram = (assembly.assemble_stiffness(mesh) + mass).tocsr()
    rng = np.random.default_rng(0)

    free = dof_partition(mesh).free_dofs
    v_ff = v_gram[free][:, free].tocsr()
    lambda_h = 1.0 / _pencil_largest(v_ff, clamped_operator(mesh), rng.standard_normal(len(free)))
    lambda1_h = 1.0 / _pencil_largest(
        v_gram, RobinOperator(mesh, 1.0), rng.standard_normal(v_gram.shape[0])
    )
    gamma_sq = _pencil_largest(
        b2, certified(v_gram), rng.standard_normal(v_gram.shape[0])
    )
    return DiscreteConstants(
        lambda_h=lambda_h,
        lambda1_h=lambda1_h,
        gamma0_norm_h=float(np.sqrt(gamma_sq)),
    )
