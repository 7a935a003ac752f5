"""Direct linear solves with checked residuals, and discrete stability constants.

Every system the package solves is symmetric positive definite and is
solved by a sparse LU factorization in symmetric mode without pivoting,
so the factor is a Cholesky factorization in disguise.  ``solve_spd``
checks the residual of every solution.  A factor that is kept is never
asked for its pivots, since reading them makes SuperLU keep sparse copies
of both triangles; definiteness is certified otherwise.

Each mesh owns one ``MeshOperators``: the only factorization the clamped
family makes, of the free block K_ff, in the mesh's nested-dissection
order.  P1 stiffness on a mesh of right triangles is a symmetric Z-matrix,
so K_ff is certified positive definite by one solve, K_ff^-1 1 >= 0 (an
M-matrix test), with no second factorization.

The Robin matrix K + alpha B1 differs from the clamped one only on the
clamped vertices, so a Robin solve at any alpha eliminates the free block
with the K_ff factor and solves the small dense system (S0 + alpha B1_cc)
on the clamped vertices, where S0 = K_cc - K_cf K_ff^-1 K_fc is the Schur
complement of the free block.  One eigendecomposition of the pencil
(S0, B1_cc) per mesh solves that system at every alpha, so nothing is
factored per alpha.  S0 is built once per mesh, on the first Robin solve
only, from a throwaway factor of K + B1 whose pivots are checked.  As
alpha grows the clamped values are pinned ever harder, and the clamped
family is the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .mesh import BoundaryTag, Mesh, cached, dof_partition

# right-hand side columns per call into the factor: SuperLU solves wider
# blocks more slowly per column, and they hold more memory
_BLOCK_COLUMNS = 8

# relative residual target of a solve
_TOL = 1e-12
# relative residual up to which a solution is accepted
_LIMIT = 1e-10
# relative change of the estimate at which a power iteration stops, and its step cap
_POWER_RTOL = 1e-10
_POWER_STEPS = 50000
# unit roundoff, which sets the floor of a computed residual
_EPS = np.finfo(float).eps


class ConvergenceError(RuntimeError):
    """A solve or an iteration failed; ``residual`` and ``ratios`` carry its diagnostics."""

    def __init__(self, message, *, residual=None, ratios=None):
        super().__init__(message)
        self.residual = residual
        self.ratios = ratios


def _splu(matrix, permc_spec="MMD_AT_PLUS_A"):
    csc = sp.csc_matrix(matrix)
    if np.any(csc.diagonal() <= 0):
        raise ConvergenceError("matrix has a nonpositive diagonal entry: not positive definite")
    try:
        return spla.splu(
            csc,
            permc_spec=permc_spec,
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise ConvergenceError(f"factorization failed: {exc}") from exc


def _pivots_checked(lu):
    """The factor, once its pivots prove the matrix positive definite.

    Reading the pivots makes SuperLU keep sparse copies of both factors for
    the lifetime of the object, so only throwaway factors are checked.
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise ConvergenceError("factorization exchanged rows: pivot signs are not conclusive")
    pivots = lu.U.diagonal()
    if not np.all(pivots > 0):
        raise ConvergenceError(
            f"matrix is not positive definite: factor pivot {pivots.min():.3e}"
        )
    return lu


def factorize(matrix):
    """Factor a sparse symmetric matrix for repeated solves; returns a solve callable.

    The matrix is factored in its own order, which should be fill-reducing,
    as a mesh's K_ff is (``dof_partition``).

    The pivots of a symmetric factorization without row exchanges are all
    positive exactly when the matrix is positive definite.  This factor is
    kept, so its pivots are not read: callers certify the matrix by its
    M-matrix structure (``certified_stieltjes``).  A factor used only while
    one call runs may read its own (``certified``).
    """
    return _splu(matrix, "NATURAL").solve


def _norm_inf(matrix) -> float:
    """|A|_inf, the largest absolute row sum of a sparse matrix.

    ``abs(matrix)`` would sort the matrix's column indices in place, which
    reorders the sums of every later product with it.
    """
    csr = sp.csr_matrix(matrix)
    magnitudes = sp.csr_matrix((np.abs(csr.data), csr.indices, csr.indptr), shape=csr.shape)
    return float(np.max(magnitudes @ np.ones(csr.shape[1])))


class FactoredMatrix:
    """A sparse symmetric positive definite matrix and the solve of its factor.

    ``norm_inf`` is |A|_inf, which bounds |A|_2 for symmetric A and sets
    the roundoff floor of a solve's residual (``solve_spd``).
    """

    def __init__(self, matrix, solve):
        self.matrix = sp.csr_matrix(matrix)
        self.shape = self.matrix.shape
        self.solve = solve
        self.norm_inf = _norm_inf(self.matrix)

    def __matmul__(self, x):
        return self.matrix @ x


def certified(matrix) -> FactoredMatrix:
    """The matrix with its one factor, once that factor's pivots prove it definite.

    For sparse input of any structure, solved while one call runs: the
    factor keeps the sparse copies of both triangles that reading its
    pivots makes, so it is never stored.  A mesh's K_ff, which is kept, is
    certified by its M-matrix structure instead (``certified_stieltjes``).
    """
    return FactoredMatrix(matrix, _pivots_checked(_splu(matrix)).solve)


def certified_stieltjes(matrix) -> FactoredMatrix:
    """The matrix with its one factor, once its M-matrix structure proves it definite.

    A Z-matrix A (every off-diagonal entry <= 0) is a nonsingular M-matrix
    as soon as some x >= 0 has A x > 0, and a symmetric one is positive
    definite (Berman & Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, ch. 6).  P1 stiffness on a non-obtuse triangulation is a
    symmetric Z-matrix (Ciarlet & Raviart, 1973).  The witness is
    x = A^-1 1, solved with the kept factor by ``solve_spd``, which checks
    its residual.  ConvergenceError unless A is exactly symmetric, a
    Z-matrix and x passes; the factor's pivots are never read.

    A is factored in its own order, which should be fill-reducing: a mesh's
    free vertices come in nested-dissection order (``dof_partition``).
    """
    csr = sp.csr_matrix(matrix)
    if (csr != csr.T).nnz:
        raise ConvergenceError("matrix is not exactly symmetric: no M-matrix certificate")
    coo = csr.tocoo()
    if np.any(coo.data[coo.row != coo.col] > 0):
        raise ConvergenceError("matrix has a positive off-diagonal entry: not a Z-matrix")
    op = FactoredMatrix(csr, factorize(csr))
    x = solve_spd(op, np.ones(csr.shape[0]))
    if not (np.all(x >= 0) and np.all(op @ x > 0)):
        raise ConvergenceError(
            "Z-matrix is not an M-matrix, so not positive definite: "
            f"A^-1 1 has minimum {x.min():.3e}"
        )
    return op


class RobinOperator:
    """K + alpha B1 on one mesh, solved through the clamped-block factor.

    The sum is never formed: products apply K and B1 separately, and solves
    eliminate the free block with the K_ff factor around the mesh's pencil
    (``schur_pencil``).  Of alpha it keeps d = 1 / (lambda + alpha), which
    must be positive, or ConvergenceError is raised.  ``norm_inf`` is
    |K + alpha B1|_inf, summed from the mesh's split of its rows
    (``MeshOperators.robin_norm_inf``).
    """

    def __init__(self, ops: "MeshOperators", pencil, alpha: float):
        self.alpha = float(alpha)
        eigenvalues, self._v = pencil
        shifted = eigenvalues + self.alpha
        if not np.all(shifted > 0):
            raise ConvergenceError(
                f"Robin operator at alpha={self.alpha:g} is not positive definite: "
                f"smallest lambda + alpha is {shifted.min():.3e}"
            )
        self._d = 1.0 / shifted
        self.shape = ops.stiff.shape
        self.norm_inf = ops.robin_norm_inf(self.alpha)
        self._ops = ops

    def __matmul__(self, x):
        return self._ops.stiff @ x + self.alpha * (self._ops.b1 @ x)

    def solve(self, rhs):
        ops = self._ops
        free, clamped = ops.free, ops.clamped_dofs
        y = ops.clamped.solve(rhs[free])
        x = np.empty(rhs.shape)
        x[clamped] = self.solve_schur(rhs[clamped] - ops.k_cf @ y)
        x[free] = y - ops.clamped.solve(ops.k_fc @ x[clamped])
        return x

    def solve_schur(self, rhs_c):
        """(S0 + alpha B1_cc)^-1 rhs_c = V diag(d) V' rhs_c, for a vector or a column block."""
        return (self._v * self._d) @ (self._v.T @ rhs_c)


class MeshOperators:
    """The clamped operator K_ff of one mesh and the blocks its Robin operators share.

    K_ff is factored once and certified by ``certified_stieltjes``; the
    clamped family needs no other factorization.  The pencil of the Schur
    complement S0 is kept apart (``schur_pencil``), since only Robin
    operators use it.  The rows of K + alpha B1 are split once, so that the
    norm that sets a Robin operator's residual floor costs no sparse work
    per alpha (``robin_norm_inf``).  No reference to the mesh is kept, so
    the mesh's store holds no cycle.
    """

    def __init__(self, mesh: Mesh):
        part = dof_partition(mesh)
        self.free, self.clamped_dofs = part.free_dofs, part.gamma1_dofs
        self.stiff = assembly.assemble_stiffness(mesh)
        self.b1 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
        self._robin_rows = _robin_row_split(self.stiff, self.b1)
        stiff_f = self.stiff[self.free]
        self.clamped = certified_stieltjes(stiff_f[:, self.free])
        self.k_fc = stiff_f[:, self.clamped_dofs].tocsc()
        self.k_cf = self.k_fc.T.tocsr()

    def robin_norm_inf(self, alpha: float) -> float:
        """|K + alpha B1|_inf, from the rows that B1 touches and the largest of the rest."""
        rest, row, stiff, b1 = self._robin_rows
        sums = np.bincount(row, np.abs(stiff + alpha * b1))
        return float(np.max(sums, initial=rest))


def _robin_row_split(stiff, b1):
    """The rows of K + alpha B1 split for ``MeshOperators.robin_norm_inf``.

    Rows that B1 leaves empty do not depend on alpha: only their largest
    |K| row sum is kept.  In each row that B1 touches, K's entries and
    B1's are gathered on their shared pattern: K's off-diagonal
    entries there are not positive and B1's are, so their sum cancels in
    part.  Returns (largest other row sum, row number, K value, B1 value)
    of each gathered entry.  Neither matrix is changed.
    """
    size = stiff.shape[1]
    k, b = stiff.tocoo(), b1.tocoo()
    touched = np.unique(b.row)
    rest = np.bincount(k.row, np.abs(k.data), stiff.shape[0])
    rest[touched] = 0.0
    in_touched = np.isin(k.row, touched)
    keys = np.concatenate([k.row[in_touched] * size + k.col[in_touched], b.row * size + b.col])
    entries, slot = np.unique(keys, return_inverse=True)
    split = int(in_touched.sum())
    k_values = np.bincount(slot[:split], k.data[in_touched], len(entries))
    b_values = np.bincount(slot[split:], b.data, len(entries))
    row = np.searchsorted(touched, entries // size)
    return float(rest.max()), row, k_values, b_values


@cached
def schur_pencil(mesh: Mesh):
    """(lambda, V) with V' S0 V = diag(lambda) and V' B1_cc V = I, read-only.

    Then (S0 + alpha B1_cc)^-1 = V diag(1 / (lambda + alpha)) V' (Golub &
    Van Loan, Matrix Computations, 4th ed., 8.7).  A throwaway factor of
    K + B1, free vertices first in nested-dissection order and the clamped
    ones last, gives S0: its leading pivots are those of K_ff and are
    checked, and its trailing block factors S0 + B1_cc.
    """
    part = dof_partition(mesh)
    clamped = part.gamma1_dofs
    stiff = assembly.assemble_stiffness(mesh)
    b1 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
    order = np.concatenate([part.free_dofs, clamped])
    b1_cc = b1[clamped][:, clamped].toarray()
    schur0 = _trailing_schur((stiff + b1)[order][:, order], len(clamped)) - b1_cc
    eigenvalues, v = scipy.linalg.eigh(schur0, b1_cc)
    eigenvalues.setflags(write=False)
    v.setflags(write=False)
    return eigenvalues, v


def _trailing_schur(matrix, size) -> np.ndarray:
    """Schur complement of the leading block onto the last size rows and columns.

    The matrix is factored in its given order; SuperLU only postorders the
    elimination tree, which must keep the trailing block last.
    """
    lu = _pivots_checked(_splu(matrix, "NATURAL"))
    lead = matrix.shape[0] - size
    pos = lu.perm_c[lead:] - lead
    if pos.min() < 0:
        raise ConvergenceError("factorization moved the trailing block: no Schur complement")
    trailing = (lu.L[lead:, lead:] @ lu.U[lead:, lead:]).toarray()[np.ix_(pos, pos)]
    return 0.5 * (trailing + trailing.T)


@cached
def operators(mesh: Mesh) -> MeshOperators:
    """The mesh's certified clamped operator, built on first use."""
    return MeshOperators(mesh)


def robin_operator(mesh: Mesh, alpha: float) -> RobinOperator:
    """K + alpha B1 on the mesh, built afresh on every call: nothing per alpha is kept."""
    # S0's throwaway factor comes before the kept one, which then reuses
    # its freed heap instead of stacking on it
    pencil = schur_pencil(mesh)
    return RobinOperator(operators(mesh), pencil, alpha)


def solve_spd(matrix, rhs):
    """Solve a symmetric positive definite system and check the residual.

    Parameters
    ----------
    matrix : ``operators(mesh).clamped``, a ``robin_operator(mesh, alpha)``,
        or any ``FactoredMatrix``, such as ``certified(sparse_matrix)``.
    rhs : right-hand side vector, or an (n, k) array of k right-hand sides,
        solved in blocks of a few columns.

    Each solution is checked, and refined if need be, by ``refinement``;
    ConvergenceError is raised with the residual attached when one misses
    the acceptance limit.
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


def solve_columns(matrix, columns):
    """``solve_spd`` for the columns of a sparse (n, k) matrix, densified a few at a time.

    Each block of columns is one ``solve_spd`` call with a dense right-hand
    side, so no dense n-by-k copy of the right-hand side is ever made.
    """
    columns = sp.csc_matrix(columns)
    x = np.empty(columns.shape, order="F")
    for start in range(0, columns.shape[1], _BLOCK_COLUMNS):
        cols = slice(start, start + _BLOCK_COLUMNS)
        x[:, cols] = solve_spd(matrix, columns[:, cols].toarray(order="F"))
    return x


def refinement(op, rhs, x):
    """The step that makes x an accepted solution of op x = rhs, or None if x is one.

    op is a ``FactoredMatrix`` or a ``RobinOperator``; rhs and x are
    vectors or (n, k) arrays.  A column gets one step of iterative
    refinement through op's solve when its relative residual
    |A x - b| / |b| is above both the target 1e-12 and its roundoff floor
    eps |A|_inf |x| / |b|, or above the acceptance limit 1e-10; the step,
    zero in the other columns, is returned.  Roundoff in forming A x alone
    leaves a residual near the floor, so a step cannot push a residual
    below it and one taken to meet a lower target is wasted (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 12;
    Rigal & Gaches, J. ACM 14, 1967).  The floor grows like h^-2 with
    cond(A): it passes the target from n = 128 on.  ConvergenceError is
    raised, with the residual attached, when x plus the step misses the
    limit.
    """
    bnorm = np.linalg.norm(rhs, axis=0)
    bnorm = np.where(bnorm > 0.0, bnorm, 1.0)
    residual = rhs - op @ x
    relative = np.linalg.norm(residual, axis=0) / bnorm
    floor = _EPS * op.norm_inf * np.linalg.norm(x, axis=0) / bnorm
    take = ((relative > _TOL) & (relative > floor)) | (relative > _LIMIT)
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

        A sufficient bound, and a pessimistic one: the measured step ratios
        of a run show contraction well below it.

        For the Robin-type family the coercivity floor scales like
        lambda1_h * min(1, alpha).
        """
        if alpha is None:
            floor = self.lambda_h
        else:
            floor = self.lambda1_h * min(1.0, float(alpha))
        return self.gamma0_norm_h**2 / floor**2


def _pencil_largest(num_mat, den, start) -> float:
    """Largest generalized eigenvalue of (num, den) by power iteration on den^-1 num."""
    x = start / np.linalg.norm(start)
    mu = 0.0
    for _ in range(_POWER_STEPS):
        y = solve_spd(den, num_mat @ x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            raise ConvergenceError("power iteration collapsed to the null space")
        y /= ny
        mu_new = float((y @ (num_mat @ y)) / (y @ (den @ y)))
        if abs(mu_new - mu) <= _POWER_RTOL * abs(mu_new):
            return mu_new
        mu = mu_new
        x = y
    raise ConvergenceError("power iteration for a generalized eigenvalue did not converge")


@cached
def estimate_constants(mesh: Mesh) -> DiscreteConstants:
    """Estimate the discrete stability constants by inverse power iterations.

    Each constant is an extremal generalized Rayleigh quotient; smallest
    eigenvalues are obtained as reciprocals of the largest ones of the swapped
    pencil, iterated until the estimate changes by at most 1e-10 relative.
    """
    ops = operators(mesh)
    mass = assembly.assemble_mass(mesh)
    b2 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    v_gram = (ops.stiff + mass).tocsr()
    rng = np.random.default_rng(0)

    free = ops.free
    v_ff = v_gram[free][:, free].tocsr()
    # drawn in vertex order, so the estimate does not depend on the order of the free dofs
    start = np.empty(len(free))
    start[np.argsort(free)] = rng.standard_normal(len(free))
    lambda_h = 1.0 / _pencil_largest(v_ff, ops.clamped, start)
    lambda1_h = 1.0 / _pencil_largest(
        v_gram, robin_operator(mesh, 1.0), rng.standard_normal(v_gram.shape[0])
    )
    gamma_sq = _pencil_largest(
        b2, certified(v_gram), rng.standard_normal(v_gram.shape[0])
    )
    return DiscreteConstants(
        lambda_h=lambda_h,
        lambda1_h=lambda1_h,
        gamma0_norm_h=float(np.sqrt(gamma_sq)),
    )
