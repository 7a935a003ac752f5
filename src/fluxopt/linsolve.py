"""Direct linear solves with checked residuals, and discrete stability constants.

Every system the package solves is symmetric positive definite and is
solved by a sparse LU factorization in symmetric mode without pivoting,
so the factor is a Cholesky factorization in disguise and its pivot signs
certify definiteness.  ``solve_spd`` checks the residual of every solution.

Each mesh owns one ``MeshOperators``: a factor of the clamped free block
K_ff, shared by the clamped family and by the Robin-type family at every
alpha.  The Robin matrix K + alpha B1 differs from the clamped one only on
the clamped vertices, so a Robin solve eliminates the free block with the
K_ff factor and solves the small dense system (S0 + alpha B1_cc) on the
clamped vertices, where S0 = K_cc - K_cf K_ff^-1 K_fc is the Schur
complement of the free block.  As alpha grows the clamped values are
pinned ever harder, and the clamped family is the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .mesh import BoundaryTag, Mesh, cached, dof_partition, nested_dissection

# right-hand side columns per call into the factor: SuperLU solves wider
# blocks more slowly per column, and they hold more memory
_BLOCK_COLUMNS = 8

# default relative residual target of a solve
_TOL = 1e-12


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

    The pivots of a symmetric factorization without row exchanges are all
    positive exactly when the matrix is positive definite.  This factor is
    kept, so its pivots are not read: callers first check them on a
    throwaway factor of the same matrix (``certified``) or of one whose
    leading block it is (``MeshOperators``).
    """
    return _splu(matrix).solve


class FactoredMatrix:
    """A sparse symmetric positive definite matrix and the solve of its factor."""

    def __init__(self, matrix, solve):
        self.matrix = sp.csr_matrix(matrix)
        self.shape = self.matrix.shape
        self.solve = solve

    def __matmul__(self, x):
        return self.matrix @ x


def certified(matrix) -> FactoredMatrix:
    """The matrix with its factor, once a throwaway factor's pivots prove it definite."""
    _pivots_checked(_splu(matrix))
    return FactoredMatrix(matrix, factorize(matrix))


class RobinOperator:
    """K + alpha B1 on one mesh, solved through the clamped-block factor.

    The sum is never formed: products apply K and B1 separately, and solves
    eliminate the free block with the K_ff factor around a dense Cholesky
    factor of S0 + alpha B1_cc.
    """

    def __init__(self, ops: "MeshOperators", alpha: float):
        self.alpha = float(alpha)
        self.shape = ops.stiff.shape
        self._ops = ops
        try:
            self._chol = scipy.linalg.cho_factor(ops.schur0 + self.alpha * ops.b1_cc)
        except scipy.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"Robin operator at alpha={self.alpha:g} is not positive definite: {exc}"
            ) from exc

    def __matmul__(self, x):
        return self._ops.stiff @ x + self.alpha * (self._ops.b1 @ x)

    def solve(self, rhs):
        ops = self._ops
        free, clamped = ops.free, ops.clamped_dofs
        y = ops.clamped.solve(rhs[free])
        x = np.empty(rhs.shape)
        x[clamped] = self.solve_schur(rhs[clamped] - ops.k_fc.T @ y)
        x[free] = y - ops.clamped.solve(ops.k_fc @ x[clamped])
        return x

    def solve_schur(self, rhs_c):
        """(S0 + alpha B1_cc)^-1 rhs_c on the clamped vertices, by its dense factor."""
        return scipy.linalg.cho_solve(self._chol, rhs_c)


class MeshOperators:
    """The clamped operator K_ff of one mesh and what its Robin operators share.

    A throwaway factor of K + B1, free vertices first in nested-dissection
    order, comes first: its leading pivots are those of K_ff, which proves
    K_ff positive definite, and its trailing block factors S0 + B1_cc, which
    yields S0.  The kept factor of K_ff is made after it is gone.
    """

    def __init__(self, mesh: Mesh):
        part = dof_partition(mesh)
        self.free, self.clamped_dofs = part.free_dofs, part.gamma1_dofs
        self.stiff = assembly.assemble_stiffness(mesh)
        self.b1 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA1)
        self.b1_cc = self.b1[self.clamped_dofs][:, self.clamped_dofs].toarray()
        nd = nested_dissection(mesh)
        order = np.concatenate([nd[np.isin(nd, self.free)], self.clamped_dofs])
        robin1 = (self.stiff + self.b1)[order][:, order]
        self.schur0 = _trailing_schur(robin1, len(self.clamped_dofs)) - self.b1_cc
        stiff_f = self.stiff[self.free]
        k_ff = stiff_f[:, self.free]
        self.clamped = FactoredMatrix(k_ff, factorize(k_ff))
        self.k_fc = stiff_f[:, self.clamped_dofs].tocsc()


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
    """The mesh's clamped operator and Schur complement, built on first use."""
    return MeshOperators(mesh)


def robin_operator(mesh: Mesh, alpha: float) -> RobinOperator:
    """K + alpha B1 on the mesh; the store keeps the operator of the last alpha only."""
    robin = mesh.store.get("robin")
    if robin is None or robin.alpha != float(alpha):
        robin = mesh.store["robin"] = RobinOperator(operators(mesh), alpha)
    return robin


def solve_spd(matrix, rhs, tol=_TOL):
    """Solve a symmetric positive definite system and check the residual.

    Parameters
    ----------
    matrix : ``operators(mesh).clamped``, a ``robin_operator(mesh, alpha)``,
        any ``FactoredMatrix``, or a sparse matrix, which is then factored
        for this call alone.
    rhs : right-hand side vector, or an (n, k) array of k right-hand sides,
        solved in blocks of a few columns.
    tol : relative residual target |A x - b| / |b|, per column.

    A residual above tol gets one step of iterative refinement.  The
    residual cannot drop below the roundoff floor eps * |A| |x| / |b|, so a
    solution is accepted up to max(100 * tol, 1e-10); above that,
    ConvergenceError is raised with the residual attached.
    """
    rhs = np.asarray(rhs, dtype=float)
    size = matrix.shape[0]
    if matrix.shape != (size, size) or rhs.ndim not in (1, 2) or rhs.shape[0] != size:
        raise ValueError("matrix and right-hand side dimensions do not match")
    if not isinstance(matrix, (FactoredMatrix, RobinOperator)):
        matrix = certified(matrix)
    if rhs.ndim == 1:
        return _solve_checked(matrix, rhs, tol)
    x = np.empty(rhs.shape)
    for start in range(0, rhs.shape[1], _BLOCK_COLUMNS):
        cols = slice(start, start + _BLOCK_COLUMNS)
        x[:, cols] = _solve_checked(matrix, np.asfortranarray(rhs[:, cols]), tol)
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


def _relative_residual(rhs, residual) -> float:
    bnorm = np.linalg.norm(rhs, axis=0)
    return float(np.max(np.linalg.norm(residual, axis=0) / np.where(bnorm > 0.0, bnorm, 1.0)))


def refinement(op, rhs, x):
    """The step that makes x an accepted solution of op x = rhs, or None if x is one.

    For an x formed by other means than op's solve, checked as ``solve_spd``
    checks its own: op is a ``FactoredMatrix`` or a ``RobinOperator``, rhs
    and x are vectors or (n, k) arrays.  Above the default tol of
    ``solve_spd`` one refinement step through op's solve is returned, and
    ConvergenceError is raised when x plus that step misses the limit.
    """
    return _refinement(op, rhs, x, _TOL)


def _refinement(op, rhs, x, tol):
    residual = rhs - op @ x
    worst = _relative_residual(rhs, residual)
    step = None
    if worst > tol:
        step = op.solve(residual)
        worst = _relative_residual(rhs, rhs - op @ (x + step))
    limit = max(100.0 * tol, 1e-10)
    if not worst <= limit:
        raise ConvergenceError(
            f"direct solve missed its tolerance: relative residual {worst:.3e} > {limit:.0e}",
            residual=worst,
        )
    return step


def _solve_checked(op, rhs, tol):
    x = op.solve(rhs)
    step = _refinement(op, rhs, x, tol)
    return x if step is None else x + step


@dataclass(frozen=True)
class DiscreteConstants:
    """Extremal constants of the discrete spaces on one mesh.

    lambda_h : coercivity floor of the gradient form over the clamped subspace,
        against the full first-order norm.
    lambda1_h : coercivity floor of the gradient form augmented by the clamped
        boundary mass, over the whole space.
    gamma0_norm_h : operator norm of the flux-boundary trace map from the
        first-order norm to the boundary L2 norm.
    mesh_n : cells per side of the mesh the constants were estimated on.
    """

    lambda_h: float
    lambda1_h: float
    gamma0_norm_h: float
    mesh_n: int

    def contraction_bound(self, alpha=None) -> float:
        """Smallest penalty weight at which the control update map contracts.

        For the Robin-type family the coercivity floor scales like
        lambda1_h * min(1, alpha).
        """
        if alpha is None:
            floor = self.lambda_h
        else:
            floor = self.lambda1_h * min(1.0, float(alpha))
        return self.gamma0_norm_h**2 / floor**2


def _pencil_largest(num_mat, den, start, rtol, max_iter=50000) -> float:
    """Largest generalized eigenvalue of (num, den) by power iteration on den^-1 num."""
    x = start / np.linalg.norm(start)
    mu = 0.0
    for _ in range(max_iter):
        y = solve_spd(den, num_mat @ x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            raise ConvergenceError("power iteration collapsed to the null space")
        y /= ny
        mu_new = float((y @ (num_mat @ y)) / (y @ (den @ y)))
        if abs(mu_new - mu) <= rtol * abs(mu_new):
            return mu_new
        mu = mu_new
        x = y
    raise ConvergenceError("power iteration for a generalized eigenvalue did not converge")


@cached
def estimate_constants(mesh: Mesh, tol=1e-8) -> DiscreteConstants:
    """Estimate the discrete stability constants by inverse power iterations.

    Each constant is an extremal generalized Rayleigh quotient; smallest
    eigenvalues are obtained as reciprocals of the largest ones of the swapped
    pencil, iterated to a relative tolerance well below tol.
    """
    ops = operators(mesh)
    mass = assembly.assemble_mass(mesh)
    b2 = assembly.assemble_boundary_mass(mesh, BoundaryTag.GAMMA2)
    v_gram = (ops.stiff + mass).tocsr()
    rng = np.random.default_rng(0)
    rtol = min(tol * 1e-2, 1e-10)

    free = ops.free
    v_ff = v_gram[free][:, free].tocsr()
    lambda_h = 1.0 / _pencil_largest(v_ff, ops.clamped, rng.standard_normal(len(free)), rtol)
    lambda1_h = 1.0 / _pencil_largest(
        v_gram, robin_operator(mesh, 1.0), rng.standard_normal(v_gram.shape[0]), rtol
    )
    gamma_sq = _pencil_largest(
        b2, certified(v_gram), rng.standard_normal(v_gram.shape[0]), rtol
    )
    return DiscreteConstants(
        lambda_h=lambda_h,
        lambda1_h=lambda1_h,
        gamma0_norm_h=float(np.sqrt(gamma_sq)),
        mesh_n=mesh.n,
    )
