"""Structured triangulations of the unit square with a tagged boundary split.

The domain is fixed to the unit square.  An n-by-n grid of cells is cut into
right triangles along each cell diagonal running from the lower-left to the
upper-right corner, so refining by cell halving keeps every coarse vertex a
fine vertex.  Whole sides of the square are assigned to the clamped boundary
portion (tag GAMMA1, where the solution value is prescribed); all remaining
boundary edges carry the controlled-flux tag (GAMMA2).  Which grids exist
(``check_grid``) and which nest (``check_nesting``) is decided here alone.

Trace fields, on the flux vertices, reach the vertex grid only through
``trace_extend`` and ``trace_restrict``, but for one exception:
``pde.solve_state`` subtracts B2's trace block from its load in place.  Both
transfers between nested meshes go through that grid.  A transfer takes the
field and the mesh it goes to, and reads the mesh it comes from off the
field.

The module owns the triangle layout (``_TRIANGLE_CORNERS``): cells are
row-major, and cell k holds triangle 2k below its diagonal and 2k+1 above.
Everything that follows the layout is read from 2-D slices of the
(n+1)-by-(n+1) vertex grid (``corner_views``) with no gather or sort: the
boundary sides and the vertex partition here, the matrices and loads in
``assembly``.  A mesh keeps no per-triangle array: no triangle list and no
edge list.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

SIDES = ("bottom", "right", "top", "left")

# each side's vertex line in the (n+1)-by-(n+1) vertex grid, rows along y
_SIDE_LINES = {"bottom": np.s_[0, :], "right": np.s_[:, -1], "top": np.s_[-1, :], "left": np.s_[:, 0]}

# (row, column) steps in the vertex grid from a cell's lower-left vertex to
# the corners of its two triangles, counterclockwise: below the diagonal,
# then above it
_TRIANGLE_CORNERS = (((0, 0), (0, 1), (1, 1)), ((0, 0), (1, 1), (1, 0)))


class BoundaryTag(enum.IntEnum):
    GAMMA1 = 1
    GAMMA2 = 2


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable triangulation of the unit square.

    Attributes
    ----------
    n : cells per side; the mesh has (n+1)**2 vertices and 2*n**2 triangles.
    vertices : (N, 2) array of vertex coordinates, index j*(n+1)+i for the
        vertex at (i/n, j/n).
    gamma1_sides : the sides whose edges carry the GAMMA1 tag.
    h : longest triangle side, sqrt(2)/n.
    store : values derived from the mesh alone (partition, element
        geometry, matrices, loads, solvers, constants), filled on first use
        by ``cached`` functions and released with the mesh: a mesh the
        harness keeps keeps its store for the later runs of the process.
        Of the element set-up it keeps grid lines, O(n) each, and the
        triangle areas; set-up data that no solve reads, such as the
        coupling bands the matrices are summed in, is not kept.
    """

    n: int
    vertices: np.ndarray
    gamma1_sides: frozenset
    h: float
    store: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def cached(build):
    """Keep build(mesh, *args) in the mesh's store, computed on first use.

    The arguments after the mesh are positional and part of the key.
    """

    @functools.wraps(build)
    def get(mesh: Mesh, *args):
        key = (build,) + args
        if key not in mesh.store:
            mesh.store[key] = build(mesh, *args)
        return mesh.store[key]

    return get


@dataclass(frozen=True, eq=False)
class DofPartition:
    """Index sets splitting the vertices of a mesh by boundary role."""

    gamma1_dofs: np.ndarray
    free_dofs: np.ndarray
    gamma2_trace_dofs: np.ndarray


def check_grid(n, gamma1_sides):
    """(n, sides) of a valid grid of n cells per side clamped on gamma1_sides; ValueError otherwise.

    n is a positive integer, and the sides ("bottom", "right", "top",
    "left") a nonempty proper subset of the four, so both boundary portions
    have positive length.  The grid must keep a free vertex: at n = 1 two
    opposite clamped sides, or three, clamp all four vertices.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    unknown = [side for side in gamma1_sides if side not in SIDES]
    if unknown:
        raise ValueError(f"unknown sides {unknown}; valid sides are {SIDES}")
    sides = frozenset(gamma1_sides)
    if not sides:
        raise ValueError("gamma1_sides must not be empty: the clamped portion needs positive length")
    if sides == set(SIDES):
        raise ValueError("gamma1_sides must not cover all four sides: the flux portion needs positive length")
    if n == 1 and ({"bottom", "top"} <= sides or {"left", "right"} <= sides):
        raise ValueError(f"n = 1 clamped on {sorted(sides)} leaves no free vertex")
    return int(n), sides


def check_nesting(coarse_n, fine_n) -> int:
    """The halvings that take n = coarse_n cells per side to fine_n; ValueError unless at least one."""
    ratio, rest = divmod(fine_n, coarse_n)
    if rest or ratio < 2 or ratio & (ratio - 1):
        raise ValueError(f"meshes are not nested: fine n={fine_n} is not coarse n={coarse_n} refined")
    return ratio.bit_length() - 1


def build_structured_mesh(n, gamma1_sides) -> Mesh:
    """Triangulate the unit square with n cells per side, clamped on the gamma1_sides (``check_grid``)."""
    n, sides = check_grid(n, gamma1_sides)
    # arange/n keeps coarse and refined vertex coordinates bitwise identical
    coords = np.arange(n + 1, dtype=float) / n
    xg, yg = np.meshgrid(coords, coords)
    vertices = np.column_stack([xg.ravel(), yg.ravel()])
    return Mesh(n=n, vertices=vertices, gamma1_sides=sides, h=float(np.sqrt(2.0) / n))


def refine(mesh: Mesh) -> Mesh:
    """Halve every cell; the refined mesh contains every vertex of the input."""
    return build_structured_mesh(2 * mesh.n, mesh.gamma1_sides)


def corner_views(grid: np.ndarray) -> list:
    """Views of an (n+1, n+1, ...) vertex grid at the triangle corners.

    Entry [t][k] is an (n, n, ...) view holding corner k of the triangles of
    type t (0 below each cell's diagonal, 1 above it); its element (j, i)
    belongs to cell j*n + i, that is to triangle 2*(j*n + i) + t.
    """
    n = grid.shape[0] - 1
    return [[grid[dj : dj + n, di : di + n] for dj, di in corners] for corners in _TRIANGLE_CORNERS]


@cached
def dof_partition(mesh: Mesh) -> DofPartition:
    """Split vertex indices by boundary role.

    A vertex on a GAMMA1 side is clamped (corners shared with the flux
    portion included, so the clamped condition wins there).  Every index
    set is in increasing vertex order, read from the side lines of the
    vertex grid.  GAMMA1 is a union of whole sides, so the free vertices are
    a row-major tensor grid: the vertex grid without the rows and columns of
    the clamped sides.
    """
    n = mesh.n
    clamped = np.zeros((n + 1, n + 1), dtype=bool)
    flux = np.zeros((n + 1, n + 1), dtype=bool)
    for side in SIDES:
        (clamped if side in mesh.gamma1_sides else flux)[_SIDE_LINES[side]] = True
    return DofPartition(
        gamma1_dofs=np.flatnonzero(clamped),
        free_dofs=np.flatnonzero(~clamped),
        gamma2_trace_dofs=np.flatnonzero(flux),
    )


@dataclass(frozen=True, eq=False)
class _Field:
    """Coefficients on a mesh, a vector or a block of one per column, with the vector-space operations."""

    mesh: Mesh
    coefficients: np.ndarray

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeff)
        size = self._size()
        if coeff.shape[:1] != (size,) or coeff.ndim > 2:
            raise ValueError(f"expected {size} {self._label} coefficients per column, got {coeff.shape}")
        if not np.isfinite(coeff).all():
            raise ValueError(f"{self._label} coefficients must be finite")

    def _check_same_mesh(self, other):
        if self.mesh is not other.mesh:
            raise ValueError("fields live on different meshes")

    def __add__(self, other):
        self._check_same_mesh(other)
        return type(self)(self.mesh, self.coefficients + other.coefficients)

    def __sub__(self, other):
        self._check_same_mesh(other)
        return type(self)(self.mesh, self.coefficients - other.coefficients)

    def __mul__(self, scalar):
        return type(self)(self.mesh, self.coefficients * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.mesh, -self.coefficients)


class NodalField(_Field):
    """Piecewise-linear function given by one coefficient per mesh vertex."""

    _label = "nodal"

    def _size(self):
        return len(self.mesh.vertices)


class TraceField(_Field):
    """Function on the flux boundary portion, one coefficient per trace vertex.

    Coefficients follow the gamma2_trace_dofs ordering of the mesh partition.
    """

    _label = "trace"

    def _size(self):
        return len(dof_partition(self.mesh).gamma2_trace_dofs)


def zero_trace(mesh: Mesh) -> TraceField:
    return TraceField(mesh, np.zeros(len(dof_partition(mesh).gamma2_trace_dofs)))


def trace_restrict(v: NodalField) -> TraceField:
    """Values of a nodal field at the flux-boundary trace vertices."""
    g2 = dof_partition(v.mesh).gamma2_trace_dofs
    return TraceField(v.mesh, v.coefficients[g2])


def trace_extend(q: TraceField) -> NodalField:
    """Extension by zero of a trace function to the full vertex set."""
    coeff = np.zeros(len(q.mesh.vertices))
    coeff[dof_partition(q.mesh).gamma2_trace_dofs] = q.coefficients
    return NodalField(q.mesh, coeff)


def _evaluate_callable(f, x, y, where):
    return _checked_values(f(x, y), x.shape, where)


def _checked_values(vals, shape, where):
    """A callable's values as a finite float array of the given shape; scalars broadcast."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape == ():
        vals = np.full(shape, float(vals))
    if vals.shape != shape:
        raise ValueError(f"field callable returned shape {vals.shape}, expected {shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"field callable returned a non-finite value at a {where}")
    return vals


def interpolate_trace(f, mesh: Mesh) -> TraceField:
    """Interpolant of f(x, y) at the flux-boundary trace vertices."""
    g2 = dof_partition(mesh).gamma2_trace_dofs
    vals = _evaluate_callable(f, mesh.vertices[g2, 0], mesh.vertices[g2, 1], "trace vertex")
    return TraceField(mesh, vals)


def _nesting_steps(coarse_mesh: Mesh, fine_mesh: Mesh) -> int:
    if coarse_mesh.gamma1_sides != fine_mesh.gamma1_sides:
        raise ValueError("meshes are not nested: boundary tagging differs")
    return check_nesting(coarse_mesh.n, fine_mesh.n)


def _prolong_grid(grid: np.ndarray) -> np.ndarray:
    # new vertices sit at edge midpoints, including the cell diagonals,
    # so midpoint averaging reproduces the coarse function exactly
    m = grid.shape[0] - 1
    fine = np.empty((2 * m + 1, 2 * m + 1))
    fine[0::2, 0::2] = grid
    fine[0::2, 1::2] = (grid[:, :-1] + grid[:, 1:]) / 2.0
    fine[1::2, 0::2] = (grid[:-1, :] + grid[1:, :]) / 2.0
    fine[1::2, 1::2] = (grid[:-1, :-1] + grid[1:, 1:]) / 2.0
    return fine


def prolongate(coarse: NodalField, fine_mesh: Mesh) -> NodalField:
    """Represent a coarse piecewise-linear function exactly on a nested fine mesh."""
    n = coarse.mesh.n
    grid = coarse.coefficients.reshape(n + 1, n + 1)
    for _ in range(_nesting_steps(coarse.mesh, fine_mesh)):
        grid = _prolong_grid(grid)
    return NodalField(fine_mesh, grid.ravel())


def prolongate_trace(coarse: TraceField, fine_mesh: Mesh) -> TraceField:
    """Exact fine-mesh representation of a flux-boundary trace function."""
    # boundary midpoints only ever average the two endpoints of their own
    # boundary edge, so the fine trace depends on the coarse trace alone
    return trace_restrict(prolongate(trace_extend(coarse), fine_mesh))


def restrict_trace(fine: TraceField, coarse_mesh: Mesh) -> TraceField:
    """Pointwise restriction of a fine trace function to the coarse trace vertices."""
    # nested meshes share their sides, so every coarse flux vertex is a fine one
    r = 2 ** _nesting_steps(coarse_mesh, fine.mesh)
    n = fine.mesh.n
    grid = trace_extend(fine).coefficients.reshape(n + 1, n + 1)
    return trace_restrict(NodalField(coarse_mesh, grid[::r, ::r].ravel()))
