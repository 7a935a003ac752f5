"""Structured triangulations of the unit square with a tagged boundary split.

The domain is fixed to the unit square.  An n-by-n grid of cells is cut into
right triangles along each cell diagonal running from the lower-left to the
upper-right corner, so refining by cell halving keeps every coarse vertex a
fine vertex.  Whole sides of the square are assigned to the clamped boundary
portion (tag GAMMA1, where the solution value is prescribed); all remaining
boundary edges carry the controlled-flux tag (GAMMA2).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

SIDES = ("bottom", "right", "top", "left")


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
    triangles : (T, 3) integer array, counterclockwise vertex triples.
    boundary_edges : (E, 2) integer array of boundary vertex pairs.
    boundary_tags : (E,) array of BoundaryTag values, one per boundary edge.
    gamma1_sides : the sides whose edges carry the GAMMA1 tag.
    h : longest triangle side, sqrt(2)/n.
    store : values derived from the mesh alone (partition, areas,
        matrices, factorizations, constants), filled on first use by
        ``cached`` functions and released with the mesh.
    """

    n: int
    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
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


def build_structured_mesh(n, gamma1_sides) -> Mesh:
    """Triangulate the unit square with n cells per side.

    Parameters
    ----------
    n : int
        Number of cells along each side, at least 1.
    gamma1_sides : iterable of str
        Sides ("bottom", "right", "top", "left") forming the clamped boundary
        portion.  Must be a nonempty proper subset of the four sides, so both
        boundary portions have positive length.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    sides = frozenset(gamma1_sides)
    unknown = sides - set(SIDES)
    if unknown:
        raise ValueError(f"unknown sides {sorted(unknown)}; valid sides are {SIDES}")
    if not sides:
        raise ValueError("gamma1_sides must not be empty: the clamped portion needs positive length")
    if sides == set(SIDES):
        raise ValueError("gamma1_sides must not cover all four sides: the flux portion needs positive length")

    n = int(n)
    # arange/n keeps coarse and refined vertex coordinates bitwise identical
    coords = np.arange(n + 1, dtype=float) / n
    xg, yg = np.meshgrid(coords, coords)
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    ii, jj = np.meshgrid(np.arange(n), np.arange(n))
    i0 = ii.ravel()
    j0 = jj.ravel()
    v00 = j0 * (n + 1) + i0
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    k = np.arange(n)
    side_edges = {
        "bottom": np.column_stack([k, k + 1]),
        "right": np.column_stack([k * (n + 1) + n, (k + 1) * (n + 1) + n]),
        "top": np.column_stack([n * (n + 1) + k, n * (n + 1) + k + 1]),
        "left": np.column_stack([k * (n + 1), (k + 1) * (n + 1)]),
    }
    edges = []
    tags = []
    for side in SIDES:
        edges.append(side_edges[side])
        tag = BoundaryTag.GAMMA1 if side in sides else BoundaryTag.GAMMA2
        tags.append(np.full(n, int(tag), dtype=np.int64))
    boundary_edges = np.vstack(edges)
    boundary_tags = np.concatenate(tags)

    return Mesh(
        n=n,
        vertices=vertices,
        triangles=triangles,
        boundary_edges=boundary_edges,
        boundary_tags=boundary_tags,
        gamma1_sides=sides,
        h=float(np.sqrt(2.0) / n),
    )


def refine(mesh: Mesh) -> Mesh:
    """Halve every cell; the refined mesh contains every vertex of the input."""
    return build_structured_mesh(2 * mesh.n, mesh.gamma1_sides)


@cached
def dof_partition(mesh: Mesh) -> DofPartition:
    """Split vertex indices by boundary role.

    A vertex incident to any GAMMA1 edge is clamped (corners shared with the
    flux portion included, so the clamped condition wins there).  The trace
    and clamped index sets are in increasing vertex order; the free vertices
    are in nested-dissection order, so the free block of any mesh matrix
    comes in a fill-reducing order.
    """
    g1 = np.unique(mesh.boundary_edges[mesh.boundary_tags == BoundaryTag.GAMMA1])
    g2 = np.unique(mesh.boundary_edges[mesh.boundary_tags == BoundaryTag.GAMMA2])
    nd = nested_dissection(mesh)
    free = nd[~np.isin(nd, g1)]
    return DofPartition(gamma1_dofs=g1, free_dofs=free, gamma2_trace_dofs=g2)


@cached
def nested_dissection(mesh: Mesh) -> np.ndarray:
    """All vertex indices, ordered by recursive bisection of the vertex grid.

    Each block of the grid is split by its middle grid line, which no mesh
    edge crosses; the two halves come first, the line last.  A sparse
    factorization in this order eliminates the halves independently and
    fills in like O(N log N).  Read-only, since it is shared.
    """
    order = []

    def split(block):
        rows, cols = block.shape
        if rows * cols <= 16:
            order.append(block.ravel())
        elif cols >= rows:
            split(block[:, : cols // 2])
            split(block[:, cols // 2 + 1 :])
            order.append(block[:, cols // 2])
        else:
            split(block[: rows // 2])
            split(block[rows // 2 + 1 :])
            order.append(block[rows // 2])

    split(np.arange(len(mesh.vertices)).reshape(mesh.n + 1, mesh.n + 1))
    order = np.concatenate(order)
    order.setflags(write=False)
    return order


@dataclass(frozen=True, eq=False)
class _Field:
    """Coefficient vector on a mesh, with the vector-space operations."""

    mesh: Mesh
    coefficients: np.ndarray

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeff)
        size = self._size()
        if coeff.shape != (size,):
            raise ValueError(f"expected {size} {self._label} coefficients, got shape {coeff.shape}")
        if not np.all(np.isfinite(coeff)):
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


def _evaluate_callable(f, x, y, where):
    vals = np.asarray(f(x, y), dtype=float)
    if vals.shape == ():
        vals = np.full(x.shape, float(vals))
    if vals.shape != x.shape:
        raise ValueError(f"field callable returned shape {vals.shape}, expected {x.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"field callable returned a non-finite value at a {where}")
    return vals


def interpolate_nodal(f, mesh: Mesh) -> NodalField:
    """Vertex interpolant of the callable f(x, y) (accepts coordinate arrays)."""
    vals = _evaluate_callable(f, mesh.vertices[:, 0], mesh.vertices[:, 1], "vertex")
    return NodalField(mesh, vals)


def interpolate_trace(f, mesh: Mesh) -> TraceField:
    """Interpolant of f(x, y) at the flux-boundary trace vertices."""
    g2 = dof_partition(mesh).gamma2_trace_dofs
    vals = _evaluate_callable(f, mesh.vertices[g2, 0], mesh.vertices[g2, 1], "trace vertex")
    return TraceField(mesh, vals)


def _nesting_steps(coarse_mesh: Mesh, fine_mesh: Mesh) -> int:
    if coarse_mesh.gamma1_sides != fine_mesh.gamma1_sides:
        raise ValueError("meshes are not nested: boundary tagging differs")
    ratio, k = fine_mesh.n, 0
    cn = coarse_mesh.n
    while ratio > cn and ratio % 2 == 0:
        ratio //= 2
        k += 1
    if ratio != cn or k < 1:
        raise ValueError(
            f"meshes are not nested: fine n={fine_mesh.n} is not coarse n={cn} refined"
        )
    return k


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


def prolongate(coarse: NodalField, coarse_mesh: Mesh, fine_mesh: Mesh) -> NodalField:
    """Represent a coarse piecewise-linear function exactly on a nested fine mesh."""
    if coarse.mesh is not coarse_mesh:
        raise ValueError("field does not live on the given coarse mesh")
    steps = _nesting_steps(coarse_mesh, fine_mesh)
    grid = coarse.coefficients.reshape(coarse_mesh.n + 1, coarse_mesh.n + 1)
    for _ in range(steps):
        grid = _prolong_grid(grid)
    return NodalField(fine_mesh, grid.ravel())


def prolongate_trace(coarse: TraceField, coarse_mesh: Mesh, fine_mesh: Mesh) -> TraceField:
    """Exact fine-mesh representation of a flux-boundary trace function."""
    if coarse.mesh is not coarse_mesh:
        raise ValueError("field does not live on the given coarse mesh")
    steps = _nesting_steps(coarse_mesh, fine_mesh)
    # extend by zero, prolongate the full grid, restrict; boundary midpoints
    # only ever average the two endpoints of their own boundary edge
    grid = np.zeros((coarse_mesh.n + 1, coarse_mesh.n + 1))
    g2c = dof_partition(coarse_mesh).gamma2_trace_dofs
    grid.ravel()[g2c] = coarse.coefficients
    for _ in range(steps):
        grid = _prolong_grid(grid)
    g2f = dof_partition(fine_mesh).gamma2_trace_dofs
    return TraceField(fine_mesh, grid.ravel()[g2f])


def restrict_trace(fine: TraceField, fine_mesh: Mesh, coarse_mesh: Mesh) -> TraceField:
    """Pointwise restriction of a fine trace function to the coarse trace vertices."""
    if fine.mesh is not fine_mesh:
        raise ValueError("field does not live on the given fine mesh")
    _nesting_steps(coarse_mesh, fine_mesh)
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
