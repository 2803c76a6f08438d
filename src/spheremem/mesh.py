"""Icosphere generation, the triangle measures and P1 pattern a mesh keeps,
and statistics.

The reference surface is the sphere of radius ``R`` triangulated by recursive
subdivision of a regular icosahedron, with new vertices reprojected to the
exact sphere.  The icosahedron is oriented with vertices at the north and
south poles so that the mesh inherits the full icosahedral symmetry group
about the z-axis (C5 rotations and the S10 rotoreflection), which the
constraint experiments exploit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MeshTopologyError, ParameterError, SizeLimitError, check_finite

#: Hard cap on subdivision depth; level 8 is ~655k vertices.
MAX_LEVEL = 8

#: A triangle whose area is at most this fraction of the largest is degenerate.
DEGENERATE_REL_AREA = 1e-14


@dataclass(frozen=True)
class TriangleMesh:
    """Closed oriented triangle surface.

    ``radius_hint`` is set when the vertices sample a sphere of that radius
    (the reference configuration); perturbed meshes carry ``None``.  The
    triangle ``areas`` and ``normals`` are measured on first use and kept, and
    so is the CSR ``pattern`` of the P1 matrices, which belongs to the
    connectivity: a surface made by :meth:`moved` shares its mesh's.
    """

    vertices: np.ndarray       # (n, 3) float64
    triangles: np.ndarray      # (m, 3) int64, outward oriented
    radius_hint: float | None = None

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=np.float64)
        t = np.ascontiguousarray(self.triangles, dtype=np.int64)
        v.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def _geometry(self) -> tuple[np.ndarray, np.ndarray]:
        return _measure_triangles(self)

    @property
    def areas(self) -> np.ndarray:
        return self._geometry[0]

    @property
    def normals(self) -> np.ndarray:
        return self._geometry[1]

    @cached_property
    def pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the P1 matrices on this connectivity and
        each triangle's ``slots`` in their data, from :func:`_csr_pattern`."""
        return _csr_pattern(self.triangles, self.num_vertices)

    def moved(self, vertices: np.ndarray) -> TriangleMesh:
        """This connectivity at new vertex positions (``radius_hint`` None),
        sharing this mesh's pattern."""
        mesh = TriangleMesh(vertices, self.triangles)
        mesh.__dict__["pattern"] = self.pattern
        return mesh


@dataclass(frozen=True)
class MeshStats:
    num_vertices: int
    num_triangles: int
    h_max: float
    total_area: float
    enclosed_volume: float


def _pole_icosahedron(radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Regular icosahedron with vertices at (0,0,+-R)."""
    z = radius / np.sqrt(5.0)
    r = 2.0 * radius / np.sqrt(5.0)
    verts = [(0.0, 0.0, radius)]
    for k in range(5):
        a = 2.0 * np.pi * k / 5.0
        verts.append((r * np.cos(a), r * np.sin(a), z))
    for k in range(5):
        a = 2.0 * np.pi * k / 5.0 + np.pi / 5.0
        verts.append((r * np.cos(a), r * np.sin(a), -z))
    verts.append((0.0, 0.0, -radius))
    verts = np.array(verts)

    tris = []
    for k in range(5):
        kn = (k + 1) % 5
        u0, u1 = 1 + k, 1 + kn
        l0, l1 = 6 + k, 6 + kn
        tris.append((0, u0, u1))          # top cap
        tris.append((u0, l0, u1))         # upper band
        tris.append((l0, l1, u1))         # lower band
        tris.append((11, l1, l0))         # bottom cap
    tris = np.array(tris, dtype=np.int64)

    # Fix outward orientation using convexity: normal must point away from
    # the origin.
    p = verts[tris]
    normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    centroids = p.mean(axis=1)
    flip = np.einsum("ij,ij->i", normals, centroids) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return verts, tris


def _subdivide(verts: np.ndarray, tris: np.ndarray, radius: float):
    """Split every triangle in four; midpoints are reprojected to the sphere.

    The edges (a,b), (b,c), (c,a) of each triangle, in triangle order, number
    the new midpoints by first encounter: the vertex order of a triangle-by-
    triangle walk.
    """
    n = verts.shape[0]
    edges = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys = np.minimum(edges[:, 0], edges[:, 1]) * n + np.maximum(edges[:, 0], edges[:, 1])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    mid = (n + rank[inverse]).reshape(-1, 3)
    ends = edges[first[order]]
    m = 0.5 * (verts[ends[:, 0]] + verts[ends[:, 1]])
    # A stacked matmul takes each |m|^2 by the same dot product as
    # np.linalg.norm of one vector, so the vertices are those of a
    # per-midpoint loop bit for bit; norm(axis=1) and einsum are not.
    m *= radius / np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
    a, b, c = tris.T
    ab, bc, ca = mid.T
    out = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    return np.vstack([verts, m]), out.reshape(-1, 3)


def build_icosphere(radius: float, level: int) -> TriangleMesh:
    """Icosahedron projected to radius ``radius`` and subdivided ``level`` times.

    Vertex count is 10*4**level + 2.  Raises :class:`ParameterError` for a
    non-finite or nonpositive radius or a negative level and
    :class:`SizeLimitError` above :data:`MAX_LEVEL`.
    """
    check_finite(radius=radius)
    if radius <= 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    if level < 0:
        raise ParameterError(f"level must be nonnegative, got {level}")
    if level > MAX_LEVEL:
        raise SizeLimitError(f"subdivision level {level} exceeds cap {MAX_LEVEL}")
    verts, tris = _pole_icosahedron(radius)
    for _ in range(level):
        verts, tris = _subdivide(verts, tris, radius)
    return TriangleMesh(verts, tris, radius_hint=radius)


def validate_closed(mesh: TriangleMesh) -> None:
    """Check watertightness and consistent orientation.

    Every directed edge must appear exactly once, i.e. each undirected edge is
    shared by exactly two triangles traversed in opposite directions.
    """
    t = mesh.triangles
    n = mesh.num_vertices
    if t.size and (t.min() < 0 or t.max() >= n):
        raise MeshTopologyError("a triangle refers to a vertex outside the mesh")
    directed = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    codes = directed[:, 0] * n + directed[:, 1]
    if np.unique(codes).size != codes.size:
        raise MeshTopologyError("a directed edge appears twice; inconsistent orientation")
    reverse = directed[:, 1] * n + directed[:, 0]
    if not np.all(np.isin(reverse, codes)):
        raise MeshTopologyError("an edge has no opposite partner; surface not closed")


def _sides(mesh: TriangleMesh, pairs):
    """Yield the side vectors p_j - p_i, one (m, 3) array per pair (i, j) of
    local vertices, gathered per corner: the (m, 3, 3) array ``p =
    vertices[triangles]`` is never formed.  Each equals ``p[:, j] - p[:, i]``
    bit for bit."""
    v, t = mesh.vertices, mesh.triangles
    for i, j in pairs:
        e = v[t[:, j]]
        e -= v[t[:, i]]
        yield e


def _measure_triangles(mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
    """Read-only triangle areas and unit normals (orientation as stored); raises
    :class:`MeshTopologyError` for no triangles or a degenerate one: an area
    not finite or at most :data:`DEGENERATE_REL_AREA` times the largest."""
    cross = np.cross(*_sides(mesh, ((0, 1), (0, 2))))
    doubled = np.linalg.norm(cross, axis=1)
    areas = 0.5 * doubled
    if areas.size == 0:
        raise MeshTopologyError("mesh has no triangles")
    if not np.all(np.isfinite(areas)) or areas.min() <= DEGENERATE_REL_AREA * areas.max():
        raise MeshTopologyError("mesh contains a degenerate triangle")
    normals = cross
    normals /= doubled[:, None]
    areas.setflags(write=False)
    normals.setflags(write=False)
    return areas, normals


def _csr_pattern(triangles: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only int32 CSR ``(indptr, indices)`` of the P1 matrices on n
    vertices, and the (m, 9) int32 ``slots`` in their data of each triangle's
    local pairs (0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2).

    Row i holds the vertices sharing an edge with i and, if a triangle uses it,
    i itself, in increasing order: the lower ends of the edges whose upper end
    is i, then i, then the upper ends of the edges whose lower end is i.  Any
    triangle list will do, closed or not, whose triangles have three distinct
    vertices (a repeated one has zero area, which the measurement rejects).
    """
    b = triangles[:, [1, 2, 0]]            # (triangles, b): the local pairs (0, 1), (1, 2), (2, 0)
    flip = triangles > b                           # the pair runs from its edge's upper end
    keys = np.minimum(triangles, b)
    keys *= n
    keys += np.maximum(triangles, b, out=b)
    del b
    edges, edge = np.unique(keys, return_inverse=True)
    del keys
    lo, hi = np.divmod(edges, n)                   # sorted by (lo, hi)
    del edges
    below = np.bincount(hi, minlength=n)
    above = np.bincount(lo, minlength=n)
    used = below + above > 0
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(below + used + above, out=indptr[1:])
    diag = indptr[:-1] + below
    # The slots of (lo, hi) and (hi, lo) of each edge.  The edges of one lo fill
    # its row right of the diagonal in order; those of one hi, taken in a
    # stable order by hi, fill its row left of the diagonal.
    rank = np.arange(lo.size)
    pair_slot = np.empty((lo.size, 2), dtype=np.int32)
    pair_slot[:, 0] = (diag + 1 - (np.cumsum(above) - above))[lo] + rank
    by_hi = np.argsort(hi, kind="stable")
    pair_slot[by_hi, 1] = (indptr[:-1] - (np.cumsum(below) - below))[hi[by_hi]] + rank
    del rank, by_hi
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[pair_slot[:, 0]] = hi
    indices[pair_slot[:, 1]] = lo
    indices[diag[used]] = np.flatnonzero(used)
    del lo, hi
    slots = np.empty((triangles.shape[0], 9), dtype=np.int32)
    slots[:, :3] = diag.astype(np.int32)[triangles]
    forward = edge.reshape(triangles.shape)        # where pair_slot holds (a, b)
    forward *= 2
    forward += flip
    pair_slot = pair_slot.ravel()
    slots[:, 3:6] = pair_slot[forward]
    forward ^= 1
    slots[:, 6:] = pair_slot[forward]
    pattern = indptr.astype(np.int32), indices, slots
    for arr in pattern:
        arr.setflags(write=False)
    return pattern


def vertex_normals(mesh: TriangleMesh) -> np.ndarray:
    """Area-weighted vertex normals, unit length."""
    acc = np.zeros_like(mesh.vertices)
    w = mesh.normals * mesh.areas[:, None]
    for k in range(3):
        np.add.at(acc, mesh.triangles[:, k], w)
    acc /= np.linalg.norm(acc, axis=1)[:, None]
    return acc


def triangle_centroids(mesh: TriangleMesh) -> np.ndarray:
    """Triangle centroids (m, 3), bit for bit ``vertices[triangles].mean(axis=1)``
    (the corners summed in order, then divided by 3) without the (m, 3, 3)
    array."""
    v, t = mesh.vertices, mesh.triangles
    centroids = v[t[:, 0]]
    centroids += v[t[:, 1]]
    centroids += v[t[:, 2]]
    centroids /= 3.0
    return centroids


def area_and_volume(mesh: TriangleMesh) -> tuple[float, float]:
    """Total area and enclosed volume (divergence theorem).

    The connectivity must be closed, as :func:`validate_closed` checks; it is
    not re-checked here.  A degenerate triangle raises :class:`MeshTopologyError`.
    """
    centroids = triangle_centroids(mesh)
    volume = np.sum(np.einsum("ij,ij->i", centroids, mesh.normals) * mesh.areas) / 3.0
    return float(np.sum(mesh.areas)), float(volume)


def mesh_stats(mesh: TriangleMesh) -> MeshStats:
    """Area, enclosed volume and longest edge, under the conditions of
    :func:`area_and_volume`."""
    area, volume = area_and_volume(mesh)
    # Each edge of a closed mesh is a side of two triangles, once per direction;
    # a reversed edge vector has the same norm bit for bit.
    h_max = max(float(np.linalg.norm(e, axis=1).max())
                for e in _sides(mesh, ((0, 1), (1, 2), (2, 0))))
    return MeshStats(
        num_vertices=mesh.num_vertices,
        num_triangles=mesh.num_triangles,
        h_max=h_max,
        total_area=area,
        enclosed_volume=volume,
    )


def mesh_checksum(mesh: TriangleMesh) -> str:
    """Stable hex digest of the vertex and connectivity arrays."""
    import hashlib

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(mesh.vertices).tobytes())
    h.update(np.ascontiguousarray(mesh.triangles).tobytes())
    return h.hexdigest()
