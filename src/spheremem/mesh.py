"""Icosphere generation and geometric statistics for triangulated spheres.

The reference surface is the sphere of radius ``R`` triangulated by recursive
subdivision of a regular icosahedron, with new vertices reprojected to the
exact sphere.  The icosahedron is oriented with vertices at the north and
south poles so that the mesh inherits the full icosahedral symmetry group
about the z-axis (C5 rotations and the S10 rotoreflection), which the
constraint experiments exploit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    (the reference configuration); perturbed meshes carry ``None``.
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
    """Split every triangle in four; midpoints are reprojected to the sphere."""
    verts = list(map(tuple, verts))
    cache: dict[tuple[int, int], int] = {}

    def midpoint(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        idx = cache.get(key)
        if idx is not None:
            return idx
        m = 0.5 * (np.asarray(verts[i]) + np.asarray(verts[j]))
        m *= radius / np.linalg.norm(m)
        verts.append(tuple(m))
        idx = len(verts) - 1
        cache[key] = idx
        return idx

    out = []
    for a, b, c in tris:
        ab = midpoint(a, b)
        bc = midpoint(b, c)
        ca = midpoint(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(verts), np.array(out, dtype=np.int64)


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


def triangle_areas_normals(mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle areas and unit normals (orientation as stored); raises
    :class:`MeshTopologyError` for no triangles or a degenerate one: an area
    not finite or at most :data:`DEGENERATE_REL_AREA` times the largest."""
    p = mesh.vertices[mesh.triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    doubled = np.linalg.norm(cross, axis=1)
    areas = 0.5 * doubled
    if areas.size == 0:
        raise MeshTopologyError("mesh has no triangles")
    if not np.all(np.isfinite(areas)) or areas.min() <= DEGENERATE_REL_AREA * areas.max():
        raise MeshTopologyError("mesh contains a degenerate triangle")
    return areas, cross / doubled[:, None]


def vertex_normals(mesh: TriangleMesh) -> np.ndarray:
    """Area-weighted vertex normals, unit length."""
    areas, normals = triangle_areas_normals(mesh)
    acc = np.zeros_like(mesh.vertices)
    w = normals * areas[:, None]
    for k in range(3):
        np.add.at(acc, mesh.triangles[:, k], w)
    acc /= np.linalg.norm(acc, axis=1)[:, None]
    return acc


def mesh_stats(mesh: TriangleMesh) -> MeshStats:
    """Area, enclosed volume (divergence theorem) and longest edge.

    The connectivity must be closed, as :func:`validate_closed` checks; it is
    not re-checked here.  A degenerate triangle raises :class:`MeshTopologyError`.
    """
    areas, normals = triangle_areas_normals(mesh)
    p = mesh.vertices[mesh.triangles]
    centroids = p.mean(axis=1)
    volume = np.sum(np.einsum("ij,ij->i", centroids, normals) * areas) / 3.0
    # Each edge of a closed mesh is a side of two triangles, once per direction;
    # a reversed edge vector has the same norm bit for bit.
    h_max = float(np.max(np.linalg.norm(p[:, [1, 2, 0]] - p, axis=2)))
    return MeshStats(
        num_vertices=mesh.num_vertices,
        num_triangles=mesh.num_triangles,
        h_max=h_max,
        total_area=float(np.sum(areas)),
        enclosed_volume=float(volume),
    )


def mesh_checksum(mesh: TriangleMesh) -> str:
    """Stable hex digest of the vertex and connectivity arrays."""
    import hashlib

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(mesh.vertices).tobytes())
    h.update(np.ascontiguousarray(mesh.triangles).tobytes())
    return h.hexdigest()
