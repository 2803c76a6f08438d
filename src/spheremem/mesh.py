"""Icosphere generation, the triangle measures, P1 pattern and P1 matrix data
a mesh keeps, and statistics.

The reference surface is the sphere of radius ``R`` triangulated by recursive
subdivision of a regular icosahedron, with new vertices reprojected to the
exact sphere.  The icosahedron is oriented with vertices at the north and
south poles so that the mesh inherits the full icosahedral symmetry group
about the z-axis (C5 rotations and the S10 rotoreflection), which the
constraint experiments exploit.  The symmetry group holds the reflections in
three perpendicular mirror planes, which the subdivision carries exactly
(``mirror_maps``) and whose product is the antipodal map x -> -x, and the
rotation by 120 degrees that cycles their normals (``rotation_map``): the
saddle LUs split by the mirrors into the eight blocks of the group they
generate, half the fill of a split by the antipodal map alone, and the
points' LU factors only one block of each cycle of blocks under the rotation,
half again (``fem.SaddleSystem``).  An icosphere derives these maps on first
use and keeps them (``TriangleMesh.symmetry_maps``).

Everything a surface's triangles contribute is measured in one pass over its
corners, ``_measure_triangles``: the three corners of each triangle are
gathered once, and from them and their edge vectors come the areas, the
enclosed volume (through each block's unit normals and centroids), the total
area, the longest edge, and the local P1 mass and cotangent stiffness values,
which the scatter keys of the connectivity's pattern (``_csr_pattern``,
derived once and shared) sum into the CSR data of M and S; the lower entry of
each edge copies its upper one.  The pass runs over blocks of ``PASS_BLOCK``
triangles, whose temporaries stay small enough to be reused from the heap
rather than mapped afresh; a mesh keeps its result, so each surface is
measured once (Dziuk & Elliott, *Acta Numerica* 22 (2013) 289 for the P1
surface matrices).  The (m, 3) unit normals of the triangles are not kept:
only the lumped curvature's vertex normals read them, and
``TriangleMesh.normals`` forms them anew on each read by the pass's own
expression (``_unit_normals``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, MeshTopologyError, ParameterError, SizeLimitError, check_finite

#: Hard cap on subdivision depth; level 8 is ~655k vertices.
MAX_LEVEL = 8

#: A triangle whose area is at most this fraction of the largest is degenerate.
DEGENERATE_REL_AREA = 1e-14

#: Triangles per block of ``_measure_triangles``: a block's (k, 3) float
#: temporaries take 48 KiB, under glibc's 128 KiB mmap threshold, so they are
#: served from the heap and reused instead of mapped and faulted in afresh.
PASS_BLOCK = 2048

#: Each mirror map of an icosphere, and its rotation map, takes every vertex to
#: within this fraction of the radius of its image.
MIRROR_TOL_REL = 1e-12

#: The P1 mass matrix's local values on the pairs (0, 0), (1, 1), (2, 2),
#: (0, 1), (1, 2), (2, 0), per unit of the triangle's area.
MASS_LOCAL = np.repeat([2.0, 1.0], 3) / 12.0


class SurfaceMeasures(NamedTuple):
    """What one pass over a surface's triangle corners measures (read-only
    arrays).  ``mass`` and ``stiffness`` are the CSR data of M and S in the
    connectivity's ``pattern``."""

    areas: np.ndarray       # (m,)
    area: float
    volume: float           # divergence theorem; meaningful on closed surfaces
    h_max: float            # longest edge
    mass: np.ndarray
    stiffness: np.ndarray


@dataclass(frozen=True)
class TriangleMesh:
    """Closed oriented triangle surface.

    ``radius_hint`` is set when the vertices sample a sphere of that radius
    (the reference configuration); perturbed meshes carry ``None``.  The
    surface's measures (:class:`SurfaceMeasures`: the triangle ``areas``
    among them) are taken by one pass on first use and kept, and so is the
    CSR ``pattern`` of the P1 matrices, which belongs to the connectivity: a
    surface made by :meth:`moved` shares its mesh's.  The triangle
    ``normals`` are formed on each read and not kept.
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
    def _geometry(self) -> SurfaceMeasures:
        return _measure_triangles(self)

    @property
    def areas(self) -> np.ndarray:
        return self._geometry[0]

    @property
    def normals(self) -> np.ndarray:
        """The (m, 3) unit normals of the triangles, orientation as stored
        (:func:`_triangle_normals`), formed anew on each read (read-only)."""
        return _triangle_normals(self)

    @cached_property
    def symmetry_maps(self) -> np.ndarray:
        """The vertex permutations (4, n) of an icosphere's three mirror
        reflections and its rotation (:func:`_symmetry_maps`), derived on first
        use and kept; read through :func:`mirror_maps` and :func:`rotation_map`.
        They belong to the reference sphere: a surface made by :meth:`moved`
        has none."""
        return _symmetry_maps(self)

    @cached_property
    def pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The P1 pattern of this connectivity, ``(indptr, indices, keys,
        edges)``: :func:`_csr_pattern` of its triangles."""
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
    triangle walk.  The children of triangle t are 4t ... 4t+3: (a, ab, ca),
    (b, bc, ab), (c, ca, bc) and (ab, bc, ca), so child k's first corner is
    corner k of t for k = 0, 1, 2 (``subdivision_corners``, and through it
    ``fem.PointLocator`` and ``_symmetry_maps``, rely on both).
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


def icosphere_level(mesh: TriangleMesh) -> int:
    """The subdivision level L of an icosphere, which has 20 4^L triangles and a
    ``radius_hint``; any other mesh raises :class:`GeometryError`."""
    m = mesh.num_triangles
    level = (m // 20).bit_length() // 2
    if mesh.radius_hint is None or m != 20 * 4**level:
        raise GeometryError(f"defined on icospheres only, not on a mesh of {m} triangles "
                            f"and radius_hint {mesh.radius_hint}")
    return level


def subdivision_corners(triangles: np.ndarray, level: int, t: np.ndarray,
                        at: int) -> np.ndarray:
    """The (..., 3) corner vertices of the level-``at`` triangles t of a
    level-``level`` icosphere's ``triangles``: corner k of a level-``at``
    triangle t is the first corner of triangle (4t + k) 4^(level - at - 1)
    (:func:`_subdivide`)."""
    if at == level:
        return triangles[t]
    return triangles[(4 * t[..., None] + np.arange(3)) * 4 ** (level - at - 1), 0]


def mirror_normals(mesh: TriangleMesh) -> np.ndarray:
    """The unit normals (3, 3) of the icosphere's three mirror planes of
    :func:`mirror_maps`: e1 = y-hat, e2 the unit midpoint of vertices 0 (the
    north pole) and 1, and e3 = e1 x e2."""
    e1 = np.array([0.0, 1.0, 0.0])
    e2 = mesh.vertices[0] + mesh.vertices[1]
    e2 /= np.linalg.norm(e2)
    return np.array([e1, e2, np.cross(e1, e2)])


def mirror_maps(mesh: TriangleMesh) -> np.ndarray:
    """The vertex permutations (3, n) of the reflections of an icosphere in
    its three mutually perpendicular mirror planes (:func:`mirror_normals`):
    vertices[P[m]] = vertices reflected in plane m.  Each is an involution
    that fixes the 2^(L+2) vertices on its plane; the three commute, generate
    the group Z2^3, and their product is the antipodal map x -> -x.  The
    reference sphere and every operator assembled on it are invariant under
    each.  They are the first three rows of the mesh's
    :attr:`TriangleMesh.symmetry_maps` (read-only, derived once per mesh)."""
    return mesh.symmetry_maps[:3]


def rotation_map(mesh: TriangleMesh) -> np.ndarray:
    """The vertex permutation (n,) of the rotation of an icosphere by 120
    degrees about (e1 + e2 + e3) / sqrt(3), which takes each mirror normal
    e_j of :func:`mirror_normals` to e_(j+1) (e3 to e1): vertices[R] =
    vertices rotated.  It has order 3 and conjugates mirror j into mirror
    j + 1, R[P_j] = P_(j+1)[R].  It is the last row of the mesh's
    :attr:`TriangleMesh.symmetry_maps` (read-only, derived once per mesh)."""
    return mesh.symmetry_maps[3]


def _symmetry_maps(mesh: TriangleMesh) -> np.ndarray:
    """The vertex permutations (4, n) of the icosphere's three mirror
    reflections (:func:`mirror_maps`) and of its rotation (:func:`rotation_map`),
    read off the subdivision without a search.

    The base icosahedron's 12 vertices map to the nearest vertex of their
    image, which maps each base face t onto a face t': corner k of t onto
    corner r + k (mod 3) of t' for one r under the rotation, which keeps the
    orientation, and onto corner r - k under a reflection, which reverses it.
    Then the midpoint of edge k of t, corner k of its middle child 4t + 3 =
    (ab, bc, ca), maps to the midpoint of edge r + k of t' (r - k - 1 under a
    reflection); each corner child 4t + k maps onto the child 4t' + r + k (4t'
    + r - k) with r = 0, and the middle child onto 4t' + 3 with r (r - 1)
    (:func:`_subdivide`).  A mesh that is not an icosphere, or one whose maps
    are not permutations or miss an image vertex by more than
    :data:`MIRROR_TOL_REL` R, raises :class:`GeometryError`.
    """
    level = icosphere_level(mesh)
    v, tris, n = mesh.vertices, mesh.triangles, mesh.num_vertices
    if n != 10 * 4**level + 2:
        raise GeometryError(f"an icosphere of level {level} has {10 * 4**level + 2} "
                            f"vertices, not {n}")
    normals = mirror_normals(mesh)
    reflected = v - 2.0 * (v @ normals.T).T[:, :, None] * normals[:, None, :]
    images = np.concatenate([reflected, (v @ normals.T) @ normals[[1, 2, 0]][None]])
    # Corner k of a face goes to corner r + turn k of its image.
    turn = np.array([-1, -1, -1, 1])[:, None, None]
    shift = (turn - 1) // 2
    P = np.empty((4, n), dtype=np.intp)
    P[:, :12] = np.argmin(((images[:, :12, None] - v[:12]) ** 2).sum(axis=3), axis=2)
    faces = subdivision_corners(tris, level, np.arange(20), 0)
    image = P[:, faces]
    codes = np.sort(faces, axis=1) @ [144, 12, 1]
    image_of = np.argmax((np.sort(image, axis=2) @ [144, 12, 1])[:, :, None] == codes, axis=2)
    r = np.argmax(image[:, :, :1] == faces[image_of], axis=2)
    k = np.arange(3)
    if not np.array_equal(np.take_along_axis(faces[image_of], (r[..., None] + turn * k) % 3,
                                             axis=2), image):
        raise GeometryError("the base faces of the mesh are not mapped onto faces by its "
                            "mirrors and rotation")
    for at in range(level):
        mids = subdivision_corners(tris, level, 4 * np.arange(20 * 4**at) + 3, at + 1)
        P[:, mids] = mids.ravel()[3 * image_of[..., None] + (r[..., None] + turn * k + shift) % 3]
        children = np.concatenate([(r[..., None] + turn * k) % 3, np.full((*r.shape, 1), 3)],
                                  axis=2)
        image_of = (4 * image_of[..., None] + children).reshape(4, -1)
        r = np.concatenate([np.zeros((*r.shape, 3), dtype=r.dtype), (r[..., None] + shift) % 3],
                           axis=2).reshape(4, -1)
    gap = float(np.abs(v[P] - images).max())
    hits = np.bincount((P + n * np.arange(4)[:, None]).ravel(), minlength=4 * n)
    if not np.all(hits == 1) or not gap <= MIRROR_TOL_REL * mesh.radius_hint:
        raise GeometryError(f"the mesh is not mirror symmetric: the images of its vertices "
                            f"under its mirrors and rotation miss vertices by up to {gap:.3g} "
                            f"(tolerance {MIRROR_TOL_REL * mesh.radius_hint:.3g})")
    P.setflags(write=False)
    return P


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


def _measure_triangles(mesh: TriangleMesh) -> SurfaceMeasures:
    """The one pass over the surface's corners (module docstring), in blocks of
    ``PASS_BLOCK`` triangles; raises :class:`MeshTopologyError` for no
    triangles or a degenerate one: an area not finite or at most
    :data:`DEGENERATE_REL_AREA` times the largest.

    Each value equals its plain expression on the (m, 3, 3) corner array
    ``p = vertices[triangles]`` bit for bit: the cross product of p1 - p0 and
    p2 - p0 (taken as e2 x e0, its exact equal), its norm, the centroids
    ``p.mean(axis=1)``, the cotangent weights, the longest edge and the sums
    over all triangles.
    """
    v, t = mesh.vertices, mesh.triangles
    m = t.shape[0]
    if m == 0:
        raise MeshTopologyError("mesh has no triangles")
    areas = np.empty(m)
    volume_terms = np.empty(m)
    local = np.empty((m, 6))        # the stiffness's local pairs, in the order of the keys
    h2_max = 0.0
    # A degenerate triangle divides by a zero area here; it is rejected below.
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, m, PASS_BLOCK):
            block = slice(start, start + PASS_BLOCK)
            p0, p1, p2 = (np.take(v, t[block, k], axis=0) for k in range(3))
            centroids = p0 + p1
            centroids += p2
            centroids /= 3.0
            # e_k runs from corner k to k + 1; e_1 and e_2 overwrite p1 and p2.
            e = (p1 - p0, np.subtract(p2, p1, out=p1), np.subtract(p0, p2, out=p2))
            del p0, p1, p2
            h2_max = max(h2_max, *(float(_squared_norms(ek).max()) for ek in e))
            normals, doubled = _unit_normals(e[2], e[0])
            area = areas[block]
            np.multiply(0.5, doubled, out=area)
            del doubled
            np.multiply(np.einsum("ij,ij->i", centroids, normals), area, out=volume_terms[block])
            del centroids, normals
            # Edge k, the pair (k, k + 1), faces the angle at vertex k + 2, whose
            # cotangent is -e_{k+1} . e_{k+2} / (2 area); its off-diagonal weight
            # is -cot/2, and a diagonal entry is minus the weights of the two
            # edges at its vertex.
            quarter = 4.0 * area
            for k in range(3):
                np.divide(np.einsum("ij,ij->i", e[(k + 1) % 3], e[(k + 2) % 3]), quarter,
                          out=local[block, 3 + k])
            for k in range(3):
                np.negative(local[block, 3 + k] + local[block, 3 + (k + 2) % 3],
                            out=local[block, k])
    if not np.all(np.isfinite(areas)) or areas.min() <= DEGENERATE_REL_AREA * areas.max():
        raise MeshTopologyError("mesh contains a degenerate triangle")
    volume = float(np.sum(volume_terms) / 3.0)
    del volume_terms
    _, indices, keys, edges = mesh.pattern
    stiffness = np.bincount(keys, weights=local.ravel(), minlength=indices.size)
    np.multiply.outer(areas, MASS_LOCAL, out=local)
    mass = np.bincount(keys, weights=local.ravel(), minlength=indices.size)
    del local
    # Each edge's lower entry takes its upper one's value, so the two agree bit
    # for bit.
    upper, lower = edges.T.astype(np.intp)
    for data in (stiffness, mass):
        data[lower] = data[upper]
    for arr in (areas, mass, stiffness):
        arr.setflags(write=False)
    # The square root is monotone and correctly rounded: that of the largest
    # squared length is the largest length.
    return SurfaceMeasures(areas, float(np.sum(areas)), volume,
                           float(np.sqrt(h2_max)), mass, stiffness)


def _unit_normals(e2: np.ndarray, e0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit normals (k, 3) of k triangles with edge vectors e2 (corner 2
    to 0) and e0 (corner 0 to 1), and the norms (k,) of e2 x e0, twice their
    areas: the one expression of the pass and of :func:`_triangle_normals`."""
    normals = np.cross(e2, e0)
    doubled = np.sqrt(_squared_norms(normals))
    normals /= doubled[:, None]
    return normals, doubled


def _triangle_normals(mesh: TriangleMesh) -> np.ndarray:
    """The read-only (m, 3) unit normals of the mesh's triangles, by
    :func:`_unit_normals` over blocks of ``PASS_BLOCK`` triangles, so that they
    are those the pass forms, bit for bit.  The mesh is measured first, so a
    degenerate triangle raises :class:`MeshTopologyError`."""
    mesh._geometry
    v, t = mesh.vertices, mesh.triangles
    normals = np.empty((t.shape[0], 3))
    for start in range(0, t.shape[0], PASS_BLOCK):
        block = slice(start, start + PASS_BLOCK)
        p0, p1, p2 = (np.take(v, t[block, k], axis=0) for k in range(3))
        normals[block] = _unit_normals(p0 - p2, p1 - p0)[0]
    normals.setflags(write=False)
    return normals


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """The row sums (x_0^2 + x_1^2) + x_2^2 of a (k, 3) array, column by column:
    those ``np.linalg.norm(x, axis=1)`` takes the square roots of, bit for bit,
    without its slow reduction over rows of three."""
    sq = x[:, 0] * x[:, 0]
    sq += x[:, 1] * x[:, 1]
    sq += x[:, 2] * x[:, 2]
    return sq


def _csr_pattern(triangles: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The P1 pattern on n vertices: read-only int32 CSR ``(indptr, indices)``,
    the (6 m,) intp scatter ``keys`` and the read-only (E, 2) int32 ``edges``,
    the slots of the entries (i, j) and (j, i), i < j, of each of the E edges.

    Row i holds the vertices sharing an edge with i and, if a triangle uses it,
    i itself, in increasing order: the lower ends of the edges whose upper end
    is i, then i, then the upper ends of the edges whose lower end is i.  Any
    triangle list will do, closed or not, whose triangles have three distinct
    vertices (a repeated one has zero area, which the measurement rejects).

    The keys are the slots in the matrices' data that each triangle's local
    pairs (0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0) sum into, triangle by
    triangle: the diagonal entries and each edge's upper entry (i, j), i < j.
    One bincount over them sums each entry over its triangles in triangle
    order.  They stay writeable: ``np.bincount`` copies a read-only array.
    """
    b = triangles[:, [1, 2, 0]]            # (triangles, b): the local pairs (0, 1), (1, 2), (2, 0)
    codes = np.minimum(triangles, b)
    codes *= n
    codes += np.maximum(triangles, b, out=b)
    del b
    edges, edge = np.unique(codes, return_inverse=True)
    del codes
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
    keys = np.empty((triangles.shape[0], 6), dtype=np.intp)
    keys[:, :3] = diag[triangles]
    keys[:, 3:] = pair_slot[edge.reshape(triangles.shape), 0]
    indptr = indptr.astype(np.int32)
    for arr in (indptr, indices, pair_slot):
        arr.setflags(write=False)
    return indptr, indices, keys.ravel(), pair_slot


def vertex_normals(mesh: TriangleMesh) -> np.ndarray:
    """Area-weighted vertex normals, unit length.  Each vertex sums the
    area-weighted normals of its triangles in the order of the corners
    ``triangles.T.ravel()``, corner 0 of every triangle, then corner 1, then
    corner 2: one ``np.bincount`` per coordinate."""
    corners = mesh.triangles.T.ravel()
    normals, areas = mesh.normals, mesh.areas
    acc = np.empty_like(mesh.vertices)
    for c in range(3):
        acc[:, c] = np.bincount(corners, weights=np.tile(normals[:, c] * areas, 3),
                                minlength=mesh.num_vertices)
    acc /= np.linalg.norm(acc, axis=1)[:, None]
    return acc


def mesh_stats(mesh: TriangleMesh) -> MeshStats:
    """Total area, enclosed volume (divergence theorem) and longest edge from the
    mesh's measures.  The connectivity must be closed (:func:`validate_closed`;
    not re-checked here); a degenerate triangle raises :class:`MeshTopologyError`."""
    g = mesh._geometry
    return MeshStats(
        num_vertices=mesh.num_vertices,
        num_triangles=mesh.num_triangles,
        h_max=g.h_max,
        total_area=g.area,
        enclosed_volume=g.volume,
    )


def mesh_checksum(mesh: TriangleMesh) -> str:
    """Stable hex digest of the vertex and connectivity arrays."""
    import hashlib

    h = hashlib.sha256()
    # hashlib reads a C-contiguous array through the buffer protocol: no copy.
    h.update(np.ascontiguousarray(mesh.vertices))
    h.update(np.ascontiguousarray(mesh.triangles))
    return h.hexdigest()
