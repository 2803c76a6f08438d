import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremem.errors import GeometryError, MeshTopologyError, SizeLimitError
from spheremem.mesh import (
    MIRROR_TOL_REL,
    MAX_LEVEL,
    TriangleMesh,
    _pole_icosahedron,
    build_icosphere,
    mesh_checksum,
    mesh_stats,
    mirror_maps,
    mirror_normals,
    rotation_map,
    validate_closed,
    vertex_normals,
)
from symmetry import rotation_z, s10_matrix, vertex_permutation


@pytest.mark.parametrize("level,expected", [(0, 12), (1, 42), (2, 162), (3, 642), (4, 2562)])
def test_vertex_counts(level, expected):
    mesh = build_icosphere(1.0, level)
    assert mesh.num_vertices == expected
    assert mesh.num_triangles == 20 * 4**level


def test_vertices_on_sphere():
    mesh = build_icosphere(2.5, 3)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    np.testing.assert_allclose(radii, 2.5, rtol=1e-14)


def _subdivide_reference(verts, tris, radius):
    """Subdivision as a walk over the triangles with a dict of edge midpoints,
    one np.linalg.norm per new vertex: the numbering and rounding every mesh
    output is pinned to."""
    verts = list(map(tuple, verts))
    cache = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            m = 0.5 * (np.asarray(verts[i]) + np.asarray(verts[j]))
            m *= radius / np.linalg.norm(m)
            verts.append(tuple(m))
            cache[key] = len(verts) - 1
        return cache[key]

    out = []
    for a, b, c in tris:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(verts), np.array(out, dtype=np.int64)


@pytest.mark.parametrize("radius", [1.0, 1.3])
def test_icosphere_bit_identical_to_reference_walk(radius):
    verts, tris = _pole_icosahedron(radius)
    for level in range(7):
        mesh = build_icosphere(radius, level)
        assert np.array_equal(mesh.vertices, verts), level
        assert np.array_equal(mesh.triangles, tris), level
        verts, tris = _subdivide_reference(verts, tris, radius)


def test_closed_and_oriented():
    # Every level the benchmark and the presets run: nothing downstream re-checks.
    for level in range(7):
        validate_closed(build_icosphere(1.0, level))


def test_broken_orientation_detected():
    mesh = build_icosphere(1.0, 1)
    tris = np.array(mesh.triangles)
    tris[0] = tris[0][::-1]
    with pytest.raises(MeshTopologyError):
        validate_closed(TriangleMesh(mesh.vertices, tris, radius_hint=1.0))


def test_missing_face_detected():
    mesh = build_icosphere(1.0, 1)
    with pytest.raises(MeshTopologyError):
        validate_closed(TriangleMesh(mesh.vertices, mesh.triangles[:-1], radius_hint=1.0))


def test_vertex_index_out_of_range_detected():
    # A file that lists one vertex too few: index n aliases other vertex pairs
    # in the edge codes a*n + b, and the edge test alone passes.
    mesh = build_icosphere(1.0, 1)
    with pytest.raises(MeshTopologyError, match="outside"):
        validate_closed(TriangleMesh(mesh.vertices[:-1], mesh.triangles))


def test_level_cap():
    with pytest.raises(SizeLimitError):
        build_icosphere(1.0, MAX_LEVEL + 1)


@pytest.mark.parametrize("level", range(5))
def test_h_max_is_longest_unique_edge(level):
    mesh = build_icosphere(1.3, level)
    t = mesh.triangles
    edges = np.unique(np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1), axis=0)
    lengths = np.linalg.norm(mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1)
    assert mesh_stats(mesh).h_max == np.max(lengths)


def test_area_volume_inscribed():
    # Chordal triangulation lies inside the sphere: both measures from below.
    for level in (2, 3, 4):
        stats = mesh_stats(build_icosphere(1.0, level))
        assert stats.total_area < 4 * np.pi
        assert stats.enclosed_volume < 4 / 3 * np.pi


def test_area_volume_second_order():
    errs = []
    for level in (3, 4, 5):
        stats = mesh_stats(build_icosphere(1.0, level))
        errs.append(abs(stats.total_area - 4 * np.pi) / (4 * np.pi))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


@settings(max_examples=20, deadline=None)
@given(radius=st.floats(0.1, 10.0), level=st.integers(0, 3))
def test_measure_scaling(radius, level):
    unit = mesh_stats(build_icosphere(1.0, level))
    scaled = mesh_stats(build_icosphere(radius, level))
    assert scaled.total_area == pytest.approx(radius**2 * unit.total_area, rel=1e-12)
    assert scaled.enclosed_volume == pytest.approx(radius**3 * unit.enclosed_volume, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(level=st.integers(0, 3))
def test_isoperimetric_inequality(level):
    # 36 pi V^2 <= A^3 for any closed surface.
    stats = mesh_stats(build_icosphere(1.0, level))
    assert 36 * np.pi * stats.enclosed_volume**2 <= stats.total_area**3


def test_vertex_normals_outward():
    mesh = build_icosphere(1.0, 3)
    nu = vertex_normals(mesh)
    np.testing.assert_allclose(np.linalg.norm(nu, axis=1), 1.0, rtol=1e-12)
    assert np.all(np.einsum("ij,ij->i", nu, mesh.vertices) > 0.9)


def test_triangle_geometry_is_read_only():
    mesh = build_icosphere(1.0, 2)
    for arr in (mesh.areas, mesh.normals):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    np.testing.assert_allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, rtol=1e-15)
    assert mesh_stats(mesh).total_area == float(np.sum(mesh.areas))


def test_checksum_deterministic():
    a = mesh_checksum(build_icosphere(1.0, 2))
    b = mesh_checksum(build_icosphere(1.0, 2))
    c = mesh_checksum(build_icosphere(2.0, 2))
    assert a == b
    assert a != c


def _tobytes_digest(vertices, triangles):
    """The reference digest, of ``.tobytes()`` copies of the arrays."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(vertices).tobytes())
    h.update(np.ascontiguousarray(triangles).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("level", range(4))
def test_checksum_is_the_tobytes_digest(level):
    mesh = build_icosphere(1.0, level)
    assert mesh_checksum(mesh) == _tobytes_digest(mesh.vertices, mesh.triangles)


def test_checksum_of_non_contiguous_arrays():
    # TriangleMesh stores C-contiguous arrays; a strided or Fortran-ordered
    # input is hashed in C order, as .tobytes() reads it.
    mesh = build_icosphere(1.0, 2)
    vertices = np.repeat(mesh.vertices, 2, axis=0)[::2]
    triangles = np.asfortranarray(mesh.triangles)
    assert not vertices.flags.c_contiguous and not triangles.flags.c_contiguous
    strided = SimpleNamespace(vertices=vertices, triangles=triangles)
    assert mesh_checksum(strided) == _tobytes_digest(vertices, triangles)
    assert mesh_checksum(strided) == mesh_checksum(mesh)


def test_c5_and_s10_are_mesh_symmetries():
    mesh = build_icosphere(1.0, 3)
    for mat in (rotation_z(2 * np.pi / 5), s10_matrix()):
        perm = vertex_permutation(mesh, mat)
        assert np.unique(perm).size == mesh.num_vertices


def test_generic_rotation_is_not_a_symmetry():
    mesh = build_icosphere(1.0, 2)
    with pytest.raises(GeometryError):
        vertex_permutation(mesh, rotation_z(0.3))


def _reflection(normal):
    """The reflection in the plane through the origin with unit ``normal``."""
    return np.eye(3) - 2.0 * np.outer(normal, normal)


def _antipodal_map(mesh):
    """The product of the three mirror maps."""
    first, second, third = mirror_maps(mesh)
    return first[second[third]]


@pytest.mark.parametrize("level", range(6))
def test_mirror_maps_are_the_reflections(level):
    # The subdivision's maps against a k-d tree search of the reflected vertices.
    mesh = build_icosphere(1.0, level)
    for P, normal in zip(mirror_maps(mesh), mirror_normals(mesh)):
        np.testing.assert_array_equal(P, vertex_permutation(mesh, _reflection(normal)))


@pytest.mark.parametrize("level", range(6))
def test_mirror_maps_are_commuting_involutions(level):
    # The normals e1 = y-hat, e2 (the unit midpoint of vertices 0 and 1) and
    # e3 = e1 x e2 are orthonormal; each mirror fixes the 2^(L+2) vertices on
    # its plane, a great circle.
    radius = 2.5
    mesh = build_icosphere(radius, level)
    maps, normals = mirror_maps(mesh), mirror_normals(mesh)
    np.testing.assert_allclose(normals @ normals.T, np.eye(3), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(normals[0], [0.0, 1.0, 0.0])
    n = mesh.num_vertices
    for i, P in enumerate(maps):
        np.testing.assert_array_equal(P[P], np.arange(n))
        assert np.count_nonzero(P == np.arange(n)) == 2 ** (level + 2)
        assert np.abs(mesh.vertices[P] - mesh.vertices @ _reflection(normals[i])).max() \
            <= MIRROR_TOL_REL * radius
        for other in maps[:i]:
            np.testing.assert_array_equal(P[other], other[P])


@pytest.mark.parametrize("level", range(8))
def test_antipodal_map_is_a_fixed_point_free_involution(level):
    # The product of the three mirror maps.
    radius = 2.5
    mesh = build_icosphere(radius, level)
    P = _antipodal_map(mesh)
    n = mesh.num_vertices
    np.testing.assert_array_equal(P[P], np.arange(n))
    assert not np.any(P == np.arange(n))
    assert np.abs(mesh.vertices[P] + mesh.vertices).max() <= MIRROR_TOL_REL * radius


@pytest.mark.parametrize("level", range(5))
def test_antipodal_map_is_the_point_reflection(level):
    # The product of the subdivision's maps against a k-d tree search of the
    # reflected vertices.
    mesh = build_icosphere(1.0, level)
    np.testing.assert_array_equal(_antipodal_map(mesh), vertex_permutation(mesh, -np.eye(3)))


def test_mirror_maps_need_an_icosphere():
    mesh = build_icosphere(1.0, 2)
    with pytest.raises(GeometryError, match="icospheres only"):
        mirror_maps(mesh.moved(mesh.vertices * 1.1))
    # The connectivity of an icosphere, its vertices displaced off mirror symmetry.
    bumped = mesh.vertices.copy()
    bumped[5] *= 1.0 + 1e-6
    with pytest.raises(GeometryError, match="not mirror symmetric"):
        mirror_maps(TriangleMesh(bumped, mesh.triangles, radius_hint=1.0))
    # An icosphere's vertices with two triangles' connectivity swapped.
    tris = mesh.triangles.copy()
    tris[[0, 1]] = tris[[1, 0]]
    with pytest.raises(GeometryError):
        mirror_maps(TriangleMesh(mesh.vertices, tris, radius_hint=1.0))


def _rotation(normals):
    """The rotation taking each mirror normal e_j to e_(j+1), e3 to e1."""
    return normals[[1, 2, 0]].T @ normals


@pytest.mark.parametrize("level", range(7))
def test_rotation_map_cycles_the_mirrors(level):
    # The rotation by 120 degrees about (e1 + e2 + e3) / sqrt(3): order 3, no
    # fixed vertex, every image within MIRROR_TOL_REL R of a vertex (measured
    # 3.6e-16 to 5.3e-16 R at levels 0-6), and R P_j R^-1 = P_(j+1).
    radius = 2.5
    mesh = build_icosphere(radius, level)
    R, maps, normals = rotation_map(mesh), mirror_maps(mesh), mirror_normals(mesh)
    n = mesh.num_vertices
    np.testing.assert_allclose(_rotation(normals) @ normals[0], normals[1], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(R[R[R]], np.arange(n))
    assert not np.any(R == np.arange(n))
    assert np.abs(mesh.vertices[R] - mesh.vertices @ _rotation(normals).T).max() \
        <= MIRROR_TOL_REL * radius
    for j in range(3):
        np.testing.assert_array_equal(R[maps[j]], maps[(j + 1) % 3][R])


@pytest.mark.parametrize("level", range(5))
def test_rotation_map_is_the_rotation(level):
    # The subdivision's map against a k-d tree search of the rotated vertices.
    mesh = build_icosphere(1.0, level)
    np.testing.assert_array_equal(rotation_map(mesh),
                                  vertex_permutation(mesh, _rotation(mirror_normals(mesh))))


def test_rotation_map_needs_an_icosphere():
    mesh = build_icosphere(1.0, 2)
    with pytest.raises(GeometryError, match="icospheres only"):
        rotation_map(mesh.moved(mesh.vertices * 1.1))
    bumped = mesh.vertices.copy()
    bumped[5] *= 1.0 + 1e-6
    with pytest.raises(GeometryError, match="not mirror symmetric"):
        rotation_map(TriangleMesh(bumped, mesh.triangles, radius_hint=1.0))


def test_symmetry_maps_are_kept_by_the_mesh(monkeypatch):
    # Derived on first use, once per mesh, read-only, and not passed to the
    # surfaces the mesh is moved to.
    import spheremem.mesh as mesh_module

    calls = []
    derive = mesh_module._symmetry_maps
    monkeypatch.setattr(mesh_module, "_symmetry_maps", lambda m: calls.append(m) or derive(m))
    mesh = build_icosphere(1.0, 2)
    assert calls == []
    first = mirror_maps(mesh)
    assert rotation_map(mesh) is not None and mirror_maps(mesh) is not None
    assert len(calls) == 1
    assert not first.flags.writeable
    moved = mesh.moved(mesh.vertices)
    assert "symmetry_maps" not in moved.__dict__
    with pytest.raises(GeometryError, match="icospheres only"):
        mirror_maps(moved)
