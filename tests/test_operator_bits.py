"""Bit identity of the assembled operators with the plain expressions they
replace.

The mesh measurement and the P1 and bending assembly avoid full-size
temporaries: the (m, 3, 3) corner array, int64 slots, the nine-pair scatter,
and the chain of sparse sums and copies that formed A.  Each reference below
is the plain expression, copied here so that it does not follow the package;
every array of the package's result must equal it bit for bit, with the same
dtype, in CSR format with sorted indices.
"""
import numpy as np
import pytest
import scipy.sparse as sp

from spheremem.errors import SolverError
from spheremem.fem import assemble_mass, assemble_stiffness, lumped_diagonal, mass_inverse_form
from spheremem.mesh import (
    TriangleMesh,
    _csr_pattern,
    _measure_triangles,
    build_icosphere,
    mesh_stats,
    vertex_normals,
)
from spheremem.model import ModelParams, _symmetrized, assemble_quadratic_form, constraint_rows
from spheremem.oracle import perturb, taylor_consistency
from test_fem import _octahedron_shuffled, _open_cap

LEVELS = range(5)
PARAMS = (ModelParams(kappa=1.0, sigma=1.0, R=1.0), ModelParams(kappa=0.7, sigma=3.1, R=1.0))


def reference_slots(triangles, n):
    """CSR ``(indptr, indices)``, the slots of each triangle's nine local
    pairs (0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0), (1, 0), (2, 1),
    (0, 2), and the slots of each edge's entries (i, j) and (j, i), i < j."""
    a, b = triangles, triangles[:, [1, 2, 0]]
    edges, edge = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    lo, hi = np.divmod(edges, n)
    below = np.bincount(hi, minlength=n)
    above = np.bincount(lo, minlength=n)
    used = below + above > 0
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(below + used + above, out=indptr[1:])
    diag = indptr[:-1] + below
    rank = np.arange(edges.size)
    pair_slot = np.empty((edges.size, 2), dtype=np.int64)
    pair_slot[:, 0] = (diag + 1 - (np.cumsum(above) - above))[lo] + rank
    by_hi = np.argsort(hi, kind="stable")
    pair_slot[by_hi, 1] = (indptr[:-1] - (np.cumsum(below) - below))[hi[by_hi]] + rank
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[pair_slot[:, 0]] = hi
    indices[pair_slot[:, 1]] = lo
    indices[diag[used]] = np.flatnonzero(used)
    forward = 2 * edge.reshape(a.shape) + (a > b)
    plain = pair_slot.ravel()
    slots = np.hstack((diag[triangles], plain[forward], plain[forward ^ 1]))
    return indptr.astype(np.int32), indices, slots, pair_slot


def reference_pattern(triangles, n):
    """CSR ``(indptr, indices)``, the scatter keys (the diagonal slots and the
    smaller of each pair's two slots, triangle by triangle) and the edge slots."""
    indptr, indices, slots, pair_slot = reference_slots(triangles, n)
    keys = np.hstack((slots[:, :3], np.minimum(slots[:, 3:6], slots[:, 6:])))
    return indptr, indices, keys.ravel(), pair_slot.astype(np.int32)


def reference_cross(mesh):
    p = mesh.vertices[mesh.triangles]
    return np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


def reference_measure(mesh):
    """The triangle areas."""
    return 0.5 * np.linalg.norm(reference_cross(mesh), axis=1)


def reference_normals(mesh):
    cross = reference_cross(mesh)
    return cross / np.linalg.norm(cross, axis=1)[:, None]


def reference_vertex_normals(mesh):
    acc = np.zeros_like(mesh.vertices)
    w = reference_normals(mesh) * reference_measure(mesh)[:, None]
    for k in range(3):
        np.add.at(acc, mesh.triangles[:, k], w)
    return acc / np.linalg.norm(acc, axis=1)[:, None]


def reference_scatter(mesh, local):
    indptr, indices, slots, _ = reference_slots(mesh.triangles, mesh.num_vertices)
    data = np.bincount(slots.ravel(), weights=local.ravel(), minlength=indices.size)
    n = mesh.num_vertices
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def reference_mass(mesh):
    areas = reference_measure(mesh)
    return reference_scatter(mesh, np.multiply.outer(areas, np.repeat([2.0, 1.0, 1.0], 3) / 12.0))


def reference_stiffness(mesh):
    areas = reference_measure(mesh)
    p = mesh.vertices[mesh.triangles]
    e = (p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2])
    local = np.empty((mesh.num_triangles, 9))
    for k in range(3):
        local[:, 3 + k] = np.einsum("ij,ij->i", e[(k + 1) % 3], e[(k + 2) % 3]) / (4.0 * areas)
    local[:, 6:] = local[:, 3:6]
    for k in range(3):
        local[:, k] = -(local[:, 3 + k] + local[:, 3 + (k + 2) % 3])
    return reference_scatter(mesh, local)


def reference_form(mesh, params):
    M, S = reference_mass(mesh), reference_stiffness(mesh)
    mL = lumped_diagonal(mesh)
    R2 = params.R**2
    bihar = S.T @ sp.diags(1.0 / mL) @ S
    A = params.kappa * bihar + (params.sigma - 2.0 * params.kappa / R2) * S \
        - (2.0 * params.sigma / R2) * M
    return M, S, ((A + A.T) * 0.5).tocsr()


def reference_stats(mesh):
    areas = reference_measure(mesh)
    p = mesh.vertices[mesh.triangles]
    volume = np.sum(np.einsum("ij,ij->i", p.mean(axis=1), reference_normals(mesh)) * areas) / 3.0
    h_max = np.max(np.linalg.norm(p[:, [1, 2, 0]] - p, axis=2))
    return float(h_max), float(np.sum(areas)), float(volume)


def reference_helfrich(mesh, params, reconstruction):
    """Helfrich energy and volume of a surface from the plain M, S, measures,
    lumped diagonal and vertex normals, the three mass forms one at a time."""
    areas = reference_measure(mesh)
    S = reference_stiffness(mesh)
    rhs = S @ mesh.vertices
    if reconstruction == "lumped":
        mL = np.zeros(mesh.num_vertices)
        for k in range(3):
            np.add.at(mL, mesh.triangles[:, k], areas / 3.0)
        H = np.einsum("ij,ij->i", rhs / mL[:, None], reference_vertex_normals(mesh))
        willmore = float(0.5 * (H * H) @ mL)
    else:
        M = reference_mass(mesh)
        willmore = float(0.5 * sum(mass_inverse_form(M, rhs[:, k]) for k in range(3)))
    _, area, volume = reference_stats(mesh)
    return params.kappa * willmore + params.sigma * area, volume


def reference_taylor(mesh, params, u, mu, rhos, reconstruction):
    """Lagrangians and residuals of the Taylor check from plain expressions."""
    M, S, A = reference_form(mesh, params)
    c0 = float((constraint_rows(mesh, M)[0] @ u)[0])
    if reconstruction == "lumped":
        quad = 0.5 * float(u @ (A @ u)) + mu * c0
    else:
        R2 = params.R**2
        su = S @ u
        a = (params.kappa * mass_inverse_form(M, su)
             + (params.sigma - 2.0 * params.kappa / R2) * float(u @ su)
             - (2.0 * params.sigma / R2) * float(u @ (M @ u)))
        quad = 0.5 * a + mu * c0
    base, V0 = reference_helfrich(mesh, params, reconstruction)
    lags, residuals = [], []
    for rho in rhos:
        nu = mesh.vertices / mesh.radius_hint
        surface = TriangleMesh(mesh.vertices + rho * u[:, None] * nu, mesh.triangles)
        helfrich, volume = reference_helfrich(surface, params, reconstruction)
        lags.append(helfrich + (params.lambda0 + mu * rho) * (volume - V0))
        residuals.append(lags[-1] - base - rho**2 * quad)
    return lags, residuals


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def assert_same_csr(got, want):
    assert got.format == "csr" and got.has_sorted_indices
    for part in ("data", "indices", "indptr"):
        assert_same_array(getattr(got, part), getattr(want, part))


def surfaces():
    for level in LEVELS:
        yield f"L{level}", build_icosphere(1.0, level)
    sphere = build_icosphere(1.0, 4)
    yield "perturbed-L4", perturb(sphere, sphere.vertices[:, 2] ** 2 - 1.0 / 3.0, 0.1)
    yield "octahedron-shuffled", _octahedron_shuffled()
    yield "open-cap", _open_cap()


SURFACES = dict(surfaces())


@pytest.mark.parametrize("name", list(SURFACES))
def test_pattern_and_measures_are_the_plain_expressions(name):
    mesh = SURFACES[name]
    got = _csr_pattern(mesh.triangles, mesh.num_vertices)
    want = reference_pattern(mesh.triangles, mesh.num_vertices)
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert_same_array(g, w)
    assert_same_array(_measure_triangles(mesh).areas, reference_measure(mesh))
    stats = mesh_stats(mesh)
    assert (stats.h_max, stats.total_area, stats.enclosed_volume) == reference_stats(mesh)


@pytest.mark.parametrize("name", list(SURFACES))
def test_normals_are_the_plain_expressions(name):
    # The mesh keeps no triangle normals; each read forms them anew, by the
    # pass's expression, and the vertex normals sum them in one bincount per
    # coordinate in the order of three np.add.at passes.
    mesh = SURFACES[name]
    normals = mesh.normals
    assert not normals.flags.writeable
    assert_same_array(normals, reference_normals(mesh))
    # A vertex that no triangle uses (the open cap has some) has the normal 0/0.
    with np.errstate(invalid="ignore"):
        assert_same_array(vertex_normals(mesh), reference_vertex_normals(mesh))


@pytest.mark.parametrize("name", list(SURFACES))
def test_mass_and_stiffness_are_the_plain_expressions(name):
    mesh = SURFACES[name]
    assert_same_csr(assemble_mass(mesh), reference_mass(mesh))
    assert_same_csr(assemble_stiffness(mesh), reference_stiffness(mesh))


@pytest.mark.parametrize("params", PARAMS, ids=["unit", "kappa-sigma"])
@pytest.mark.parametrize("level", LEVELS)
def test_quadratic_form_is_the_plain_expression(level, params):
    mesh = build_icosphere(1.0, level)
    form = assemble_quadratic_form(mesh, params)
    M, S, A = reference_form(mesh, params)
    assert_same_csr(form.M, M)
    assert_same_csr(form.S, S)
    assert_same_csr(form.A, A)
    # The in-place symmetrization needs a structurally symmetric pattern; a
    # sparse sum or product drops exact zeros, which could break it.
    pattern = sp.csr_matrix((np.ones(form.A.nnz), form.A.indices, form.A.indptr), shape=A.shape)
    assert (pattern != pattern.T).nnz == 0


def test_symmetrized_is_the_sparse_sum():
    rng = np.random.default_rng(12)
    X = sp.random(400, 400, density=0.02, format="csc", random_state=rng)
    pattern = (X + X.T).tocsc()
    X = sp.csc_matrix((rng.standard_normal(pattern.nnz), pattern.indices, pattern.indptr),
                      shape=X.shape)
    # An exact cancellation, which the sparse sum drops.
    X = X.tolil()
    X[3, 7], X[7, 3] = 0.25, -0.25
    X = X.tocsc()
    want = ((X + X.T) * 0.5).tocsr()
    assert_same_csr(_symmetrized(X.copy()), want)


def test_symmetrized_rejects_an_unsymmetric_pattern():
    rng = np.random.default_rng(12)
    X = sp.random(400, 400, density=0.02, format="csc", random_state=rng)
    assert ((X != 0) != (X.T != 0)).nnz > 0
    with pytest.raises(SolverError, match="not symmetric"):
        _symmetrized(X)


@pytest.mark.parametrize("reconstruction", ["consistent", "lumped"])
def test_taylor_check_is_the_plain_expression(reconstruction):
    # Every surface's one pass (M, S, area, volume, and the areas the lumped
    # curvature reads), the normals it forms and the three mass forms sharing
    # one CG workspace give the plain expressions' Lagrangians and residuals.
    mesh = build_icosphere(1.0, 3)
    params = PARAMS[1]
    form = assemble_quadratic_form(mesh, params)
    u = mesh.vertices[:, 2] ** 2 - 1.0 / 3.0
    rhos = (0.1, 0.05, 0.025, 0.0125)
    report = taylor_consistency(form, u, 0.5, rho_list=rhos, reconstruction=reconstruction)
    lags, residuals = reference_taylor(mesh, params, u, 0.5, rhos, reconstruction)
    assert report.lagrangians == lags
    assert report.residuals == residuals
