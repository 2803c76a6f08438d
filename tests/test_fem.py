import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremem.errors import GeometryError, MeshTopologyError, RankDeficiencyError, SolverError
from spheremem.fem import (
    BACKWARD_ERROR_BOUND,
    BorderedLU,
    PointLocator,
    SaddleSystem,
    assemble_mass,
    assemble_stiffness,
    h2_norm,
    laplacian_apply,
    lumped_diagonal,
    mass_inverse_form,
    nested_dissection,
    solve_saddle,
)
from spheremem import fem
from spheremem.mesh import (TriangleMesh, build_icosphere, mesh_stats, mirror_maps, mirror_normals,
                            rotation_map)
from spheremem.model import ModelParams, assemble_quadratic_form
from spheremem.oracle import perturb
from spheremem.phasefield import FlowSolver, PhaseFieldParams, coupling_operator, flow_operator
from spheremem.points import ConstraintSet, _PointSystem, icosahedron_points
from symmetry import vertex_permutation


@pytest.fixture(scope="module")
def mesh():
    return build_icosphere(1.0, 3)


def _defective(mesh, defect):
    """A NaN vertex, or triangle 0 collapsed to zero area."""
    v = np.array(mesh.vertices)
    a, _, c = mesh.triangles[0]
    v[c] = np.nan if defect == "nan vertex" else v[a]
    return TriangleMesh(v, mesh.triangles, radius_hint=mesh.radius_hint)


@pytest.mark.parametrize("defect", ["nan vertex", "zero-area triangle"])
@pytest.mark.parametrize("fn", [mesh_stats, assemble_mass, assemble_stiffness, lumped_diagonal],
                         ids=lambda fn: fn.__name__)
def test_degenerate_triangle_one_rule(mesh, fn, defect):
    with pytest.raises(MeshTopologyError, match="degenerate"):
        fn(_defective(mesh, defect))


def test_mass_total_is_area(mesh):
    M = assemble_mass(mesh)
    ones = np.ones(mesh.num_vertices)
    area = mesh_stats(mesh).total_area
    assert float(ones @ (M @ ones)) == pytest.approx(area, rel=1e-12)
    assert float(lumped_diagonal(mesh).sum()) == pytest.approx(area, rel=1e-12)


def test_lumped_is_row_sum(mesh):
    M = assemble_mass(mesh)
    np.testing.assert_allclose(
        np.asarray(M.sum(axis=1)).ravel(), lumped_diagonal(mesh), rtol=1e-12
    )


def test_mass_positive_definite(mesh):
    M = assemble_mass(mesh)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(mesh.num_vertices)
        assert float(v @ (M @ v)) > 0


def test_stiffness_annihilates_constants(mesh):
    S = assemble_stiffness(mesh)
    res = S @ np.ones(mesh.num_vertices)
    assert np.max(np.abs(res)) < 1e-12


def test_stiffness_symmetric_psd(mesh):
    S = assemble_stiffness(mesh)
    assert abs(S - S.T).max() < 1e-13
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.standard_normal(mesh.num_vertices)
        assert float(v @ (S @ v)) >= -1e-12


def test_dirichlet_energy_of_coordinate(mesh):
    # int |grad nu_3|^2 over the unit sphere = 8 pi / 3 for nu_3 = z.
    S = assemble_stiffness(mesh)
    z = mesh.vertices[:, 2]
    assert float(z @ (S @ z)) == pytest.approx(8 * np.pi / 3, rel=5e-3)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.tuples(
        st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)
    ),
    seed=st.integers(0, 1000),
)
def test_point_functional_reproduces_affine(coeffs, seed, mesh):
    # P1 interpolation on a face is exact for functions affine on that face.
    a0, a1, a2, a3 = coeffs
    field = a0 + mesh.vertices @ np.array([a1, a2, a3])
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(3)
    p /= np.linalg.norm(p)
    locator = PointLocator(mesh)
    (tri,), (bary,) = locator.locate(p)
    foot = bary @ mesh.vertices[mesh.triangles[tri]]
    row = locator.row(p)
    assert float((row @ field)[0]) == pytest.approx(
        a0 + foot @ np.array([a1, a2, a3]), rel=1e-10, abs=1e-12
    )


def test_point_functional_partition_of_unity(mesh):
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        row = PointLocator(mesh).row(p)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert row.nnz <= 3
        assert np.all(row.data >= -1e-12)


@pytest.mark.parametrize("level", [0, 1])
def test_point_functional_coarse_levels(level):
    # Every point of the sphere has a row on the coarsest meshes too, though
    # most lie farther than LOCATE_TOL_REL R from the polyhedron there.
    rng = np.random.default_rng(level)
    p = rng.standard_normal((200, 3))
    row = PointLocator(build_icosphere(1.0, level)).row(p / np.linalg.norm(p, axis=1)[:, None])
    np.testing.assert_allclose(np.asarray(row.sum(axis=1)).ravel(), 1.0, rtol=0, atol=1e-12)
    assert np.diff(row.indptr).max() <= 3
    assert np.all(row.data >= -1e-12)


@pytest.mark.parametrize("level, count", [(2, 8), (3, 8), (4, 4), (5, 1)])
def test_point_row_matches_brute_force(level, count):
    # The descent finds the triangle of a search over all triangles for the one
    # whose smallest determinant is largest, with its normalized determinants as
    # weights.  A vertex gets its unit row exactly; an edge midpoint lifts onto
    # the edge of two triangles, whose weights may differ in the last bits.
    mesh = build_icosphere(1.0, level)
    rng = np.random.default_rng(level)
    t = mesh.triangles[rng.choice(mesh.num_triangles, count, replace=False)]
    random = rng.standard_normal((count, 3))
    queries = np.vstack([mesh.vertices[t[:, 0]],
                         0.5 * (mesh.vertices[t[:, 0]] + mesh.vertices[t[:, 1]]),
                         random / np.linalg.norm(random, axis=1)[:, None]])
    dets = fem._opposite_determinants(mesh.vertices[mesh.triangles][None], queries[:, None])
    ti = np.argmax(dets.min(axis=2), axis=1)
    bary = dets[np.arange(len(queries)), ti]
    bary /= bary.sum(axis=1, keepdims=True)
    expected = np.zeros((len(queries), mesh.num_vertices))
    np.put_along_axis(expected, mesh.triangles[ti], np.where(bary > 1e-14, bary, 0.0), axis=1)
    row = PointLocator(mesh).row(queries).toarray()
    np.testing.assert_array_equal(row[:count], expected[:count])
    np.testing.assert_allclose(row, expected, rtol=0, atol=4 * np.finfo(float).eps)


def test_point_functional_far_point_rejected(mesh):
    with pytest.raises(GeometryError):
        PointLocator(mesh).row(np.array([2.0, 0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(GeometryError):
            PointLocator(mesh).row(np.zeros(3))


def test_point_locator_needs_an_icosphere(mesh):
    for other in (TriangleMesh(mesh.vertices, mesh.triangles),
                  TriangleMesh(mesh.vertices, mesh.triangles[:-4], radius_hint=1.0)):
        with pytest.raises(GeometryError, match="icospheres only"):
            PointLocator(other)


def test_point_rows_of_the_vertices_are_the_identity():
    for level in range(5):
        mesh = build_icosphere(1.0, level)
        row = PointLocator(mesh).row(mesh.vertices)
        assert row.nnz == mesh.num_vertices
        assert (row != sp.identity(mesh.num_vertices, format="csr")).nnz == 0


def test_solve_saddle_contract(mesh):
    S = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    A = (S + M).tocsr()
    n = mesh.num_vertices
    B = sp.csr_matrix((M @ np.ones(n)).reshape(1, n))
    f = np.sin(mesh.vertices[:, 2] * 3)
    x, lam = solve_saddle(A, B, f, np.zeros(1), np.zeros(1), ["mean"])
    assert abs(float((B @ x)[0])) < 1e-10
    res = A @ x + B.T @ lam - f
    assert np.linalg.norm(res) < 1e-9 * max(1.0, np.linalg.norm(f))


class _OffsetLU:
    """SuperLU stand-in whose every solve is off by the same fixed vector, an
    error that iterative refinement cannot remove."""

    def __init__(self, lu, offset):
        self._lu, self._offset = lu, offset

    def solve(self, b):
        return self._lu.solve(b) + self._offset


def test_solve_saddle_contract_rejects_perturbed_solution(mesh, monkeypatch):
    S = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    A = (S + M).tocsr()
    n = mesh.num_vertices
    B = sp.csr_matrix((M @ np.ones(n)).reshape(1, n))
    f = np.sin(mesh.vertices[:, 2] * 3)
    system = (A, B, f, np.zeros(1), np.zeros(1), ["mean"])
    x, lam = solve_saddle(*system)
    sol = np.concatenate([x, lam])
    # Every solve returns the solution perturbed by 1e-6 relative.
    offset = 1e-6 * np.abs(sol) * np.random.default_rng(11).choice([-1.0, 1.0], sol.size)
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda K, **kwargs: _OffsetLU(splu(K, **kwargs), offset))
    with pytest.raises(SolverError, match="backward error") as exc:
        solve_saddle(*system)
    assert f"{BACKWARD_ERROR_BOUND:.3g}" in str(exc.value)


def test_solve_saddle_rank_deficiency_names_rows(mesh):
    S = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    A = (S + M).tocsr()
    n = mesh.num_vertices
    row = sp.csr_matrix((M @ np.ones(n)).reshape(1, n))
    B = sp.vstack([row, 2.0 * row]).tocsr()
    with pytest.raises(RankDeficiencyError) as exc:
        solve_saddle(A, B, np.zeros(n), np.zeros(2), np.zeros(2), ["mean", "mean again"])
    assert exc.value.dependent_rows


def _mesh_operator(level):
    """S + M on a level-``level`` sphere: symmetric positive definite, with the
    mesh's graph."""
    sphere = build_icosphere(1.0, level)
    return (assemble_stiffness(sphere) + assemble_mass(sphere)).tocsr()


def test_nested_dissection_is_a_permutation_fixed_by_the_pattern():
    A = _mesh_operator(3)
    perm = nested_dissection(A)
    np.testing.assert_array_equal(np.sort(perm), np.arange(A.shape[0]))
    # Other values on the same pattern, and a second call: the same order.
    other = A.copy()
    other.data = np.random.default_rng(3).uniform(-1.0, 1.0, other.nnz)
    np.testing.assert_array_equal(nested_dissection(other), perm)
    np.testing.assert_array_equal(nested_dissection(A), perm)


def _unit_mean_row(n):
    return sp.csr_matrix(np.ones((1, n)))


def _mesh_mirrors(level):
    """The three mirror maps of a level-``level`` sphere."""
    return mirror_maps(build_icosphere(1.0, level))


def _antipodes(level):
    """The antipodal map of a level-``level`` sphere: the product of its mirrors."""
    first, second, third = _mesh_mirrors(level)
    return first[second[third]]


def _hard_saddle(A, B):
    """K = [[A, B^T], [B, 0]], the matrix SaddleSystem(A, B) factors with zero compliance."""
    return sp.bmat([[A, B.T], [B, None]], format="csc")


_ORDER_GRAPHS = {
    # 12 vertices, fewer than one leaf: numbered as they come.
    "below one leaf": lambda: (_mesh_operator(0), _mesh_mirrors(0)),
    # Two spheres: two parts from the start.
    "disconnected": lambda: (sp.block_diag([_mesh_operator(2), _mesh_operator(3)]).tocsr(),
                             np.hstack([_mesh_mirrors(2), 162 + _mesh_mirrors(3)])),
    # Two vertices with no neighbour, swapped by the first mirror and fixed by
    # the others, inside and after the numbering of a mesh.
    "isolated vertex": lambda: (sp.block_diag([_mesh_operator(2), sp.identity(2),
                                               _mesh_operator(2)]).tocsr(),
                                np.hstack([_mesh_mirrors(2), [[163], [162], [163]],
                                           [[162], [163], [162]], 164 + _mesh_mirrors(2)])),
}


@pytest.mark.parametrize("name", list(_ORDER_GRAPHS))
def test_factor_saddle_orders_and_solves_any_graph(name):
    A, mirrors = _ORDER_GRAPHS[name]()
    n = A.shape[0]
    perm = nested_dissection(A)
    np.testing.assert_array_equal(np.sort(perm), np.arange(n))
    B = _unit_mean_row(n)
    K, lu = _hard_saddle(A, B), SaddleSystem(A, B).factor(mirrors)
    rhs = np.random.default_rng(4).standard_normal(n + 1)
    x = lu.solve(rhs)
    np.testing.assert_allclose(K @ x, rhs, rtol=0, atol=1e-12 * np.abs(rhs).max())


def test_nested_dissection_fills_less_than_colamd():
    # The points' orthogonality block A_C = [[A, C^T], [C, 0]] at level 4,
    # whole, against SuperLU's own orderings: COLAMD, and its symmetric
    # minimum degree on K + K^T.
    form = assemble_quadratic_form(build_icosphere(1.0, 4), ModelParams(kappa=1.0, sigma=1.0, R=1.0))
    K = _hard_saddle(form.A, form.constraints)
    lu = SaddleSystem(form.A, form.constraints).factor([])
    for permc_spec, diag_pivot_thresh in (("COLAMD", 0.1), ("MMD_AT_PLUS_A", 0.0)):
        reference = spla.splu(K, permc_spec=permc_spec, diag_pivot_thresh=diag_pivot_thresh,
                              options=dict(SymmetricMode=True))
        assert lu.nnz <= 0.8 * reference.nnz, permc_spec


def _flow_lu(level, coupling, tau):
    """The LU of the flow operator of the flow-coarsen parameters at Lambda = ``coupling``."""
    form = assemble_quadratic_form(build_icosphere(1.0, level), ModelParams(1.0, 1.0, 1.0))
    pf = PhaseFieldParams(epsilon=0.15, b=1.0, coupling=coupling, alpha=-0.3, tau=tau)
    return FlowSolver(form, pf, tau).lu


def _orthogonality_lu(level, rotated=False):
    """The LU of the points' A_C = [[A, C^T], [C, 0]], split by the three
    mirrors and, if ``rotated``, by the rotation that cycles them."""
    form = assemble_quadratic_form(build_icosphere(1.0, level), ModelParams(1.0, 1.0, 1.0))
    return SaddleSystem(form.A, form.constraints).factor(
        mirror_maps(form.mesh), rotation=rotation_map(form.mesh) if rotated else None)


_SADDLE_LUS = {
    **{f"flow L3 Lambda={coupling} tau={tau}": (_flow_lu, 3, coupling, tau)
       for coupling in (0.0, 1.0, 5.0, 10.0) for tau in (0.01, 0.16)},
    "A_C L3": (_orthogonality_lu, 3),
    "A_C L4": (_orthogonality_lu, 4),
    "A_C L3 rotated": (_orthogonality_lu, 3, True),
    "A_C L4 rotated": (_orthogonality_lu, 4, True),
}


@pytest.mark.parametrize("name", list(_SADDLE_LUS))
def test_saddle_lu_pivots_on_its_diagonal(name):
    # SuperLU factors K[perm][:, perm] in its natural column order, so a
    # column pivoted on its diagonal keeps its own row: perm_r equals perm_c.
    # A split LU is one SuperLU factor per length of the rotation's cycles.
    build, *args = _SADDLE_LUS[name]
    lus = build(*args).lus
    assert len(lus) == (2 if "rotated" in name else 1)
    for factors in lus:
        np.testing.assert_array_equal(factors.perm_r, factors.perm_c)


def _point_saddle(delta):
    """The points' K(delta) at level 3, icosahedron preset: its system, its
    compliance and its reference solve.  Its point rows span no space that
    the mirrors map to itself, so no split LU factors it."""
    form = assemble_quadratic_form(build_icosphere(1.0, 3), ModelParams(1.0, 1.0, 1.0))
    system = _PointSystem(form, ConstraintSet(icosahedron_points(), np.ones(12))).system
    c, n = np.r_[np.zeros(4), np.full(12, delta)], form.mesh.num_vertices
    labels = [str(k) for k in range(16)]
    return system, c, lambda b: np.concatenate(solve_saddle(system.A, system.B, b[:n], b[n:],
                                                            c, labels))


def _flow_saddle(coupling):
    """The flow operator at level 3 with its five hard rows (phi mean, u mean,
    u modes): its system, its compliance and the solve of its split LU."""
    form = assemble_quadratic_form(build_icosphere(1.0, 3), ModelParams(1.0, 1.0, 1.0))
    pf = PhaseFieldParams(epsilon=0.15, b=1.0, coupling=coupling, alpha=-0.3, tau=0.16)
    A = flow_operator(form, pf, coupling_operator(form, pf), pf.tau)
    system = SaddleSystem(A, sp.block_diag([form.constraints[:1], form.constraints]))
    mirrors = mirror_maps(form.mesh)
    generators = np.hstack([mirrors, form.mesh.num_vertices + mirrors])
    return system, np.zeros(5), system.factor(generators).solve


_SADDLE_SYSTEMS = {
    "points L3 hard": (_point_saddle, 0.0),
    "points L3 delta=1e-4": (_point_saddle, 1e-4),
    "flow L3 Lambda=1": (_flow_saddle, 1.0),
    "flow L3 Lambda=5": (_flow_saddle, 5.0),
}


@pytest.mark.parametrize("name", list(_SADDLE_SYSTEMS))
def test_saddle_system_is_the_assembled_k(name):
    build, arg = _SADDLE_SYSTEMS[name]
    system, c, solve = build(arg)
    K = sp.bmat([[system.A, system.B.T], [system.B, sp.diags(-c)]], format="csr")
    x = np.random.default_rng(6).standard_normal(K.shape[0])
    # The products from the blocks sum each row of K x in another order;
    # measured within 0.94 eps of (|K| |x|)_i.
    tol = 8.0 * np.finfo(float).eps * (abs(K) @ np.abs(x))
    assert np.all(np.abs(system.apply(c, x) - K @ x) <= tol)
    assert np.all(np.abs(system.apply_abs(c, x) - abs(K) @ x) <= tol)
    # Its solve solves the same K: measured within 6.4e-13 of x, relative in max norm.
    y = solve(system.apply(c, x))
    assert np.max(np.abs(y - x)) <= 1e-10 * np.max(np.abs(x))


def _orthogonality_split(level):
    """The points' LU of A_C, split by the three mirrors and the rotation
    that cycles them, A_C's system and
    compliance, the refined solve of A_C through an LU, as the point solves
    take it, and the unknowns of A."""
    form = assemble_quadratic_form(build_icosphere(1.0, level), ModelParams(1.0, 1.0, 1.0))
    split = _PointSystem(form, ConstraintSet(icosahedron_points(), np.ones(12))).lu.lu
    system = SaddleSystem(form.A, form.constraints)
    solve = lambda b: system.solve(np.zeros(4), b, split.solve)
    return split, system, np.zeros(4), solve, form.mesh.num_vertices


def _flow_split(level, coupling, tau):
    """A flow solver's LU, split by the three mirrors of phi and of u, the
    system and compliance of its step operator, a step's solve through that
    LU and the unknowns of the operator."""
    form = assemble_quadratic_form(build_icosphere(1.0, level), ModelParams(1.0, 1.0, 1.0))
    pf = PhaseFieldParams(epsilon=0.15, b=1.0, coupling=coupling, alpha=-0.3, tau=tau)
    solver = FlowSolver(form, pf, tau)
    system = SaddleSystem(flow_operator(form, pf, solver.C, tau),
                          sp.block_diag([form.constraints[:1], form.constraints]))
    return solver.lu, system, np.zeros(5), solver.lu.solve, 2 * form.mesh.num_vertices


_SPLIT_LUS = {
    **{f"A_C L{level}": (_orthogonality_split, level) for level in (2, 3, 4)},
    **{f"flow L3 Lambda={coupling} tau={tau}": (_flow_split, 3, coupling, tau)
       for coupling in (0.0, 1.0, 5.0, 10.0) for tau in (0.01, 0.16, 1.28)},
}


def _reference_solve(system, c, b):
    """K(c)^{-1} b by ``solve_saddle``, SuperLU's default LU of the whole K."""
    n = system.A.shape[0]
    return np.concatenate(solve_saddle(system.A, system.B, b[:n], b[n:], c,
                                       [str(k) for k in range(c.size)]))


@pytest.mark.parametrize("name", list(_SPLIT_LUS))
def test_split_lu_solves_as_the_whole_lu(name):
    # The even/odd LU, solving as its caller does (refined against A_C for the
    # points, one solve for a flow step), against the reference solve of the
    # whole K.  Measured within 1.2e-13 (A_C, L4) and 2.3e-13 (flow), relative.
    build, *args = _SPLIT_LUS[name]
    _, system, c, solve, n = build(*args)
    rng = np.random.default_rng(8)
    for rhs in rng.standard_normal((2, n + c.size)):
        x, y = solve(rhs), _reference_solve(system, c, rhs)
        for part in (slice(None, n), slice(n, None)):   # the unknowns of A, the multipliers
            assert np.abs(x[part] - y[part]).max() <= 1e-12 * np.abs(y[part]).max()


@pytest.mark.parametrize("rows,compliance,split", [
    (slice(0, 1), [0.0], "mirrors"), (slice(1, 4), [0.0, 0.0, 0.0], "mirrors"),
    (slice(0, 4), [0.0, 1e-3, 0.0, 2e-3], "antipodes"),
    (slice(0, 4), [0.0, 1e-3, 2e-3, 1e-3], "mirrors"),
    (slice(0, 1), [0.0], "rotation"), (slice(1, 4), [0.0, 0.0, 0.0], "rotation"),
    (slice(0, 4), [2e-3, 1e-3, 1e-3, 1e-3], "rotation"),
    (slice(0, 4), [0.0, 1e-3, 2e-3, 1e-3], "rotation"),
], ids=["even rows only", "odd rows only", "penalty rows", "penalty rows under mirrors",
        "even rows only under the rotation", "odd rows only under the rotation",
        "penalty rows under the rotation", "hard and penalty rows under the rotation"])
def test_split_lu_solves_any_rows_of_b(rows, compliance, split):
    # The split LU factors the hard rows: blocks without rows of B, and rows
    # re-based across blocks (nu_x and nu_z under the mirrors).  The rows with
    # a compliance are bordered onto it (BorderedLU; none for the hard cases),
    # whether or not the group maps their span to itself: nu_x and nu_z at two
    # compliances, and nu . e1 (nu_y) at another than nu . e2 and nu . e3
    # under the rotation, which carries each onto the next.  With every row
    # compliant, the LU is that of A alone, with no rows of B.
    form = assemble_quadratic_form(build_icosphere(1.0, 2), ModelParams(1.0, 1.0, 1.0))
    A, B, c = (form.S + form.M).tocsr(), form.constraints[rows], np.array(compliance)
    order = np.argsort(c > 0, kind="stable")    # the hard rows first
    B, c = B[order], c[order]
    hard = c == 0
    rhs = np.random.default_rng(10).standard_normal(A.shape[0] + B.shape[0])
    generators = [_antipodes(2)] if split == "antipodes" else mirror_maps(form.mesh)
    rotation = rotation_map(form.mesh) if split == "rotation" else None
    lu = SaddleSystem(A, B[hard]).factor(generators, rotation=rotation)
    R = sp.hstack([B[~hard], sp.csr_matrix((B.shape[0] - hard.sum(), hard.sum()))], "csr")
    x = BorderedLU(lu, R).solve(c[~hard], rhs)
    y = _reference_solve(SaddleSystem(A, B), c, rhs)
    assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()


def _unsplit_lu(level):
    """The LU of K = [[S + M, 1^T], [1, 0]] without generators, unsplit and in
    the nested-dissection order of S + M; its system and compliance."""
    A = _mesh_operator(level)
    system = SaddleSystem(A, _unit_mean_row(A.shape[0]))
    lu = system.factor([])
    np.testing.assert_array_equal(lu.basis.order, nested_dissection(A))
    return lu, system, np.zeros(1)


_MULTI_RHS_LUS = {
    "unsplit L3": lambda: _unsplit_lu(3),
    "flow L3 eight blocks": lambda: _flow_split(3, 1.0, 0.16)[:3],
    "A_C L3 rotated": lambda: _orthogonality_split(3)[:3],
}


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("name", list(_MULTI_RHS_LUS))
def test_saddle_lu_takes_several_right_hand_sides(name, sparse):
    # A right-hand side of three columns, as a dense (N, 3) array or as a
    # sparse CSC matrix (as the points' G = A_C^-1 [P^T; 0] is solved): each
    # column solves K, and as the solve of that column alone.  Measured: the
    # residuals within 1.5e-13 max|b|, and each column equal to its own solve.
    lu, system, c = _MULTI_RHS_LUS[name]()
    assert len(lu.basis.blocks) == (1 if name == "unsplit L3" else 8)
    rng = np.random.default_rng(9)
    dense = rng.standard_normal((system.A.shape[0] + c.size, 3))
    if sparse:
        dense *= rng.uniform(size=dense.shape) < 0.05
    X = lu.solve(sp.csc_matrix(dense) if sparse else dense)
    assert X.shape == dense.shape
    residual = np.column_stack([system.apply(c, x) for x in X.T]) - dense
    assert np.abs(residual).max() <= 1e-12 * np.abs(dense).max()
    for k in range(3):
        np.testing.assert_allclose(X[:, k], lu.solve(dense[:, k]), rtol=0,
                                   atol=1e-14 * np.abs(X).max())


class _SolveSpy:
    """A SuperLU factor whose solves record the columns and the ``trans`` of
    each call."""

    def __init__(self, lu):
        self.lu, self.calls = lu, []

    def solve(self, rhs, trans="N"):
        self.calls.append((rhs.shape[1] if rhs.ndim == 2 else 1, trans))
        return self.lu.solve(rhs, trans=trans)


_SOLVE_CHOICES = {
    # (LU, SuperLU calls of a 1-D right-hand side, of a three-column one)
    "flow L3 eight blocks": (lambda: _flow_split(3, 1.0, 0.16)[0],
                             [[(1, "T")]], [[(3, "N")]]),
    "A_C L3 rotated": (lambda: _orthogonality_split(3)[0],
                       [[(1, "T")], [(3, "N")]], [[(3, "N")], [(9, "N")]]),
}


@pytest.mark.parametrize("name", list(_SOLVE_CHOICES))
def test_one_column_takes_the_transposed_solve(name):
    # Every K factored is symmetric, so SuperLU's transposed solve solves it
    # too: an LU that receives one column takes it (the faster with one
    # column), one that receives several the plain solve (the faster then).
    # The rotated A_C's 3-cycles receive three columns per right-hand side.
    build, one, three = _SOLVE_CHOICES[name]
    lu = build()
    size = sum(pull.size for pull in lu.pulls)
    b = np.random.default_rng(12).standard_normal((size, 3))
    for rhs, calls in ((b[:, 0], one), (b, three), (sp.csc_matrix(b), three)):
        lu.lus = spies = [_SolveSpy(factor) for factor in lu.lus]
        lu.solve(rhs)
        assert [spy.calls for spy in spies] == calls
        lu.lus = [spy.lu for spy in spies]


def _dense_block_basis(orbits, order, s):
    """Q_s, the orthonormal vectors of block s as columns over its orbits in
    the order ``order``: for orbit o with rows ``table[o]``, the sum over the
    group's elements a of chi_s(a) e_(g^a r_o), normalized."""
    chi = fem._characters(orbits.table.shape[1].bit_length() - 1)[s]
    columns = []
    for o in order[orbits.held[s, order]]:
        v = np.zeros(orbits.images.shape[0])
        np.add.at(v, orbits.table[o], chi)
        columns.append(v / np.linalg.norm(v))
    return np.column_stack(columns)


def _fold_case(operator, rotated):
    """A level-2 matrix, its mirror generators and the characters to fold:
    all eight, or the four representatives of the rotation's cycles."""
    form = assemble_quadratic_form(build_icosphere(1.0, 2), ModelParams(1.0, 1.0, 1.0))
    mirrors = mirror_maps(form.mesh)
    if operator == "A":
        A, generators = form.A, mirrors
    else:
        pf = PhaseFieldParams(epsilon=0.15, b=1.0, coupling=1.0, alpha=-0.3, tau=0.16)
        A = flow_operator(form, pf, coupling_operator(form, pf), pf.tau)
        generators = np.hstack([mirrors, form.mesh.num_vertices + mirrors])
    wanted = [cycle[0] for cycle in fem._character_cycles(3, rotated)]
    return sp.csr_matrix(A), generators, wanted


@pytest.mark.parametrize("operator,rotated", [("A", False), ("flow", False), ("A", True)],
                         ids=["A all characters", "flow Lambda=1 all characters",
                              "A cycle representatives"])
def test_fold_is_the_blocks_of_the_orbit_basis(operator, rotated):
    # Each block _fold returns is Q_s^T A Q_s, formed densely from the orbit
    # vectors.  The fold sums the 8 images of each entry of A, then 8 signed
    # sums of those in its butterflies, and scales: each entry of a block
    # within 8 eps max|A| of the dense product (measured 1.6 eps for A and
    # 2.1 eps for the flow operator).
    A, generators, wanted = _fold_case(operator, rotated)
    orbits = fem._orbits(generators, A.shape[0])
    order = nested_dissection(fem._orbit_graph(A, orbits))
    blocks = fem._fold(A, orbits, order, wanted)
    assert sorted(blocks) == sorted(wanted) == ([0, 1, 3, 7] if rotated else list(range(8)))
    dense = A.toarray()
    for s in wanted:
        Q = _dense_block_basis(orbits, order, s)
        assert blocks[s].format == "csc" and blocks[s].shape == (Q.shape[1],) * 2
        error = np.abs(blocks[s].toarray() - Q.T @ dense @ Q).max()
        assert error <= 8.0 * np.finfo(float).eps * np.abs(dense).max(), s


@pytest.mark.parametrize("build,level", [(_orthogonality_split, 4), (_orthogonality_split, 5),
                                         (lambda level: _flow_split(level, 1.0, 0.01), 4)],
                         ids=["A_C L4", "A_C L5", "flow L4"])
def test_split_lu_fills_less_than_the_whole_lu(build, level):
    # L+U entries of the whole K in the nested-dissection order of A (no
    # generators), split by the antipodal map alone, and split by the three
    # mirrors: A_C 0.488 M, 0.437 M, 0.197 M at level 4 and 2.62 M, 2.42 M,
    # 1.24 M at level 5; the flow operator (the flow-coarsen parameters)
    # 1.19 M, 1.15 M, 0.508 M.  The flow factors it so; the points split A_C
    # by the rotation too, which fills less still.
    split, system, c, _, n = build(level)
    mirrors = _mesh_mirrors(level)
    # The flow's unknowns are phi and u: each map acts on both.
    first, second, third = np.hstack([mirrors + k * mirrors.shape[1]
                                      for k in range(n // mirrors.shape[1])])
    fills = [system.factor([]).nnz, system.factor([first[second[third]]]).nnz,
             system.factor([first, second, third]).nnz]
    assert fills[0] > fills[1] > fills[2] >= split.nnz


def test_split_needs_even_or_odd_constraint_rows():
    # Under one generator, the antipodal map, a row must be even or odd.
    form = assemble_quadratic_form(build_icosphere(1.0, 2), ModelParams(1.0, 1.0, 1.0))
    antipodes = [_antipodes(2)]
    C = form.constraints
    mixed = sp.vstack([C[1], C[0] + C[3]]).tocsr()     # odd, then even plus odd
    with pytest.raises(SolverError, match=r"constraint rows \[1\] span no space"):
        SaddleSystem(form.A, mixed).factor(antipodes)
    n = form.mesh.num_vertices
    with pytest.raises(SolverError, match="generator 0 is not an involution"):
        SaddleSystem(form.A, C).factor([np.roll(np.arange(n), 1)])


def test_split_needs_commuting_involutions_and_an_invariant_row_span():
    mesh = build_icosphere(1.0, 2)
    form = assemble_quadratic_form(mesh, ModelParams(1.0, 1.0, 1.0))
    C, mirrors = form.constraints, mirror_maps(mesh)
    # The y mirror and the mirror in the vertical plane through vertex 2, at
    # 72 degrees from it: two involutions whose product turns by 144 degrees.
    normal = np.array([-np.sin(0.4 * np.pi), np.cos(0.4 * np.pi), 0.0])
    tilted = vertex_permutation(mesh, np.eye(3) - 2.0 * np.outer(normal, normal))
    with pytest.raises(SolverError, match="generators 0 and 1 do not commute"):
        SaddleSystem(form.A, C).factor([mirrors[0], tilted])
    # nu_x alone: the mirrors map it to nu . e3 - (nu . e2) combinations.
    with pytest.raises(SolverError, match="span no space"):
        SaddleSystem(form.A, C[1]).factor(mirrors)
    # A row the group maps to itself, but not orthogonally: the swap of two
    # isolated unknowns, acting on rows e_1 and 2 e_1 + e_2.
    A = sp.identity(2, format="csr")
    with pytest.raises(SolverError, match="does not act orthogonally"):
        SaddleSystem(A, sp.csr_matrix([[1.0, 0.0], [2.0, 1.0]])).factor([np.array([1, 0])])


@pytest.mark.parametrize("level", [4, 5, 6])
def test_rotated_lu_halves_the_fill_of_a_c(level):
    # The points' A_C split by the three mirrors and the rotation that cycles
    # them: one block per cycle of characters is factored, 0.098 M, 0.621 M
    # and 3.458 M L+U entries at levels 4-6 against 0.197 M, 1.241 M and
    # 6.915 M for the eight blocks (ratios 0.498, 0.500, 0.500).
    rotated = _orthogonality_lu(level, rotated=True)
    eight = _orthogonality_lu(level)
    assert rotated.nnz <= 0.55 * eight.nnz


@pytest.mark.parametrize("k", [1, 3, 12])
def test_rotated_lu_solves_any_number_of_columns(k):
    # The 3-cycles' LU takes three columns per right-hand side: k columns,
    # dense or sparse, solve as k single solves.
    form = assemble_quadratic_form(build_icosphere(1.0, 3), ModelParams(1.0, 1.0, 1.0))
    lu = _orthogonality_lu(3, rotated=True)
    K = _hard_saddle(form.A, form.constraints)
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal((K.shape[0], k)) * (rng.random((K.shape[0], k)) < 0.2)
    X = lu.solve(rhs)
    assert X.shape == rhs.shape
    np.testing.assert_array_equal(lu.solve(sp.csr_matrix(rhs)), X)
    for j in range(k):
        np.testing.assert_allclose(X[:, j], lu.solve(rhs[:, j]), rtol=0,
                                   atol=1e-14 * np.abs(X).max())
    assert np.abs(K @ X - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_rotation_commutes_with_the_operators():
    # Measured 2.1e-15 for A and for the flow operator at level 4, relative to
    # the largest entry (6.2e-15 and 1.2e-14 for A at levels 5 and 6).
    form = assemble_quadratic_form(build_icosphere(1.0, 4), ModelParams(1.0, 1.0, 1.0))
    R, n = rotation_map(form.mesh), form.mesh.num_vertices
    pf = PhaseFieldParams(epsilon=0.15, b=1.0, coupling=1.0, alpha=-0.3, tau=0.16)
    flow = flow_operator(form, pf, coupling_operator(form, pf), pf.tau)
    for K, perm in ((form.A, R), (flow, np.hstack([R, n + R]))):
        K = sp.csr_matrix(K)
        assert abs(K[perm][:, perm] - K).max() <= 1e-13 * abs(K).max()


def test_split_needs_a_rotation_that_cycles_the_generators_and_their_rows():
    mesh = build_icosphere(1.0, 2)
    form = assemble_quadratic_form(mesh, ModelParams(1.0, 1.0, 1.0))
    C, mirrors, R = form.constraints, mirror_maps(mesh), rotation_map(mesh)
    system = SaddleSystem(form.A, C)
    with pytest.raises(SolverError, match="not a permutation"):
        system.factor(mirrors, rotation=np.zeros_like(R))
    # The inverse rotation conjugates mirror j into mirror j - 1.
    with pytest.raises(SolverError, match="does not conjugate generator 0 into generator 1"):
        system.factor(mirrors, rotation=np.argsort(R))
    # nu . e1 alone: block (-, +, +) has a row, the others of its cycle none.
    with pytest.raises(SolverError, match="the 0 constraint rows of block 2 onto the 1 "):
        SaddleSystem(form.A, C[2]).factor(mirrors, rotation=R)
    # nu . e1, nu . e2 and 2 nu . e3: the rotation takes each nu . e_j to
    # nu . e_(j+1), so the rows of its 3-cycle of blocks differ in norm.
    rows = sp.csr_matrix(np.diag([1.0, 1.0, 2.0]) @ mirror_normals(mesh)) @ C[1:]
    with pytest.raises(SolverError, match="does not carry the constraint rows of block"):
        SaddleSystem(form.A, rows).factor(mirrors, rotation=R)


def test_orbit_graph_is_the_folded_pattern():
    # Orbits o and u are joined where A joins an unknown of one to one of the other.
    form = assemble_quadratic_form(build_icosphere(1.0, 2), ModelParams(1.0, 1.0, 1.0))
    mirrors = mirror_maps(form.mesh)
    n = form.mesh.num_vertices
    images = np.stack([np.arange(n), *mirrors, mirrors[0][mirrors[1]], mirrors[0][mirrors[2]],
                       mirrors[1][mirrors[2]], mirrors[0][mirrors[1][mirrors[2]]]])
    rep = images.min(axis=0)
    orbits = np.unique(rep)
    fold = sp.csr_matrix((np.ones(n), (np.arange(n), np.searchsorted(orbits, rep))),
                         shape=(n, orbits.size))
    folded = (fold.T @ abs(form.A) @ fold).tocsr()
    graph = fem._orbit_graph(form.A, fem._orbits(mirrors, n))
    assert graph.shape == (orbits.size, orbits.size)
    assert ((graph != 0) != (folded != 0)).nnz == 0


def _perturbed_surface(level):
    """A level-``level`` sphere perturbed by 0.1 (z^2 - 1/3)."""
    sphere = build_icosphere(1.0, level)
    return perturb(sphere, sphere.vertices[:, 2] ** 2 - 1.0 / 3.0, 0.1)


def _perturbed_mass_system(level):
    """Mass matrix and the weak-identity right-hand sides S X (three columns)
    of the perturbed surface."""
    surface = _perturbed_surface(level)
    return assemble_mass(surface), assemble_stiffness(surface) @ surface.vertices


def _once_refined_lu_form(M, b):
    """b^T M^{-1} b by a sparse LU of M and one refinement step, from a
    contiguous b (a strided dot sums less exactly)."""
    lu = spla.splu(M.tocsc())
    x = lu.solve(b)
    x += lu.solve(b - M @ x)
    return b @ x


@pytest.mark.parametrize("level", range(7))
def test_mass_solve_meets_contract_and_matches_lu(level):
    # Certified to MASS_FORM_BOUND = 2 eps relative; measured within 1.9 eps of
    # the reference at levels 0-7.
    M, rhs = _perturbed_mass_system(level)
    for k in range(3):
        b = np.ascontiguousarray(rhs[:, k])
        ref = _once_refined_lu_form(M, b)
        assert abs(mass_inverse_form(M, b) - ref) <= 4.0 * np.finfo(float).eps * ref
        assert mass_inverse_form(M, rhs[:, k]) == mass_inverse_form(M, b)


@pytest.mark.parametrize("level", [0, 3, 5])
def test_mass_inverse_forms_of_columns_are_the_single_forms(level):
    # The columns share D and the CG's vectors; each form keeps its bits.
    M, rhs = _perturbed_mass_system(level)
    assert mass_inverse_form(M, rhs) == [mass_inverse_form(M, rhs[:, k]) for k in range(3)]


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_mass_inverse_form_products(level, monkeypatch):
    # Every product with M is one fem._matvec_into: one per CG step (13-14
    # measured) and one for the certifying true residual.
    M, rhs = _perturbed_mass_system(level)
    products, matvec_into = [], fem._matvec_into
    monkeypatch.setattr(fem, "_matvec_into", lambda *args: products.append(1) or matvec_into(*args))
    for k in range(3):
        products.clear()
        mass_inverse_form(M, rhs[:, k])
        assert len(products) <= 16


def test_mass_solve_of_zero_is_zero(mesh):
    value = mass_inverse_form(assemble_mass(mesh), np.zeros(mesh.num_vertices))
    assert value == 0.0 and isinstance(value, float)


def test_mass_solve_contract_miss_raises(monkeypatch):
    # Two CG steps leave the error bound far above 2 eps of the form.
    M, rhs = _perturbed_mass_system(3)
    monkeypatch.setattr(fem, "MASS_CG_MAXITER", 2)
    with pytest.raises(SolverError, match="MASS_FORM_BOUND") as exc:
        mass_inverse_form(M, rhs[:, 0])
    assert f"{fem.MASS_FORM_BOUND:.3g}" in str(exc.value)
    assert "after 2 CG steps" in str(exc.value)


@pytest.mark.parametrize("name", [f"L{level}" for level in range(7)] + ["perturbed-L4"])
def test_matvec_into_is_the_product(name):
    # fem._matvec_into calls SciPy's private CSR kernel: this fails if SciPy moves it.
    surface = _perturbed_surface(4) if name == "perturbed-L4" else build_icosphere(
        1.0, int(name[1:]))
    M = assemble_mass(surface)
    x = np.random.default_rng(3).standard_normal(surface.num_vertices)
    out = np.full(surface.num_vertices, np.nan)     # the kernel adds into its output
    for _ in range(2):
        assert fem._matvec_into(M, x, out) is out
        np.testing.assert_array_equal(out, M @ x)


def _coo_assembly(mesh, which):
    """Mass or stiffness matrix by COO triplets and ``tocsr``, the assembly
    before it scattered into the mesh's pattern."""
    t = mesh.triangles
    n = mesh.num_vertices
    rows, cols, vals = [], [], []
    if which == "mass":
        for i in range(3):
            for j in range(3):
                rows.append(t[:, i])
                cols.append(t[:, j])
                vals.append(mesh.areas * ((2.0 if i == j else 1.0) / 12.0))
    else:
        p = mesh.vertices[t]
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            e1 = p[:, i] - p[:, k]
            e2 = p[:, j] - p[:, k]
            w = 0.5 * (np.einsum("ij,ij->i", e1, e2) / (2.0 * mesh.areas))
            rows.extend([t[:, i], t[:, j], t[:, i], t[:, j]])
            cols.extend([t[:, j], t[:, i], t[:, i], t[:, j]])
            vals.extend([-w, -w, w, w])
    coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return coo.tocsr()


def _octahedron_shuffled():
    v = np.vstack([np.eye(3), -np.eye(3)])
    t = np.array([[0, 1, 2], [1, 3, 2], [3, 4, 2], [4, 0, 2],
                  [1, 0, 5], [3, 1, 5], [4, 3, 5], [0, 4, 5]])
    rng = np.random.default_rng(5)
    t = np.roll(t[rng.permutation(len(t))], 1, axis=1)
    return TriangleMesh(v, t)


def _open_cap():
    # The triangles of a level-2 sphere above z = 0.2: a boundary, and vertices
    # no triangle uses.
    sphere = build_icosphere(1.0, 2)
    cap = sphere.triangles[sphere.vertices[sphere.triangles].mean(axis=1)[:, 2] > 0.2]
    return TriangleMesh(sphere.vertices, cap)


_SCATTER_MESHES = {
    **{f"L{level}": (lambda level=level: build_icosphere(1.0, level)) for level in range(6)},
    "perturbed-L4": lambda: _perturbed_surface(4),
    "octahedron-shuffled": _octahedron_shuffled,
    "open-cap": _open_cap,
}


@pytest.mark.parametrize("name", list(_SCATTER_MESHES))
@pytest.mark.parametrize("which", ["mass", "stiffness"])
def test_scatter_assembly_matches_coo(name, which):
    mesh = _SCATTER_MESHES[name]()
    assemble = assemble_mass if which == "mass" else assemble_stiffness
    A, ref = assemble(mesh), _coo_assembly(mesh, which)
    np.testing.assert_array_equal(A.indptr, ref.indptr)
    np.testing.assert_array_equal(A.indices, ref.indices)
    tol = 4 * np.finfo(float).eps * np.max(np.abs(ref.data))
    np.testing.assert_allclose(A.data, ref.data, rtol=0, atol=tol)
    assert (A != A.T).nnz == 0


def test_laplacian_of_coordinate():
    # Delta nu_3 = -2/R^2 nu_3 on the sphere: the reconstruction converges in
    # the (lumped) L2 norm, roughly halving per refinement level.
    errs = []
    for level in (3, 4, 5):
        m = build_icosphere(1.0, level)
        S = assemble_stiffness(m)
        mL = lumped_diagonal(m)
        z = m.vertices[:, 2]
        lap = laplacian_apply(S, mL, z)
        errs.append(np.sqrt(float(mL @ (lap + 2.0 * z) ** 2)))
    assert errs[0] > 1.8 * errs[1] > 1.8 * 1.8 * errs[2]
    assert errs[2] < 2e-2


def test_h2_norm_controls_l2(mesh):
    M = assemble_mass(mesh)
    S = assemble_stiffness(mesh)
    mL = lumped_diagonal(mesh)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(mesh.num_vertices)
    l2 = np.sqrt(float(u @ (M @ u)))
    assert h2_norm(M, S, mL, u) >= l2
    assert h2_norm(M, S, mL, np.zeros(mesh.num_vertices)) == 0.0
