import numpy as np
import pytest
import scipy.sparse as sp

from spheremem.errors import GeometryError, ParameterError
from spheremem.fem import PointLocator, SaddleSystem, solve_saddle
from spheremem.mesh import build_icosphere
from spheremem.model import ModelParams, assemble_quadratic_form
from spheremem.points import (
    ConstraintSet,
    convergence_study,
    equator_points,
    icosahedron_points,
    polar_ring_points,
    solve_hard,
    solve_penalty,
)


@pytest.fixture(scope="module")
def form():
    mesh = build_icosphere(1.0, 3)
    return assemble_quadratic_form(mesh, ModelParams(1.0, 1.0, 1.0))


def test_duplicate_points_rejected():
    pts = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ParameterError):
        ConstraintSet(points=pts, heights=np.array([1.0, 1.0]), delta=None)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["points", "heights", "delta"])
def test_non_finite_constraint_set_rejected(where, bad):
    kw = dict(points=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
              heights=np.array([1.0, 1.0]), delta=1e-4)
    if where == "delta":
        kw["delta"] = bad
    else:
        kw[where][-1] = bad
    with pytest.raises(ParameterError, match="finite"):
        ConstraintSet(**kw)


def test_hard_interpolates_exactly(form):
    cs = ConstraintSet(icosahedron_points(), np.ones(12), delta=None)
    u, reactions, report = solve_hard(form, cs)
    assert np.max(np.abs(report.point_residuals)) < 1e-9
    assert reactions.shape == (12,)


def test_hard_zero_targets_zero_solution(form):
    cs = ConstraintSet(icosahedron_points(), np.zeros(12), delta=None)
    u, _, _ = solve_hard(form, cs)
    assert np.linalg.norm(u) < 1e-10


def test_hard_orthogonality_enforced(form):
    cs = ConstraintSet(icosahedron_points(), np.ones(12), delta=None)
    u, _, _ = solve_hard(form, cs)
    for i in range(4):
        assert abs(float((form.constraints[i] @ u)[0])) < 1e-9


def test_penalty_approaches_targets(form):
    pts = icosahedron_points()
    res = []
    for delta in (1e-2, 1e-4, 1e-6):
        cs = ConstraintSet(pts, np.ones(12), delta=delta)
        u, report = solve_penalty(form, cs)
        res.append(np.max(np.abs(report.point_residuals)))
    assert res[0] > res[1] > res[2]


def test_penalty_energy_below_hard(form):
    # The penalized minimizer relaxes the constraint, so its bending energy
    # cannot exceed the hard-constrained one.
    pts = icosahedron_points()
    _, rep_p = solve_penalty(form, ConstraintSet(pts, np.ones(12), delta=1e-4))
    _, _, rep_h = solve_hard(form, ConstraintSet(pts, np.ones(12), delta=None))
    assert rep_p.energy <= rep_h.energy + 1e-10


@pytest.mark.parametrize("solve, delta", [(solve_penalty, None), (solve_hard, 1e-2)],
                         ids=["penalty-without-delta", "hard-with-delta"])
def test_penalty_needs_delta(form, solve, delta):
    cs = ConstraintSet(icosahedron_points(), np.ones(12), delta=delta)
    with pytest.raises(ParameterError):
        solve(form, cs)


def test_hard_large_kappa():
    # The fourth-order block grows with kappa; the point rows must still hold
    # to their own scale.
    form = assemble_quadratic_form(build_icosphere(1.0, 3), ModelParams(1000.0, 1.0, 1.0))
    u, reactions, report = solve_hard(form, ConstraintSet(icosahedron_points(), np.ones(12), None))
    assert np.max(np.abs(report.point_residuals)) <= 1e-10
    assert np.all(np.isfinite(reactions))


@pytest.mark.parametrize("delta", [None, 1e-2])
def test_unresolved_points_rejected(delta):
    # At level 2 each polar ring has two points in one triangle.
    form = assemble_quadratic_form(build_icosphere(1.0, 2), ModelParams(1.0, 1.0, 1.0))
    pts, heights = polar_ring_points()
    solve = solve_hard if delta is None else solve_penalty
    with pytest.raises(GeometryError, match="one triangle"):
        solve(form, ConstraintSet(pts, heights, delta))


def test_points_on_adjacent_vertices_resolved(form):
    a, b = form.mesh.triangles[0][:2]
    pts = form.mesh.vertices[[a, b]]
    u, _, report = solve_hard(form, ConstraintSet(pts, np.array([1.0, -1.0]), None))
    np.testing.assert_allclose(report.point_values, [1.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("delta", [1e-2, 1e-6])
@pytest.mark.parametrize("preset", ["icosahedron", "equator"])
def test_penalty_matches_schur_form(form, preset, delta):
    pts = icosahedron_points() if preset == "icosahedron" else equator_points()
    heights = np.ones(len(pts))
    u, report = solve_penalty(form, ConstraintSet(pts, heights, delta))
    # Reference: the point rows eliminated, (A + P^T P / delta) u = P^T Z / delta.
    locator = PointLocator(form.mesh)
    P = sp.vstack([locator.row(p) for p in pts]).tocsr()
    ref, _ = solve_saddle(SaddleSystem(
        A=(form.A + (P.T @ P) / delta).tocsr(), B=form.constraints,
        f=(P.T @ heights) / delta, g=np.zeros(4),
    ))
    assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))
    np.testing.assert_allclose(report.point_multipliers, report.point_residuals / delta,
                               rtol=1e-6)


def test_penalty_reactions_approach_hard(form):
    pts = icosahedron_points()
    _, hard, _ = solve_hard(form, ConstraintSet(pts, np.ones(12), None))
    gaps = []
    for delta in (1e-2, 1e-4, 1e-6):
        _, report = solve_penalty(form, ConstraintSet(pts, np.ones(12), delta))
        gaps.append(np.max(np.abs(report.point_multipliers - hard)) / np.max(np.abs(hard)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_convergence_rate_half_order(form):
    cs = ConstraintSet(icosahedron_points(), np.ones(12), delta=1e-2)
    table = convergence_study(form, cs, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    assert 0.45 <= table.slope <= 1.1
    assert all(e1 > e2 for e1, e2 in zip(table.errors, table.errors[1:]))
    assert "delta" in table.to_csv().splitlines()[0]


def test_preset_points_on_sphere():
    for pts in (icosahedron_points(), equator_points(), polar_ring_points()[0]):
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-12)


def test_polar_rings_antipodal_oddness():
    pts, heights = polar_ring_points()
    n = len(pts) // 2
    np.testing.assert_allclose(pts[n:], -pts[:n], atol=1e-15)
    np.testing.assert_allclose(heights[n:], -heights[:n])


def test_presets_hit_mesh_vertices():
    # Icosahedron points coincide with level-0 vertices of every icosphere.
    mesh = build_icosphere(1.0, 3)
    locator = PointLocator(mesh)
    for p in icosahedron_points():
        dist, _, bary = locator.locate(p)
        assert np.max(bary) > 1.0 - 1e-9
