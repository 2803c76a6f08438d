import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spheremem import fem, points
from spheremem.errors import GeometryError, ParameterError, RankDeficiencyError
from spheremem.fem import PointLocator, h2_norm, solve_saddle
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
        ConstraintSet(points=pts, heights=np.array([1.0, 1.0]))


def test_coinciding_points_report_the_smallest_index_and_its_nearest_partner():
    # Near-duplicates of point 5 (0.5 tol away), of point 3 (0.4 and 0.2 tol
    # away) and of point 1 (1.5 tol away, so none): the pair reported is
    # point 3 and its nearer duplicate, 14.
    tol, pts = points.DUPLICATE_TOL, icosahedron_points()
    offsets = np.array([[0.5, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, 0.2], [0.0, 1.5, 0.0]])
    pts = np.vstack([pts, pts[[5, 3, 3, 1]] + tol * offsets])
    with pytest.raises(ParameterError, match=r"^attachment points 3 and 14 coincide$"):
        ConstraintSet(pts, np.ones(pts.shape[0]))


@pytest.mark.parametrize("shape", [(2, 4), (3, 2), (1, 4, 3)], ids=str)
def test_points_that_are_not_triples_rejected(shape):
    # A (2, 4) array would reach the point location, and a (3, 2) one be read
    # as two other 3-vectors.
    with pytest.raises(ParameterError, match=re.escape(f"got shape {shape}")):
        ConstraintSet(np.ones(shape), np.ones(shape[0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["points", "heights"])
def test_non_finite_constraint_set_rejected(where, bad):
    kw = dict(points=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
              heights=np.array([1.0, 1.0]))
    kw[where][-1] = bad
    with pytest.raises(ParameterError, match="finite"):
        ConstraintSet(**kw)


def _study_last(form, cs, delta):
    return convergence_study(form, cs, [1e-2, delta])


@pytest.mark.parametrize("bad, match", [(np.nan, "finite"), (np.inf, "finite"),
                                        (0.0, "positive"), (-1e-4, "positive")])
@pytest.mark.parametrize("solve", [solve_penalty, _study_last],
                         ids=["solve_penalty", "convergence_study"])
def test_bad_delta_rejected_before_solving(form, monkeypatch, solve, bad, match):
    # The study checks every delta before it factors anything.
    monkeypatch.setattr(spla, "splu", lambda *a, **k: pytest.fail("solved"))
    cs = ConstraintSet(icosahedron_points(), np.ones(12))
    with pytest.raises(ParameterError, match=match):
        solve(form, cs, bad)


@pytest.mark.parametrize("run", [
    solve_hard,
    lambda form, cs: solve_penalty(form, cs, 1e-4),
    lambda form, cs: convergence_study(form, cs, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]),
], ids=["solve_hard", "solve_penalty", "convergence_study"])
def test_one_factorization_per_constraint_set(form, monkeypatch, run):
    # The hard problem and every delta share one factorization of [[A, C^T], [C, 0]],
    # split by the mirrors and the rotation into two SuperLU factors, one for
    # the blocks of the 1-cycles of characters and one for those of the 3-cycles;
    # splu is counted where fem looks it up.
    calls, factored = [], []
    splu, factor = spla.splu, fem.SaddleSystem.factor
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    monkeypatch.setattr(fem.SaddleSystem, "factor",
                        lambda *a, **k: factored.append(1) or factor(*a, **k))
    run(form, ConstraintSet(icosahedron_points(), np.ones(12)))
    assert len(factored) == 1
    assert len(calls) == 2


def test_study_back_solves_no_zero_vector(form, monkeypatch):
    # Each solve's first right-hand side is zero above the point rows, so its
    # back-solve is known; a study solves only for G and one refinement step of
    # the hard problem and of each delta.  The icosahedron's solves take that
    # step (395 eps unrefined at level 3); the equator's meet the contract
    # unrefined at level 3 (9.5-9.8 eps) and take none.
    # G's right-hand side [P^T; 0] is passed sparse.
    rhs = []
    solve = fem._PermutedLU.solve
    monkeypatch.setattr(fem._PermutedLU, "solve", lambda self, b: rhs.append(
        b.toarray() if sp.issparse(b) else np.array(b)) or solve(self, b))
    convergence_study(form, ConstraintSet(icosahedron_points(), np.ones(12)),
                      [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    assert len(rhs) == 7
    assert all(np.any(b) for b in rhs)


def test_study_forms_the_absolute_blocks_once(form, monkeypatch):
    # |A| and |B| of K(delta) are formed at the first backward-error check and kept.
    taken = []
    absolute = sp.csr_matrix.__abs__
    monkeypatch.setattr(sp.csr_matrix, "__abs__",
                        lambda self: taken.append(self.shape) or absolute(self))
    convergence_study(form, ConstraintSet(icosahedron_points(), np.ones(12)), [1e-2, 1e-4])
    n = form.mesh.num_vertices
    assert sorted(taken) == [(16, n), (n, n)]


@pytest.mark.parametrize("run", [
    solve_hard,
    lambda form, cs: convergence_study(form, cs, [1e-2, 1e-3]),
], ids=["solve_hard", "convergence_study"])
def test_hard_points_on_the_vertices_of_level_0_are_rank_deficient(run):
    # On the icosahedron itself the 12 point rows span every vertex value, so
    # [C; P] has four rows too many; the dependent ones named are point rows.
    form = assemble_quadratic_form(build_icosphere(1.0, 0), ModelParams(1.0, 1.0, 1.0))
    with pytest.raises(RankDeficiencyError, match="dependent rows") as exc:
        run(form, ConstraintSet(icosahedron_points(), np.ones(12)))
    assert len(exc.value.dependent_rows) == 4
    assert all(row >= 4 for row in exc.value.dependent_rows)
    assert "'point " in str(exc.value) and "c0" not in str(exc.value)


def test_study_checks_the_constraint_rank_twice(form, monkeypatch):
    # The orthogonality rows are checked once, before A_C is factored, and
    # [C; P] once, by the hard solve; a penalty solve checks nothing.
    calls = []
    qr = scipy.linalg.qr
    monkeypatch.setattr(scipy.linalg, "qr", lambda *a, **k: calls.append(a[0].shape) or qr(*a, **k))
    convergence_study(form, ConstraintSet(icosahedron_points(), np.ones(12)),
                      [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    n = form.mesh.num_vertices
    assert calls == [(n, 4), (n, 16)]


@pytest.mark.parametrize("level", [3, 4])
def test_point_solves_are_scale_covariant(level):
    # On a sphere of radius R with kappa_R = kappa R^2 and sigma_R = sigma, the
    # discrete A is the R = 1 one, C is R^2 times it and the point rows are the
    # same, so the hard and penalty solutions and energies are those of R = 1.
    def solves(R):
        sphere = build_icosphere(R, level)
        form = assemble_quadratic_form(sphere, ModelParams(kappa=R**2, sigma=1.0, R=R))
        cs = ConstraintSet(icosahedron_points(R), np.ones(12))
        return [solve_hard(form, cs)] + [solve_penalty(form, cs, d) for d in (1e-2, 1e-4)]

    reference = solves(1.0)
    for R in (1e-3, 3.0, 1e3):
        for (u, report), (u1, report1) in zip(solves(R), reference):
            # Measured: u within 1.1e-13 (L4; 1.0e-14 at L3) and the energies
            # within 5.8e-15 relative, 9x and 17x under these bounds.
            assert np.max(np.abs(u - u1)) <= 1e-12 * np.max(np.abs(u1))
            assert report.energy == pytest.approx(report1.energy, rel=1e-13, abs=0)


def test_hard_interpolates_exactly(form):
    cs = ConstraintSet(icosahedron_points(), np.ones(12))
    u, report = solve_hard(form, cs)
    assert np.max(np.abs(report.point_residuals)) < 1e-9
    assert report.point_multipliers.shape == (12,)


def test_hard_zero_targets_zero_solution(form):
    cs = ConstraintSet(icosahedron_points(), np.zeros(12))
    u, _ = solve_hard(form, cs)
    assert np.linalg.norm(u) < 1e-10


def test_hard_orthogonality_enforced(form):
    cs = ConstraintSet(icosahedron_points(), np.ones(12))
    u, _ = solve_hard(form, cs)
    for i in range(4):
        assert abs(float((form.constraints[i] @ u)[0])) < 1e-9


def test_penalty_approaches_targets(form):
    pts = icosahedron_points()
    cs = ConstraintSet(pts, np.ones(12))
    res = []
    for delta in (1e-2, 1e-4, 1e-6):
        u, report = solve_penalty(form, cs, delta)
        res.append(np.max(np.abs(report.point_residuals)))
    assert res[0] > res[1] > res[2]


def test_penalty_energy_below_hard(form):
    # The penalized minimizer relaxes the constraint, so its bending energy
    # cannot exceed the hard-constrained one.
    pts = icosahedron_points()
    cs = ConstraintSet(pts, np.ones(12))
    _, rep_p = solve_penalty(form, cs, 1e-4)
    _, rep_h = solve_hard(form, cs)
    assert rep_p.energy <= rep_h.energy + 1e-10


def test_hard_large_kappa():
    # The fourth-order block grows with kappa; the point rows must still hold
    # to their own scale.
    form = assemble_quadratic_form(build_icosphere(1.0, 3), ModelParams(1000.0, 1.0, 1.0))
    u, report = solve_hard(form, ConstraintSet(icosahedron_points(), np.ones(12)))
    assert np.max(np.abs(report.point_residuals)) <= 1e-10
    assert np.all(np.isfinite(report.point_multipliers))


@pytest.mark.parametrize("delta", [None, 1e-2])
def test_unresolved_points_rejected(delta):
    # At level 2 each polar ring has two points in one triangle.
    form = assemble_quadratic_form(build_icosphere(1.0, 2), ModelParams(1.0, 1.0, 1.0))
    pts, heights = polar_ring_points()
    cs = ConstraintSet(pts, heights)
    with pytest.raises(GeometryError, match="one triangle"):
        solve_hard(form, cs) if delta is None else solve_penalty(form, cs, delta)


def test_points_on_adjacent_vertices_resolved(form):
    a, b = form.mesh.triangles[0][:2]
    pts = form.mesh.vertices[[a, b]]
    u, report = solve_hard(form, ConstraintSet(pts, np.array([1.0, -1.0])))
    np.testing.assert_allclose(report.point_values, [1.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("delta", [1e-2, 1e-6])
@pytest.mark.parametrize("preset", ["icosahedron", "equator"])
def test_penalty_matches_schur_form(form, preset, delta):
    pts = icosahedron_points() if preset == "icosahedron" else equator_points()
    heights = np.ones(len(pts))
    u, report = solve_penalty(form, ConstraintSet(pts, heights), delta)
    # Reference: the point rows eliminated, (A + P^T P / delta) u = P^T Z / delta.
    P = PointLocator(form.mesh).row(pts)
    ref, _ = solve_saddle((form.A + (P.T @ P) / delta).tocsr(), form.constraints,
                          (P.T @ heights) / delta, np.zeros(4), np.zeros(4),
                          ["c0", "c1", "c2", "c3"])
    assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))
    np.testing.assert_allclose(report.point_multipliers, report.point_residuals / delta,
                               rtol=1e-6)


def test_penalty_reactions_approach_hard(form):
    pts = icosahedron_points()
    cs = ConstraintSet(pts, np.ones(12))
    hard = solve_hard(form, cs)[1].point_multipliers
    gaps = []
    for delta in (1e-2, 1e-4, 1e-6):
        _, report = solve_penalty(form, cs, delta)
        gaps.append(np.max(np.abs(report.point_multipliers - hard)) / np.max(np.abs(hard)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_convergence_rate_half_order(form):
    cs = ConstraintSet(icosahedron_points(), np.ones(12))
    table = convergence_study(form, cs, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    assert 0.45 <= table.slope <= 1.1
    assert all(e1 > e2 for e1, e2 in zip(table.errors, table.errors[1:]))


def test_study_error_is_the_difference_solve(form):
    # u0 - u_delta solves K(delta) [d; .] = [0; 0; -delta lam0]; here it is solved
    # through one LU of the whole K(delta).  Subtracting two solutions instead
    # misses this reference by 7e-13 relative at delta = 1e-6.
    pts = equator_points()
    cs = ConstraintSet(pts, np.where(np.arange(10) % 2 == 0, 1.0, -1.0))
    deltas = [1e-2, 1e-6]
    table = convergence_study(form, cs, deltas)
    lam0 = solve_hard(form, cs)[1].point_multipliers
    B = sp.vstack([form.constraints, PointLocator(form.mesh).row(pts)]).tocsr()
    n = form.mesh.num_vertices
    for delta, error in zip(deltas, table.errors):
        d, _ = solve_saddle(form.A, B, np.zeros(n), np.r_[np.zeros(4), -delta * lam0],
                            np.r_[np.zeros(4), np.full(10, delta)], [str(k) for k in range(14)])
        assert error == pytest.approx(h2_norm(form.M, form.S, form.m_lumped, d), rel=1e-13, abs=0)


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
    _, bary = PointLocator(mesh).locate(icosahedron_points())
    assert np.all(np.max(bary, axis=1) > 1.0 - 1e-9)


def _exact_green(cosines, l_max: int = 20000) -> tuple[np.ndarray, float]:
    """Continuum Green's function g(cos gamma) of the quadratic form on
    {1, nu}^perp for kappa = sigma = R = 1, and a bound on its truncation error.

    g(c) = sum_{l>=2} (2l+1) P_l(c) / (4 pi (x_l - 2)(x_l + 1)), x_l = l(l+1),
    with P_l from the recurrence (l+1) P_{l+1} = (2l+1) c P_l - l P_{l-1}.  Since
    |P_l| <= 1 and (2l+1) / x_l^2 = 1/l^2 - 1/(l+1)^2 telescopes, the terms beyond
    ``l_max`` sum to at most t / (1 - 1/x - 2/x^2) in absolute value, with
    t = 1 / (4 pi (l_max+1)^2) and x = x_{l_max+1}; at c = 1 they sum to at least t.
    """
    c, inverse = np.unique(np.asarray(cosines, dtype=float), return_inverse=True)
    P = np.empty((l_max + 1, c.size))
    P[0], P[1] = 1.0, c
    for l in range(1, l_max):
        P[l + 1] = ((2 * l + 1) * c * P[l] - l * P[l - 1]) / (l + 1)
    l = np.arange(2, l_max + 1)
    x = l * (l + 1.0)
    g = (2 * l + 1) / (4.0 * np.pi * (x - 2) * (x + 1)) @ P[2:]
    t = 1.0 / (4.0 * np.pi * (l_max + 1) ** 2)
    x1 = (l_max + 1.0) * (l_max + 2.0)
    return g[inverse].reshape(np.shape(cosines)), t / (1.0 - 1.0 / x1 - 2.0 / x1**2)


def test_single_point_energy_converges_to_exact_at_second_order():
    # One hard point with Z = 1 has the energy 1/2 / g(1).  At c = 1 every P_l is
    # 1, so the tail lies between t = tail (1 - 1/x - 2/x^2) and tail, x = x_{l_max+1};
    # adding the upper end leaves a relative error of at most tail (1/x + 2/x^2) / g(1).
    g1, tail = _exact_green(1.0)
    x1 = 20001.0 * 20002.0
    exact, truncation = 0.5 / (g1 + tail), tail * (1.0 / x1 + 2.0 / x1**2) / g1
    assert truncation < 1e-12
    assert exact == pytest.approx(21.1496933844599, rel=1e-12)
    cs = ConstraintSet(np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))
    errors = []
    for level in range(2, 6):
        form = assemble_quadratic_form(build_icosphere(1.0, level), ModelParams(1.0, 1.0, 1.0))
        _, report = solve_hard(form, cs)
        errors.append(abs(report.energy - exact) / exact)
    # Measured: 1.01e-1, 2.85e-2, 7.07e-3, 1.59e-3 (ratios 3.54, 4.03, 4.46).  O(h^2)
    # with h halving per level is a ratio of 4; each ratio must reach 3.2 (local
    # order 1.68), and level 5 must stay within 2e-3 (measured + 26%).
    ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
    assert min(ratios) >= 3.2, (errors, ratios)
    assert errors[-1] <= 2e-3, errors


def test_single_point_nodal_values_converge_to_exact_at_second_order():
    # The hard solution for one point p with Z = 1 is u = g(p . x) / g(1), whose
    # peak is u(p) = 1.  With the series cut at l_max, |g| <= g(1) (its terms have
    # positive weights and |P_l| <= 1) bounds the error of the reference by
    # 2 tail / g(1); l_max = 1000 keeps it below 1% of the level-5 tolerance.
    p = np.array([0.0, 0.0, 1.0])
    g1, tail = _exact_green(1.0, l_max=1000)
    assert 2.0 * tail / g1 <= 1e-2 * 9.5e-4
    cs = ConstraintSet(p[None, :], np.array([1.0]))
    errors = []
    for level in range(2, 6):
        mesh = build_icosphere(1.0, level)
        u, _ = solve_hard(assemble_quadratic_form(mesh, ModelParams(1.0, 1.0, 1.0)), cs)
        exact = _exact_green(np.clip(mesh.vertices @ p, -1.0, 1.0), l_max=1000)[0] / g1
        errors.append(float(np.max(np.abs(u - exact))))
    # Measured: 3.52e-2, 1.13e-2, 3.06e-3, 7.53e-4 (ratios 3.13, 3.67, 4.06; level 6:
    # 1.70e-4, 4.42).  Each ratio must reach 3.0 (local order 1.58), and level 5 stay
    # within 9.5e-4 (measured + 26%).
    ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
    assert min(ratios) >= 3.0, (errors, ratios)
    assert errors[-1] <= 9.5e-4, errors


def test_point_green_matrix_converges_to_exact_at_second_order():
    # PG = P A_C^{-1} P^T is the discrete Green's function at the attachment
    # points; the hard reactions solve PG lam = Z as the continuum ones solve
    # G lam = Z.
    pts = icosahedron_points()
    exact, truncation = _exact_green(np.clip(pts @ pts.T, -1.0, 1.0))
    assert truncation < 1e-5 * np.min(np.abs(exact))
    cs = ConstraintSet(pts, np.ones(12))
    errors = []
    for level in range(2, 6):
        form = assemble_quadratic_form(build_icosphere(1.0, level), ModelParams(1.0, 1.0, 1.0))
        PG = points._PointSystem(form, cs).lu.RG
        errors.append(float(np.max(np.abs(PG - exact) / np.abs(exact))))
    # Measured: 1.12e-1, 2.94e-2, 7.13e-3, 1.59e-3 (ratios 3.82, 4.12, 4.48).  As
    # for the single point, each ratio must reach 3.2 and level 5 stay within 2e-3.
    ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
    assert min(ratios) >= 3.2, (errors, ratios)
    assert errors[-1] <= 2e-3, errors


def test_particle_interaction_curve_converges_to_exact_at_second_order():
    # Two unit heights at the pole and at angle gamma (Elliott, Graeser, Hobbs,
    # Kornhuber & Wolf, ARMA 222 (2016) 1011): E(gamma) = 1 / (g(1) + g(cos gamma)).
    # The attachments are level-3 vertices, so nodes at every level tested; with
    # Z = (1, 1) the hard energy 1/2 Z^T PG^{-1} Z of a pair takes its 2 x 2 block of PG.
    pts = build_icosphere(1.0, 3).vertices[[0, 166, 178, 198, 215, 204, 69, 11]]
    gammas = np.degrees(np.arccos(np.clip(pts[1:, 2], -1.0, 1.0)))
    np.testing.assert_allclose(gammas, [20.32, 45.06, 66.04, 81.95, 96.74, 132.42, 180.0],
                               atol=5e-3)
    g1, tail = _exact_green(1.0)
    g, _ = _exact_green(pts[1:, 2])
    exact = 1.0 / (g1 + g)
    assert 2 * tail < 1e-7 * np.min(g1 + g)
    # Level 2 is left out: the attachments are not its nodes (error 1.21e-1, ratio 2.05
    # to level 3, pair by pair), and it puts the 66 and 82 degree points in one triangle.
    errors = []
    for level in range(3, 6):
        form = assemble_quadratic_form(build_icosphere(1.0, level), ModelParams(1.0, 1.0, 1.0))
        PG = points._PointSystem(form, ConstraintSet(pts, np.ones(len(pts)))).lu.RG
        energy = np.array([0.5 * np.sum(np.linalg.solve(PG[np.ix_([0, j], [0, j])], np.ones(2)))
                           for j in range(1, len(pts))])
        assert np.argmax(energy) == np.argmax(exact) == 3
        errors.append(float(np.max(np.abs(energy - exact) / exact)))
    # Measured: 5.89e-2, 1.80e-2, 5.14e-3 (ratios 3.27, 3.51; level 6: 1.41e-3, 3.65).
    # Each ratio must reach 3.0 (local order 1.58), and level 5 stay within 6.5e-3
    # (measured + 26%).
    ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
    assert min(ratios) >= 3.0, (errors, ratios)
    assert errors[-1] <= 6.5e-3, errors


@pytest.mark.parametrize("preset, exact_slope, l5_error, slope_tol", [
    # Measured: 1.21e-1, 3.59e-2, 9.15e-3 (ratios 3.36, 3.92); slope 0.88386.
    ("icosahedron", 0.8832, 1.15e-2, 8.1e-4),
    # Measured: 3.61e-2, 1.10e-2, 3.23e-3 (ratios 3.27, 3.42); slope 0.97968.
    ("equator", 0.9796, 4.1e-3, 7.5e-5),
])
def test_penalty_energies_converge_to_exact_series_at_second_order(
        preset, exact_slope, l5_error, slope_tol):
    # Penalty multipliers solve (G + delta I) mu = Z with G_ij = g(p_i . p_j); the
    # penalty energy is 1/2 mu^T G mu, and the H2 distance to the hard solution
    # has the energy norm of mu_0 - mu.  polar_rings is left out: its errors over
    # levels 3-5 (1.6e-1, 3.0e-3, 3.6e-2) are not monotone.
    pts = icosahedron_points() if preset == "icosahedron" else equator_points()
    Z = np.ones(len(pts))
    deltas = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    G, truncation = _exact_green(np.clip(pts @ pts.T, -1.0, 1.0))
    assert truncation < 1e-5 * np.min(np.abs(G))
    mu0 = np.linalg.solve(G, Z)
    mus = [np.linalg.solve(G + d * np.eye(len(Z)), Z) for d in deltas]
    exact = np.array([0.5 * mu @ G @ mu for mu in mus])
    norms = [np.sqrt((mu0 - mu) @ G @ (mu0 - mu)) for mu in mus]
    series_slope = float(np.polyfit(np.log(deltas), np.log(norms), 1)[0])
    assert series_slope == pytest.approx(exact_slope, abs=5e-5)
    errors = []
    for level in range(3, 6):
        form = assemble_quadratic_form(build_icosphere(1.0, level), ModelParams(1.0, 1.0, 1.0))
        table = convergence_study(form, ConstraintSet(pts, Z), deltas)
        errors.append(float(np.max(np.abs(np.array(table.energies) - exact) / exact)))
    # Each ratio must reach 3.0 (local order 1.58), level 5 stay within its measured
    # error + 26%, and its fitted rate within its measured distance + 26% of the series'.
    ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
    assert min(ratios) >= 3.0, (errors, ratios)
    assert errors[-1] <= l5_error, errors
    assert abs(table.slope - series_slope) <= slope_tol, (table.slope, series_slope)
