import re

import numpy as np
import pytest

from spheremem.errors import GeometryError, ParameterError
from spheremem.mesh import build_icosphere, mesh_stats
from spheremem.model import ModelParams, assemble_quadratic_form, quadratic_lagrangian
from spheremem.oracle import (
    discrete_mean_curvature,
    energies,
    perturb,
    taylor_consistency,
    willmore_energy,
)


@pytest.fixture(scope="module")
def params():
    return ModelParams(kappa=1.0, sigma=1.0, R=1.0)


def test_mean_curvature_of_sphere():
    # H = 2/R with the sum-of-principal-curvatures convention, positive.
    # Pointwise the reconstruction carries an O(1) defect at the twelve
    # valence-5 vertices, so accuracy is measured in the lumped L2 norm.
    from spheremem.fem import lumped_diagonal

    errs = []
    for level in (3, 4, 5):
        mesh = build_icosphere(2.0, level)
        H = discrete_mean_curvature(mesh)
        assert np.all(H > 0)
        mL = lumped_diagonal(mesh)
        errs.append(np.sqrt(float(mL @ (H - 1.0) ** 2) / mL.sum()))
    assert errs[0] > 1.8 * errs[1] > 1.8 * 1.8 * errs[2]
    assert errs[2] < 5e-3


def test_willmore_is_8pi_any_radius():
    for R in (0.5, 1.0, 3.0):
        w = willmore_energy(build_icosphere(R, 4))
        assert w == pytest.approx(8 * np.pi, rel=5e-3)


def test_willmore_converges():
    errs = [abs(willmore_energy(build_icosphere(1.0, lv)) - 8 * np.pi) for lv in (3, 4, 5)]
    assert errs[0] > errs[1] > errs[2]


def test_consistent_willmore_also_8pi():
    w = willmore_energy(build_icosphere(1.0, 4), reconstruction="consistent")
    assert w == pytest.approx(8 * np.pi, rel=5e-3)


def test_unknown_reconstruction_rejected():
    with pytest.raises(ParameterError):
        willmore_energy(build_icosphere(1.0, 2), reconstruction="mixed")


def test_perturb_penetration_guard():
    mesh = build_icosphere(1.0, 2)
    u = np.ones(mesh.num_vertices)
    with pytest.raises(GeometryError):
        perturb(mesh, u, rho=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_perturb_rejects_non_finite_field(bad):
    # NaN slips past the penetration guard; it must not surface later as a
    # "degenerate triangle".
    mesh = build_icosphere(1.0, 2)
    u = np.zeros(mesh.num_vertices)
    u[3] = bad
    with pytest.raises(ParameterError, match="finite"):
        perturb(mesh, u, rho=0.1)


def test_perturb_moves_radially():
    mesh = build_icosphere(1.0, 2)
    u = mesh.vertices[:, 2]
    surf = perturb(mesh, u, rho=0.1)
    radii = np.linalg.norm(surf.vertices, axis=1)
    np.testing.assert_allclose(radii, np.abs(1.0 + 0.1 * u), rtol=1e-12)


def test_energies_at_base(params):
    # Helfrich energy of the unit sphere: 8 pi kappa + 4 pi sigma.
    mesh = build_icosphere(1.0, 4)
    e = energies(mesh, params)
    assert e.helfrich == pytest.approx(8 * np.pi + 4 * np.pi, rel=5e-3)
    stats = mesh_stats(mesh)
    assert e.area == stats.total_area
    assert e.volume == stats.enclosed_volume
    # With V0 = discrete volume the volume term drops out at rho = 0.
    e0 = energies(mesh, params, V0=stats.enclosed_volume)
    assert e0.lagrangian == pytest.approx(e0.helfrich, rel=1e-14)


def test_taylor_requires_mean_zero(params):
    mesh = build_icosphere(1.0, 2)
    form = assemble_quadratic_form(mesh, params)
    with pytest.raises(ParameterError):
        taylor_consistency(form, np.ones(mesh.num_vertices), mu=0.0)


_FIELD_CALLS = {
    "taylor lumped": lambda form, u: taylor_consistency(form, u, mu=0.0),
    "taylor consistent": lambda form, u: taylor_consistency(form, u, mu=0.0,
                                                            reconstruction="consistent"),
    "perturb": lambda form, u: perturb(form.mesh, u, rho=0.1),
    "quadratic_lagrangian": lambda form, u: quadratic_lagrangian(u, 0.0, form),
    "evaluate": lambda form, u: form.evaluate(u, u),
    "evaluate_consistent": lambda form, u: form.evaluate_consistent(u),
}


@pytest.mark.parametrize("call", list(_FIELD_CALLS))
@pytest.mark.parametrize("shape", [(161,), (163,), (162, 1)], ids=str)
def test_field_of_the_wrong_shape_rejected(params, shape, call):
    # One value per vertex of the level-2 sphere (162), checked before any
    # product with the field: the Taylor check's mean-zero check takes one.
    form = assemble_quadratic_form(build_icosphere(1.0, 2), params)
    match = re.escape(f"u must have shape (162,), got shape {shape}")
    with pytest.raises(ParameterError, match=match):
        _FIELD_CALLS[call](form, np.zeros(shape))


def test_taylor_residual_cubic_consistent(params):
    # Degree-2 harmonic: the quadratic model captures the rho^2 term, so the
    # residual decays at cubic order with the consistent pairing.
    mesh = build_icosphere(1.0, 4)
    form = assemble_quadratic_form(mesh, params)
    x = mesh.vertices
    u = x[:, 0] * x[:, 1]
    report = taylor_consistency(form, u, mu=0.5, reconstruction="consistent")
    assert report.slope > 2.0
    assert report.status in ("converged", "floor-limited")
    assert len(report.residuals) == 4
    assert report.rhos == sorted(report.rhos, reverse=True)


def test_consistent_reconstruction_needs_no_sparse_lu(params, monkeypatch):
    import scipy.sparse.linalg as spla

    def no_lu(*args, **kwargs):
        raise AssertionError("a consistent-mass solve used sparse LU")

    monkeypatch.setattr(spla, "splu", no_lu)
    monkeypatch.setattr(spla, "spsolve", no_lu)
    mesh = build_icosphere(1.0, 3)
    form = assemble_quadratic_form(mesh, params)
    u = mesh.vertices[:, 2] ** 2 - 1.0 / 3.0
    assert np.isfinite(form.evaluate_consistent(u))
    report = taylor_consistency(form, u, mu=0.5, reconstruction="consistent")
    assert np.all(np.isfinite(report.lagrangians))


def test_taylor_lumped_reports_floor(params):
    # The lumped pairing has a larger quadratic-order mismatch; the report
    # must say so (floor-limited) rather than silently passing.
    mesh = build_icosphere(1.0, 3)
    form = assemble_quadratic_form(mesh, params)
    x = mesh.vertices
    u = x[:, 0] * x[:, 1]
    report = taylor_consistency(form, u, mu=0.5, reconstruction="lumped")
    assert report.discretization_floor > 0
    assert report.status in ("converged", "floor-limited")


@pytest.mark.parametrize("rho_list", [(0.1,), (0.1, 0.0), (0.1, 0.1), (0.1, 0.1, -0.05),
                                      (0.1, 0.1, 0.05)])
def test_taylor_rejects_bad_rho_list(params, rho_list):
    mesh = build_icosphere(1.0, 1)
    form = assemble_quadratic_form(mesh, params)
    u = mesh.vertices[:, 0] * mesh.vertices[:, 1]
    with pytest.raises(ParameterError, match="rho_list"):
        taylor_consistency(form, u, mu=0.0, rho_list=rho_list)


@pytest.mark.parametrize("mu", [np.nan, np.inf])
def test_taylor_rejects_non_finite_mu(params, mu):
    # A NaN mu made every residual NaN and reported status "failed".
    mesh = build_icosphere(1.0, 2)
    form = assemble_quadratic_form(mesh, params)
    u = mesh.vertices[:, 0] * mesh.vertices[:, 1]
    with pytest.raises(ParameterError, match="mu must be finite"):
        taylor_consistency(form, u, mu=mu)


def test_taylor_measures_each_surface_once(params, monkeypatch):
    import spheremem.oracle as oracle

    calls = []

    def counting_measures(mesh):
        calls.append(mesh)
        return mesh_stats(mesh)

    monkeypatch.setattr(oracle, "mesh_stats", counting_measures)
    mesh = build_icosphere(1.0, 2)
    form = assemble_quadratic_form(mesh, params)
    u = mesh.vertices[:, 0] * mesh.vertices[:, 1]
    rho_list = (0.1, 0.05, 0.025)
    taylor_consistency(form, u, mu=0.5, rho_list=rho_list, reconstruction="consistent")
    assert len(calls) == 1 + len(rho_list)


@pytest.mark.parametrize("reconstruction", ["lumped", "consistent"])
def test_taylor_computes_each_triangle_geometry_once(params, monkeypatch, reconstruction):
    # One measurement per surface, the sphere's by the assembly: no operator or
    # energy recomputes the areas its mesh keeps.  The triangle normals, which
    # no mesh keeps, are formed once per surface by the lumped curvature's
    # vertex normals and never by the consistent check.
    import spheremem.mesh as mesh_module

    calls, normals = [], []
    measure = mesh_module._measure_triangles
    monkeypatch.setattr(mesh_module, "_measure_triangles",
                        lambda mesh: calls.append(mesh) or measure(mesh))
    form_normals = mesh_module._triangle_normals
    monkeypatch.setattr(mesh_module, "_triangle_normals",
                        lambda mesh: normals.append(mesh) or form_normals(mesh))
    mesh = build_icosphere(1.0, 2)
    form = assemble_quadratic_form(mesh, params)
    u = mesh.vertices[:, 0] * mesh.vertices[:, 1]
    rho_list = (0.1, 0.05, 0.025, 0.0125)
    taylor_consistency(form, u, mu=0.5, rho_list=rho_list, reconstruction=reconstruction)
    assert len(calls) == 1 + len(rho_list)
    assert len({id(m) for m in calls}) == len(calls)
    if reconstruction == "consistent":
        assert normals == []
    else:
        assert [id(m) for m in normals] == [id(m) for m in calls]


def test_taylor_derives_one_pattern_per_connectivity(params, monkeypatch):
    # The form's M and S and every perturbed surface's operators scatter into
    # the one CSR pattern of the sphere's connectivity.
    import spheremem.mesh as mesh_module

    calls = []
    derive = mesh_module._csr_pattern
    monkeypatch.setattr(mesh_module, "_csr_pattern",
                        lambda triangles, n: calls.append(n) or derive(triangles, n))
    mesh = build_icosphere(1.0, 2)
    form = assemble_quadratic_form(mesh, params)
    u = mesh.vertices[:, 0] * mesh.vertices[:, 1]
    taylor_consistency(form, u, mu=0.5, rho_list=(0.1, 0.05, 0.025, 0.0125),
                       reconstruction="consistent")
    assert calls == [mesh.num_vertices]


@pytest.mark.parametrize("reconstruction", ["lumped", "consistent"])
def test_taylor_derives_scatter_keys_once_per_connectivity(params, monkeypatch, reconstruction):
    # M and S of every surface, the sphere's and each perturbed one's, scatter
    # through the one (6m,) key array the sphere's pattern keeps.
    import spheremem.mesh as mesh_module

    keys = []
    measure = mesh_module._measure_triangles
    monkeypatch.setattr(mesh_module, "_measure_triangles",
                        lambda mesh: keys.append(mesh.pattern[2]) or measure(mesh))
    mesh = build_icosphere(1.0, 2)
    form = assemble_quadratic_form(mesh, params)
    u = mesh.vertices[:, 0] * mesh.vertices[:, 1]
    rho_list = (0.1, 0.05, 0.025, 0.0125)
    taylor_consistency(form, u, mu=0.5, rho_list=rho_list, reconstruction=reconstruction)
    assert len(keys) == 1 + len(rho_list)
    assert all(k is mesh.pattern[2] for k in keys)
    assert mesh.pattern[2].shape == (6 * mesh.num_triangles,)


def test_consistent_taylor_takes_one_mass_form_call_per_surface(params, monkeypatch):
    # Each surface's three forms (S X_k)^T M^-1 (S X_k) share one row-sum
    # preconditioner and one set of CG vectors: one call with three columns.
    import spheremem.oracle as oracle

    calls = []
    forms = oracle.mass_inverse_form
    monkeypatch.setattr(oracle, "mass_inverse_form",
                        lambda M, b: calls.append(np.shape(b)) or forms(M, b))
    mesh = build_icosphere(1.0, 2)
    form = assemble_quadratic_form(mesh, params)
    u = mesh.vertices[:, 0] * mesh.vertices[:, 1]
    rho_list = (0.1, 0.05, 0.025, 0.0125)
    taylor_consistency(form, u, mu=0.5, rho_list=rho_list, reconstruction="consistent")
    assert calls == [(mesh.num_vertices, 3)] * (1 + len(rho_list))


def test_taylor_checks_no_connectivity(params, monkeypatch):
    # Every perturbed surface reuses the sphere's connectivity: no closedness check.
    import spheremem.mesh as mesh_module

    calls = []
    monkeypatch.setattr(mesh_module, "validate_closed", lambda mesh: calls.append(mesh))
    mesh = build_icosphere(1.0, 2)
    form = assemble_quadratic_form(mesh, params)
    u = mesh.vertices[:, 0] * mesh.vertices[:, 1]
    taylor_consistency(form, u, mu=0.5, rho_list=(0.1, 0.05, 0.025), reconstruction="consistent")
    assert calls == []


def test_lumped_taylor_builds_the_operator_once(params, monkeypatch):
    # The lumped quadratic value reads A: it is built on that first use and kept.
    import spheremem.model as model

    built = []
    build = model._bending_operator
    monkeypatch.setattr(model, "_bending_operator", lambda *a: built.append(1) or build(*a))
    mesh = build_icosphere(1.0, 2)
    form = assemble_quadratic_form(mesh, params)
    assert built == []
    u = mesh.vertices[:, 0] * mesh.vertices[:, 1]
    taylor_consistency(form, u, mu=0.5, rho_list=(0.1, 0.05, 0.025), reconstruction="lumped")
    assert built == [1]
    assert form.A is form.A
    assert built == [1]
