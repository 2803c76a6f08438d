import numpy as np
import pytest
import scipy.sparse.linalg as spla

from spheremem.errors import ParameterError
from spheremem.fem import assemble_mass
from spheremem.mesh import build_icosphere
from spheremem.model import (
    ModelParams,
    assemble_quadratic_form,
    constraint_rows,
    quadratic_lagrangian,
)


@pytest.fixture(scope="module")
def form():
    mesh = build_icosphere(1.0, 4)
    return assemble_quadratic_form(mesh, ModelParams(kappa=1.0, sigma=1.0, R=1.0))


def test_params_validation():
    with pytest.raises(ParameterError):
        ModelParams(kappa=0.0, sigma=1.0, R=1.0)
    with pytest.raises(ParameterError):
        ModelParams(kappa=1.0, sigma=-1.0, R=1.0)
    with pytest.raises(ParameterError):
        ModelParams(kappa=1.0, sigma=1.0, R=0.0)
    for bad in (np.nan, np.inf):
        for kw in (dict(kappa=bad), dict(sigma=bad), dict(R=bad)):
            with pytest.raises(ParameterError, match="finite"):
                ModelParams(**{"kappa": 1.0, "sigma": 1.0, "R": 1.0, **kw})


def test_lambda0():
    assert ModelParams(1.0, 3.0, 2.0).lambda0 == -3.0


def test_radius_mismatch_rejected():
    mesh = build_icosphere(1.0, 2)
    with pytest.raises(ParameterError):
        assemble_quadratic_form(mesh, ModelParams(1.0, 1.0, 2.0))


def test_assembly_measures_the_mesh_once(monkeypatch):
    # Mass, stiffness and lumped diagonal read the areas the mesh keeps.
    import spheremem.mesh as mesh_module

    calls = []
    measure = mesh_module._measure_triangles
    monkeypatch.setattr(mesh_module, "_measure_triangles",
                        lambda mesh: calls.append(mesh) or measure(mesh))
    assemble_quadratic_form(build_icosphere(1.0, 2), ModelParams(1.0, 1.0, 1.0))
    assert len(calls) == 1


def test_operator_exactly_symmetric(form):
    assert abs(form.A - form.A.T).max() == 0.0


def test_constant_energy(form):
    # a(1,1) = -8 pi sigma: constants lower the energy (volume constraint
    # direction), which is why the mean-zero constraint is part of U_nu.
    ones = np.ones(form.mesh.num_vertices)
    assert form.evaluate(ones, ones) == pytest.approx(-8 * np.pi, rel=1e-2)


def test_normal_modes_near_kernel(form):
    # nu_i are kernel directions of the continuum form; discretely O(h^2).
    modes = form.normal_modes()
    rng = np.random.default_rng(0)
    w = rng.standard_normal(form.mesh.num_vertices)
    w /= np.sqrt(float(w @ (form.M @ w)))
    scale = np.linalg.norm((form.A @ w) / np.sqrt(form.m_lumped))
    for i in (1, 2, 3):
        nu = modes[i] / np.sqrt(float(modes[i] @ (form.M @ modes[i])))
        res = np.linalg.norm((form.A @ nu) / np.sqrt(form.m_lumped))
        assert res < 5e-2 * scale


def test_degree_two_harmonic_eigenvalue(form):
    # kappa l^2(l+1)^2/R^4 + (sigma - 2 kappa/R^2) l(l+1)/R^2 - 2 sigma/R^2
    # at l = 2, kappa = sigma = R = 1 gives 36 + 6 - 2... assembled via the
    # Rayleigh quotient: a(u,u)/(u,u) -> 24 kappa + 4 sigma = 28.
    x = form.mesh.vertices
    u = x[:, 0] * x[:, 1]
    quotient = form.evaluate(u, u) / float(u @ (form.M @ u))
    assert quotient == pytest.approx(28.0, rel=2e-2)


def test_consistent_evaluation_close_to_lumped(form):
    x = form.mesh.vertices
    u = x[:, 2] ** 2 - 1.0 / 3.0
    lumped = form.evaluate(u, u)
    consistent = form.evaluate_consistent(u)
    assert consistent == pytest.approx(lumped, rel=5e-2)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_evaluate_consistent_matches_lu_reference(level):
    # The same a(u, u), its biharmonic form (S u)^T M^{-1} (S u) taken by a sparse
    # LU of M with one refinement step.
    p = ModelParams(kappa=1.5, sigma=0.75, R=2.0)
    mesh = build_icosphere(p.R, level)
    form = assemble_quadratic_form(mesh, p)
    x = mesh.vertices / p.R
    u = x[:, 2] ** 2 - 1.0 / 3.0 + 0.5 * x[:, 0] * x[:, 1]
    su = form.S @ u
    lu = spla.splu(form.M.tocsc())
    w = lu.solve(su)
    w += lu.solve(su - form.M @ w)
    reference = (p.kappa * (su @ w) + (p.sigma - 2.0 * p.kappa / p.R**2) * (u @ su)
                 - (2.0 * p.sigma / p.R**2) * (u @ (form.M @ u)))
    assert form.evaluate_consistent(u) == pytest.approx(reference, rel=1e-14)


def test_constraint_row_values(form):
    # c0(1) = area; c_i(nu_j) = (4 pi/3) R^2 delta_ij in the continuum.
    modes = form.normal_modes()
    c = form.constraints
    area = form.area
    assert float((c[0] @ modes[0])[0]) == pytest.approx(area, rel=1e-12)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            val = float((c[i] @ modes[j])[0])
            target = 4 * np.pi / 3 if i == j else 0.0
            assert val == pytest.approx(target, abs=2e-2)


def test_constraint_rows_require_radius():
    mesh = build_icosphere(1.0, 1)
    from spheremem.mesh import TriangleMesh

    bare = TriangleMesh(mesh.vertices, mesh.triangles, radius_hint=None)
    with pytest.raises(ParameterError):
        constraint_rows(bare, assemble_mass(bare))


def test_quadratic_lagrangian_decomposition(form):
    rng = np.random.default_rng(2)
    u = rng.standard_normal(form.mesh.num_vertices)
    mu = 0.7
    expected = 0.5 * form.evaluate(u, u) + mu * form.c0(u)
    assert quadratic_lagrangian(u, mu, form) == pytest.approx(expected, rel=1e-13)


def test_coercivity_on_complement(form):
    # Smallest generalized eigenvalue of A on the complement of
    # span{1, nu_i}: positive, approaching the l = 2 value 28.
    import scipy.sparse.linalg as spla

    modes = form.normal_modes()
    gamma = 1e4
    A_defl = np.asarray(form.A.todense())
    for i in range(4):
        w = form.M @ modes[i]
        A_defl += gamma / float(modes[i] @ w) * np.outer(w, w)
    vals = spla.eigsh(A_defl, k=4, M=form.M.tocsc(), sigma=0.0, which="LM",
                      return_eigenvectors=False)
    smallest = np.min(vals)
    assert smallest > 0
    assert smallest == pytest.approx(28.0, rel=3e-2)
