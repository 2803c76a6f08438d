from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremem import phasefield
from spheremem.errors import ParameterError, StepRejectedError
from spheremem.mesh import build_icosphere
from spheremem.model import ModelParams, assemble_quadratic_form
from spheremem.phasefield import (
    FlowSolver,
    PhaseFieldParams,
    PhaseState,
    closed_form_multipliers,
    constraint_residuals,
    double_well_derivative,
    energy,
    energy_gradient,
    field_correlation,
    initial_state,
    potential,
    potential_derivative,
    project_constraints,
    run_flow,
)

# Flows at level 2 warn that eps = 0.35 is under-resolved; any other warning still shows.
pytestmark = pytest.mark.filterwarnings("ignore:interface width .* under-resolved:UserWarning")


@pytest.fixture(scope="module")
def form2():
    return assemble_quadratic_form(build_icosphere(1.0, 2), ModelParams(1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def form3():
    return assemble_quadratic_form(build_icosphere(1.0, 3), ModelParams(1.0, 1.0, 1.0))


def make_params(**kw):
    base = dict(epsilon=0.35, b=1.0, coupling=2.0, alpha=-0.3, tau=0.02,
                stat_tol=1e-6)
    base.update(kw)
    return PhaseFieldParams(**base)


def test_params_validation():
    with pytest.raises(ParameterError):
        make_params(epsilon=0.0)
    with pytest.raises(ParameterError):
        make_params(alpha=1.0)
    with pytest.raises(ParameterError):
        make_params(t_end=None, stat_tol=None)
    for kw in (dict(t_end=-1.0, stat_tol=None), dict(t_end=0.0, stat_tol=None),
               dict(stat_tol=0.0), dict(stat_tol=-1e-5)):
        with pytest.raises(ParameterError):
            make_params(**kw)
    # NaN passes every "<= 0" check: a NaN stopping rule ran to the step cap.
    for bad in (np.nan, np.inf):
        for kw in (dict(stat_tol=bad), dict(t_end=bad, stat_tol=None), dict(epsilon=bad),
                   dict(tau=bad), dict(coupling=bad), dict(noise_amplitude=bad)):
            with pytest.raises(ParameterError, match="finite"):
                make_params(**kw)


@settings(max_examples=100, deadline=None)
@given(phi=st.floats(-3, 3))
def test_potential_identities(phi):
    pf = make_params()
    model = ModelParams(1.0, 1.0, 1.0)
    phi_arr = np.array([phi])
    # Without coupling the shift is 0 and f is the double well W itself.
    W = potential(phi_arr, replace(pf, coupling=0.0), model)
    Wp = double_well_derivative(phi_arr)
    f = potential(phi_arr, pf, model)
    fp = potential_derivative(phi_arr, pf, model)
    # W has minima exactly at +-1 and W' is its derivative structurally.
    assert W[0] >= 0
    assert Wp[0] == pytest.approx(phi**3 - phi, rel=1e-12, abs=1e-12)
    shift = pf.epsilon * model.kappa * pf.coupling**2 / pf.b
    assert f[0] == pytest.approx(W[0] + 0.5 * shift * phi**2, rel=1e-12, abs=1e-12)
    assert fp[0] == pytest.approx(Wp[0] + shift * phi, rel=1e-12, abs=1e-12)


def test_double_well_minima():
    pf = make_params(coupling=0.0)
    model = ModelParams(1.0, 1.0, 1.0)
    for v in (-1.0, 1.0):
        W = potential(np.array([v]), pf, model)
        Wp = double_well_derivative(np.array([v]))
        fp = potential_derivative(np.array([v]), pf, model)
        assert W[0] == 0.0
        assert Wp[0] == 0.0
        assert fp[0] == 0.0


def test_gradient_matches_finite_differences(form2):
    pf = make_params(coupling=3.0)
    rng = np.random.default_rng(11)
    n = form2.mesh.num_vertices
    state = PhaseState(u=0.1 * rng.standard_normal(n), phi=0.3 * rng.standard_normal(n))
    g_phi, g_u = energy_gradient(state, form2, pf)
    h = 1e-6
    for _ in range(5):
        dphi = rng.standard_normal(n)
        du = rng.standard_normal(n)
        ep, _ = energy(PhaseState(u=state.u + h * du, phi=state.phi + h * dphi), form2, pf)
        em, _ = energy(PhaseState(u=state.u - h * du, phi=state.phi - h * dphi), form2, pf)
        fd = (ep - em) / (2 * h)
        an = float(g_phi @ dphi + g_u @ du)
        assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))


def test_energy_breakdown_sums(form2):
    pf = make_params()
    state = initial_state(form2, pf)
    total, bd = energy(state, form2, pf)
    assert total == pytest.approx(sum(bd.values()), rel=1e-12)


def test_initial_state_satisfies_constraints(form3):
    pf = make_params()
    state = initial_state(form3, pf)
    res = constraint_residuals(state, form3, pf)
    assert max(res) < 1e-12
    assert np.all(state.u == 0.0)


def test_initial_state_seeded(form2):
    pf = make_params(seed=4)
    a = initial_state(form2, pf)
    b = initial_state(form2, pf)
    np.testing.assert_array_equal(a.phi, b.phi)
    c = initial_state(form2, make_params(seed=5))
    assert not np.array_equal(a.phi, c.phi)


def test_projection_restores_constraints(form2):
    pf = make_params()
    rng = np.random.default_rng(1)
    n = form2.mesh.num_vertices
    state = PhaseState(u=rng.standard_normal(n), phi=rng.standard_normal(n))
    fixed = project_constraints(state, form2, pf)
    assert max(constraint_residuals(fixed, form2, pf)) < 1e-12


def test_constraint_residuals_match_row_formula(form3):
    pf = make_params()
    rng = np.random.default_rng(5)
    n = form3.mesh.num_vertices
    c, area = form3.constraints, form3.area
    for _ in range(5):
        state = PhaseState(u=rng.standard_normal(n), phi=rng.standard_normal(n))
        expected = (
            abs(float((c[0] @ state.phi)[0]) / area - pf.alpha),
            abs(float((c[0] @ state.u)[0]) / area),
            max(abs(float((c[i] @ state.u)[0])) for i in (1, 2, 3)) / area,
        )
        assert constraint_residuals(state, form3, pf) == expected


def test_step_caches_the_new_energy(form2):
    pf = make_params()
    solver = FlowSolver(form2, pf)
    start = initial_state(form2, pf)
    new, e_new, bd_new = solver.step(start, energy(start, form2, pf)[0])
    e, bd = energy(new, form2, pf)
    assert e_new == e
    assert bd_new == bd


def test_flow_conserves_and_dissipates(form3):
    pf = make_params(coupling=-2.0, t_end=0.2, stat_tol=None)
    final, report = run_flow(initial_state(form3, pf), form3, pf)
    E = np.array(report.energies)
    assert np.all(np.diff(E) <= 1e-8 * np.abs(E[:-1]))
    assert max(max(r) for r in report.constraint_residuals) <= 1e-10
    assert report.rejected_steps == 0


def test_zero_coupling_keeps_u_zero(form3):
    pf = make_params(coupling=0.0, t_end=0.1, stat_tol=None)
    final, _ = run_flow(initial_state(form3, pf), form3, pf)
    assert np.max(np.abs(final.u)) < 1e-12


def test_coupling_sign_flip_mirrors_u(form3):
    # Lambda -> -Lambda maps the trajectory (u, phi) -> (-u, phi).
    finals = {}
    for lam in (-2.0, 2.0):
        pf = make_params(coupling=lam, t_end=0.1, stat_tol=None, seed=3)
        finals[lam], _ = run_flow(initial_state(form3, pf), form3, pf)
    np.testing.assert_allclose(finals[-2.0].u, -finals[2.0].u, atol=1e-11)
    np.testing.assert_allclose(finals[-2.0].phi, finals[2.0].phi, atol=1e-11)
    pf = make_params(coupling=2.0)
    corr_m = field_correlation(finals[-2.0].u, finals[-2.0].phi, form3, pf)
    corr_p = field_correlation(finals[2.0].u, finals[2.0].phi, form3, pf)
    assert corr_m == pytest.approx(-corr_p, abs=1e-8)


def test_oversized_step_rejected(form2):
    pf = make_params(tau=5.0)
    rng = np.random.default_rng(8)
    n = form2.mesh.num_vertices
    state = project_constraints(
        PhaseState(u=np.zeros(n), phi=3.0 * rng.standard_normal(n)), form2, pf
    )
    solver = FlowSolver(form2, pf)
    e = energy(state, form2, pf)[0]
    raised = False
    try:
        for _ in range(50):
            state, e, _ = solver.step(state, e)
    except StepRejectedError as exc:
        raised = True
        assert exc.suggested_tau == pytest.approx(pf.tau / 2)
    assert raised


def test_run_flow_recovers_from_rejection(form2):
    pf = make_params(tau=5.0, stat_tol=1e-4, noise_amplitude=3.0)
    final, report = run_flow(initial_state(form2, pf), form2, pf)
    assert report.rejected_steps > 0
    assert report.final_tau < pf.tau
    E = np.array(report.energies)
    assert np.all(np.diff(E) <= 1e-8 * np.abs(E[:-1]))


def test_rejecting_run_logs_fresh_energy_once_per_step(form2, monkeypatch):
    # The parameters of test_run_flow_recovers_from_rejection.
    pf = make_params(tau=5.0, stat_tol=1e-4, noise_amplitude=3.0)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return energy(*args, **kwargs)

    monkeypatch.setattr(phasefield, "energy", counting)
    final, report = run_flow(initial_state(form2, pf), form2, pf)
    steps = report.accepted_steps + report.rejected_steps
    assert len(calls) == steps + 1
    e, bd = energy(final, form2, pf)
    assert report.energies[-1] == e
    assert report.breakdowns[-1] == bd
    # Pinned to the bit (x86-64, NumPy 2.4.6, SciPy 1.17.1): any change to
    # the flow's arithmetic shows here.
    assert (report.accepted_steps, report.rejected_steps) == (622, 9)
    assert repr(report.energies[-1]) == "9.512478194322558"


@pytest.mark.parametrize("t_end, tau", [(0.05, 0.02), (0.1, 0.03)])
def test_t_end_run_lands_on_t_end(form2, t_end, tau):
    pf = make_params(t_end=t_end, tau=tau, stat_tol=None)
    final, report = run_flow(initial_state(form2, pf), form2, pf)
    assert abs(final.t - t_end) <= 1e-12
    assert report.times[-1] == final.t
    assert report.final_tau == tau


def test_multipliers_at_stationarity(form3):
    pf = make_params(coupling=-2.0, stat_tol=1e-8)
    final, report = run_flow(initial_state(form3, pf), form3, pf)
    assert report.converged
    lam_phi, lam_u = closed_form_multipliers(final, form3, pf)
    assert abs(final.lambda_phi - lam_phi) <= 1e-8 * (pf.b / pf.epsilon)
    # The u-multiplier equals its closed form exactly on the symmetric mesh.
    assert lam_u == -2.0 * 1.0 * pf.coupling * pf.alpha / 1.0
    assert final.lambda_u == pytest.approx(lam_u, abs=1e-10)


def test_unresolved_interface_warns(form2):
    pf = make_params(epsilon=0.05, tau=1e-4, t_end=1e-4, stat_tol=None)
    with pytest.warns(UserWarning, match="interface width"):
        run_flow(initial_state(form2, pf), form2, pf)


def test_flow_report_csv(form2):
    pf = make_params(t_end=0.05, stat_tol=None)
    _, report = run_flow(initial_state(form2, pf), form2, pf)
    lines = report.to_csv().splitlines()
    assert "energy" in lines[0] and "[" in lines[0]
    assert len(lines) == 1 + len(report.times)
