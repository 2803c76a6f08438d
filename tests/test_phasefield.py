import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremem import fem, phasefield
from spheremem.errors import ParameterError, SolverError, StepRejectedError
from spheremem.fem import nested_dissection
from spheremem.mesh import build_icosphere, mirror_maps
from spheremem.model import ModelParams, assemble_quadratic_form
from spheremem.phasefield import (
    FlowSolver,
    PhaseFieldParams,
    PhaseState,
    closed_form_multipliers,
    constraint_residuals,
    coupling_operator,
    double_well_derivative,
    energy,
    energy_gradient,
    field_correlation,
    flow_operator,
    initial_state,
    potential,
    potential_derivative,
    project_constraints,
    run_flow,
    state_products,
    well_shift,
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


@pytest.mark.parametrize("tau, match", [(np.nan, "finite"), (np.inf, "finite"),
                                        (0.0, "positive"), (-0.01, "positive")])
def test_flow_solver_rejects_bad_tau(form2, tau, match):
    with pytest.raises(ParameterError, match=match):
        FlowSolver(form2, make_params(), tau=tau)


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
    C = coupling_operator(form2, pf)
    g_phi, g_u = energy_gradient(state, form2, pf, state_products(state, form2, C))
    h = 1e-6
    for _ in range(5):
        dphi = rng.standard_normal(n)
        du = rng.standard_normal(n)
        plus = PhaseState(u=state.u + h * du, phi=state.phi + h * dphi)
        minus = PhaseState(u=state.u - h * du, phi=state.phi - h * dphi)
        ep = energy(plus, form2, pf, state_products(plus, form2, C))[0]
        em = energy(minus, form2, pf, state_products(minus, form2, C))[0]
        fd = (ep - em) / (2 * h)
        an = float(g_phi @ dphi + g_u @ du)
        assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))


def test_energy_breakdown_sums(form2):
    pf = make_params()
    state = initial_state(form2, pf)
    total, *terms = energy(state, form2, pf,
                           state_products(state, form2, coupling_operator(form2, pf)))
    assert len(terms) == 4
    assert total == pytest.approx(sum(terms), rel=1e-12)


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
    solver = FlowSolver(form2, pf, pf.tau)
    start = initial_state(form2, pf)
    products = state_products(start, form2, solver.C)
    new, terms, products = solver.step(start, energy(start, form2, pf, products)[0], products)
    assert terms == energy(new, form2, pf, state_products(new, form2, solver.C))
    # The returned products are the new state's.
    expected = state_products(new, form2, solver.C)
    for name in ("Au", "Cu", "Cphi", "Sphi", "c_phi", "c_u"):
        np.testing.assert_array_equal(getattr(products, name), getattr(expected, name))


def test_flow_conserves_and_dissipates(form3):
    pf = make_params(coupling=-2.0, t_end=0.2, stat_tol=None)
    final, report = run_flow(initial_state(form3, pf), form3, pf)
    E = np.array([r.energy for r in report.records])
    assert np.all(np.diff(E) <= 1e-8 * np.abs(E[:-1]))
    # The last three columns of a record are its constraint residuals.
    assert max(max(r[-3:]) for r in report.records) <= 1e-10
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
    solver = FlowSolver(form2, pf, pf.tau)
    products = state_products(state, form2, solver.C)
    e = energy(state, form2, pf, products)[0]
    raised = False
    try:
        for _ in range(50):
            state, terms, products = solver.step(state, e, products)
            e = terms[0]
    except StepRejectedError as exc:
        raised = True
        assert exc.energy_before == e
    assert raised


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_with_a_nan_energy_is_rejected(form2):
    # At eps = 1e-300 the energy of a step's state overflows to NaN, which
    # fails every comparison: a check of "the energy rose" alone accepted
    # such a step and logged its NaN energy.
    pf = make_params(epsilon=1e-300, t_end=0.01, stat_tol=None)
    with pytest.raises(SolverError, match=r"aborting after .* -> nan\)"):
        run_flow(initial_state(form2, pf), form2, pf)


def test_run_flow_recovers_from_rejection(form2):
    pf = make_params(tau=5.0, stat_tol=1e-4, noise_amplitude=3.0)
    final, report = run_flow(initial_state(form2, pf), form2, pf)
    assert report.rejected_steps > 0
    assert report.final_tau < pf.tau
    E = np.array([r.energy for r in report.records])
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
    last = report.records[-1]
    assert last[1:6] == energy(final, form2, pf,
                               state_products(final, form2, coupling_operator(form2, pf)))
    # Pinned to the bit (x86-64, NumPy 2.4.6, SciPy 1.17.1): any change to
    # the flow's arithmetic shows here.
    assert (report.accepted_steps, report.rejected_steps) == (622, 9)
    assert repr(last.energy) == "9.51247819432256"


def test_run_flow_projects_a_start_off_the_constraints(form2):
    pf = make_params(t_end=0.04, stat_tol=None)
    rng = np.random.default_rng(6)
    n = form2.mesh.num_vertices
    start = PhaseState(u=0.1 * rng.standard_normal(n), phi=pf.alpha + 0.1 * rng.standard_normal(n))
    assert max(constraint_residuals(start, form2, pf)) > 1e-10
    with pytest.warns(UserWarning, match="initial state violates constraints"):
        _, report = run_flow(start, form2, pf)
    assert max(report.records[0][-3:]) <= 1e-10


def test_run_flow_aborts_after_max_rejections(form2, monkeypatch):
    taus = []

    def reject(self, state, e_old, products=None):
        taus.append(self.tau)
        raise StepRejectedError("energy increased", energy_before=e_old,
                                energy_after=e_old + 1.0)

    monkeypatch.setattr(FlowSolver, "step", reject)
    pf = make_params()
    with pytest.raises(SolverError, match=f"aborting after {phasefield.MAX_REJECTIONS + 1} "
                                          "consecutive rejected steps"):
        run_flow(initial_state(form2, pf), form2, pf)
    assert taus == [pf.tau / 2**k for k in range(phasefield.MAX_REJECTIONS + 1)]


@pytest.mark.parametrize("t_end, tau, noise_amplitude", [
    (0.05, 0.02, 0.1), (0.1, 0.03, 0.1),
    # The tau and noise of test_run_flow_recovers_from_rejection: the first
    # step is a landing step, and it is rejected and halved until it holds.
    (0.5, 5.0, 3.0),
], ids=["0.05-0.02", "0.1-0.03", "0.5-5.0-rejecting"])
def test_t_end_run_lands_on_t_end(form2, t_end, tau, noise_amplitude):
    pf = make_params(t_end=t_end, tau=tau, stat_tol=None, noise_amplitude=noise_amplitude)
    final, report = run_flow(initial_state(form2, pf), form2, pf)
    assert abs(final.t - t_end) <= 1e-12
    assert report.records[-1].t == final.t
    if tau < t_end:
        assert report.rejected_steps == 0
        assert report.final_tau == tau
    else:
        assert report.rejected_steps > 0
        assert report.final_tau == t_end / 2**report.rejected_steps


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


def coarsen_params(seed):
    """The phase-flow parameters of the benchmark's flow-coarsen workload."""
    return PhaseFieldParams(epsilon=0.15, b=1.0, coupling=1.0, alpha=-0.3, tau=0.01,
                            stat_tol=1e-5, seed=seed)


@pytest.mark.parametrize("seed, accepted, rejected, final_energy", [
    # FLOW_REFERENCES of perfbench/workloads.py at level 3: x86-64, one BLAS
    # thread, NumPy 2.4.6, SciPy 1.17.1.
    (0, 4059, 4, 9.5168622280339),
    (2, 1946, 2, 9.516862228036347),
    (4, 3539, 3, 9.525204379408217),
])
def test_flow_reproduces_recorded_trajectory(form3, seed, accepted, rejected, final_energy):
    pf = coarsen_params(seed)
    _, report = run_flow(initial_state(form3, pf), form3, pf)
    assert report.converged
    assert (report.accepted_steps, report.rejected_steps) == (accepted, rejected)
    assert report.records[-1].energy == pytest.approx(final_energy, rel=1e-8)


def test_flow_factors_once_per_distinct_tau(form3, monkeypatch):
    alive = weakref.WeakSet()
    built_with_alive = []
    step_taus = []
    init, factor, step = FlowSolver.__init__, fem.SaddleSystem.factor, FlowSolver.step

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive.add(self)

    def counted_factor(self, *args):
        built_with_alive.append(len(alive) + 1)  # the solver being built counts too
        return factor(self, *args)

    def recorded_step(self, *args):
        step_taus.append(self.tau)
        return step(self, *args)

    monkeypatch.setattr(FlowSolver, "__init__", tracked_init)
    monkeypatch.setattr(FlowSolver, "step", recorded_step)
    monkeypatch.setattr(fem.SaddleSystem, "factor", counted_factor)
    pf = coarsen_params(0)
    _, report = run_flow(initial_state(form3, pf), form3, pf)
    assert report.rejected_steps > 0
    # Each tau the flow steps with is factored once, however often it returns.
    assert len(built_with_alive) == len(set(step_taus))
    # A solver rebuilt at every change of tau would factor 1 + switches times.
    switches = sum(a != b for a, b in zip(step_taus, step_taus[1:]))
    assert len(built_with_alive) < 1 + switches
    assert max(built_with_alive) <= 2


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("coupling", [-10.0, -5.0, -1.0, 0.0, 1.0, 5.0, 10.0])
def test_flow_operator_order_is_the_order_at_every_tau(form2, form3, level, coupling):
    # Each tau's LU is ordered by the nested dissection of its own operator,
    # folded onto the orbits of the three mirrors of phi and of u; that order
    # is the first tau's at every tau, so the flow's bits do not depend on
    # which tau is ordered.  The couplings are those of the lambda-sweep preset.
    form = {2: form2, 3: form3}.get(level) or assemble_quadratic_form(
        build_icosphere(1.0, level), ModelParams(1.0, 1.0, 1.0))
    pf = replace(coarsen_params(0), coupling=coupling)
    order = FlowSolver(form, pf, pf.tau).lu.basis.order
    C = coupling_operator(form, pf)
    mirrors = mirror_maps(form.mesh)
    n = form.mesh.num_vertices
    orbits = fem._orbits(np.hstack([mirrors, n + mirrors]), 2 * n)
    for tau in 0.01 * 2.0 ** np.arange(-4, 9):
        graph = fem._orbit_graph(flow_operator(form, pf, C, tau), orbits)
        np.testing.assert_array_equal(nested_dissection(graph), order)


def test_each_flow_factorization_orders_its_own_operator(form3, monkeypatch):
    # No order is handed from one tau's solver to the next: every
    # SaddleSystem.factor call of a flow takes one nested dissection, and no
    # dissection is taken outside a factorization.
    orders_per_factor = []
    order_of, factor = fem.nested_dissection, fem.SaddleSystem.factor

    def counted_order(*args):
        orders_per_factor[-1] += 1
        return order_of(*args)

    def counted_factor(self, *args, **kwargs):
        orders_per_factor.append(0)
        return factor(self, *args, **kwargs)

    monkeypatch.setattr(fem, "nested_dissection", counted_order)
    monkeypatch.setattr(fem.SaddleSystem, "factor", counted_factor)
    pf = coarsen_params(2)
    run_flow(initial_state(form3, pf), form3, pf)
    assert len(orders_per_factor) > 1
    assert orders_per_factor == [1] * len(orders_per_factor)


@pytest.mark.parametrize("field, spoil, match", [
    ("u", lambda x: x[:-1], r"initial u must have shape \(642,\), got shape \(641,\)"),
    ("phi", lambda x: x[:, None], r"initial phi must have shape \(642,\), got shape \(642, 1\)"),
    ("phi", lambda x: np.where(np.arange(x.size) == 7, np.nan, x), "initial phi must be finite"),
    ("u", lambda x: np.where(np.arange(x.size) == 7, np.inf, x), "initial u must be finite"),
], ids=["u-short", "phi-column", "phi-nan", "u-inf"])
def test_run_flow_rejects_a_bad_initial_state_before_factoring(form3, monkeypatch, field, spoil,
                                                               match):
    # The constraint residuals need one value per vertex, and a non-finite
    # field would be factored and stepped before the step's own check.
    monkeypatch.setattr(fem.SaddleSystem, "factor", lambda *a, **k: pytest.fail("factored"))
    pf = coarsen_params(0)
    state = initial_state(form3, pf)
    bad = replace(state, **{field: spoil(getattr(state, field))})
    with pytest.raises(ParameterError, match=match):
        run_flow(bad, form3, pf)


def position_form_step(solver, state):
    """The step as K x_new = (D/tau) x - (b/eps) M_L W'(phi): (phi, u, lambda_phi, lambda_u)."""
    pf, form, n = solver.pf, solver.form, solver.n
    rhs_phi = (1.0 / solver.tau) * (form.M @ state.phi) \
        - (pf.b / pf.epsilon) * form.m_lumped * double_well_derivative(state.phi)
    rhs_u = (1.0 / solver.tau) * (form.M @ state.u)
    sol = solver.lu.solve(np.concatenate([rhs_phi, rhs_u, solver.g]))
    return sol[:n], sol[n: 2 * n], sol[2 * n], sol[2 * n + 1]


@pytest.mark.parametrize("tau", [0.01, 0.16, 0.32])
@pytest.mark.parametrize("level", [2, 3])
def test_increment_step_is_the_position_form_step(form2, form3, monkeypatch, level, tau):
    form = {2: form2, 3: form3}[level]
    pf = replace(coarsen_params(0), tau=tau)
    solver = FlowSolver(form, pf, pf.tau)
    start = initial_state(form, pf)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return energy_gradient(*args, **kwargs)

    monkeypatch.setattr(phasefield, "energy_gradient", counting)
    # e_old = inf: the energy check is not under test here.
    new, _, _ = solver.step(start, np.inf, state_products(start, form, solver.C))
    assert len(calls) == 1
    phi, u, lam_phi, lam_u = position_form_step(solver, start)
    scale = max(np.abs(phi).max(), np.abs(u).max())
    assert np.abs(new.phi - phi).max() <= 1e-13 * scale
    assert np.abs(new.u - u).max() <= 1e-13 * scale
    assert new.lambda_phi == pytest.approx(lam_phi, rel=1e-12)
    assert new.lambda_u == pytest.approx(lam_u, rel=1e-12)


def continuum_growth_rate(l, pf, model):
    """Growth rate of degree l about (phi, u) = (alpha, 0) in the continuum.

    Linearizing the flow of the near-spherical phase-separation model
    (Elliott & Hatcher, Eur. J. Appl. Math. 2021) about the uniform state
    decouples the spherical-harmonic degrees; each gives a 2x2 growth matrix
    whose largest eigenvalue is the rate.
    """
    lam = l * (l + 1) / model.R**2
    c = model.kappa * pf.coupling * (2.0 / model.R**2 - lam)
    hess = [[pf.b * pf.epsilon * lam
             + pf.b / pf.epsilon * (3.0 * pf.alpha**2 - 1.0 + well_shift(pf, model)), c],
            [c, (lam - 2.0 / model.R**2) * (model.kappa * lam + model.sigma)]]
    return max(np.linalg.eigvals(-np.asarray(hess)).real)


def discrete_growth_rates(form, pf):
    """Growth rates, descending, of the flow linearized about (alpha, 0).

    The Jacobian J of ``energy_gradient`` is built by central differences;
    the rates are -eig(Z^T J Z, Z^T D Z) with Z a basis of the null space of
    the constraint rows B and D = blockdiag(M, M).
    """
    n = form.mesh.num_vertices
    C = coupling_operator(form, pf)
    x0 = np.concatenate([np.full(n, pf.alpha), np.zeros(n)])

    def gradient(x):
        state = PhaseState(u=x[n:], phi=x[:n])
        return np.concatenate(energy_gradient(state, form, pf, state_products(state, form, C)))

    h = 1e-4
    J = np.empty((2 * n, 2 * n))
    for j in range(2 * n):
        step = np.zeros(2 * n)
        step[j] = h
        J[:, j] = (gradient(x0 + step) - gradient(x0 - step)) / (2 * h)
    # The Jacobian of a gradient is a Hessian.
    assert np.abs(J - J.T).max() <= 1e-12 * np.abs(J).max()
    D = sp.block_diag([form.M, form.M]).toarray()
    B = sp.block_diag([form.constraints[:1], form.constraints]).toarray()
    Z = sla.null_space(B)
    return -sla.eigh(Z.T @ J @ Z, Z.T @ D @ Z, eigvals_only=True)


def leading_cluster(rates, size):
    """Value of the first run of `size` equal rates (equal to 1e-8 relative)."""
    start = 0
    for i in range(1, len(rates) + 1):
        if i == len(rates) or rates[i - 1] - rates[i] > 1e-8 * abs(rates[i]):
            if i - start == size:
                return float(np.mean(rates[start:i]))
            start = i
    raise AssertionError(f"no cluster of {size} rates")


def test_linearized_flow_matches_continuum_dispersion(form2, form3):
    pf = coarsen_params(0)
    model = form3.params
    # The icosahedral symmetry keeps l = 1 (3 modes) and l = 2 (5 modes)
    # degenerate, so each degree is the leading cluster of its multiplicity.
    exact = {1: continuum_growth_rate(1, pf, model), 2: continuum_growth_rate(2, pf, model)}
    assert exact[1] == pytest.approx(3.566667, abs=1e-6)
    assert exact[2] == pytest.approx(3.475007, abs=1e-6)
    errors = {}
    for level, form in ((2, form2), (3, form3)):
        rates = discrete_growth_rates(form, pf)
        for l, size in ((1, 3), (2, 5)):
            errors[level, l] = abs(leading_cluster(rates, size) - exact[l]) / exact[l]
    # O(h^2): the error falls about fourfold per refinement.
    for l in (1, 2):
        assert errors[2, l] / errors[3, l] >= 3.5
    assert errors[3, 1] == pytest.approx(5.78e-3, rel=0.01)
    assert errors[3, 2] == pytest.approx(2.05e-2, rel=0.01)


def test_flow_derives_the_symmetry_maps_once(monkeypatch):
    # Every solver of a flow splits its LU by the mesh's mirror maps, which
    # the mesh derives once and keeps.
    import spheremem.mesh as mesh_module

    derived, inits = [], []
    derive = mesh_module._symmetry_maps
    init = FlowSolver.__init__
    monkeypatch.setattr(mesh_module, "_symmetry_maps", lambda m: derived.append(1) or derive(m))
    monkeypatch.setattr(FlowSolver, "__init__",
                        lambda self, *args: inits.append(1) or init(self, *args))
    form = assemble_quadratic_form(build_icosphere(1.0, 2), ModelParams(1.0, 1.0, 1.0))
    pf = coarsen_params(2)
    run_flow(initial_state(form, pf), form, pf)
    assert len(inits) > 1
    assert len(derived) == 1
