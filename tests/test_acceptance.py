"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output) and asserts the same condition, so the suite doubles as a
human-readable report of the package's quantitative guarantees.
"""
import time
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from spheremem.fem import h2_norm
from spheremem.mesh import build_icosphere, mesh_stats
from spheremem.model import ModelParams, assemble_quadratic_form
from spheremem.oracle import taylor_consistency
from spheremem.phasefield import (
    PhaseFieldParams,
    closed_form_multipliers,
    coupling_operator,
    energy,
    energy_gradient,
    field_correlation,
    initial_state,
    potential_derivative,
    run_flow,
    state_products,
)
from spheremem.points import (
    ConstraintSet,
    convergence_study,
    equator_points,
    icosahedron_points,
    solve_hard,
)
from symmetry import rotation_z, s10_matrix, symmetry_residual

PARAMS = ModelParams(kappa=1.0, sigma=1.0, R=1.0)


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def mesh5():
    return build_icosphere(1.0, 5)


@pytest.fixture(scope="module")
def form5(mesh5):
    return assemble_quadratic_form(mesh5, PARAMS)


@pytest.fixture(scope="module")
def mesh4():
    return build_icosphere(1.0, 4)


@pytest.fixture(scope="module")
def form4(mesh4):
    return assemble_quadratic_form(mesh4, PARAMS)


def test_criterion_1_sphere_geometry(mesh5, mesh4):
    t0 = time.perf_counter()
    exact_area, exact_vol = 4 * np.pi, 4 / 3 * np.pi
    errs = {}
    for lv, mesh in ((4, mesh4), (5, mesh5)):
        stats = mesh_stats(mesh)
        errs[lv] = (
            abs(stats.total_area - exact_area) / exact_area,
            abs(stats.enclosed_volume - exact_vol) / exact_vol,
        )
    elapsed = time.perf_counter() - t0
    ok = (
        errs[5][0] <= 3e-3
        and errs[5][1] <= 3e-3
        and errs[4][0] / errs[5][0] >= 3.5
        and errs[4][1] / errs[5][1] >= 3.5
        and elapsed < 10.0
    )
    report(
        "criterion 1 (sphere geometry)",
        ok,
        f"level-5 rel errs area {errs[5][0]:.2e} vol {errs[5][1]:.2e}, "
        f"drop factors {errs[4][0] / errs[5][0]:.2f}/{errs[4][1] / errs[5][1]:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_spectrum(form5):
    # Smallest 16 generalized eigenvalues of (S, M): l(l+1) with
    # multiplicities 1, 3, 5, 7 for l = 0..3 on the unit sphere.
    vals = spla.eigsh(
        form5.S.tocsc(), k=16, M=form5.M.tocsc(), sigma=-0.1, which="LM",
        return_eigenvectors=False,
    )
    vals = np.sort(vals)
    groups = [(0.0, 1), (2.0, 3), (6.0, 5), (12.0, 7)]
    idx = 0
    worst = 0.0
    ok = True
    for target, mult in groups:
        block = vals[idx: idx + mult]
        idx += mult
        if target == 0.0:
            worst = max(worst, float(np.max(np.abs(block))))
            ok &= np.max(np.abs(block)) < 1e-8
        else:
            rel = np.max(np.abs(block - target)) / target
            worst = max(worst, rel)
            ok &= rel <= 2e-2
    # Multiplicity separation: gaps between groups exceed in-group spread.
    ok &= vals[0] < 1e-8 < vals[1] and vals[3] < 4.0 < vals[4] and vals[8] < 9.0 < vals[9]
    report(
        "criterion 2 (Laplacian spectrum)",
        bool(ok),
        f"worst group error {worst:.2e} (tol 2e-2), eigenvalues "
        f"{vals[1]:.3f}/{vals[4]:.3f}/{vals[9]:.3f} vs 2/6/12",
    )


def test_criterion_3_quadratic_form_structure(form5):
    sigma = PARAMS.sigma
    ones = np.ones(form5.mesh.num_vertices)
    a11 = form5.evaluate(ones, ones)
    ok_const = abs(a11 + 8 * np.pi * sigma) <= 1e-2 * 8 * np.pi * sigma

    # Near-kernel: dual-norm residual of A nu_i relative to the response on a
    # generic unit field, decreasing with refinement.
    def kernel_residual(form):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(form.mesh.num_vertices)
        w /= np.sqrt(float(w @ (form.M @ w)))
        scale = np.linalg.norm((form.A @ w) / np.sqrt(form.m_lumped))
        worst = 0.0
        modes = form.normal_modes()
        for i in (1, 2, 3):
            nu = modes[i] / np.sqrt(float(modes[i] @ (form.M @ modes[i])))
            worst = max(worst, np.linalg.norm((form.A @ nu) / np.sqrt(form.m_lumped)))
        return worst / scale

    def smallest_coercive_eigenvalue(form):
        # Eigenpairs of (A, M) near zero; discard those supported on the
        # near-kernel span{1, nu_i} and keep the smallest of the rest.
        vals, vecs = spla.eigsh(
            form.A.tocsc(), k=12, M=form.M.tocsc(), sigma=-0.5, which="LM"
        )
        modes = form.normal_modes()
        gram = np.array(
            [[float(modes[i] @ (form.M @ modes[j])) for j in range(4)] for i in range(4)]
        )
        ortho = np.linalg.solve(np.linalg.cholesky(gram), modes)
        kept = []
        for k in range(vals.size):
            v = vecs[:, k]
            proj = sum(float(ortho[i] @ (form.M @ v)) ** 2 for i in range(4))
            if proj < 0.5 * float(v @ (form.M @ v)):
                kept.append(vals[k])
        return float(min(kept))

    residuals, eigs = [], []
    for lv in (3, 4):
        form = assemble_quadratic_form(build_icosphere(1.0, lv), PARAMS)
        residuals.append(kernel_residual(form))
        eigs.append(smallest_coercive_eigenvalue(form))
    residuals.append(kernel_residual(form5))
    eigs.append(smallest_coercive_eigenvalue(form5))

    ok_kernel = residuals[2] <= 5e-2 and residuals[0] > residuals[1] > residuals[2]
    ok_eig = all(e > 0 for e in eigs) and (max(eigs) - min(eigs)) / min(eigs) < 0.05
    ok = ok_const and ok_kernel and ok_eig
    report(
        "criterion 3 (quadratic-form structure)",
        ok,
        f"a(1,1)+8 pi sigma = {a11 + 8 * np.pi:.2e}, kernel residuals "
        f"{residuals[0]:.2e}>{residuals[1]:.2e}>{residuals[2]:.2e}, "
        f"coercive eigenvalues {eigs[0]:.3f}/{eigs[1]:.3f}/{eigs[2]:.3f}",
    )


def test_criterion_4_taylor_consistency(form5):
    t0 = time.perf_counter()
    x = form5.mesh.vertices
    u = x[:, 2] ** 2 - 1.0 / 3.0
    rep = taylor_consistency(
        form5, u, mu=0.5, rho_list=(0.1, 0.05, 0.025, 0.0125),
        reconstruction="consistent",
    )
    elapsed = time.perf_counter() - t0
    ok = rep.slope >= 2.7 and elapsed < 120.0
    report(
        "criterion 4 (Taylor consistency)",
        ok,
        f"log-log slope {rep.slope:.2f} (>= 2.7), discretization floor "
        f"{rep.discretization_floor:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_penalty_convergence(form4):
    t0 = time.perf_counter()
    cs = ConstraintSet(icosahedron_points(), np.ones(12))
    table = convergence_study(form4, cs, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    elapsed = time.perf_counter() - t0
    monotone = all(a > b for a, b in zip(table.errors, table.errors[1:]))
    ok = 0.45 <= table.slope <= 1.1 and monotone and elapsed < 120.0
    report(
        "criterion 5 (penalty convergence)",
        ok,
        f"fitted rate {table.slope:.3f} in [0.45, 1.1], monotone {monotone}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_hard_constraints(form4):
    mesh = form4.mesh
    # Twelve icosahedral points, all heights 1.
    cs1 = ConstraintSet(icosahedron_points(), np.ones(12))
    u1, rep1 = solve_hard(form4, cs1)
    res1 = float(np.max(np.abs(rep1.point_residuals)))

    # Ten equally spaced equator points, all heights 1.
    cs3 = ConstraintSet(equator_points(10), np.ones(10))
    u3, rep3 = solve_hard(form4, cs3)
    res3 = float(np.max(np.abs(rep3.point_residuals)))

    # Zero targets force the zero solution.
    u0, _ = solve_hard(form4, ConstraintSet(icosahedron_points(), np.zeros(12)))
    norm0 = float(np.linalg.norm(u0))

    # Exact mesh symmetries of the solutions.
    sym1 = max(
        symmetry_residual(mesh, rotation_z(2 * np.pi / 5), u1),
        symmetry_residual(mesh, s10_matrix(), u1),
    )
    sym3 = symmetry_residual(mesh, s10_matrix(), u3)

    ok = res1 <= 1e-9 and res3 <= 1e-9 and norm0 <= 1e-10 and sym1 <= 1e-8 and sym3 <= 1e-8
    report(
        "criterion 6 (hard constraints)",
        ok,
        f"point residuals {res1:.1e}/{res3:.1e} (<= 1e-9), zero-target norm "
        f"{norm0:.1e} (<= 1e-10), symmetry residuals {sym1:.1e}/{sym3:.1e} (<= 1e-8)",
    )


SWEEP = (-10.0, -5.0, -1.0, 0.0, 1.0, 5.0, 10.0)


@pytest.fixture(scope="module")
def sweep_results(form4):
    t0 = time.perf_counter()
    results = {}
    for lam in SWEEP:
        pf = PhaseFieldParams(
            epsilon=0.15, b=1.0, coupling=lam, alpha=-0.3,
            tau=0.01, stat_tol=1e-5, seed=7,
        )
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "interface width .* under-resolved")
            final, rep = run_flow(initial_state(form4, pf), form4, pf)
        results[lam] = (pf, final, rep)
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_7_phase_field_flow(form4, sweep_results):
    elapsed = sweep_results["elapsed"]
    monotone = True
    max_res = 0.0
    converged = True
    for lam in SWEEP:
        _, _, rep = sweep_results[lam]
        E = np.array([r.energy for r in rep.records])
        monotone &= bool(np.all(np.diff(E) <= 1e-8 * np.abs(E[:-1])))
        # The last three columns of a record are its constraint residuals.
        max_res = max(max_res, max(max(r[-3:]) for r in rep.records))
        converged &= rep.converged
    pf_m, fin_m, _ = sweep_results[-5.0]
    pf_p, fin_p, _ = sweep_results[5.0]
    corr_m = field_correlation(fin_m.u, fin_m.phi, form4, pf_m)
    corr_p = field_correlation(fin_p.u, fin_p.phi, form4, pf_p)
    sign_flip = corr_m * corr_p < 0
    _, fin_0, _ = sweep_results[0.0]
    u0_max = float(np.max(np.abs(fin_0.u)))
    ok = (
        converged and monotone and max_res <= 1e-10 and sign_flip
        and u0_max <= 1e-9 and elapsed < 600.0
    )
    report(
        "criterion 7 (phase-field flow sweep)",
        ok,
        f"all converged {converged}, E monotone {monotone}, max constraint "
        f"residual {max_res:.1e} (<= 1e-10), corr {corr_m:+.3f}/{corr_p:+.3f} "
        f"sign flip {sign_flip}, coupling-0 max|u| {u0_max:.1e}, {elapsed:.0f}s",
    )


def test_criterion_8_gradient_check():
    t0 = time.perf_counter()
    mesh = build_icosphere(1.0, 2)
    form = assemble_quadratic_form(mesh, PARAMS)
    pf = PhaseFieldParams(epsilon=0.3, b=1.0, coupling=3.0, alpha=-0.2, tau=1e-3)
    rng = np.random.default_rng(11)
    n = mesh.num_vertices
    from spheremem.phasefield import PhaseState

    state = PhaseState(u=0.1 * rng.standard_normal(n), phi=0.3 * rng.standard_normal(n))
    C = coupling_operator(form, pf)
    g_phi, g_u = energy_gradient(state, form, pf, state_products(state, form, C))
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        dphi = rng.standard_normal(n)
        du = rng.standard_normal(n)
        plus = PhaseState(u=state.u + h * du, phi=state.phi + h * dphi)
        minus = PhaseState(u=state.u - h * du, phi=state.phi - h * dphi)
        ep = energy(plus, form, pf, state_products(plus, form, C))[0]
        em = energy(minus, form, pf, state_products(minus, form, C))[0]
        fd = (ep - em) / (2 * h)
        an = float(g_phi @ dphi + g_u @ du)
        worst = max(worst, abs(fd - an) / max(abs(an), 1e-14))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report(
        "criterion 8 (gradient check)",
        ok,
        f"worst relative error {worst:.2e} (<= 1e-5) over 10 directions, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_multiplier_diagnostics(form4, sweep_results):
    worst_phi = 0.0
    worst_u = 0.0
    exact_u = True
    for lam in SWEEP:
        pf, final, rep = sweep_results[lam]
        fp = potential_derivative(final.phi, pf, PARAMS)
        mean_fp = float(form4.m_lumped @ fp) / form4.area
        worst_phi = max(
            worst_phi,
            abs(final.lambda_phi + pf.b / pf.epsilon * mean_fp) / (pf.b / pf.epsilon),
        )
        closed_phi, closed_u = closed_form_multipliers(final, form4, pf)
        exact_u &= closed_u == -2.0 * PARAMS.kappa * lam * pf.alpha / PARAMS.R**2
        worst_u = max(worst_u, abs(final.lambda_u - closed_u))
    ok = worst_phi <= 1e-8 and exact_u
    report(
        "criterion 9 (multiplier diagnostics)",
        ok,
        f"|lambda_phi + (b/eps) mean f'| <= {worst_phi:.1e} (b/eps units, "
        f"tol 1e-8), lambda_u closed form exact {exact_u} "
        f"(solved deviation {worst_u:.1e})",
    )
