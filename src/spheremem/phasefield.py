"""Coupled membrane/phase-field energy and its conserved L2-gradient flow.

The semidiscrete system couples the deformation u (driven by the quadratic
bending form) to the order parameter phi (Ginzburg-Landau energy with a
double well and a curvature-coupling term).  Time stepping is linearly
implicit: a step solves for its increment against :func:`energy_gradient`,
with every linear operator, the cross coupling and the linear part of f'
included, implicit in one 2-field saddle solve; only W' is explicit.  The
means of phi and u and the three translation modes of u are held per step
by multiplier rows, so conservation holds algebraically.  A step that
raises the energy is rejected and retried with half the step.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, SolverError, StepRejectedError, check_finite
from .fem import SaddleSystem, _matvec_into
from .mesh import mesh_stats, mirror_maps
from .model import ModelParams, QuadraticForm

#: ``run_flow`` stops after this many accepted steps.
MAX_STEPS = 200_000
#: ``run_flow`` aborts after this many consecutive rejected steps.
MAX_REJECTIONS = 20
#: When running to stationarity, tau grows by TAU_GROWTH every GROW_EVERY
#: accepted steps.
TAU_GROWTH = 2.0
GROW_EVERY = 100


@dataclass(frozen=True)
class PhaseFieldParams:
    """Interface width, line tension, curvature coupling and flow parameters;
    phi and u share the one time scale tau, the flow's D = blockdiag(M, M)."""

    epsilon: float
    b: float
    coupling: float          # spontaneous-curvature coefficient (Lambda)
    alpha: float             # prescribed mean of phi, in (-1, 1)
    tau: float = 1e-3
    t_end: float | None = None
    stat_tol: float | None = 1e-5
    seed: int = 0
    noise_amplitude: float = 0.1

    def __post_init__(self):
        check_finite(**vars(self))
        for name in ("epsilon", "b", "tau", "t_end", "stat_tol"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ParameterError(f"{name} must be positive, got {value}")
        if not -1.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in (-1, 1), got {self.alpha}")
        if self.t_end is None and self.stat_tol is None:
            raise ParameterError("need a stopping rule: t_end or stat_tol")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


@dataclass
class PhaseState:
    """Deformation/order-parameter pair with time and the step's multipliers."""

    u: np.ndarray
    phi: np.ndarray
    t: float = 0.0
    lambda_phi: float | None = None
    lambda_u: float | None = None


def well_shift(pf: PhaseFieldParams, model: ModelParams) -> float:
    """s = eps*kappa*Lambda^2/b, the shift of the potential f = W + s phi^2/2."""
    return pf.epsilon * model.kappa * pf.coupling**2 / pf.b


def double_well_derivative(phi: np.ndarray) -> np.ndarray:
    """W'(phi) = phi^3 - phi, the one gradient term the flow step keeps explicit."""
    return phi * phi * phi - phi


def potential(phi: np.ndarray, pf: PhaseFieldParams, model: ModelParams) -> np.ndarray:
    """f(phi) = W(phi) + s phi^2/2 with the double well W(phi) = (phi^2 - 1)^2/4."""
    return 0.25 * (phi**2 - 1.0) ** 2 + 0.5 * well_shift(pf, model) * phi**2


def potential_derivative(phi: np.ndarray, pf: PhaseFieldParams, model: ModelParams) -> np.ndarray:
    """f'(phi) = W'(phi) + s phi."""
    return double_well_derivative(phi) + well_shift(pf, model) * phi


def coupling_operator(form: QuadraticForm, pf: PhaseFieldParams) -> sp.csr_matrix:
    """Discrete kappa*Lambda*(Delta . + 2/R^2 .): the u/phi cross block.

    The Laplacian is realized through the lumped reconstruction, which under
    the lumped L2 pairing collapses to -S.
    """
    k = form.params.kappa * pf.coupling
    return (k * (-form.S + (2.0 / form.params.R**2) * form.M)).tocsr()


@dataclass(frozen=True)
class StateProducts:
    """The sparse products of one state that its energy, its gradient and its
    constraint rows share, so that a flow forms each once per state."""

    Au: np.ndarray       # A u
    Cu: np.ndarray       # C u, C the coupling operator
    Cphi: np.ndarray     # C phi
    Sphi: np.ndarray     # S phi
    c_phi: np.ndarray    # the constraint rows times phi
    c_u: np.ndarray      # the constraint rows times u


def state_products(state: PhaseState, form: QuadraticForm, C: sp.csr_matrix) -> StateProducts:
    """The :class:`StateProducts` of ``state``; ``C`` is ``coupling_operator(form, pf)``.
    Each product is SciPy's CSR kernel written into one array
    (``fem._matvec_into``): the bits of ``@``, without its dispatch."""
    n, m = state.u.size, form.constraints.shape[0]
    out = np.empty(4 * n + 2 * m)
    Au, Cu, Cphi, Sphi = out[:4 * n].reshape(4, n)
    c_phi, c_u = out[4 * n:].reshape(2, m)
    for M, x, into in ((form.A, state.u, Au), (C, state.u, Cu), (C, state.phi, Cphi),
                       (form.S, state.phi, Sphi), (form.constraints, state.phi, c_phi),
                       (form.constraints, state.u, c_u)):
        _matvec_into(M, x, into)
    return StateProducts(Au=Au, Cu=Cu, Cphi=Cphi, Sphi=Sphi, c_phi=c_phi, c_u=c_u)


def energy(state: PhaseState, form: QuadraticForm, pf: PhaseFieldParams,
           products: StateProducts):
    """Total energy E(u, phi) and its per-term breakdown, from the state's
    :class:`StateProducts` ``products``."""
    u, phi = state.u, state.phi
    bending = 0.5 * float(u @ products.Au)
    cross = float(phi @ products.Cu)
    grad = pf.b * 0.5 * pf.epsilon * float(phi @ products.Sphi)
    well = pf.b / pf.epsilon * float(form.m_lumped @ potential(phi, pf, form.params))
    total = bending + cross + grad + well
    breakdown = {
        "bending": bending,
        "coupling": cross,
        "interface_gradient": grad,
        "potential": well,
    }
    return total, breakdown


def energy_gradient(state: PhaseState, form: QuadraticForm, pf: PhaseFieldParams,
                    products: StateProducts):
    """Gradients (dE/dphi, dE/du), the flow step's right-hand side;
    ``products`` as in :func:`energy`."""
    fp = potential_derivative(state.phi, pf, form.params)
    g_phi = products.Cu + pf.b * pf.epsilon * products.Sphi \
        + pf.b / pf.epsilon * form.m_lumped * fp
    g_u = products.Au + products.Cphi
    return g_phi, g_u


def closed_form_multipliers(state: PhaseState, form: QuadraticForm,
                            pf: PhaseFieldParams) -> tuple[float, float]:
    """The multipliers that preserve the constraints in the continuum:
    lambda_phi = -(b/eps) mean(f'(phi)), lambda_u = -2 kappa Lambda alpha / R^2."""
    fp = potential_derivative(state.phi, pf, form.params)
    lam_phi = -pf.b / pf.epsilon * float(form.m_lumped @ fp) / form.area
    lam_u = -2.0 * form.params.kappa * pf.coupling * pf.alpha / form.params.R**2
    return lam_phi, lam_u


def constraint_residuals(state: PhaseState, form: QuadraticForm, pf: PhaseFieldParams,
                         products: StateProducts | None = None):
    """(|mean(phi)-alpha|, |int u|/area, max_i |int u nu_i|/area); ``products``
    as in :func:`energy`."""
    area = form.area
    # Sparse matvecs sum each row in stored order, as a row slice would.
    if products is None:
        c_phi, c_u = form.constraints @ state.phi, form.constraints @ state.u
    else:
        c_phi, c_u = products.c_phi, products.c_u
    phi_mean = float(c_phi[0]) / area - pf.alpha
    u_mean = float(c_u[0]) / area
    u_nu = max(abs(float(c_u[i])) for i in (1, 2, 3)) / area
    return abs(phi_mean), abs(u_mean), u_nu


def project_constraints(state: PhaseState, form: QuadraticForm,
                        pf: PhaseFieldParams) -> PhaseState:
    """Mass-orthogonal projection of (u, phi) onto the constraint set."""
    c = np.asarray(form.constraints.todense())
    area = form.area
    phi = state.phi + (pf.alpha * area - c[0] @ state.phi) / area
    # Remove the {1, nu_i} components of u via the 4x4 mass Gram system.
    modes = form.normal_modes()
    gram = np.array([[c[i] @ modes[j] for j in range(4)] for i in range(4)])
    coef = np.linalg.solve(gram, c @ state.u)
    u = state.u - modes.T @ coef
    return replace(state, u=u, phi=phi)


def flow_operator(form: QuadraticForm, pf: PhaseFieldParams, C: sp.csr_matrix,
                  tau: float) -> sp.csr_matrix:
    """The flow's step operator K = D/tau + H (CSR), ``C`` the coupling operator.

    K = [[(1/tau) M + b eps S + kappa Lambda^2 M_L, C], [C, (1/tau) M + A]]:
    D = blockdiag(M, M) and H the Hessian of the energy's quadratic part, the
    linear part s phi of f' included.
    """
    # Linear part of (b/eps) f'(phi): (b/eps)*s*phi = kappa*Lambda^2*phi,
    # lumped; kept implicit.
    lin_well = (pf.b / pf.epsilon * well_shift(pf, form.params)) * sp.diags(form.m_lumped)
    Kpp = (1.0 / tau) * form.M + pf.b * pf.epsilon * form.S + lin_well
    Kuu = (1.0 / tau) * form.M + form.A
    return sp.bmat([[Kpp, C], [C, Kuu]], format="csr")


class FlowSolver:
    """Reusable linearly-implicit stepper for the conserved gradient flow.

    It factors K = :func:`flow_operator` = D/tau + H, D = blockdiag(M, M),
    once per (form, params, tau).  A step solves K d + B^T lambda = -grad
    E(x), B d = g - B x and moves to x + d: the scheme K x_new = (D/tau) x -
    (b/eps) M_L W'(phi) in increment form, with the same multipliers, by one
    solve on the LU that is neither refined nor held to
    ``fem.BACKWARD_ERROR_BOUND``.  That solve has one column, so it is
    SuperLU's transposed solve: K is symmetric, and for one column the
    transposed solve, which gathers where the plain one scatters, is the
    faster (0.57 against 0.64 ms at level 4).  It evaluates the energy once,
    of the new state; the caller passes the energy it starts from and its
    products.  The step's right-hand side is assembled in one array the
    solver keeps.  :func:`run_flow` keeps two solvers.

    K is factored as a :class:`fem.SaddleSystem` with its five hard rows,
    split by the three mirrors (``mesh.mirror_maps``) of phi and of u
    (:meth:`fem.SaddleSystem.factor`): K is invariant under them, the
    phi-mean, u-mean and u.nu_y rows each lie in one block and the u.nu_x and
    u.nu_z rows are re-based onto two, so the LU is one SuperLU factor of K's
    eight blocks, 0.51 M L+U entries at level 4 and 3.03 M at level 5.  It is
    ordered in ``order``, an order of the orbit graph, or in the
    nested-dissection order it takes of that graph when None; the order used
    is kept as ``self.order``, so that the solvers of one flow share it.
    """

    def __init__(self, form: QuadraticForm, pf: PhaseFieldParams, tau: float,
                 order: np.ndarray | None = None):
        self.form = form
        self.pf = pf
        self.tau = float(tau)
        check_finite(tau=self.tau)
        if self.tau <= 0:
            raise ParameterError("tau must be positive")
        self.n = form.mesh.num_vertices
        self.C = coupling_operator(form, pf)
        # Hard rows: the phi mean, then the u mean and the three u translation modes.
        B = sp.block_diag([form.constraints[:1], form.constraints])
        mirrors = mirror_maps(form.mesh)
        K = SaddleSystem(flow_operator(form, pf, self.C, self.tau), B)
        self.lu = K.factor(np.hstack([mirrors, self.n + mirrors]), order)
        self.order = self.lu.order
        self.g = np.concatenate([[pf.alpha * form.area], np.zeros(4)])
        self._rhs = np.empty(2 * self.n + 5)

    def step(self, state: PhaseState, e_old: float, products: StateProducts
             ) -> tuple[PhaseState, float, dict, StateProducts]:
        """One linearly-implicit step from ``state``, whose energy is ``e_old``
        and whose :class:`StateProducts` are ``products``.

        Returns the new state with its energy, breakdown and products; raises
        :class:`StepRejectedError` when the energy rises or is not a number.
        """
        pf, form, n = self.pf, self.form, self.n
        g_phi, g_u = energy_gradient(state, form, pf, products)
        # -grad E, then the constraint defect g - B x: the phi mean row, then
        # the four u rows.
        rhs = self._rhs
        np.negative(g_phi, out=rhs[:n])
        np.negative(g_u, out=rhs[n:2 * n])
        np.subtract(self.g[:1], products.c_phi[:1], out=rhs[2 * n:2 * n + 1])
        np.subtract(self.g[1:], products.c_u, out=rhs[2 * n + 1:])
        sol = self.lu.solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise SolverError("flow step produced a non-finite solution")
        new = PhaseState(u=state.u + sol[n: 2 * n], phi=state.phi + sol[:n],
                         t=state.t + self.tau,
                         lambda_phi=float(sol[2 * n]), lambda_u=float(sol[2 * n + 1]))
        new_products = state_products(new, form, self.C)
        e_new, breakdown = energy(new, form, pf, new_products)
        if not e_new <= e_old + 1e-8 * abs(e_old):
            raise StepRejectedError(
                f"energy increased {e_old:.12g} -> {e_new:.12g}; "
                f"retry with tau = {self.tau / 2:.3g}",
                energy_before=e_old, energy_after=e_new,
                suggested_tau=self.tau / 2,
            )
        return new, e_new, breakdown, new_products


@dataclass
class FlowReport:
    times: list[float]
    energies: list[float]
    breakdowns: list[dict]
    constraint_residuals: list[tuple[float, float, float]]
    accepted_steps: int
    rejected_steps: int
    final_tau: float             # tau of the schedule, not of a t_end landing step
    stationarity: float          # ||state_{n+1} - state_n|| / tau at the end
    converged: bool


def initial_state(form: QuadraticForm, pf: PhaseFieldParams) -> PhaseState:
    """Seeded default start: phi = alpha + uniform noise (projected), u = 0."""
    rng = np.random.default_rng(pf.seed)
    phi = pf.alpha + pf.noise_amplitude * rng.uniform(-1.0, 1.0, form.mesh.num_vertices)
    state = PhaseState(u=np.zeros(form.mesh.num_vertices), phi=phi, t=0.0)
    return project_constraints(state, form, pf)


def run_flow(
    initial: PhaseState, form: QuadraticForm, pf: PhaseFieldParams
) -> tuple[PhaseState, FlowReport]:
    """Step until stationarity (||change||/tau < stat_tol) or t_end.

    The initial state is projected onto the constraint set (with a warning)
    when it violates the constraints, and the flow warns once when the
    interface width epsilon is below 2 h_max of the mesh.  A step that raises
    the energy is rejected and tau halved: this energy check is the flow's
    only step-size safeguard.  When running to stationarity, tau grows by
    :data:`TAU_GROWTH` every :data:`GROW_EVERY` accepted steps, up to half the
    last rejected tau, a cap that doubles after ten growth periods without a
    rejection: late-stage coarsening is exponentially slow in physical time,
    and the energy check keeps the enlarged steps dissipative.  A ``t_end``
    run whose next step would pass ``t_end`` shortens that step to
    ``t_end - t``, so it ends at ``t_end`` to roundoff.  Every accepted step
    is logged in the report.

    Each tau has its own :class:`FlowSolver`, and the solvers of the two most
    recently used tau values are kept: a step at a kept tau (the tau a
    rejection falls back to, or the enlarged tau probed again after it)
    factors nothing.  The older kept solver is released before a new one is
    factored, so no more than two factorizations are alive at a time.  The
    first solver's LU takes its nested-dissection order from its
    :class:`fem.SaddleSystem`; the others factor in it, as
    :func:`flow_operator` has one pattern, and so one orbit graph, at every
    tau.

    The energy is evaluated once for the initial state and then once per
    step by :meth:`FlowSolver.step`; the logged value of an accepted step
    is the one the step computed for its dissipation check, and it is the
    ``e_old`` of the next step.  Likewise each state's :class:`StateProducts`
    are formed once: the step that makes the state forms them for its energy,
    and the logged constraint residuals and the next step's gradient and
    constraint defect reuse them.
    """
    pf_res = constraint_residuals(initial, form, pf)
    state = initial
    if max(pf_res) > 1e-10:
        warnings.warn("initial state violates constraints; projecting", stacklevel=2)
        state = project_constraints(state, form, pf)
    h_max = mesh_stats(form.mesh).h_max
    if pf.epsilon < 2.0 * h_max:
        warnings.warn(
            f"interface width eps = {pf.epsilon:.3g} under-resolved "
            f"(2 h_max = {2 * h_max:.3g})",
            stacklevel=2,
        )
    kept: dict[float, FlowSolver] = {}

    def solver_for(tau: float) -> FlowSolver:
        # Most recently used last; the older one goes before a third is built.
        # A new solver factors in a kept one's order; the first finds none kept.
        solver = kept.pop(tau, None)
        if solver is None:
            order = next(iter(kept.values())).order if kept else None
            if len(kept) == 2:
                del kept[next(iter(kept))]
            solver = FlowSolver(form, pf, tau, order)
        kept[tau] = solver
        return solver

    tau = pf.tau
    stepper = solver_for(tau)
    mass = form.m_lumped
    work = np.empty(mass.size)     # the stationarity's squared differences
    times, energies_log, breakdowns, residuals = [], [], [], []
    products = state_products(state, form, stepper.C)
    e, bd = energy(state, form, pf, products)
    times.append(state.t); energies_log.append(e); breakdowns.append(bd)
    residuals.append(constraint_residuals(state, form, pf, products))
    rejected = 0
    consecutive = 0
    accepted = 0
    since_grow = 0
    since_reject = 0
    tau_cap = math.inf
    stationarity = math.inf
    converged = False
    while accepted < MAX_STEPS:
        step_tau = tau
        if pf.t_end is not None:
            if state.t >= pf.t_end - 1e-12 * pf.t_end:
                break
            if state.t + tau > pf.t_end + 1e-12 * pf.t_end:
                step_tau = pf.t_end - state.t
        stepper = solver_for(step_tau)
        try:
            new, e_new, bd, new_products = stepper.step(state, e, products)
        except StepRejectedError as exc:
            rejected += 1
            consecutive += 1
            if consecutive > MAX_REJECTIONS:
                raise SolverError(
                    f"aborting after {consecutive} consecutive rejected steps "
                    f"(last energies {exc.energy_before!r} -> {exc.energy_after!r})"
                ) from exc
            # Don't regrow straight back to a step size that was rejected.
            tau = exc.suggested_tau
            tau_cap = min(tau_cap, tau)
            since_grow = 0
            since_reject = 0
            continue
        consecutive = 0
        since_reject += 1
        diff = np.sqrt(float(mass @ np.square(np.subtract(new.phi, state.phi, out=work), out=work))
                       + float(mass @ np.square(np.subtract(new.u, state.u, out=work), out=work)))
        stationarity = diff / step_tau
        state, e, products = new, e_new, new_products
        accepted += 1
        times.append(state.t); energies_log.append(e); breakdowns.append(bd)
        residuals.append(constraint_residuals(state, form, pf, products))
        if pf.stat_tol is not None and stationarity < pf.stat_tol:
            converged = True
            break
        since_grow += 1
        if pf.t_end is None and since_grow >= GROW_EVERY:
            if tau < tau_cap:
                tau = min(TAU_GROWTH * tau, tau_cap)
                since_grow = 0
            elif since_reject >= 10 * GROW_EVERY:
                # A long run of accepted steps: the rejection that set the
                # cap happened in a faster flow regime, so probe above it.
                tau_cap = TAU_GROWTH * tau_cap
                since_reject = 0
    report = FlowReport(
        times=times,
        energies=energies_log,
        breakdowns=breakdowns,
        constraint_residuals=residuals,
        accepted_steps=accepted,
        rejected_steps=rejected,
        final_tau=tau,
        stationarity=stationarity,
        converged=converged,
    )
    return state, report


def field_correlation(u: np.ndarray, phi: np.ndarray, form: QuadraticForm,
                      pf: PhaseFieldParams) -> float:
    """Mass-weighted correlation of u with phi - alpha (sign diagnostic)."""
    w = form.m_lumped
    a = u - float(w @ u) / w.sum()
    b = (phi - pf.alpha)
    b = b - float(w @ b) / w.sum()
    denom = np.sqrt(float(w @ a**2) * float(w @ b**2))
    if denom == 0.0:
        return 0.0
    return float(w @ (a * b)) / denom
