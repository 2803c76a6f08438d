"""Coupled membrane/phase-field energy and its conserved L2-gradient flow.

The semidiscrete system couples the deformation u (driven by the quadratic
bending form) to the order parameter phi (Ginzburg-Landau energy with a
double well and a curvature-coupling term).  Time stepping is linearly
implicit: every linear spatial operator, including the cross coupling and
the linear part of f', is implicit in one 2-field saddle solve; only the
double-well derivative W' is explicit.  The mean constraints for phi and u
and the three translation-mode constraints for u are enforced per step by
multiplier rows, so conservation holds algebraically.  The step size is
safeguarded by the energy check alone: a step that raises the energy is
rejected and retried with half the step.
"""
from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, SolverError, StepRejectedError, check_finite
from .fem import factor_saddle
from .mesh import mesh_stats
from .model import ModelParams, QuadraticForm

#: ``run_flow`` stops after this many accepted steps.
MAX_STEPS = 200_000
#: ``run_flow`` aborts after this many consecutive rejected steps.
MAX_REJECTIONS = 20
#: When running to stationarity, tau grows by TAU_GROWTH every GROW_EVERY
#: accepted steps, up to TAU_CAP_FACTOR times the initial tau.
TAU_GROWTH = 2.0
GROW_EVERY = 100
TAU_CAP_FACTOR = 1e6


@dataclass(frozen=True)
class PhaseFieldParams:
    """Interface width, line tension, curvature coupling and flow parameters."""

    epsilon: float
    b: float
    coupling: float          # spontaneous-curvature coefficient (Lambda)
    alpha: float             # prescribed mean of phi, in (-1, 1)
    alpha1: float = 1.0      # phi mobility
    alpha2: float = 1.0      # u mobility
    tau: float = 1e-3
    t_end: float | None = None
    stat_tol: float | None = 1e-5
    seed: int = 0
    noise_amplitude: float = 0.1

    def __post_init__(self):
        check_finite(**vars(self))
        for name in ("epsilon", "b", "alpha1", "alpha2", "tau", "t_end", "stat_tol"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ParameterError(f"{name} must be positive, got {value}")
        if not -1.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in (-1, 1), got {self.alpha}")
        if self.t_end is None and self.stat_tol is None:
            raise ParameterError("need a stopping rule: t_end or stat_tol")


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
    """W'(phi) = phi^3 - phi, the one explicit term of the flow step."""
    return phi**3 - phi


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


def energy(state: PhaseState, form: QuadraticForm, pf: PhaseFieldParams,
           C: sp.csr_matrix | None = None):
    """Total energy E(u, phi) and its per-term breakdown.

    ``C`` is ``coupling_operator(form, pf)`` when the caller has built it.
    """
    u, phi = state.u, state.phi
    if C is None:
        C = coupling_operator(form, pf)
    bending = 0.5 * form.evaluate(u, u)
    cross = float(phi @ (C @ u))
    grad = pf.b * 0.5 * pf.epsilon * float(phi @ (form.S @ phi))
    well = pf.b / pf.epsilon * float(form.m_lumped @ potential(phi, pf, form.params))
    total = bending + cross + grad + well
    breakdown = {
        "bending": bending,
        "coupling": cross,
        "interface_gradient": grad,
        "potential": well,
    }
    return total, breakdown


def energy_gradient(state: PhaseState, form: QuadraticForm, pf: PhaseFieldParams):
    """L2 gradients (dE/dphi, dE/du) as assembled by the flow step."""
    C = coupling_operator(form, pf)
    fp = potential_derivative(state.phi, pf, form.params)
    g_phi = C @ state.u + pf.b * pf.epsilon * (form.S @ state.phi) \
        + pf.b / pf.epsilon * form.m_lumped * fp
    g_u = form.A @ state.u + C @ state.phi
    return g_phi, g_u


def closed_form_multipliers(state: PhaseState, form: QuadraticForm,
                            pf: PhaseFieldParams) -> tuple[float, float]:
    """The multipliers that preserve the constraints in the continuum:
    lambda_phi = -(b/eps) mean(f'(phi)), lambda_u = -2 kappa Lambda alpha / R^2."""
    fp = potential_derivative(state.phi, pf, form.params)
    lam_phi = -pf.b / pf.epsilon * float(form.m_lumped @ fp) / form.area
    lam_u = -2.0 * form.params.kappa * pf.coupling * pf.alpha / form.params.R**2
    return lam_phi, lam_u


def constraint_residuals(state: PhaseState, form: QuadraticForm, pf: PhaseFieldParams):
    """(|mean(phi)-alpha|, |int u|/area, max_i |int u nu_i|/area)."""
    area = form.area
    # Sparse matvecs sum each row in stored order, as a row slice would.
    c_phi = form.constraints @ state.phi
    c_u = form.constraints @ state.u
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


class FlowSolver:
    """Reusable linearly-implicit stepper for the conserved gradient flow.

    The coupling operator C, the coupled 2-field operator and its sparse
    factorization depend on tau and are built once per (form, params, tau),
    then reused across steps.  A step solves once and evaluates the energy
    once, of the new state; the caller passes the energy of the state the
    step starts from.
    """

    def __init__(self, form: QuadraticForm, pf: PhaseFieldParams, tau: float | None = None):
        self.form = form
        self.pf = pf
        self.tau = float(tau if tau is not None else pf.tau)
        if self.tau <= 0:
            raise ParameterError("tau must be positive")
        self.n = form.mesh.num_vertices
        self.C = C = coupling_operator(form, pf)
        # Linear part of (b/eps) f'(phi): (b/eps)*s*phi = kappa*Lambda^2*phi,
        # lumped; kept implicit.
        lin_well = (pf.b / pf.epsilon * well_shift(pf, form.params)) * sp.diags(form.m_lumped)
        Kpp = (pf.alpha1 / self.tau) * form.M + pf.b * pf.epsilon * form.S + lin_well
        Kuu = (pf.alpha2 / self.tau) * form.M + form.A
        c = form.constraints
        # Hard rows: the phi mean, then the u mean and the three u translation modes.
        B = sp.block_diag([c[:1], c])
        _, self.lu = factor_saddle(sp.bmat([[Kpp, C], [C, Kuu]]), B, np.zeros(5))
        self.g = np.concatenate([[pf.alpha * form.area], np.zeros(4)])

    def step(self, state: PhaseState, e_old: float) -> tuple[PhaseState, float, dict]:
        """One linearly-implicit step from ``state``, whose energy is ``e_old``.

        Returns the new state with its energy and breakdown; raises
        :class:`StepRejectedError` when the energy rises.
        """
        pf, form = self.pf, self.form
        rhs_phi = (pf.alpha1 / self.tau) * (form.M @ state.phi) \
            - (pf.b / pf.epsilon) * form.m_lumped * double_well_derivative(state.phi)
        rhs_u = (pf.alpha2 / self.tau) * (form.M @ state.u)
        rhs = np.concatenate([rhs_phi, rhs_u, self.g])
        sol = self.lu.solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise SolverError("flow step produced a non-finite solution")
        phi_new = sol[: self.n]
        u_new = sol[self.n: 2 * self.n]
        mult = sol[2 * self.n:]
        new = PhaseState(u=u_new, phi=phi_new, t=state.t + self.tau,
                         lambda_phi=float(mult[0]), lambda_u=float(mult[1]))
        e_new, breakdown = energy(new, form, pf, self.C)
        if e_new > e_old + 1e-8 * abs(e_old):
            raise StepRejectedError(
                f"energy increased {e_old:.12g} -> {e_new:.12g}; "
                f"retry with tau = {self.tau / 2:.3g}",
                energy_before=e_old, energy_after=e_new,
                suggested_tau=self.tau / 2,
            )
        return new, e_new, breakdown


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

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t [time],energy [energy],bending [energy],coupling [energy],"
                  "interface_gradient [energy],potential [energy],"
                  "phi_mean_residual [1],u_mean_residual [1],u_normal_residual [1]\n")
        for t, e, bd, cr in zip(self.times, self.energies, self.breakdowns,
                                self.constraint_residuals):
            buf.write(
                f"{t:.17g},{e:.17g},{bd['bending']:.17g},{bd['coupling']:.17g},"
                f"{bd['interface_gradient']:.17g},{bd['potential']:.17g},"
                f"{cr[0]:.17g},{cr[1]:.17g},{cr[2]:.17g}\n"
            )
        return buf.getvalue()


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
    :data:`TAU_GROWTH` every :data:`GROW_EVERY` accepted steps (up to
    :data:`TAU_CAP_FACTOR` times the initial tau): late-stage coarsening is
    exponentially slow in physical time, and the energy check keeps the
    enlarged steps dissipative.  A
    ``t_end`` run whose next step would pass ``t_end`` shortens that step to
    ``t_end - t`` with a one-off :class:`FlowSolver`, so it ends at ``t_end``
    to roundoff.  Every accepted step is logged in the report.

    The energy is evaluated once for the initial state and then once per
    step by :meth:`FlowSolver.step`; the logged value of an accepted step
    is the one the step computed for its dissipation check, and it is the
    ``e_old`` of the next step.
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
    solver = FlowSolver(form, pf)
    mass = form.m_lumped
    times, energies_log, breakdowns, residuals = [], [], [], []
    e, bd = energy(state, form, pf, solver.C)
    times.append(state.t); energies_log.append(e); breakdowns.append(bd)
    residuals.append(constraint_residuals(state, form, pf))
    rejected = 0
    consecutive = 0
    accepted = 0
    since_grow = 0
    since_reject = 0
    tau_cap = hard_cap = TAU_CAP_FACTOR * pf.tau
    stationarity = float("inf")
    converged = False
    while accepted < MAX_STEPS:
        stepper = solver
        if pf.t_end is not None:
            if state.t >= pf.t_end - 1e-12 * pf.t_end:
                break
            if state.t + solver.tau > pf.t_end + 1e-12 * pf.t_end:
                stepper = FlowSolver(form, pf, tau=pf.t_end - state.t)
        try:
            new, e_new, bd = stepper.step(state, e)
        except StepRejectedError as exc:
            rejected += 1
            consecutive += 1
            if consecutive > MAX_REJECTIONS:
                raise SolverError(
                    f"aborting after {consecutive} consecutive rejected steps "
                    f"(last energies {exc.energy_before!r} -> {exc.energy_after!r})"
                ) from exc
            # Don't regrow straight back to a step size that was rejected.
            tau_cap = min(tau_cap, stepper.tau / 2.0)
            solver = FlowSolver(form, pf, tau=stepper.tau / 2.0)
            since_grow = 0
            since_reject = 0
            continue
        consecutive = 0
        since_reject += 1
        diff = np.sqrt(float(mass @ (new.phi - state.phi) ** 2)
                       + float(mass @ (new.u - state.u) ** 2))
        stationarity = diff / stepper.tau
        state, e = new, e_new
        accepted += 1
        times.append(state.t); energies_log.append(e); breakdowns.append(bd)
        residuals.append(constraint_residuals(state, form, pf))
        if pf.stat_tol is not None and stationarity < pf.stat_tol:
            converged = True
            break
        since_grow += 1
        if pf.t_end is None and since_grow >= GROW_EVERY:
            if solver.tau < tau_cap:
                solver = FlowSolver(form, pf, tau=min(TAU_GROWTH * solver.tau, tau_cap))
                since_grow = 0
            elif since_reject >= 10 * GROW_EVERY and tau_cap < hard_cap:
                # A long run of accepted steps: the rejection that set the
                # cap happened in a faster flow regime, so probe above it.
                tau_cap = min(TAU_GROWTH * tau_cap, hard_cap)
                since_reject = 0
    report = FlowReport(
        times=times,
        energies=energies_log,
        breakdowns=breakdowns,
        constraint_residuals=residuals,
        accepted_steps=accepted,
        rejected_steps=rejected,
        final_tau=solver.tau,
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
