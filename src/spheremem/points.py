"""Point-constraint equilibria: penalty (soft) and hard point constraints on
the coercivity subspace, and the delta-convergence study.

Both problems are one saddle system: the four orthogonality constraints
(1, u) = 0, (nu_i, u) = 0 and one row per attachment point, each with a
multiplier.  A point row is hard (u(p_j) = Z_j) or, with compliance delta, the
penalty (u(p_j) - Z_j)^2 / (2 delta), whose delta = 0 limit is the hard one.

The systems of one form and constraint set differ only in the L x L point
block -delta I, so they share one sparse factorization of the orthogonality
block A_C = [[A, C^T], [C, 0]]; each delta is solved through the L x L Schur
complement PG + delta I and refined against its whole saddle system.  A study
of the hard problem and k penalties factors once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GeometryError, ParameterError, check_finite
from .fem import PointLocator, SaddleSystem, _check_constraint_rank, h2_norm
from .mesh import antipodal_map
from .model import QuadraticForm

#: Points closer than this (relative to R) are rejected as duplicates.
DUPLICATE_TOL = 1e-8


@dataclass(frozen=True)
class ConstraintSet:
    """Attachment points on the reference sphere with target heights."""

    points: np.ndarray     # (L, 3), on the sphere
    heights: np.ndarray    # (L,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        hts = np.atleast_1d(np.asarray(self.heights, dtype=float))
        if pts.shape[0] != hts.shape[0]:
            raise ParameterError("heights and points length mismatch")
        check_finite(points=pts, heights=hts)
        if pts.shape[0] == 0:
            raise ParameterError("a constraint set needs at least one attachment point")
        scale = float(np.max(np.linalg.norm(pts, axis=1)))
        for i in range(pts.shape[0]):
            d = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
            if d.size and np.min(d) < DUPLICATE_TOL * scale:
                j = i + 1 + int(np.argmin(d))
                raise ParameterError(f"attachment points {i} and {j} coincide")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "heights", hts)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]


@dataclass
class SolveReport:
    energy: float                   # 1/2 a(u,u)
    point_values: np.ndarray        # u(p_j)
    point_residuals: np.ndarray     # u(p_j) - Z_j
    point_multipliers: np.ndarray   # reactions; (u(p_j) - Z_j) / delta for a penalty


def _check_delta(delta: float) -> None:
    check_finite(delta=delta)
    if delta <= 0:
        raise ParameterError(f"penalty delta must be positive, got {delta}")


def _check_resolved(P: sp.csr_matrix) -> None:
    """Reject two attachment points in one triangle (rows that share a vertex and
    together use at most three): the mesh does not resolve them."""
    support = sp.csr_matrix((np.ones_like(P.data), P.indices, P.indptr), shape=P.shape)
    counts = np.diff(P.indptr)
    shared = sp.triu(support @ support.T, k=1).tocoo()
    for i, j, k in zip(shared.row, shared.col, shared.data):
        if counts[i] + counts[j] - k <= 3:
            raise GeometryError(
                f"attachment points {i} and {j} lie in one triangle; refine the mesh")


class _PointSystem:
    """The saddle systems K(delta) of one form and constraint set: ``system``,
    the :class:`fem.SaddleSystem` of A and B = [C; P], at compliance c = 0 on
    the four orthogonality rows C and ``delta`` (0 for the hard problem) on
    the point rows P.

    Every K(delta) shares the block A_C = [[A, C^T], [C, 0]], which is factored
    once here, after the rank check of its rows C, split by the antipodal map
    (:meth:`fem.SaddleSystem.factor`; c0 is even, c1-c3 odd): the point rows
    are never factored, and the refinement against the whole K(delta) answers
    for the split LU as for any other.  G = A_C^{-1} [P^T; 0] takes
    one multi-column back-solve and PG = P G_u is L x L.  A solve then
    eliminates the point rows: y = A_C^{-1} r1, lam = (PG + delta I)^{-1}
    (P y_u - r2), x = y - G lam.  A penalty's only hard rows are C, so only a
    delta = 0 solve checks the rank of [C; P].
    """

    def __init__(self, form: QuadraticForm, cs: ConstraintSet):
        P = PointLocator(form.mesh).row(cs.points)
        _check_resolved(P)
        self.form, self.cs, self.P = form, cs, P
        self.system = SaddleSystem(form.A, sp.vstack([form.constraints, P]))
        self.labels = ["c0 (mean)", "c1 (nu_x)", "c2 (nu_y)", "c3 (nu_z)"] + [
            f"point {j} at {cs.points[j].tolist()}" for j in range(cs.num_points)
        ]
        _check_constraint_rank(form.constraints, self.labels[:4], np.zeros(4))
        self.lu = SaddleSystem(form.A, form.constraints).factor(np.zeros(4), antipodal_map(form.mesh))
        n = form.mesh.num_vertices
        self.G = self.lu.solve(np.vstack([P.T.toarray(), np.zeros((4, cs.num_points))]))
        self.PG = P @ self.G[:n]

    def solve(self, delta: float, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, lam) with K(delta) [u; mu; lam] = [0; 0; g], refined against the
        whole K(delta) by :meth:`fem.SaddleSystem.solve`; lam holds the point
        multipliers."""
        P, n, L = self.P, self.form.mesh.num_vertices, self.cs.num_points
        c = np.r_[np.zeros(4), np.full(L, delta)]
        if delta == 0:
            _check_constraint_rank(self.system.B, self.labels, c)
        schur = self.PG + delta * np.eye(L)

        def inner(r):
            # The first right-hand side is zero above the point rows: y = 0 needs no solve.
            y = self.lu.solve(r[:n + 4]) if r[:n + 4].any() else np.zeros(n + 4)
            lam = np.linalg.solve(schur, P @ y[:n] - r[n + 4:])
            return np.concatenate([y - self.G @ lam, lam])

        sol = self.system.solve(c, np.concatenate([np.zeros(n + 4), g]), inner)
        return sol[:n], sol[n + 4:]

    def equilibrium(self, delta: float) -> tuple[np.ndarray, SolveReport]:
        """The equilibrium at compliance ``delta`` and its report."""
        u, lam = self.solve(delta, self.cs.heights)
        values = self.P @ u
        report = SolveReport(
            energy=0.5 * self.form.evaluate(u, u),
            point_values=values,
            point_residuals=values - self.cs.heights,
            point_multipliers=lam,
        )
        return u, report


def solve_penalty(
    form: QuadraticForm, cs: ConstraintSet, delta: float
) -> tuple[np.ndarray, SolveReport]:
    """Penalized equilibrium: minimizes 1/2 a(u,u) + |Pu - Z|^2 / (2 delta) on U_nu."""
    _check_delta(delta)
    return _PointSystem(form, cs).equilibrium(delta)


def solve_hard(form: QuadraticForm, cs: ConstraintSet) -> tuple[np.ndarray, SolveReport]:
    """Hard interpolation u(p_j) = Z_j; the reactions are ``report.point_multipliers``."""
    return _PointSystem(form, cs).equilibrium(0.0)


@dataclass
class RateTable:
    deltas: list[float]
    errors: list[float]          # discrete H2 distance to the hard solution
    energies: list[float]
    slope: float                 # fitted log(err) vs log(delta)


def convergence_study(form: QuadraticForm, cs: ConstraintSet, deltas) -> RateTable:
    """Penalty-to-hard convergence: fits the rate of ||u - u_delta||_{H2} in delta.

    The hard solution (u0, lam0) on the same mesh is the delta -> 0
    reference.  Since K(delta) [u0; lam0] = [0; 0; Z - delta lam0], the
    difference d = u0 - u_delta solves K(delta) [d; .] = [0; 0; -delta lam0]
    directly, without the cancellation of subtracting two O(1) solutions; the
    penalty energy is that of u_delta = u0 - d.  Every delta is checked before
    the first solve.
    """
    deltas = [float(d) for d in deltas]
    for d in deltas:
        _check_delta(d)
    if len(deltas) < 2 or any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ParameterError("deltas must be strictly decreasing with >= 2 values")
    system = _PointSystem(form, cs)
    u_hard, lam_hard = system.solve(0.0, cs.heights)
    errors, energies = [], []
    for d in deltas:
        diff, _ = system.solve(d, -d * lam_hard)
        errors.append(h2_norm(form.M, form.S, form.m_lumped, diff))
        u_d = u_hard - diff
        energies.append(0.5 * form.evaluate(u_d, u_d))
    slope = float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
    return RateTable(deltas=deltas, errors=errors, energies=energies, slope=slope)


# -- reference configurations -------------------------------------------------

def icosahedron_points(radius: float = 1.0) -> np.ndarray:
    """The 12 vertices of the pole-oriented icosahedron (Figure-1 layout)."""
    from .mesh import _pole_icosahedron

    verts, _ = _pole_icosahedron(radius)
    return verts


#: Azimuth of the first equator point: it interleaves the points with the
#: icosahedral vertex azimuths, so the rotoreflection symmetry holds.
EQUATOR_PHASE = np.pi / 10.0


def equator_points(count: int = 10, radius: float = 1.0) -> np.ndarray:
    """Equally spaced equator points, the first at azimuth :data:`EQUATOR_PHASE`."""
    ang = EQUATOR_PHASE + 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang), np.zeros(count)])


#: Polar angle of the north ring of :func:`polar_ring_points`, in degrees: a
#: free parameter of the reproduction recipe, fixed here.
RING_ANGLE_DEG = 10.0
#: Attachment points on each ring of :func:`polar_ring_points`.
POINTS_PER_RING = 6


def polar_ring_points(radius: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Two rings of :data:`POINTS_PER_RING` attachment points at polar angle
    :data:`RING_ANGLE_DEG` around the poles, with heights alternating
    between +1 and -1, antisymmetric north/south.

    The south ring is the antipodal image of the north ring, so the
    configuration is odd under the antipodal map.
    """
    theta = np.deg2rad(RING_ANGLE_DEG)
    ang = 2.0 * np.pi * np.arange(POINTS_PER_RING) / POINTS_PER_RING
    north = np.column_stack([
        radius * np.sin(theta) * np.cos(ang),
        radius * np.sin(theta) * np.sin(ang),
        np.full(POINTS_PER_RING, radius * np.cos(theta)),
    ])
    heights_north = np.where(np.arange(POINTS_PER_RING) % 2 == 0, 1.0, -1.0)
    south = -north
    heights_south = -heights_north
    return np.vstack([north, south]), np.concatenate([heights_north, heights_south])
