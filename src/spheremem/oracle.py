"""Nonlinear geometry oracle: full bending/area/volume energies on perturbed
meshes, and the finite-difference consistency check of the quadratic model.

The oracle only evaluates energies at finitely many perturbation amplitudes,
each surface once (the base sphere, then one perturbed mesh per amplitude);
derivative information is extracted by log-log slopes, keeping it independent
of the assembled quadratic form it validates.  Each surface is measured by one
pass over its triangle corners (``mesh._measure_triangles``), which yields
its S and M, its area and its volume together; the base sphere's pass is the
form's assembly.

Two curvature reconstructions are supported.  ``lumped`` solves the weak
identity with the lumped mass matrix and projects onto vertex normals (the
package default).  ``consistent`` keeps the full mean-curvature vector paired
with the consistent mass matrix: its energy 1/2 sum_k (S X_k)^T M^{-1} (S X_k)
takes one form per coordinate from one call of ``fem.mass_inverse_form``
(preconditioned CG to a certified relative error, no factorization).  Its bending energy is
structurally aligned with the consistent-reconstruction variant of the
quadratic form and has a markedly smaller quadratic-order consistency
mismatch, which the Taylor check needs to expose the cubic remainder at
practical resolutions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError, check_finite
from .fem import assemble_mass, assemble_stiffness, lumped_diagonal, mass_inverse_form
from .mesh import TriangleMesh, mesh_stats, vertex_normals
from .model import ModelParams, QuadraticForm, quadratic_lagrangian

RECONSTRUCTIONS = ("lumped", "consistent")

#: Log-log residual slope at or above which the Taylor check is "converged".
SLOPE_CONTRACT = 2.7


@dataclass(frozen=True)
class EnergyBreakdown:
    willmore: float
    area: float
    volume: float
    helfrich: float
    lagrangian: float


def perturb(mesh: TriangleMesh, u: np.ndarray, rho: float) -> TriangleMesh:
    """Normal-graph deformation x -> x + rho u(x) x/R of a sphere mesh."""
    if mesh.radius_hint is None:
        raise ParameterError("perturb requires a sphere mesh with radius_hint")
    u = np.asarray(u, dtype=float)
    if u.shape[0] != mesh.num_vertices:
        raise ParameterError("field length does not match mesh vertex count")
    check_finite(u=u, rho=rho)
    R = mesh.radius_hint
    if abs(rho) * float(np.max(np.abs(u))) >= R:
        raise GeometryError("perturbation amplitude reaches the origin (rho*max|u| >= R)")
    moved = mesh.vertices / R       # nu, then x + (rho u) nu in place
    moved *= (rho * u)[:, None]
    moved += mesh.vertices
    return mesh.moved(moved)


def _check_reconstruction(reconstruction: str) -> None:
    if reconstruction not in RECONSTRUCTIONS:
        raise ParameterError(f"unknown reconstruction {reconstruction!r}; use one of {RECONSTRUCTIONS}")


def _weak_identity(mesh: TriangleMesh) -> np.ndarray:
    """S X, the right side of the weak identity M Hvec = S X, S the mesh's
    stiffness matrix."""
    return assemble_stiffness(mesh) @ mesh.vertices


def discrete_mean_curvature(mesh: TriangleMesh) -> np.ndarray:
    """Nodal mean curvature (sum of principal curvatures convention).

    Weak identity: M_L Hvec = S X per coordinate, then H = Hvec . nu with nu
    the area-weighted vertex normal; H = 2/R > 0 on the sphere.
    """
    hvec = _weak_identity(mesh) / lumped_diagonal(mesh)[:, None]
    nu = vertex_normals(mesh)
    return np.einsum("ij,ij->i", hvec, nu)


def willmore_energy(mesh: TriangleMesh, reconstruction: str = "lumped") -> float:
    """Discrete Willmore energy int 1/2 H^2; equals 8*pi + O(h^2) on spheres.

    In lumped mode this is the vertex quadrature of the squared
    :func:`discrete_mean_curvature`; in consistent mode it is
    1/2 X^T S M^{-1} S X, i.e. the squared mean-curvature vector in the
    consistent L2 pairing.
    """
    _check_reconstruction(reconstruction)
    if reconstruction == "lumped":
        H = discrete_mean_curvature(mesh)
        return float(0.5 * (H * H) @ lumped_diagonal(mesh))
    return float(0.5 * sum(mass_inverse_form(assemble_mass(mesh), _weak_identity(mesh))))


def energies(
    mesh: TriangleMesh,
    params: ModelParams,
    lam: float | None = None,
    V0: float | None = None,
    reconstruction: str = "lumped",
) -> EnergyBreakdown:
    """Willmore, area, volume, Helfrich energy and volume-Lagrangian.

    Defaults: lam = lambda0 of the params, V0 = exact sphere volume.  The
    connectivity must be closed (:func:`~spheremem.mesh.validate_closed`).
    """
    willmore = willmore_energy(mesh, reconstruction)
    if lam is None:
        lam = params.lambda0
    if V0 is None:
        V0 = 4.0 / 3.0 * np.pi * params.R**3
    stats = mesh_stats(mesh)
    helfrich = params.kappa * willmore + params.sigma * stats.total_area
    lagrangian = helfrich + lam * (stats.enclosed_volume - V0)
    return EnergyBreakdown(
        willmore=willmore,
        area=stats.total_area,
        volume=stats.enclosed_volume,
        helfrich=helfrich,
        lagrangian=lagrangian,
    )


@dataclass
class TaylorReport:
    rhos: list[float]
    lagrangians: list[float]
    residuals: list[float]
    running_slopes: list[float]     # slope fitted over the first k+1 points
    slope: float
    discretization_floor: float     # |discrete base Lagrangian - exact value|
    status: str                     # "converged" | "floor-limited" | "failed"


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    mask = y > 0
    if mask.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)[0])


def taylor_consistency(
    form: QuadraticForm,
    u: np.ndarray,
    mu: float,
    rho_list=(0.1, 0.05, 0.025, 0.0125),
    reconstruction: str = "lumped",
) -> TaylorReport:
    """Check that the nonlinear Lagrangian minus its quadratic model is O(rho^3).

    Evaluates r(rho) = L_full(Gamma_rho(u), lambda0 + mu*rho)
    - L_full(Gamma_0, lambda0) - rho^2 L(u, mu) on the form's mesh and fits
    the log-log slope of |r| against rho.  V0 is the discrete base volume so
    the base volume term vanishes identically: the base Lagrangian is the base
    Helfrich energy.  The quadratic value L(u, mu) is evaluated with the
    reconstruction matching the oracle's.  ``rho_list`` needs at least two
    values, all positive and none repeated.
    """
    _check_reconstruction(reconstruction)
    check_finite(mu=mu)
    rhos = sorted((float(r) for r in rho_list), reverse=True)
    if len(rhos) < 2 or len(set(rhos)) < len(rhos) or not all(r > 0 for r in rhos):
        raise ParameterError(
            f"rho_list needs at least two positive values, none repeated, got {rhos}")
    params = form.params
    mesh = form.mesh
    u = np.asarray(u, dtype=float)
    if abs(form.c0(u)) > 1e-8 * form.area * float(np.max(np.abs(u)) + 1.0):
        raise ParameterError("taylor_consistency requires a mean-zero field (c0(u) = 0)")
    # The base sphere is the form's mesh, whose pass the assembly took: the S and
    # M its energies read are the form's own arrays.
    base = energies(mesh, params, reconstruction=reconstruction)
    V0 = base.volume
    lam0 = params.lambda0
    if reconstruction == "lumped":
        quad = quadratic_lagrangian(u, mu, form)
    else:
        quad = 0.5 * form.evaluate_consistent(u) + mu * form.c0(u)
    exact_base = 8.0 * np.pi * params.kappa + params.sigma * 4.0 * np.pi * params.R**2
    floor = abs(base.helfrich - exact_base)

    lags, residuals, running = [], [], []
    for rho in rhos:
        e = energies(perturb(mesh, u, rho), params, lam=lam0 + mu * rho, V0=V0,
                     reconstruction=reconstruction)
        lags.append(e.lagrangian)
        residuals.append(e.lagrangian - base.helfrich - rho**2 * quad)
        k = len(residuals)
        running.append(
            _loglog_slope(np.array(rhos[:k]), np.abs(np.array(residuals[:k])))
            if k >= 2 else float("nan")
        )
    slope = _loglog_slope(np.array(rhos), np.abs(np.array(residuals)))
    res_floor = float(np.min(np.abs(residuals)))
    if np.isfinite(slope) and slope >= SLOPE_CONTRACT:
        status = "converged"
    elif res_floor <= floor:
        status = "floor-limited"
    else:
        status = "failed"
    return TaylorReport(
        rhos=rhos,
        lagrangians=lags,
        residuals=residuals,
        running_slopes=running,
        slope=slope,
        discretization_floor=floor,
        status=status,
    )
