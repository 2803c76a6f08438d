"""Quadratic bending model on the discrete sphere.

Assembles the symmetric operator realizing

    a(u,v) = int( kappa lap(u) lap(v)
                  + (sigma - 2 kappa/R^2) grad(u).grad(v)
                  - (2 sigma/R^2) u v )

with the biharmonic part built from the lumped-mass Laplacian
reconstruction, together with the four mass-weighted constraint rows
(1, .) and (nu_i, .) that span the degenerate directions.  The assembly takes
M and S from the mesh's one pass over its triangle corners, then forms M_L and
the constraint rows; the sparse operator A of the form is built on its first
use, so a run that never reads it (the consistent Taylor check) never forms it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, SolverError, check_finite
from .fem import assemble_mass, assemble_stiffness, lumped_diagonal, mass_inverse_form
from .mesh import TriangleMesh


@dataclass(frozen=True)
class ModelParams:
    """Bending rigidity, surface tension and reference radius."""

    kappa: float
    sigma: float
    R: float

    def __post_init__(self):
        check_finite(kappa=self.kappa, sigma=self.sigma, R=self.R)
        if self.kappa <= 0:
            raise ParameterError(f"kappa must be positive, got {self.kappa}")
        if self.sigma < 0:
            raise ParameterError(f"sigma must be nonnegative, got {self.sigma}")
        if self.R <= 0:
            raise ParameterError(f"R must be positive, got {self.R}")

    @property
    def lambda0(self) -> float:
        """Volume multiplier at which the sphere is a critical point."""
        return -2.0 * self.sigma / self.R


def constraint_rows(mesh: TriangleMesh, M: sp.spmatrix) -> sp.csr_matrix:
    """Rows c0 = (1, .) and c_i = (nu_i, .) with nu = x/R at the vertices, M
    the mesh's mass matrix."""
    if mesh.radius_hint is None:
        raise ParameterError("constraint rows require a sphere mesh with radius_hint")
    n = mesh.num_vertices
    nu = mesh.vertices / mesh.radius_hint
    rows = [np.ones(n), nu[:, 0], nu[:, 1], nu[:, 2]]
    return sp.csr_matrix(np.vstack([M @ r for r in rows]))


@dataclass
class QuadraticForm:
    """Assembled quadratic form with its FEM operators and constraints.

    The operator ``A`` is built by :func:`_bending_operator` on first use and
    kept; M, S, the lumped diagonal and the constraint rows are assembled.
    """

    mesh: TriangleMesh
    params: ModelParams
    M: sp.csr_matrix
    S: sp.csr_matrix
    m_lumped: np.ndarray
    constraints: sp.csr_matrix    # 4 x n: rows c0, c1, c2, c3

    @cached_property
    def A(self) -> sp.csr_matrix:
        """The sparse operator of a(.,.), lumped reconstruction."""
        return _bending_operator(self.params, self.M, self.S, self.m_lumped)

    def evaluate(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(u @ (self.A @ v))

    def c0(self, u: np.ndarray) -> float:
        return float((self.constraints[0] @ u)[0])

    def evaluate_consistent(self, u: np.ndarray) -> float:
        """a(u,u) with the consistent-mass Laplacian reconstruction, whose
        biharmonic part (S u)^T M^{-1} (S u) is ``fem.mass_inverse_form``.

        Evaluation-only alternative for convergence comparisons; the sparse
        operator ``A`` always uses the lumped reconstruction.
        """
        p = self.params
        R2 = p.R**2
        su = self.S @ u
        return (
            p.kappa * mass_inverse_form(self.M, su)
            + (p.sigma - 2.0 * p.kappa / R2) * float(u @ su)
            - (2.0 * p.sigma / R2) * float(u @ (self.M @ u))
        )

    @property
    def area(self) -> float:
        return float(self.m_lumped.sum())

    def normal_modes(self) -> np.ndarray:
        """Vertex values of the kernel candidates 1, nu1, nu2, nu3 (4 x n)."""
        nu = self.mesh.vertices / self.params.R
        return np.vstack([np.ones(self.mesh.num_vertices), nu.T])


def _symmetrized(A: sp.spmatrix) -> sp.csr_matrix:
    """(A + A^T) / 2 in CSR format with sorted indices, bit for bit
    ``((A + A.T) * 0.5).tocsr()``, for an A whose pattern is symmetric (the
    bending operator's always is); any other A raises :class:`SolverError`.

    Each entry a_ij + a_ji is summed in place into the CSR copy of A from the
    sorted CSC arrays of A, which are the CSR arrays of A^T; exact zeros are
    dropped, as a sparse sum drops them.
    """
    A = A.tocsc()
    A.sort_indices()
    sym = A.tocsr()
    if not (np.array_equal(sym.indptr, A.indptr) and np.array_equal(sym.indices, A.indices)):
        raise SolverError("the bending operator's sparsity pattern is not symmetric")
    sym.data += A.data
    del A
    sym.eliminate_zeros()
    sym.data *= 0.5
    return sym


def _bending_operator(params: ModelParams, M: sp.csr_matrix, S: sp.csr_matrix,
                      mL: np.ndarray) -> sp.csr_matrix:
    """A = kappa S^T M_L^-1 S + (sigma - 2 kappa/R^2) S - (2 sigma/R^2) M, exactly
    symmetric; the one builder of ``QuadraticForm.A``."""
    R2 = params.R**2
    # Rebound at each step so that no intermediate outlives the next one.
    A = S.T @ sp.diags(1.0 / mL) @ S
    A.data *= params.kappa
    A = A + (params.sigma - 2.0 * params.kappa / R2) * S
    A = A - (2.0 * params.sigma / R2) * M
    return _symmetrized(A)   # exact symmetry despite roundoff


def assemble_quadratic_form(mesh: TriangleMesh, params: ModelParams) -> QuadraticForm:
    """Assemble a(.,.) and the constraint rows on a sphere mesh; its operator
    ``A`` is built on first use.

    The mesh radius must match ``params.R``.
    """
    if mesh.radius_hint is None or abs(mesh.radius_hint - params.R) > 1e-9 * params.R:
        raise ParameterError(
            f"mesh radius {mesh.radius_hint} does not match model radius {params.R}"
        )
    M = assemble_mass(mesh)
    S = assemble_stiffness(mesh)
    mL = lumped_diagonal(mesh)
    C = constraint_rows(mesh, M)
    return QuadraticForm(mesh=mesh, params=params, M=M, S=S, m_lumped=mL, constraints=C)


def quadratic_lagrangian(u: np.ndarray, mu: float, form: QuadraticForm) -> float:
    """L(u, mu) = 1/2 a(u,u) + mu (u, 1)."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != form.mesh.num_vertices:
        raise ParameterError("field length does not match mesh vertex count")
    return 0.5 * form.evaluate(u, u) + mu * form.c0(u)
