"""Piecewise-linear surface FEM: mass/stiffness assembly, point evaluation,
norms, and the direct saddle-point solver.

All operators are assembled triangle-wise on the polyhedral surface.  The
discrete Laplacian used for fourth-order terms is the lumped-mass
reconstruction ``lap(u) = -M_L^{-1} S u``.

Solver contract: x solving K x = b is accepted when its componentwise backward
error max_i |b - K x|_i / (|K| |x| + |b|)_i is at most ``BACKWARD_ERROR_BOUND``
(Oettli-Prager; Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
ed., Thm. 7.3): every row, hard constraint rows included, holds to its own
scale however large the fourth-order block grows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from .errors import GeometryError, RankDeficiencyError, SolverError
from .mesh import TriangleMesh, triangle_areas_normals

#: The one residual tolerance: it stops the refinement and is the contract.  The
#: point solves measure at most 5.5 eps after one refinement step at levels 2-6,
#: rising with the level; c_be = 64 is verified up to level 6.
BACKWARD_ERROR_BOUND = 64.0 * np.finfo(float).eps

#: A point farther than this fraction of the mesh radius from the surface
#: cannot be located on it.
LOCATE_TOL_REL = 0.05


def assemble_mass(mesh: TriangleMesh) -> sp.csr_matrix:
    """P1 mass matrix by exact per-triangle integration."""
    areas, _ = triangle_areas_normals(mesh)
    t = mesh.triangles
    n = mesh.num_vertices
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            vals.append(areas * ((2.0 if i == j else 1.0) / 12.0))
    m = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return m.tocsr()


def lumped_diagonal(mesh: TriangleMesh) -> np.ndarray:
    """Diagonal of the lumped mass matrix as a dense vector."""
    areas, _ = triangle_areas_normals(mesh)
    diag = np.zeros(mesh.num_vertices)
    for k in range(3):
        np.add.at(diag, mesh.triangles[:, k], areas / 3.0)
    return diag


def assemble_stiffness(mesh: TriangleMesh) -> sp.csr_matrix:
    """Cotangent stiffness: S_ij = integral of grad(chi_i) . grad(chi_j)."""
    areas, _ = triangle_areas_normals(mesh)
    t = mesh.triangles
    p = mesh.vertices[t]
    n = mesh.num_vertices
    rows, cols, vals = [], [], []
    # Edge opposite local vertex k connects the other two vertices; the
    # off-diagonal weight is -cot(angle at k)/2.
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        e1 = p[:, i] - p[:, k]
        e2 = p[:, j] - p[:, k]
        cot = np.einsum("ij,ij->i", e1, e2) / (2.0 * areas)
        w = 0.5 * cot
        rows.extend([t[:, i], t[:, j], t[:, i], t[:, j]])
        cols.extend([t[:, j], t[:, i], t[:, i], t[:, j]])
        vals.extend([-w, -w, w, w])
    s = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return s.tocsr()


def _closest_point_on_triangle(p: np.ndarray, a, b, c):
    """Closest point to p on triangle (a,b,c); returns (point, barycentric)."""
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = ab @ ap, ac @ ap
    if d1 <= 0 and d2 <= 0:
        return a, np.array([1.0, 0.0, 0.0])
    bp = p - b
    d3, d4 = ab @ bp, ac @ bp
    if d3 >= 0 and d4 <= d3:
        return b, np.array([0.0, 1.0, 0.0])
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        v = d1 / (d1 - d3)
        return a + v * ab, np.array([1.0 - v, v, 0.0])
    cp = p - c
    d5, d6 = ab @ cp, ac @ cp
    if d6 >= 0 and d5 <= d6:
        return c, np.array([0.0, 0.0, 1.0])
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        w = d2 / (d2 - d6)
        return a + w * ac, np.array([1.0 - w, 0.0, w])
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return b + w * (c - b), np.array([0.0, 1.0 - w, w])
    denom = va + vb + vc
    v = vb / denom
    w = vc / denom
    return a + v * ab + w * ac, np.array([1.0 - v - w, v, w])


class PointLocator:
    """Closest-point queries against a fixed mesh, KD-tree accelerated."""

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        self._centroids = mesh.vertices[mesh.triangles].mean(axis=1)
        self._tree = cKDTree(self._centroids)
        self._scale = mesh.radius_hint or float(np.max(np.linalg.norm(mesh.vertices, axis=1)))

    def locate(self, p) -> tuple[float, int, np.ndarray]:
        """Distance, triangle index and barycentric weights of the closest point."""
        p = np.asarray(p, dtype=float)
        k = min(32, self.mesh.num_triangles)
        _, cand = self._tree.query(p, k=k)
        best = None
        for ti in np.atleast_1d(cand):
            a, b, c = self.mesh.vertices[self.mesh.triangles[ti]]
            q, bary = _closest_point_on_triangle(p, a, b, c)
            d = np.linalg.norm(p - q)
            if best is None or d < best[0]:
                best = (d, int(ti), bary)
        return best

    def row(self, p) -> sp.csr_matrix:
        d, ti, bary = self.locate(p)
        if d > LOCATE_TOL_REL * self._scale:
            raise GeometryError(
                f"point {np.asarray(p).tolist()} is {d:.3g} from the surface "
                f"(tolerance {LOCATE_TOL_REL * self._scale:.3g})"
            )
        idx = self.mesh.triangles[ti]
        keep = bary > 1e-14
        return sp.csr_matrix(
            (bary[keep], (np.zeros(int(keep.sum()), dtype=int), idx[keep])),
            shape=(1, self.mesh.num_vertices),
        )


@dataclass
class SaddleSystem:
    """Symmetric block system [[A, B^T], [B, -diag(c)]] [x; lam] = [f; g].

    The compliance c (``None``: all zero) makes row i of B a hard constraint
    (B x)_i = g_i where c_i = 0, and a penalty |(B x - g)_i|^2 / (2 c_i) where
    c_i > 0, whose multiplier is the reaction lam_i = (B x - g)_i / c_i.
    """

    A: sp.spmatrix
    B: sp.spmatrix
    f: np.ndarray
    g: np.ndarray
    row_labels: list[str] | None = None
    compliance: np.ndarray | None = None


def _check_constraint_rank(B: sp.spmatrix, labels, compliance: np.ndarray) -> None:
    """Verify the hard rows of B (zero compliance) have full row rank; name the dependent ones."""
    rows = np.flatnonzero(compliance == 0)
    dense = B[rows].toarray()
    r = dense.shape[0]
    if r == 0:
        return
    # Column-pivoted QR of B^T exposes dependent rows through tiny pivots.
    _, rdiag, piv = scipy.linalg.qr(dense.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(rdiag))
    tol = max(dense.shape) * np.finfo(float).eps * (diag[0] if diag.size else 1.0)
    bad = [int(rows[piv[i]]) for i in range(r) if i >= diag.size or diag[i] <= tol]
    if bad:
        names = [labels[i] if labels else f"row {i}" for i in bad]
        raise RankDeficiencyError(
            f"constraint block is rank deficient; dependent rows: {names}", dependent_rows=bad
        )


#: Refinement steps a solve may take to meet ``BACKWARD_ERROR_BOUND``.
MAX_REFINE = 4


def factor_saddle(A: sp.spmatrix, B: sp.spmatrix, compliance: np.ndarray):
    """Assemble K = [[A, B^T], [B, -diag(c)]] in CSC format and factor it by sparse LU.

    Returns ``(K, lu)``; a failed factorization raises :class:`SolverError`.
    """
    r = B.shape[0]
    soft = np.flatnonzero(compliance)
    D = sp.csr_matrix((-compliance[soft], (soft, soft)), shape=(r, r))
    B = B.tocsr()
    K = sp.bmat([[A.tocsr(), B.T], [B, D]], format="csc")
    try:
        return K, spla.splu(K)
    except RuntimeError as exc:
        raise SolverError(f"sparse LU of the saddle system failed: {exc}") from exc


def _solve_refined(K: sp.csc_matrix, lu, rhs: np.ndarray) -> np.ndarray:
    """Solve K x = rhs with the LU of K, refined until the componentwise backward
    error meets ``BACKWARD_ERROR_BOUND``, else :class:`SolverError` after
    ``MAX_REFINE`` steps."""
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite solution (singular system)")
    absK = sp.csc_matrix((np.abs(K.data), K.indices, K.indptr), shape=K.shape)
    for step in range(MAX_REFINE + 1):
        r = rhs - K @ x
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero r_i counts 0, scale or not
            ratio = np.where(r == 0, 0.0, np.abs(r) / (absK @ np.abs(x) + np.abs(rhs)))
        omega = float(ratio.max())
        if omega <= BACKWARD_ERROR_BOUND:
            return x
        if step < MAX_REFINE:
            x = x + lu.solve(r)
    raise SolverError(
        f"backward error {omega:.3g} exceeds contract {BACKWARD_ERROR_BOUND:.3g} "
        f"after {MAX_REFINE} refinement steps"
    )


def solve_saddle(system: SaddleSystem) -> tuple[np.ndarray, np.ndarray]:
    """Solve the saddle system by one sparse direct factorization.

    Returns ``(x, lam)``.  The hard rows of B must have full row rank
    (:class:`RankDeficiencyError` names the dependent ones), and the solution
    of the assembled system K must meet the module's contract: componentwise
    backward error max_i |r_i| / (|K| |(x, lam)| + |(f, g)|)_i at most
    ``BACKWARD_ERROR_BOUND``, else :class:`SolverError` reports both.
    """
    B = system.B.tocsr()
    r = B.shape[0]
    c = np.zeros(r) if system.compliance is None else np.asarray(system.compliance, dtype=float)
    _check_constraint_rank(B, system.row_labels, c)
    K, lu = factor_saddle(system.A, B, c)
    rhs = np.concatenate([np.asarray(system.f, dtype=float), np.asarray(system.g, dtype=float)])
    sol = _solve_refined(K, lu, rhs)
    n = system.A.shape[0]
    return sol[:n], sol[n:]


def laplacian_apply(S: sp.spmatrix, m_lumped: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Lumped-mass Laplacian reconstruction lap(u) = -M_L^{-1} S u."""
    return -(S @ u) / m_lumped


def h2_norm(M: sp.spmatrix, S: sp.spmatrix, m_lumped: np.ndarray, u: np.ndarray) -> float:
    """Discrete H2 norm (L2 + H1-seminorm + reconstructed-Laplacian L2)."""
    lap = laplacian_apply(S, m_lumped, u)
    return float(np.sqrt(u @ (M @ u) + u @ (S @ u) + lap @ (M @ lap)))
