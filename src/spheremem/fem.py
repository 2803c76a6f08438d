"""Piecewise-linear surface FEM: mass/stiffness assembly, point evaluation,
norms, the direct saddle-point solver and the consistent-mass form.

All operators are assembled triangle-wise on the polyhedral surface: the
diagonal and upper entries of each triangle's symmetric 3x3 local matrix are
summed by ``np.bincount`` straight into the CSR pattern its connectivity owns
(``TriangleMesh.pattern``, derived once per connectivity and shared by every
displaced surface), and each lower entry copies its upper one, with no COO
triplets, sort or duplicate sum per assembly and no (m, 3, 3) or (m, 9)
temporary.  The discrete Laplacian used for
fourth-order terms is the lumped-mass reconstruction ``lap(u) = -M_L^{-1} S u``.

Solver contract: x solving K x = b is accepted when its componentwise backward
error max_i |b - K x|_i / (|K| |x| + |b|)_i is at most ``BACKWARD_ERROR_BOUND``
(Oettli-Prager; Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
ed., Thm. 7.3): every row, hard constraint rows included, holds to its own
scale however large the fourth-order block grows.  Every saddle matrix
K = [[A, B^T], [B, -diag(c)]] is a ``SaddleSystem``, the one code that knows
its layout: it applies K and |K| from the blocks, factors K by sparse LU in
SuperLU's symmetric mode, every column pivoting on its diagonal in a
nested-dissection order of the mesh graph (``nested_dissection``), and
refines the point solves against K to the contract.  The contract stops
there: the phase-field flow's step solves (``phasefield.FlowSolver.step``)
are one solve each on their LU, neither refined nor checked.  No caller needs
M^{-1} b itself, only the form b^T M^{-1} b; ``mass_inverse_form`` computes
it by conjugate gradients without a factorization (the lumped diagonal
preconditions M to condition number 4 at every h), to a relative error of at
most ``MASS_FORM_BOUND`` that its true residual certifies.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools, csgraph

from .errors import GeometryError, RankDeficiencyError, SolverError
from .mesh import TriangleMesh, _sides, triangle_centroids

#: The residual tolerance of the linear solves: it stops the refinement and is
#: the contract.  The point solves of the penalty studies of the three presets
#: (hard and delta = 1e-2 ... 1e-6), on diagonal pivots in nested-dissection
#: order, miss it unrefined (137 eps to 2.2e7 eps, growing with the level) and
#: meet it after one refinement step each, at 0.6-5.8 eps at levels 2-6 and
#: 1.6-14.6 eps at level 7 (polar_rings is a domain error at level 2).
#: c_be = 64 is verified up to level 7.
BACKWARD_ERROR_BOUND = 64.0 * np.finfo(float).eps

#: A point farther than this fraction of the mesh radius from the surface
#: cannot be located on it.
LOCATE_TOL_REL = 0.05


def _scatter(mesh: TriangleMesh, local: np.ndarray) -> sp.csr_matrix:
    """Sum the triangles' symmetric local matrices into the CSR pattern of
    ``mesh.pattern``.  ``local`` (m, 6) holds each triangle's local pairs
    (0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0).

    One bincount sums each diagonal entry and each edge's upper entry (i, j),
    i < j, over its triangles in triangle order; the lower entry (j, i) then
    takes the upper one's value, so the two agree bit for bit.
    """
    indptr, indices, slots = mesh.pattern
    keys = np.empty(local.shape, dtype=np.intp)
    for k in range(3):      # column by column: a strided (m, 3) view is slow to iterate
        keys[:, k] = slots[:, k]
        # An edge's (i, j) slot, in row i, precedes its (j, i) slot in row j > i.
        np.minimum(slots[:, 3 + k], slots[:, 6 + k], out=keys[:, 3 + k])
    data = np.bincount(keys.ravel(), weights=local.ravel(), minlength=indices.size)
    del keys
    upper, lower = np.empty(slots.shape[0], dtype=np.intp), np.empty(slots.shape[0], dtype=np.intp)
    for k in range(3):
        np.minimum(slots[:, 3 + k], slots[:, 6 + k], out=upper)
        np.maximum(slots[:, 3 + k], slots[:, 6 + k], out=lower)
        data[lower] = data[upper]
    n = mesh.num_vertices
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble_mass(mesh: TriangleMesh) -> sp.csr_matrix:
    """P1 mass matrix by exact per-triangle integration, scattered into the
    mesh's CSR pattern."""
    # area/6 on the three diagonal pairs, area/12 on the three edges
    return _scatter(mesh, np.multiply.outer(mesh.areas, np.repeat([2.0, 1.0], 3) / 12.0))


def lumped_diagonal(mesh: TriangleMesh) -> np.ndarray:
    """Diagonal of the lumped mass matrix as a dense vector."""
    diag = np.zeros(mesh.num_vertices)
    for k in range(3):
        np.add.at(diag, mesh.triangles[:, k], mesh.areas / 3.0)
    return diag


def assemble_stiffness(mesh: TriangleMesh) -> sp.csr_matrix:
    """Cotangent stiffness: S_ij = integral of grad(chi_i) . grad(chi_j),
    scattered into the mesh's CSR pattern."""
    quarter = 4.0 * mesh.areas
    e = tuple(_sides(mesh, ((0, 1), (1, 2), (2, 0))))   # e_k runs from k to k + 1
    local = np.empty((mesh.num_triangles, 6))
    # Edge k, the pair (k, k + 1), faces the angle at vertex k + 2, whose cotangent
    # is -e_{k+1} . e_{k+2} / (2 area); its off-diagonal weight is -cot/2, and
    # a diagonal entry is minus the weights of the two edges at its vertex.
    for k in range(3):
        local[:, 3 + k] = np.einsum("ij,ij->i", e[(k + 1) % 3], e[(k + 2) % 3]) / quarter
    del e, quarter
    for k in range(3):
        local[:, k] = -(local[:, 3 + k] + local[:, 3 + (k + 2) % 3])
    return _scatter(mesh, local)


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
    """Closest-point queries against a fixed mesh, trying the 32 triangles with
    the nearest centroids in order of distance, then of index."""

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        self._centroids = triangle_centroids(mesh)
        self._scale = mesh.radius_hint or float(np.max(np.linalg.norm(mesh.vertices, axis=1)))

    def locate(self, p) -> tuple[float, int, np.ndarray]:
        """Distance, triangle index and barycentric weights of the closest point."""
        p = np.asarray(p, dtype=float)
        k = min(32, self.mesh.num_triangles)
        d2 = np.sum((self._centroids - p) ** 2, axis=1)
        cand = np.argpartition(d2, k - 1)[:k]
        best = None
        for ti in cand[np.lexsort((cand, d2[cand]))]:
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
        names = [labels[i] for i in bad]
        raise RankDeficiencyError(
            f"constraint block is rank deficient; dependent rows: {names}", dependent_rows=bad
        )


#: A part of at most this many vertices is a leaf of the dissection: it is
#: numbered as it comes, not cut further.
ND_LEAF_SIZE = 32


def nested_dissection(A: sp.spmatrix) -> np.ndarray:
    """A nested-dissection order of the graph of the sparse matrix A + A^T
    (George, SIAM J. Numer. Anal. 10 (1973) 345; George & Liu, *Computer
    Solution of Large Sparse Positive Definite Systems*, 1981, ch. 8).

    Each connected part of more than ``ND_LEAF_SIZE`` vertices is cut at a
    level of its breadth-first level structure, rooted at the last vertex a
    search from the part's first vertex reaches.  The cut level holds the
    part's median vertex (but is never its last level), and the separator
    keeps only those of its vertices with a neighbour beyond it.  The parts
    of one dissection level are cut together: each search runs over their
    disjoint union.  The order numbers every part contiguously, the parts of
    deeper levels first, so each separator follows the parts it separates.
    It depends only on the pattern of A.
    """
    n = A.shape[0]
    A = sp.csr_matrix(A)
    graph = sp.csr_matrix((np.ones(A.indices.size), A.indices, A.indptr), shape=(n, n))
    graph = (graph + graph.T).tocsr()
    part = np.empty(n, dtype=np.intp)    # the part or separator a vertex is numbered in
    depth = np.empty(n, dtype=np.intp)   # the dissection level that numbers it
    active = np.arange(n)
    parts = level = 0
    while active.size:
        sub = graph[active][:, active]
        count, comp = csgraph.connected_components(sub, directed=False)
        _, first, size = np.unique(comp, return_index=True, return_counts=True)
        part[active] = parts + comp
        depth[active] = level
        parts += count
        start = np.cumsum(size) - size
        # Sorted by part, then by level; the last vertex of a part is its farthest.
        dist = csgraph.dijkstra(sub, indices=first, unweighted=True, min_only=True)
        root = np.lexsort((dist, comp))[start + size - 1]
        dist = csgraph.dijkstra(sub, indices=root, unweighted=True, min_only=True)
        by_level = np.lexsort((dist, comp))
        cut = np.clip(dist[by_level[start + size // 2]], 0, dist[by_level[start + size - 1]] - 1)
        beyond = dist - cut[comp]
        cuts = size[comp] > ND_LEAF_SIZE
        separator = cuts & (beyond == 0) & (sub @ (beyond == 1).astype(float) > 0)
        active = active[cuts & ~separator]
        level += 1
    return np.lexsort((part, -depth))


class _PermutedLU:
    """The sparse LU ``lu`` of P K P^T, whose ``solve`` solves K x = b (b one
    column or several); P numbers the unknowns of A in ``order``, then the
    rows of B."""

    def __init__(self, lu, order: np.ndarray, perm: np.ndarray):
        self.lu, self.order, self.perm = lu, order, perm

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self.lu.solve(np.asarray(b)[self.perm])
        x = np.empty_like(y)
        x[self.perm] = y
        return x


#: Refinement steps a solve may take to meet ``BACKWARD_ERROR_BOUND``.
MAX_REFINE = 4


def _saddle_product(A, B, d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[[A, B^T], [B, diag(d)]] x."""
    n = A.shape[0]
    return np.concatenate([A @ x[:n] + B.T @ x[n:], B @ x[:n] + d * x[n:]])


def _backward_error(r: np.ndarray, scale: np.ndarray) -> float:
    """max_i |r_i| / scale_i, where a zero r_i counts 0 whatever its scale."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(r == 0, 0.0, np.abs(r) / scale).max())


class SaddleSystem:
    """The saddle matrix K(c) = [[A, B^T], [B, -diag(c)]] of a symmetric block
    A and constraint rows B, for a compliance c >= 0: row i of B is a hard
    constraint where c_i = 0 and a penalty of compliance c_i where c_i > 0."""

    def __init__(self, A: sp.spmatrix, B: sp.spmatrix):
        self.A, self.B = A, B.tocsr()
        self._abs = None

    def apply(self, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        """K(c) x."""
        return _saddle_product(self.A, self.B, -c, x)

    def apply_abs(self, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        """|K(c)| x; |A| and |B| are formed on the first call and kept."""
        if self._abs is None:
            self._abs = abs(self.A), abs(self.B)
        return _saddle_product(*self._abs, c, x)

    def factor(self, c: np.ndarray, order: np.ndarray | None = None) -> _PermutedLU:
        """The LU of K(c) by SuperLU in its symmetric mode, the unknowns of A
        in the order ``order`` (:func:`nested_dissection` of A when None; a
        caller that factors several matrices of one pattern orders it once),
        the rows of B last, with diagonal pivot threshold 0 (Li, ACM TOMS 31
        (2005) 302): a column leaves its diagonal only where that entry is
        exactly zero or absent, and refinement against K (:meth:`solve`)
        answers for the accuracy.  Nested dissection suits the symmetric K of
        a surface mesh: A_C = [[A, C^T], [C, 0]] has 0.49 M, 2.6 M and 12.9 M
        L+U entries at levels 4-6, against 0.71 M, 3.76 M and 22.0 M ordered
        by COLAMD, which minimizes the fill of K^T K instead.

        Returns the LU, whose ``solve`` solves with K and whose ``order`` is
        the order of A used; a failed factorization raises :class:`SolverError`.
        """
        A, B = self.A, self.B
        order = nested_dissection(A) if order is None else order
        perm = np.concatenate([order, A.shape[0] + np.arange(B.shape[0])])
        permuted = sp.bmat([[A, B.T], [B, sp.diags(-c)]], format="csc")[perm][:, perm]
        try:
            lu = spla.splu(permuted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError(f"sparse LU of the saddle system failed: {exc}") from exc
        return _PermutedLU(lu, order, perm)

    def solve(self, c: np.ndarray, rhs: np.ndarray, inner) -> np.ndarray:
        """x with K(c) x = rhs by the inner solve ``inner`` (r -> K(c)^{-1} r up
        to roundoff, by a factorization), refined against K(c) until the
        componentwise backward error max_i |r_i| / (|K| |x| + |rhs|)_i meets
        ``BACKWARD_ERROR_BOUND``, else :class:`SolverError` after
        ``MAX_REFINE`` steps."""
        x = inner(rhs)
        if not np.all(np.isfinite(x)):
            raise SolverError("inner solve produced a non-finite solution (singular system)")
        for step in range(MAX_REFINE + 1):
            r = rhs - self.apply(c, x)
            omega = _backward_error(r, self.apply_abs(c, np.abs(x)) + np.abs(rhs))
            if omega <= BACKWARD_ERROR_BOUND:
                return x
            if step < MAX_REFINE:
                x = x + inner(r)
        raise SolverError(
            f"backward error {omega:.3g} exceeds contract {BACKWARD_ERROR_BOUND:.3g} "
            f"after {MAX_REFINE} refinement steps"
        )


def solve_saddle(
    A: sp.spmatrix, B: sp.spmatrix, f: np.ndarray, g: np.ndarray,
    compliance: np.ndarray, labels: list[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Solve K [x; lam] = [f; g], K = [[A, B^T], [B, -diag(c)]] the
    :class:`SaddleSystem` of compliance c, by its LU refined to the contract.

    Returns ``(x, lam)``; where c_i > 0 the multiplier is the reaction lam_i
    = (B x - g)_i / c_i, and ``labels`` names the rows of B.  The hard rows of
    B must have full row rank (:class:`RankDeficiencyError` names the
    dependent ones).  No solve path of the package calls it: the tests take it
    as their reference solve of one whole K, and the benchmark traces it by
    name.
    """
    system, c = SaddleSystem(A, B), np.asarray(compliance, dtype=float)
    _check_constraint_rank(system.B, labels, c)
    sol = system.solve(c, np.concatenate([f, g], dtype=float), system.factor(c).solve)
    return sol[:A.shape[0]], sol[A.shape[0]:]


#: The certified relative error of a consistent-mass form b^T M^{-1} b
#: (``mass_inverse_form``).
MASS_FORM_BOUND = 2.0 * np.finfo(float).eps

#: CG steps one consistent-mass form may take.  Preconditioned by its row sums
#: D (the lumped mass M_L), a P1 mass matrix has its spectrum in [1/4, 1] on any
#: triangle mesh (Wathen, IMA J. Numer. Anal. 7 (1987) 449): condition number
#: at most 4, so by the Chebyshev bound CG's energy error after k steps is at
#: most 4 * 9^-k b^T M^{-1} b whatever h is, and the stop test of
#: ``mass_inverse_form`` holds after 18 steps at the latest.  The Taylor check
#: of z^2 - 1/3 stops after 13-14 steps at levels 3-6.
MASS_CG_MAXITER = 40


def _matvec_into(M: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """M @ x for a CSR matrix M, written into ``out`` and returned, to the bits
    of ``M @ x``.

    SciPy forms ``M @ x`` by its kernel ``_sparsetools.csr_matvec`` into a
    zeroed vector; it has no public product into a given array, and the kernel
    adds into its output, so ``out`` is zeroed first.
    """
    out.fill(0.0)
    _sparsetools.csr_matvec(M.shape[0], M.shape[1], M.indptr, M.indices, M.data, x, out)
    return out


def mass_inverse_form(M: sp.spmatrix, b: np.ndarray) -> float:
    """b^T M^{-1} b for a P1 mass matrix M and one vector b, to a certified
    relative error of at most ``MASS_FORM_BOUND``, by conjugate gradients
    preconditioned with the row sums D of M, from x = 0.

    For any x with residual r = b - M x, the value v = b^T x + r^T x falls
    short of b^T M^{-1} b by exactly r^T M^{-1} r, the squared M-norm of the
    error, and D^{-1} M has its spectrum in [1/4, 1], so 0 <= b^T M^{-1} b - v
    <= 4 r^T D^{-1} r (Strakos & Tichy, ETNA 13 (2002) 56).  CG forms
    r^T D^{-1} r = r^T z in each step, and b^T x as the sum of alpha r^T z
    over its steps; it stops once 4 r^T z <= (``MASS_FORM_BOUND`` / 2) b^T x.
    The bound is then certified on the true residual r = b - M x: v is
    returned if 4 r^T D^{-1} r <= ``MASS_FORM_BOUND`` v, else
    :class:`SolverError` names the bound.

    The CG runs in place in four vectors: x, r, p and w, which takes the
    product M p and then z = r / D.  Every product with M is written into w
    by ``_matvec_into``: one per step and one for the true residual.
    """
    M = M.tocsr()
    d = np.asarray(M.sum(axis=1)).ravel()
    b = np.asarray(b, dtype=float)
    x, r, p, w = np.zeros((4, M.shape[0]))
    np.copyto(r, b)
    np.divide(r, d, out=p)
    rz, bx = r @ p, 0.0
    steps = 0
    while steps < MASS_CG_MAXITER and not 4.0 * rz <= 0.5 * MASS_FORM_BOUND * bx:
        _matvec_into(M, p, w)
        alpha = rz / (p @ w)
        bx += alpha * rz
        np.multiply(w, alpha, out=w)
        np.subtract(r, w, out=r)
        np.multiply(p, alpha, out=w)
        np.add(x, w, out=x)
        np.divide(r, d, out=w)
        rz, rz_prev = r @ w, rz
        np.multiply(p, rz / rz_prev, out=p)
        np.add(p, w, out=p)
        steps += 1
    np.subtract(b, _matvec_into(M, x, w), out=r)
    value = x @ np.add(b, r, out=w)     # b may be strided: its own dots sum less exactly
    bound = 4.0 * (r @ np.divide(r, d, out=w))
    if not bound <= MASS_FORM_BOUND * value:
        raise SolverError(
            f"consistent-mass form: error bound 4 r^T D^-1 r = {bound:.3g} exceeds "
            f"MASS_FORM_BOUND = {MASS_FORM_BOUND:.3g} times the form {value:.3g} "
            f"after {steps} CG steps (MASS_CG_MAXITER = {MASS_CG_MAXITER})"
        )
    return float(value)


def laplacian_apply(S: sp.spmatrix, m_lumped: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Lumped-mass Laplacian reconstruction lap(u) = -M_L^{-1} S u."""
    return -(S @ u) / m_lumped


def h2_norm(M: sp.spmatrix, S: sp.spmatrix, m_lumped: np.ndarray, u: np.ndarray) -> float:
    """Discrete H2 norm (L2 + H1-seminorm + reconstructed-Laplacian L2)."""
    lap = laplacian_apply(S, m_lumped, u)
    return float(np.sqrt(u @ (M @ u) + u @ (S @ u) + lap @ (M @ lap)))
