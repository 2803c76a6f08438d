"""Piecewise-linear surface FEM: mass/stiffness assembly, point evaluation at
the radial lift onto the icosphere (``PointLocator``), norms, the direct
saddle-point solver and the consistent-mass form.

All operators are assembled triangle-wise on the polyhedral surface.  M and
S come from the one pass over the surface's corners that also measures its
areas, normals and volume (``mesh._measure_triangles``): the diagonal and
upper entries of each triangle's symmetric 3x3 local matrices are summed by
``np.bincount`` straight into the CSR pattern its connectivity owns
(``TriangleMesh.pattern``, derived once per connectivity and shared by every
displaced surface), both matrices through one set of scatter keys, and each
lower entry copies its upper one; ``assemble_mass`` and ``assemble_stiffness``
wrap the data the mesh keeps.  The discrete Laplacian used for fourth-order
terms is the lumped-mass reconstruction ``lap(u) = -M_L^{-1} S u``.

Solver contract: x solving K x = b is accepted when its componentwise backward
error max_i |b - K x|_i / (|K| |x| + |b|)_i is at most ``BACKWARD_ERROR_BOUND``
(Oettli-Prager; Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
ed., Thm. 7.3): every row, hard constraint rows included, holds to its own
scale however large the fourth-order block grows.  Every saddle matrix
K = [[A, B^T], [B, -diag(c)]] is a ``SaddleSystem``, the one code that knows
its layout: it applies K and |K| from the blocks and refines the point solves
against K to the contract.  On the icosphere every saddle matrix of the
program is invariant under the antipodal map x -> -x (``mesh.antipodal_map``),
and ``SaddleSystem.factor`` takes its LU as that of its even and odd halves:
one block-diagonal SuperLU factor of the same size in SuperLU's symmetric
mode, every column pivoting on its diagonal in a nested-dissection order
(``nested_dissection``) of the folded mesh graph.  The points' A_C has
0.44 M, 2.42 M and 12.3 M L+U entries at levels 4-6, the level-4 flow
operator 1.15 M.  ``solve_saddle``, the tests' reference, factors the whole
K by SuperLU's defaults instead.  The contract stops there: the phase-field
flow's step solves (``phasefield.FlowSolver.step``) are one solve each on
their LU, neither refined nor checked.  No caller needs
M^{-1} b itself, only the form b^T M^{-1} b; ``mass_inverse_form`` computes
it by conjugate gradients without a factorization (the lumped diagonal
preconditions M to condition number 4 at every h), to a relative error of at
most ``MASS_FORM_BOUND`` that its true residual certifies, the forms of
several vectors with one preconditioner and one set of CG vectors.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools, csgraph

from .errors import GeometryError, RankDeficiencyError, SolverError
from .mesh import TriangleMesh, icosphere_level, subdivision_corners

#: The residual tolerance of the linear solves: it stops the refinement and is
#: the contract.  The point solves of the penalty studies of the three presets
#: (hard and delta = 1e-2 ... 1e-6), on the split LU of ``SaddleSystem.factor``
#: (diagonal pivots, nested-dissection order), miss it unrefined (69 eps to
#: 1.7e7 eps, growing with the level) and meet it after one refinement step
#: each, at 0.7-12.1 eps at levels 2-6 and 1.6-17.0 eps at level 7; only the
#: icosahedron's solves at levels 2 and 3 meet it unrefined, at 38-57 eps
#: (polar_rings is a domain error at level 2).  c_be = 64 is verified up to
#: level 7.
BACKWARD_ERROR_BOUND = 64.0 * np.finfo(float).eps

#: A point farther than this fraction of the radius from the sphere cannot be
#: located on it.
LOCATE_TOL_REL = 0.05


def _pattern_matrix(mesh: TriangleMesh, data: np.ndarray) -> sp.csr_matrix:
    """The CSR matrix of ``data`` in the mesh's P1 pattern."""
    indptr, indices = mesh.pattern[:2]
    n = mesh.num_vertices
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble_mass(mesh: TriangleMesh) -> sp.csr_matrix:
    """P1 mass matrix by exact per-triangle integration (area/6 on the diagonal
    pairs, area/12 on the edges), as the mesh's pass scattered it."""
    return _pattern_matrix(mesh, mesh._geometry.mass)


def lumped_diagonal(mesh: TriangleMesh) -> np.ndarray:
    """Diagonal of the lumped mass matrix as a dense vector."""
    diag = np.zeros(mesh.num_vertices)
    third = mesh.areas / 3.0
    for k in range(3):
        np.add.at(diag, mesh.triangles[:, k], third)
    return diag


def assemble_stiffness(mesh: TriangleMesh) -> sp.csr_matrix:
    """Cotangent stiffness: S_ij = integral of grad(chi_i) . grad(chi_j), as
    the mesh's pass scattered it."""
    return _pattern_matrix(mesh, mesh._geometry.stiffness)


def _opposite_determinants(corners: np.ndarray, p: np.ndarray) -> np.ndarray:
    """det[y, z, p] of the edge (y, z) opposite each corner of the triangles
    ``corners`` (..., 3, 3), taken as y . ((z - y) x (p - y)): exactly 0 when p
    is y or z, so a point at a corner gets that corner's weight exactly 1."""
    y, z = np.roll(corners, -1, axis=-2), np.roll(corners, -2, axis=-2)
    return np.einsum("...i,...i", y, np.cross(z - y, p[..., None, :] - y))


class PointLocator:
    """Point functionals on an icosphere at the radial lift x -> R x / |x|, the
    lift of surface FEM on the sphere (Dziuk & Elliott, *Acta Numerica* 22
    (2013) 289): a point's row is the P1 value where its ray meets the flat
    triangle whose cone holds it, the weights its determinants normalized.

    The search descends the subdivision (``mesh._subdivide``): the children
    4t ... 4t+3 of a triangle t tile its cone, since each midpoint lies on the
    great arc of its edge, and ``mesh.subdivision_corners`` reads the corners
    of each level's triangles off the finest ones.  From the 20 icosahedron faces,
    each level keeps the child whose smallest determinant is largest.  A point
    on a shared edge or vertex may land in either triangle.
    """

    def __init__(self, mesh: TriangleMesh):
        self.mesh, self.level = mesh, icosphere_level(mesh)

    def locate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Triangle indices (k,) and barycentric weights (k, 3) of the radial
        lift of ``points`` (k, 3); a point farther than ``LOCATE_TOL_REL`` R
        from the sphere of radius R raises :class:`GeometryError`."""
        p = np.asarray(points, dtype=float).reshape(-1, 3)
        radius = self.mesh.radius_hint
        gap = np.abs(np.linalg.norm(p, axis=1) - radius)
        if np.any(gap > LOCATE_TOL_REL * radius):
            j = int(np.argmax(gap))
            raise GeometryError(
                f"point {p[j].tolist()} is {gap[j]:.3g} from the sphere "
                f"(tolerance {LOCATE_TOL_REL * radius:.3g})"
            )
        rows = np.arange(p.shape[0])
        cand = np.broadcast_to(np.arange(20), (p.shape[0], 20))
        for level in range(self.level + 1):
            if level:
                cand = 4 * best[:, None] + np.arange(4)
            corners = self.mesh.vertices[
                subdivision_corners(self.mesh.triangles, self.level, cand, level)]
            dets = _opposite_determinants(corners, p[:, None])
            pick = np.argmax(dets.min(axis=2), axis=1)
            best, dets = cand[rows, pick], dets[rows, pick]
        return best, dets / dets.sum(axis=1, keepdims=True)

    def row(self, points) -> sp.csr_matrix:
        """The (k, n) CSR rows of the point functionals of ``points`` (k, 3);
        one point (3,) gives one row."""
        tri, bary = self.locate(points)
        keep = bary > 1e-14
        return sp.csr_matrix(
            (bary[keep], (np.nonzero(keep)[0], self.mesh.triangles[tri][keep])),
            shape=(tri.size, self.mesh.num_vertices),
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


#: A constraint row is even (odd) under a pairing of the unknowns when
#: swapping each pair changes it (its negative) by at most this fraction of
#: its largest entry.
PARITY_TOL_REL = 1e-12

_SQRT_HALF = np.sqrt(0.5)


def _check_pairing(pairing: np.ndarray, n: int) -> np.ndarray:
    """``pairing`` as an index array, checked to be an involution of the n
    unknowns without fixed points."""
    pairing = np.asarray(pairing, dtype=np.intp)
    if (pairing.shape != (n,) or np.any(pairing == np.arange(n))
            or not np.array_equal(pairing[pairing], np.arange(n))):
        raise SolverError(f"a pairing of {n} unknowns must be an involution without fixed points")
    return pairing


def _pairs(pairing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (first[i], second[i]) of a pairing, first[i] < second[i],
    numbered in the order of first: pair i has the even vector
    (e_first + e_second)/sqrt(2) and the odd one (e_first - e_second)/sqrt(2)."""
    first = np.flatnonzero(pairing > np.arange(pairing.size))
    return first, pairing[first]


def _fold(A: sp.csr_matrix, first: np.ndarray, second: np.ndarray,
          sign: float) -> sp.csr_matrix:
    """H^T in CSR, whose arrays are those of H in CSC, for the matrix H of
    the pairs (first, second) with H[i, l] the sum of s_a s_b A[a, b] over a
    in pair i and b in pair l, s = 1 on first and ``sign`` on second.  It
    takes sparse row gathers and sums and one transposition, which keep every
    row sorted: no sort."""
    def gather(X):
        return X[first] + X[second] if sign > 0 else X[first] - X[second]
    return gather(gather(A).T.tocsr())


def half_graph(A: sp.spmatrix, pairing: np.ndarray) -> sp.csr_matrix:
    """The graph of A folded by ``pairing`` (:func:`_pairs`), as a CSR
    pattern: pairs k and l are joined where an entry of A, stored zeros
    included, joins an unknown of one to an unknown of the other.  The even
    and the odd half of A lie in it, and :meth:`SaddleSystem.factor` orders
    both by it."""
    A = sp.csr_matrix(A)
    pattern = sp.csr_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
    return _fold(pattern, *_pairs(pairing), 1.0)


def _row_parities(dense: np.ndarray, pairing: np.ndarray) -> np.ndarray:
    """+1 for each row of the dense B that is even under the pairing
    (B[:, pairing] = B) and -1 for each odd one (B[:, pairing] = -B), to
    ``PARITY_TOL_REL`` of the row's largest entry; a row of neither parity
    raises :class:`SolverError`."""
    swapped, scale = dense[:, pairing], PARITY_TOL_REL * np.abs(dense).max(axis=1)
    even = np.abs(swapped - dense).max(axis=1) <= scale
    odd = np.abs(swapped + dense).max(axis=1) <= scale
    if not np.all(even | odd):
        row = int(np.flatnonzero(~(even | odd))[0])
        raise SolverError(f"constraint row {row} is neither even nor odd under the pairing "
                          f"of the unknowns; the saddle system cannot be split")
    return np.where(even, 1.0, -1.0)


class _PermutedLU:
    """The sparse LU ``lu`` of T K T^T, whose ``solve`` solves K x = b (b one
    column or several).  T gathers b by ``perm`` and then rotates each pair of
    unknowns, at positions i < ``order.size`` and ``odd`` + i of the gathered
    vector, into its even and odd parts; T is orthogonal, so x is the LU's
    solution rotated back and scattered by ``perm``.  ``order`` is the order
    of the pairs used in both halves."""

    def __init__(self, lu, order: np.ndarray, perm: np.ndarray, odd: int):
        self.lu, self.order, self.perm, self.odd = lu, order, perm, odd

    def _rotate(self, y: np.ndarray) -> np.ndarray:
        """The pairs of y, (a, b) -> ((a + b), (a - b)) / sqrt(2), in place:
        its own inverse."""
        pairs = self.order.size
        a, b = y[:pairs], y[self.odd:self.odd + pairs]
        diff = a - b
        a += b
        a *= _SQRT_HALF
        np.multiply(diff, _SQRT_HALF, out=b)
        return y

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._rotate(self.lu.solve(self._rotate(np.asarray(b, dtype=float)[self.perm])))
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
    constraint where c_i = 0 and a penalty of compliance c_i where c_i > 0.
    It applies K and |K| from the blocks, factors K split by a symmetry
    (:meth:`factor`) and refines solves against K (:meth:`solve`).
    """

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

    def factor(self, c: np.ndarray, pairing: np.ndarray,
               order: np.ndarray | None = None) -> _PermutedLU:
        """The LU of K(c) split by ``pairing``, a symmetry under which K is
        invariant: it pairs unknown i of A with ``pairing[i]``, an involution
        without fixed points (on an icosphere, ``mesh.antipodal_map``).

        The LU is that of Q^T K Q = blockdiag(K_even, K_odd), of the same size
        as K, Q the orthonormal basis of the pairs' even and odd vectors
        (:func:`_pairs`): the symmetry reduction of Bossavit (Comput. Methods
        Appl. Mech. Engrg. 56 (1986) 167).  Each half is a saddle matrix:
        entry (k, l) of its A block is half the sum of the four entries of A
        joining pair k to pair l, signed by parity, and its constraint rows
        are the rows of B of its parity in that basis, so the multipliers are
        K's own.  Every row of B must be even or odd (else
        :class:`SolverError`), and the halves are those of (K + Pi K Pi)/2: a
        K invariant only to roundoff is factored as its symmetrization.  One
        order of the pairs, ``order`` or the nested dissection of the half
        graph (:func:`half_graph`; a caller that factors several matrices of
        one pattern orders it once), serves both halves, each half's rows of B
        after its pairs.  The halves go to SuperLU as one block-diagonal
        matrix, factored in its symmetric mode with diagonal pivot threshold 0
        (Li, ACM TOMS 31 (2005) 302): a column leaves its diagonal only where
        that entry is exactly zero or absent, and refinement against K
        (:meth:`solve`) answers for the accuracy.

        Nested dissection suits the symmetric K of a surface mesh.  Split,
        A_C = [[A, C^T], [C, 0]] has 0.44 M, 2.42 M and 12.3 M L+U entries at
        levels 4-6, and the level-4 flow operator 1.15 M.  The whole K, its
        unknowns of A in the nested-dissection order of A and its rows of B
        last, fills more: A_C 0.49 M, 2.6 M and 12.9 M, the flow operator
        1.19 M.  Ordered by COLAMD, which minimizes the fill of K^T K instead,
        the whole A_C has 0.71 M, 3.76 M and 22.0 M and the flow operator
        1.62-1.85 M; by SuperLU's ``MMD_AT_PLUS_A``, 1.30 M, 6.64 M and 38.1 M
        and 3.29 M.

        Returns the LU, whose ``solve`` solves with K and whose ``order`` is
        the order used; a pairing that is not an involution without fixed
        points and a failed factorization raise :class:`SolverError`.
        """
        pairing = _check_pairing(pairing, self.A.shape[0])
        if order is None:
            order = nested_dissection(half_graph(self.A, pairing))
        permuted, perm, odd = self._rotated(c, pairing, order)
        try:
            lu = spla.splu(permuted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError(f"sparse LU of the saddle system failed: {exc}") from exc
        return _PermutedLU(lu, order, perm, odd)

    def _rotated(self, c: np.ndarray, pairing: np.ndarray, order: np.ndarray
                 ) -> tuple[sp.csc_matrix, np.ndarray, int]:
        """Q^T K(c) Q as a CSC matrix, its unknowns numbered half by half: the
        even half's pairs in ``order``, then its rows of B, then the odd
        half's; with the gather ``perm`` of that numbering
        (:class:`_PermutedLU`) and the start of the odd half.  A half's block
        of A is half its :func:`_fold`, and its rows of B are
        (B[:, first] +- B[:, second]) / sqrt(2)."""
        n = self.A.shape[0]
        first, second = (side[order] for side in _pairs(pairing))
        A, B = sp.csr_matrix(self.A), self.B.toarray()
        parity = _row_parities(B, pairing)
        halves, perm = [], []
        for sign, unknowns in ((1.0, first), (-1.0, second)):
            rows = np.flatnonzero(parity == sign)
            H = _fold(A, first, second, sign).T
            H.data *= 0.5
            Bh = _SQRT_HALF * (B[rows][:, first] + sign * B[rows][:, second])
            D = sp.diags(-c[rows], shape=(rows.size,) * 2, format="csc")
            # All four blocks CSC: SciPy stacks them without a sort.
            halves.append(sp.bmat([[H, sp.csr_matrix(Bh).T], [sp.csc_matrix(Bh), D]],
                                  format="csc"))
            perm += [unknowns, n + rows]
        return sp.block_diag(halves, format="csc"), np.concatenate(perm), halves[0].shape[0]

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
    :class:`SaddleSystem` of compliance c, by SuperLU's default LU of the
    assembled K (COLAMD order, partial pivoting), refined to the contract by
    :meth:`SaddleSystem.solve`.

    Returns ``(x, lam)``; where c_i > 0 the multiplier is the reaction lam_i
    = (B x - g)_i / c_i, and ``labels`` names the rows of B.  The hard rows of
    B must have full row rank (:class:`RankDeficiencyError` names the
    dependent ones).  No solve path of the package calls it: the tests take it
    as their reference solve, which shares no order, split or pivoting with
    :meth:`SaddleSystem.factor`, and the benchmark traces it by name.
    """
    system, c = SaddleSystem(A, B), np.asarray(compliance, dtype=float)
    _check_constraint_rank(system.B, labels, c)
    K = sp.bmat([[A, system.B.T], [system.B, sp.diags(-c)]], format="csc")
    sol = system.solve(c, np.concatenate([f, g], dtype=float), spla.splu(K).solve)
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


def mass_inverse_form(M: sp.spmatrix, b: np.ndarray):
    """b^T M^{-1} b for a P1 mass matrix M, to a certified relative error of at
    most ``MASS_FORM_BOUND``, by conjugate gradients preconditioned with the
    row sums D of M, from x = 0.  ``b`` is one vector, whose form is returned
    as a float, or k vectors as the columns of an (n, k) array, whose k forms
    are returned as a list; they share D and the CG's vectors.

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
    x, r, p, w = np.empty((4, M.shape[0]))
    values = [_mass_cg(M, d, column, x, r, p, w) for column in (b.T if b.ndim == 2 else [b])]
    return values if b.ndim == 2 else values[0]


def _mass_cg(M, d, b, x, r, p, w) -> float:
    """The form b^T M^{-1} b of ``mass_inverse_form`` in the vectors x, r, p, w."""
    x.fill(0.0)
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
