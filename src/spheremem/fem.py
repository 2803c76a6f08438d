"""Piecewise-linear surface FEM: mass/stiffness assembly, point evaluation at
the radial lift onto the icosphere (``PointLocator``), norms, the direct
saddle-point solver and the consistent-mass form.

All operators are assembled triangle-wise on the polyhedral surface.  M and
S come from the one pass over the surface's corners that also measures its
areas and volume (``mesh._measure_triangles``): the diagonal and upper
entries of each triangle's symmetric 3x3 local matrices are summed by
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
program is invariant under the reflections in three perpendicular mirror
planes (``mesh.mirror_maps``), which generate the group Z2^3, and
``SaddleSystem.factor`` takes its LU as that of its eight blocks, one per
character of the group, each column pivoting on its diagonal in SuperLU's
symmetric mode, in a nested-dissection order (``nested_dissection``) of the
orbit graph.  Given the rotation that cycles the mirrors
(``mesh.rotation_map``), it factors one block per cycle of the blocks under
the rotation: a SuperLU factor of the two blocks it fixes and one of the two
3-cycles' first blocks, which a solve takes with three columns per
right-hand side.  The points' A_C, split so, has 0.098 M, 0.62 M and 3.46 M
L+U entries at levels 4-6, half what its eight blocks hold; the flow's step
operator is split into its eight blocks in one factor, 0.51 M at level 4.
Every row the split LU factors is hard: rows it cannot hold, such as the
point rows, whose span the group does not map to itself, or rows with a
compliance, are bordered onto it by their Schur complement
(``BorderedLU``), the one code that does so.
Every K factored is symmetric, so SuperLU's transposed solve solves it as
well as its plain one: an LU that receives one column of a right-hand side
(the flow's step, and a point solve's first LU) takes the transposed solve,
which is the faster for one column, and an LU that receives several (the
3-cycles' LU, and every LU of a multi-column solve such as a bordered LU's
G) the plain one, which is the faster for several.
``solve_saddle``, the tests' reference, factors the whole
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

from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools, csgraph

from .errors import GeometryError, RankDeficiencyError, SolverError
from .mesh import TriangleMesh, icosphere_level, subdivision_corners

#: The residual tolerance of the linear solves: it stops the refinement and is
#: the contract.  The point solves of the penalty studies of the three presets
#: (hard and delta = 1e-2 ... 1e-6), on the LU of ``SaddleSystem.factor`` split
#: by the three mirrors and the rotation (diagonal pivots, nested-dissection
#: order), miss it unrefined (197 eps to 2.6e8 eps, growing with the level)
#: and meet it after one refinement step each, at most 6.7 eps at levels 2-6,
#: 18.2 eps at level 7 and 32.4 eps at level 8; only the equator's solves at
#: levels 2 and 3 meet it unrefined, at 7.1-9.9 eps, and four of the
#: icosahedron's six at level 4, at 60-63.5 eps (polar_rings is a domain
#: error at level 2).  c_be = 64 is verified up to level 8.
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


#: A constraint row lies in one block of a split LU when its components in the
#: other blocks are at most this fraction of its norm; the re-based rows of the
#: others are held to it too (:func:`_row_characters`).
CHARACTER_TOL_REL = 1e-12


class _Orbits(NamedTuple):
    """The orbits of the unknowns under the group Z2^G generated by G commuting
    involutions g_1 ... g_G, a group element g^a the product of the g_j whose
    bit j is set in a.  ``images[i, a]`` is g^a(i); orbit o is the orbit of
    its smallest unknown ``table[o, 0]`` and ``table[o, a]`` is g^a of that,
    a vertex repeated for every element of its stabilizer.  Character s of
    the group, chi_s(a) = (-1)^popcount(s & a), numbers the blocks, and block s
    holds orbit o when chi_s is trivial on the stabilizer (``held[s, o]``): an
    orbit of 2^G / |stabilizer| unknowns gives one to each of that many
    blocks."""

    images: np.ndarray     # (n, 2^G)
    table: np.ndarray      # (k, 2^G)
    held: np.ndarray       # (2^G, k) bool


def _characters(count: int) -> np.ndarray:
    """The character table chi[s, a] = (-1)^popcount(s & a) of Z2^count: the
    Sylvester-Hadamard matrix of order 2^count."""
    chi = np.ones((1, 1))
    for _ in range(count):
        chi = np.block([[chi, chi], [chi, -chi]])
    return chi


def _orbits(generators, n: int) -> _Orbits:
    """The :class:`_Orbits` of the n unknowns under ``generators``, index
    arrays that must be commuting involutions of the n unknowns (else
    :class:`SolverError`); with none, every unknown is an orbit of its own."""
    gens = [np.asarray(g, dtype=np.intp) for g in generators]
    identity = np.arange(n)
    for j, g in enumerate(gens):
        if g.shape != (n,) or g.min(initial=0) < 0 or g.max(initial=0) >= n \
                or not np.array_equal(g[g], identity):
            raise SolverError(f"generator {j} is not an involution of the {n} unknowns")
        for i in range(j):
            if not np.array_equal(g[gens[i]], gens[i][g]):
                raise SolverError(f"generators {i} and {j} do not commute")
    images = np.empty((n, 1 << len(gens)), dtype=np.intp)
    images[:, 0] = identity
    for j, g in enumerate(gens):
        images[:, 1 << j:2 << j] = g[images[:, :1 << j]]
    table = images[images.min(axis=1) == identity]
    stabilizer = table == table[:, :1]
    held = ~((_characters(len(gens)) < 0)[:, None, :] & stabilizer).any(axis=2)
    return _Orbits(images, table, held)


def _fold(A: sp.csr_matrix, orbits: _Orbits, order: np.ndarray, wanted
          ) -> dict[int, sp.csc_matrix]:
    """The blocks ``wanted`` of Q^T A Q for the orthonormal basis Q of the
    orbits' block vectors, each over its orbits in the order ``order``
    (:class:`_BlockBasis`), by character.  They are those of the group
    average of A, so a matrix invariant only to roundoff is factored as its
    symmetrization.  Block s's vector of orbit o is the sum over o's unknowns
    g^a r of chi_s(a) e_(g^a r) / sqrt(|o|), and its entry (t, u) is
    sqrt(|t| |u|) / 4^G times the sum over c of chi_s(c) S[r_t, g^c r_u],
    for S the group sum of A, the sum of g A g^T over the group's 2^G
    elements g: row t of S holds, at column y, the sum over a of A[g^a r_t,
    g^a y].

    Each term of S is a sparse row gather whose column indices are
    relabelled.  One transposition of S and butterflies over c, in sparse
    sums and differences, follow; they keep every row sorted, so no block is
    sorted, and the last level of butterflies forms only the wanted blocks."""
    images, size = orbits.images, orbits.table.shape[1]
    table = orbits.table[order]
    group_sum = None
    for a in range(size):
        rows = A[images[table[:, 0], a]]
        rows.indices = images[rows.indices, a].astype(rows.indices.dtype)
        rows.has_sorted_indices = False
        rows.sort_indices()
        group_sum = rows if group_sum is None else group_sum + rows
    # S^T in CSR: row y, column t.
    columns = group_sum.T.tocsr()
    sums = [columns[table[:, c]] for c in range(size)]
    h = 1
    while h < size:
        last = 2 * h == size
        for lo in range(size):
            if not lo & h:
                x, y = sums[lo], sums[lo | h]
                if not last or lo in wanted:
                    sums[lo] = x + y
                if not last or lo | h in wanted:
                    sums[lo | h] = x - y
        h *= 2
    weight = np.sqrt(size / (table == table[:, :1]).sum(axis=1)) / size
    blocks = {}
    for s in wanted:
        # The sum holds the block's transpose, over every orbit: its CSR
        # arrays, restricted to the block's orbits, are the block's CSC arrays.
        held = orbits.held[s, order]
        block = sums[s][held]
        keep = held[block.indices]
        indptr = np.r_[0, np.cumsum(keep)][block.indptr]
        indices = (np.cumsum(held) - 1)[block.indices[keep]]
        w = weight[held]
        data = block.data[keep] * w[indices] * np.repeat(w, np.diff(indptr))
        blocks[s] = sp.csc_matrix((data, indices, indptr), shape=(w.size, w.size))
    return blocks


def _orbit_graph(A: sp.spmatrix, orbits: _Orbits) -> sp.csr_matrix:
    """:func:`orbit_graph` for the orbits ``orbits``: F^T P F with sorted
    indices, P the pattern of A (on A's own index arrays) and F the (n, k)
    incidence of the unknowns on their k orbits.  Both hold float32 ones, half
    the bytes of A's data; an entry of the product counts the entries of A
    that join its two orbits, so none is zero."""
    A = sp.csr_matrix(A)
    n, k = A.shape[0], orbits.table.shape[0]
    orbit_of = np.searchsorted(orbits.table[:, 0], orbits.images.min(axis=1))
    F = sp.csr_matrix((np.ones(n, dtype=np.float32), orbit_of, np.arange(n + 1)), shape=(n, k))
    P = sp.csr_matrix((np.ones(A.indices.size, dtype=np.float32), A.indices, A.indptr),
                      shape=A.shape)
    graph = F.T.tocsr() @ (P @ F)
    graph.sort_indices()
    return graph


def orbit_graph(A: sp.spmatrix, generators) -> sp.csr_matrix:
    """The graph of A folded onto the orbits of ``generators``
    (:func:`_orbits`), as a sparse pattern: orbits o and u are joined where
    an entry of A, stored zeros included, joins an unknown of one to an
    unknown of the other.  Every block of A lies in it, and
    :meth:`SaddleSystem.factor` orders them all by it."""
    return _orbit_graph(A, _orbits(generators, A.shape[0]))


def _row_characters(coef: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An orthogonal change of the constraint rows, T (m, m), under which each
    row lies in one block, and the block of each new row.  ``coef`` (n, m)
    holds the rows' block coordinates, block s in rows ``starts[s]`` to
    ``starts[s + 1]``.

    A row whose components in every other block are at most
    ``CHARACTER_TOL_REL`` of its norm keeps itself.  The other rows are
    re-based together: their new rows in block s are the left singular
    vectors of their block-s components above ``CHARACTER_TOL_REL`` of their
    norm (on the icosphere, nu_x and nu_z become nu . e2 and nu . e3 of the
    mirror normals).  Rows whose span the group does not map to itself,
    or on which it does not act orthogonally, raise :class:`SolverError`."""
    m = coef.shape[1]
    norms = np.column_stack([np.linalg.norm(coef[start:end], axis=0)
                             for start, end in zip(starts[:-1], starts[1:])])    # (m, blocks)
    total = np.linalg.norm(norms, axis=1)
    char = np.argmax(norms, axis=1)
    outside = np.sqrt(np.maximum(total ** 2 - norms[np.arange(m), char] ** 2, 0.0))
    pure = outside <= CHARACTER_TOL_REL * total
    T, chars = np.eye(m), char.copy()
    rows = np.flatnonzero(~pure)
    scale = CHARACTER_TOL_REL * np.linalg.norm(total[rows])
    basis, blocks = [], []
    for s in range(starts.size - 1):
        u, sigma, _ = np.linalg.svd(coef[starts[s]:starts[s + 1], rows].T, full_matrices=False)
        rank = int(np.sum(sigma > scale))
        basis.append(u[:, :rank].T)
        blocks += [s] * rank
    basis = np.vstack(basis)
    if basis.shape[0] != rows.size:
        raise SolverError(f"constraint rows {rows.tolist()} span no space that the "
                          f"symmetry group maps to itself; the saddle system cannot be split")
    if not np.abs(basis @ basis.T - np.eye(rows.size)).max(initial=0.0) <= CHARACTER_TOL_REL:
        raise SolverError(f"the symmetry group does not act orthogonally on constraint "
                          f"rows {rows.tolist()}; the saddle system cannot be split")
    T[rows] = 0.0
    T[np.ix_(rows, rows)] = basis
    chars[rows] = blocks
    return T, chars


class _BlockBasis:
    """The orthonormal basis Q of the block vectors of ``orbits``
    (:func:`_fold`), each block's orbits in the order ``order``: block s holds
    ``blocks[s]``, at ``starts[s]`` to ``starts[s + 1]`` of the numbering.  Q^T
    x takes each orbit's unknowns to its block coordinates by a Walsh-Hadamard
    transform, scaled by ``forward_scale``, and gathers them at ``slots`` of
    the (2^G, k) table of character and orbit; Q y scatters y to the slots,
    scaled by ``inverse_scale``, transforms back and reads each unknown at its
    ``first`` position in the table (:class:`_PermutedLU`)."""

    def __init__(self, orbits: _Orbits, order: np.ndarray):
        self.order, self.table = order, np.ascontiguousarray(orbits.table.T)
        size, k = self.table.shape
        self.characters = _characters(int(np.log2(size)))
        self.blocks = [order[orbits.held[s, order]] for s in range(size)]
        self.starts = np.cumsum([0] + [block.size for block in self.blocks])
        self.slots = np.concatenate([s * k + block for s, block in enumerate(self.blocks)])
        orbit_size = (size / (self.table == self.table[0]).sum(axis=0))[self.slots % k]
        self.forward_scale = np.sqrt(orbit_size) / size
        self.inverse_scale = 1.0 / np.sqrt(orbit_size)
        # The first position of each unknown in the table: any will do, as all
        # hold the same value.
        self.first = np.unique(self.table.ravel(), return_index=True)[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q^T x for x (n, ...).  The unnormalized Walsh-Hadamard transform of
        each orbit is one product with the +-1 character table, each output
        a sum of 2^G signed inputs."""
        size, k = self.table.shape
        # Sizes given, not inferred: x may have no columns (a B of no rows).
        y = self.characters @ x[self.table].reshape(size, k * x[0].size)
        y = y.reshape(size * k, *x.shape[1:])[self.slots]
        y *= self.forward_scale.reshape(-1, *[1] * (x.ndim - 1))
        return y


def _character_cycles(count: int, rotated: bool) -> list[list[int]]:
    """The characters of Z2^count in the cycles of a rotation that conjugates
    generator j into generator j + 1 (mod count): it takes block s to block
    sigma(s), s's bits rotated up by one.  Each cycle starts at its smallest
    character, its representative; without a rotation every character is a
    cycle of its own."""
    size = 1 << count
    cycles, seen = [], set()
    for s in range(size):
        if s not in seen:
            cycle = [s]
            while rotated and count:
                nxt = ((cycle[-1] << 1) | (cycle[-1] >> (count - 1))) & (size - 1)
                if nxt == s:
                    break
                cycle.append(nxt)
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


def _check_rotation(rotation, orbits: _Orbits) -> np.ndarray:
    """``rotation`` as an index array, checked to be a permutation of the
    unknowns that conjugates each generator g_j into g_(j+1) (mod G),
    rotation[g_j] = g_(j+1)[rotation]; else :class:`SolverError`."""
    n, size = orbits.images.shape
    gens = [orbits.images[:, 1 << j] for j in range(size.bit_length() - 1)]
    rot = np.asarray(rotation, dtype=np.intp)
    if rot.shape != (n,) or rot.min(initial=0) < 0 or rot.max(initial=0) >= n \
            or not np.all(np.bincount(rot, minlength=n) == 1):
        raise SolverError(f"the rotation is not a permutation of the {n} unknowns")
    for j, g in enumerate(gens):
        if not np.array_equal(rot[g], gens[(j + 1) % len(gens)][rot]):
            raise SolverError(f"the rotation does not cycle the generators: it does not "
                              f"conjugate generator {j} into generator {(j + 1) % len(gens)}")
    return rot


def _carried(orbits: _Orbits, basis: _BlockBasis, power: np.ndarray, rep: int, member: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """Where the rotation power ``power`` (a permutation of the unknowns),
    which carries block ``rep`` onto block ``member``, takes each coordinate
    of block ``rep``: U v_(rep, o) = chi_member(a_o) v_(member, u) for the
    orbit u of power(r_o) = g^(a_o) r_u.  Returns the position of v_(member,
    u) among the coordinates of Q^T x and the sign chi_member(a_o)."""
    reps = orbits.table[:, 0]
    target = power[reps[basis.blocks[rep]]]
    image = np.searchsorted(reps, orbits.images[target].min(axis=1))
    element = np.argmax(orbits.images[reps[image]] == target[:, None], axis=1)
    held = orbits.held[member]
    rank = np.empty(held.size, dtype=np.intp)
    rank[basis.order] = np.arange(held.size)
    position = (np.cumsum(held[basis.order]) - 1)[rank[image]]
    return basis.starts[member] + position, basis.characters[member, element]


def _carried_rows(coef: np.ndarray, chars: np.ndarray, at: np.ndarray, chi: np.ndarray,
                  member: int, mine: np.ndarray, own: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Which new constraint row of block ``member`` the rotation carries onto
    each row ``mine`` of its representative, and with which sign: the member's
    rows of ``coef`` taken to the representative's coordinates (the positions
    ``at`` and signs ``chi`` of :func:`_carried`) must be those rows, ``own``,
    up to sign and order, within ``CHARACTER_TOL_REL`` of their norms; else
    :class:`SolverError`."""
    theirs = np.flatnonzero(chars == member)
    if theirs.size != mine.size:
        raise SolverError(f"the rotation does not carry the {theirs.size} constraint rows of "
                          f"block {member} onto the {mine.size} of its cycle's representative")
    mapped = chi[:, None] * coef[at][:, theirs]
    norms = np.linalg.norm(own, axis=0)
    cosines = (own.T @ mapped) / np.outer(norms, np.linalg.norm(mapped, axis=0))
    match = np.argmax(np.abs(cosines), axis=1) if mine.size else theirs
    flip = np.sign(cosines[np.arange(mine.size), match])
    if (np.unique(match).size != match.size
            or not np.all(np.linalg.norm(own - flip * mapped[:, match], axis=0)
                          <= CHARACTER_TOL_REL * norms)):
        raise SolverError(f"the rotation does not carry the constraint rows of block {member} "
                          f"onto those of its cycle's representative")
    return theirs[match], flip


class _PermutedLU:
    """The LU of T K T^T, whose ``solve`` solves K x = b (b one column or
    several, dense or sparse).  T is orthogonal: on the unknowns of A it is
    Q^T of the block basis ``basis`` and on the constraint rows ``rows`` (m,
    m), so z = T b holds the blocks' coordinates in the order of ``basis``,
    then the new rows, sorted by block.  ``order`` is the order of the orbits
    used in every block.

    Each LU of ``lus`` factors the blocks of the representatives of the
    cycles of one length l (:meth:`SaddleSystem.factor`), each block's
    coordinates followed by its rows; a member p steps along its cycle has
    the same block up to a signed permutation, so a right-hand side b is
    solved as l columns, column p gathered from z at ``pulls[i][p]`` with
    the signs ``signs[i][p]``, and the solution goes back the same way.

    The gathers are composed with T at construction.  z is the gather at the
    block basis's slots of the Walsh-Hadamard transform of each orbit,
    scaled, so column p is read from that transform, with the constraint
    rows after it, at ``self.pulls[i][p]`` and multiplied by the sign times
    the forward scale, ``self.forward_scales[i][p]``; its solution is written
    back times the sign and the inverse scale, ``self.inverse_scales[i][p]``.
    A sign is +-1, so these products have the bits of the scaling and the
    signing done apart.

    An LU that receives one column solves it by SuperLU's transposed solve
    (``trans="T"``), which gathers where the plain one scatters; every K
    factored is symmetric, so both solve it.  For one column the transposed
    solve is the faster, for several the slower, so an LU that receives
    several columns takes the plain one.  SuperLU's solve times, plain ->
    transposed (min of 15 x 100 in two runs, one BLAS thread, x86-64, 2
    cores): the level-4 flow LU, one column, 0.64 -> 0.57 ms; A_C's two LUs
    at level 5, three right-hand sides (3 and 9 columns), 2.81 -> 3.85 ms,
    twelve (12 and 36 columns), 9.73 -> 14.84 ms.
    """

    def __init__(self, lus, pulls, signs, basis: _BlockBasis, rows: np.ndarray):
        self.lus, self.order, self.basis, self.rows = lus, basis.order, basis, rows
        # Where each coordinate of z lies in the transform's table, the
        # constraint rows after it, and its scales each way.
        m = rows.shape[0]
        at = np.concatenate([basis.slots, basis.table.size + np.arange(m)])
        forward = np.concatenate([basis.forward_scale, np.ones(m)])
        inverse = np.concatenate([basis.inverse_scale, np.ones(m)])
        self.pulls = [at[pull] for pull in pulls]
        self.forward_scales = [sign * forward[pull] for pull, sign in zip(pulls, signs)]
        self.inverse_scales = [sign * inverse[pull] for pull, sign in zip(pulls, signs)]

    @property
    def nnz(self) -> int:
        """The stored L and U entries of all the LUs."""
        return sum(lu.nnz for lu in self.lus)

    def solve(self, b) -> np.ndarray:
        """x with K x = b for b (N,) or (N, k), dense or a sparse matrix.
        Each column is taken to z, and its solution back, one at a time, so
        no (N, k) array is made beside the LUs' right-hand sides, their
        solutions and x."""
        b = sp.csc_matrix(b) if sp.issparse(b) else np.asarray(b, dtype=float)
        k = 1 if b.ndim == 1 else b.shape[1]
        basis, n = self.basis, self.basis.starts[-1]
        # The transform of each orbit, (2^G, orbits), then the constraint rows.
        work = np.empty(basis.table.size + self.rows.shape[0])
        table, rows = work[:basis.table.size].reshape(basis.table.shape), work[basis.table.size:]
        rhs = [np.empty((pull.shape[1], pull.shape[0] * k), order="F") for pull in self.pulls]
        for j in range(k):
            column = self._column(b, j)
            np.matmul(basis.characters, column[basis.table], out=table)
            np.matmul(self.rows, column[n:], out=rows)
            for r, pull, scale in zip(rhs, self.pulls, self.forward_scales):
                np.multiply(work[pull].T, scale.T, out=r[:, j::k])
        solutions = []
        for lu in self.lus:
            r = rhs.pop(0)      # each right-hand side freed once solved
            solutions.append(lu.solve(r, trans="T" if r.shape[1] == 1 else "N"))
        # Only the gathered coordinates are written back; the rest stay zero.
        work.fill(0.0)
        x = np.empty(b.shape)
        for j in range(k):
            for solution, pull, scale in zip(solutions, self.pulls, self.inverse_scales):
                work[pull] = solution[:, j::k].T * scale
            column = x if b.ndim == 1 else x[:, j]
            column[:n] = (basis.characters @ table).ravel()[basis.first]
            column[n:] = self.rows.T @ rows
        return x

    def _column(self, b, j: int) -> np.ndarray:
        """Column j of b as a dense vector."""
        if b.ndim == 1:
            return b
        return b[:, j].toarray().ravel() if sp.issparse(b) else b[:, j]


class BorderedLU:
    """The solve of K = [[K_0, R^T], [R, -diag(d)]], rows R (k, N) bordered
    onto ``lu``, an LU of K_0 (N, N) such as :meth:`SaddleSystem.factor`
    returns, by their Schur complement, at any compliance d >= 0 of the rows.
    G = K_0^{-1} R^T, one multi-column solve of the sparse R^T, and the
    k x k RG = R G are formed once and serve every d.  The points border
    their rows R = [P, 0] onto A_C's split LU, and RG = P A_C^{-1} P^T is
    the discrete Green's function at the attachment points."""

    def __init__(self, lu: _PermutedLU, R: sp.csr_matrix):
        self.lu, self.R, self.G = lu, R, lu.solve(R.T)
        self.RG = R @ self.G

    def solve(self, d: np.ndarray, r: np.ndarray) -> np.ndarray:
        """K^{-1} r up to roundoff: y = K_0^{-1} r_1, lam = (RG + diag d)^{-1}
        (R y - r_2) and K^{-1} r = [y - G lam; lam]."""
        N = self.G.shape[0]
        # A right-hand side zero above the bordered rows needs no solve: y = 0.
        y = self.lu.solve(r[:N]) if r[:N].any() else np.zeros(N)
        lam = np.linalg.solve(self.RG + np.diag(d), self.R @ y - r[N:])
        return np.concatenate([y - self.G @ lam, lam])


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
    It applies K and |K| from the blocks, factors K(0), every row hard, split
    by a symmetry (:meth:`factor`) and refines solves against K (:meth:`solve`),
    such as those of rows bordered onto that LU (:class:`BorderedLU`).
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

    def factor(self, generators, order: np.ndarray | None = None, rotation=None
               ) -> _PermutedLU:
        """The LU of K = K(0), every row of B hard, split by ``generators``,
        commuting involutions of the unknowns of A under which K is invariant
        (on an icosphere, the three maps of ``mesh.mirror_maps``; none gives
        the unsplit LU), and by an optional ``rotation``, a permutation of the
        unknowns under which K is invariant too and which conjugates generator
        j into generator j + 1 (mod G) (on an icosphere, ``mesh.rotation_map``).

        The LU is that of T K T^T = blockdiag(K_0, ..., K_(2^G - 1)), of the
        same size as K, T orthogonal: the symmetry reduction of Bossavit
        (Comput. Methods Appl. Mech. Engrg. 56 (1986) 167) for the group Z2^G.
        On the unknowns of A, T is Q^T for the orthonormal basis Q of the
        orbits' block vectors (:func:`_orbits`): an orbit of 8, 4 or 2 unknowns
        gives one to each block whose character is trivial on its stabilizer,
        and block s of A is that of the group average of A (:func:`_fold`),
        so a K invariant only to roundoff is factored as its symmetrization.
        On the constraint rows, T is an orthogonal change of the rows of B
        under which each row lies in one block (:func:`_row_characters`), so
        the multipliers are K's own once taken back, and rows whose span the
        group does not preserve raise :class:`SolverError`.  Each block is a
        saddle matrix, its rows of B after its orbits, with no entries in its
        (2, 2) part.  Rows that the LU cannot hold, such as rows whose span
        the group does not preserve or rows with a compliance, are bordered
        onto it by :class:`BorderedLU`.  One order of the orbits, ``order`` or
        the nested dissection of the orbit graph (:func:`orbit_graph`; a
        caller that factors several matrices of one pattern orders it once),
        serves every block.

        The rotation rho extends the reduction to the group generated with it,
        on the icosphere the order-24 group T_h.  It carries block s onto block
        s' = sigma(s), s's bits rotated up by one (:func:`_character_cycles`):
        U v_(s, o) = chi_s'(a_o) v_(s', rho(o)) where rho(r_o) = g^(a_o)
        r_rho(o), so the blocks of one cycle of characters are one matrix up
        to a signed permutation of their orbits (:func:`_carried`), and only
        the cycle's first character, its representative, is folded and
        factored; each constraint row of a member is carried, with its sign,
        onto a row of the representative (:func:`_carried_rows`).  On the
        icosphere the 1-cycles are +++ and --- (s = 0 and 7) and the 3-cycles
        (1, 2, 4) and (3, 6, 5); without a rotation every character is a
        1-cycle.  The representatives of the cycles of one length go to
        SuperLU as one block-diagonal matrix, factored in its symmetric mode
        with diagonal pivot threshold 0 (Li, ACM TOMS 31 (2005) 302): a column
        leaves its diagonal only where that entry is exactly zero or absent,
        and refinement against K (:meth:`solve`) answers for the accuracy.  A
        solve of k right-hand sides takes k columns on the LU of the 1-cycles
        and 3k on that of the 3-cycles.

        Nested dissection suits the symmetric K of a surface mesh.  Split by
        the three mirrors and the rotation, A_C = [[A, C^T], [C, 0]] has
        0.098 M, 0.62 M and 3.46 M L+U entries at levels 4-6; by the three
        mirrors alone 0.20 M, 1.24 M and 6.92 M, and the level-4 flow operator
        0.51 M.  Split by the antipodal map alone, A_C has 0.44 M, 2.42 M and
        12.3 M, the flow operator 1.15 M; unsplit (no generators), 0.49 M,
        2.6 M and 12.9 M, and 1.19 M.  Ordered by COLAMD, which minimizes the
        fill of K^T K instead, the whole A_C has 0.71 M, 3.76 M and 22.0 M and
        the flow operator 1.62-1.85 M; by SuperLU's ``MMD_AT_PLUS_A``, 1.30 M,
        6.64 M and 38.1 M and 3.29 M.

        Returns the LU, whose ``solve`` solves with K and whose ``order`` is
        the order used; generators that are not commuting involutions, a
        rotation that does not cycle them or does not carry a member's rows
        onto its representative's, and a failed factorization raise
        :class:`SolverError`.
        """
        n = self.A.shape[0]
        orbits = _orbits(generators, n)
        rho = np.arange(n) if rotation is None else _check_rotation(rotation, orbits)
        if order is None:
            order = nested_dissection(_orbit_graph(self.A, orbits))
        basis = _BlockBasis(orbits, order)
        coef = basis.forward(self.B.toarray().T)
        rows, chars = _row_characters(coef, basis.starts)
        by_block = np.argsort(chars, kind="stable")
        rows, chars = rows[by_block], chars[by_block]
        coef = coef @ rows.T
        cycles = _character_cycles(len(basis.blocks).bit_length() - 1, rotation is not None)
        folded = _fold(sp.csr_matrix(self.A), orbits, order, [cycle[0] for cycle in cycles])
        lus, pulls, signs = [], [], []
        for length in sorted({len(cycle) for cycle in cycles}):
            blocks, pull, sign = [], [[] for _ in range(length)], [[] for _ in range(length)]
            for cycle in (cycle for cycle in cycles if len(cycle) == length):
                rep, power = cycle[0], np.arange(n)
                mine = np.flatnonzero(chars == rep)
                own = coef[basis.starts[rep]:basis.starts[rep + 1], mine]
                blocks.append(sp.bmat([[folded[rep], sp.csc_matrix(own)],
                                       [sp.csc_matrix(own.T), None]], format="csc"))
                for p, member in enumerate(cycle):
                    at, chi = _carried(orbits, basis, power, rep, member)
                    theirs, flip = _carried_rows(coef, chars, at, chi, member, mine, own)
                    pull[p] += [at, n + theirs]
                    sign[p] += [chi, flip]
                    power = rho[power]
            try:
                lus.append(spla.splu(sp.block_diag(blocks, format="csc"), permc_spec="NATURAL",
                                     diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)))
            except RuntimeError as exc:
                raise SolverError(f"sparse LU of the saddle system failed: {exc}") from exc
            pulls.append(np.array([np.concatenate(part) for part in pull]))
            signs.append(np.array([np.concatenate(part) for part in sign], dtype=float))
        return _PermutedLU(lus, pulls, signs, basis, rows)

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
