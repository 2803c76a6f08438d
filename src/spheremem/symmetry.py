"""Exact mesh symmetries of the pole-oriented icosphere.

The icosphere inherits the icosahedral symmetry group; in particular the C5
rotation about z and the S10 rotoreflection (rotate by pi/5, flip z) map mesh
vertices to mesh vertices up to roundoff.  These permutations turn solution
equivariance into a machine-precision check.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import GeometryError
from .mesh import TriangleMesh

#: A vertex map is a mesh symmetry when every image lies within this fraction
#: of the mesh radius of a vertex.
SYMMETRY_TOL_REL = 1e-9


def rotation_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def s10_matrix() -> np.ndarray:
    """Rotoreflection: rotate by pi/5 about z, then reflect z -> -z."""
    m = rotation_z(np.pi / 5.0)
    m[2, 2] = -1.0
    return m


def vertex_permutation(mesh: TriangleMesh, matrix: np.ndarray) -> np.ndarray:
    """Permutation p with vertices[p[i]] = matrix @ vertices[i].

    Raises :class:`GeometryError` if the map is not a symmetry of the mesh.
    """
    mapped = mesh.vertices @ np.asarray(matrix).T
    tree = cKDTree(mesh.vertices)
    d, idx = tree.query(mapped)
    scale = float(np.max(np.linalg.norm(mesh.vertices, axis=1)))
    if np.max(d) > SYMMETRY_TOL_REL * scale:
        raise GeometryError(
            f"transform is not a mesh symmetry (max vertex mismatch {np.max(d):.3g})"
        )
    if np.unique(idx).size != idx.size:
        raise GeometryError("transform maps two vertices to the same target")
    return idx


def symmetry_residual(mesh: TriangleMesh, matrix: np.ndarray, u: np.ndarray) -> float:
    """Max-norm deviation of a vertex field from invariance under the symmetry."""
    perm = vertex_permutation(mesh, matrix)
    return float(np.max(np.abs(u[perm] - u)))
