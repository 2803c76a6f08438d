"""Legacy-ASCII VTK polydata output of triangle meshes with vertex fields.

The program writes VTK and reads none: every connectivity it uses is built
by ``mesh.build_icosphere``.  Writes are deterministic (fields in sorted
name order, %.17g formatting) so output files are byte-stable across runs
for identical inputs.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .mesh import TriangleMesh


def write_vtk(path, mesh: TriangleMesh, fields: dict[str, np.ndarray] | None = None) -> None:
    """Write the mesh and optional vertex scalar fields as legacy VTK POLYDATA."""
    fields = dict(fields or {})
    n = mesh.num_vertices
    for name, values in fields.items():
        arr = np.asarray(values, dtype=float)
        if arr.shape != (n,):
            raise ConfigError(f"field {name!r} has shape {arr.shape}, expected ({n},)")
        if not name.replace("_", "").isalnum():
            raise ConfigError(f"field name {name!r} is not VTK-safe (alphanumeric/underscore)")
        fields[name] = arr
    m = mesh.num_triangles
    lines = [
        "# vtk DataFile Version 3.0",
        "spheremem surface",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {n} double",
    ]
    for p in mesh.vertices:
        lines.append(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    lines.append(f"POLYGONS {m} {4 * m}")
    for t in mesh.triangles:
        lines.append(f"3 {t[0]} {t[1]} {t[2]}")
    if fields:
        lines.append(f"POINT_DATA {n}")
        for name in sorted(fields):
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.17g}" for v in fields[name])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
