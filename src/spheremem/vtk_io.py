"""Legacy-ASCII VTK polydata read/write for triangle meshes with vertex fields.

Writes are deterministic (fields in sorted name order, %.17g formatting) so
output files are byte-stable across runs for identical inputs.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .mesh import TriangleMesh, validate_closed


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


def read_vtk(path) -> tuple[TriangleMesh, dict[str, np.ndarray]]:
    """Read a legacy VTK POLYDATA triangle mesh with vertex scalar fields;
    :func:`validate_closed` checks the connectivity (``MeshTopologyError``)."""
    with open(path) as fh:
        tokens = fh.read().split("\n")
    # Tokenize lazily: keep a flat word stream after the 4 header lines.
    if len(tokens) < 5 or not tokens[0].startswith("# vtk DataFile"):
        raise ConfigError(f"{path}: not a legacy VTK file")
    if tokens[2].strip().upper() != "ASCII":
        raise ConfigError(f"{path}: only ASCII VTK files are supported")
    if tokens[3].split() != ["DATASET", "POLYDATA"]:
        raise ConfigError(f"{path}: only POLYDATA datasets are supported")
    words = " ".join(tokens[4:]).split()
    pos = 0

    def take(k, dtype=None):
        nonlocal pos
        out = words[pos: pos + k]
        if len(out) < k:
            raise ConfigError(f"{path}: truncated VTK file")
        pos += k
        try:
            return out if dtype is None else np.array(out, dtype=dtype)
        except ValueError:
            raise ConfigError(f"{path}: expected {k} numbers, got {out[:6]} ...") from None

    # A count is a non-negative decimal integer, as int() reads it.
    kw, n, _ = take(3)
    if kw != "POINTS" or not n.isdecimal():
        raise ConfigError(f"{path}: expected POINTS and a count, got {kw!r} {n!r}")
    n = int(n)
    vertices = take(3 * n, float).reshape(n, 3)
    kw, m, total = take(3)
    if kw != "POLYGONS" or not (m.isdecimal() and total.isdecimal()):
        raise ConfigError(f"{path}: expected POLYGONS and two counts, got {kw!r} {m!r} {total!r}")
    m, total = int(m), int(total)
    if total != 4 * m:
        raise ConfigError(f"{path}: only pure-triangle POLYGONS are supported")
    cells = take(4 * m, int).reshape(m, 4)
    if np.any(cells[:, 0] != 3):
        raise ConfigError(f"{path}: non-triangle polygon found")
    triangles = cells[:, 1:]
    fields: dict[str, np.ndarray] = {}
    if pos < len(words):
        kw, count = take(2)
        if kw != "POINT_DATA" or not count.isdecimal() or int(count) != n:
            raise ConfigError(f"{path}: malformed POINT_DATA section")
        while pos < len(words):
            kw = take(1)[0]
            if kw != "SCALARS":
                raise ConfigError(f"{path}: only SCALARS point data is supported, got {kw!r}")
            name, _dtype = take(2)
            comps = 1
            if pos < len(words) and words[pos].isdigit():
                comps = int(take(1)[0])
            if comps != 1:
                raise ConfigError(f"{path}: field {name!r} has {comps} components, expected 1")
            if take(2) != ["LOOKUP_TABLE", "default"]:
                raise ConfigError(f"{path}: expected LOOKUP_TABLE default for {name!r}")
            fields[name] = take(n, float)
    mesh = TriangleMesh(vertices, triangles, radius_hint=None)
    validate_closed(mesh)
    return mesh, fields
