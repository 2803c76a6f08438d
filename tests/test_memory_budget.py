"""Memory budgets of mesh measurement and assembly, by ``tracemalloc``.

NumPy reports every array buffer it allocates to ``tracemalloc``, so the
traced peak of a call is deterministic: the most its temporaries and results
hold at one time, above what was held when it started.  Each budget below is
a multiple of the bytes the call returns or leaves held, at level 4 (2562
vertices), set with about 10% headroom over the ratio measured then:

==================================================  ======  =================
call                                                budget  measured (before)
==================================================  ======  =================
``_csr_pattern`` / its pattern                      2.3     2.10 (2.10)
``assemble_quadratic_form`` / the assembly          1.55    1.44 (1.39)
first ``form.A`` / A                                3.9     3.49 (3.49)
consistent ``taylor_consistency`` / form            0.62    0.56 (0.59)
a perturbed surface's ``_measure_triangles`` / its  2.5     2.26 (2.64)
areas, M and S
==================================================  ======  =================

"Before" is the code whose mesh kept the (m, 3) unit normals of its
triangles, which its measuring pass wrote; the assembly's and the form's
bytes then counted them.  Now a mesh keeps none (only the lumped curvature
reads them, formed on each read), so the pass's traced peak falls by their
24 bytes per triangle: 0.86 to 0.74 MB for a perturbed level-4 surface, 11.3
to 9.4 MB at level 6.  The assembly's ratio rises, since its peak loses the
same bytes as its result; the budget stays.  The assembly's bytes are the
unique buffers of M, S, the constraint rows, the lumped diagonal, and the
pattern and areas it leaves on the mesh.  A is built on its first use, not
by the assembly, and the form's bytes add A's to the assembly's.  At levels
5 and 6 the ratios are 2.09, 1.43, 3.49, 0.47 to 0.45 and 1.88 to 1.79.  At
level 3, whose 1280 triangles make a single block of the measuring pass, the
assembly's is 2.03, the check's 0.99 and the pass's 4.12.
"""
import gc
import tracemalloc

import numpy as np

from spheremem.mesh import _csr_pattern, _measure_triangles, build_icosphere
from spheremem.model import ModelParams, assemble_quadratic_form
from spheremem.oracle import perturb, taylor_consistency

LEVEL = 4


def held_bytes(*objects) -> int:
    """Bytes of the distinct buffers behind arrays and sparse matrices."""
    buffers = {}
    for obj in objects:
        if hasattr(obj, "indptr"):
            arrays = (obj.data, obj.indices, obj.indptr)
        elif isinstance(obj, tuple):
            arrays = obj
        else:
            arrays = (obj,)
        for arr in arrays:
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            buffers[id(arr)] = arr.nbytes
    return sum(buffers.values())


def assembly_bytes(form) -> int:
    mesh = form.mesh
    return held_bytes(form.M, form.S, form.constraints, form.m_lumped,
                      mesh.pattern, mesh.areas)


def form_bytes(form) -> int:
    """The assembly's bytes and A's; reading ``form.A`` builds it."""
    return assembly_bytes(form) + held_bytes(form.A)


def traced_peak(call):
    """(result, traced peak above the start) of ``call()``."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_pattern_build_budget():
    mesh = build_icosphere(1.0, LEVEL)
    pattern, peak = traced_peak(lambda: _csr_pattern(mesh.triangles, mesh.num_vertices))
    assert peak <= 2.3 * held_bytes(pattern)


def test_quadratic_form_budget():
    mesh = build_icosphere(1.0, LEVEL)
    form, peak = traced_peak(lambda: assemble_quadratic_form(mesh, ModelParams(1.0, 1.0, 1.0)))
    assert "A" not in vars(form)
    assert peak <= 1.55 * assembly_bytes(form)


def test_operator_first_use_budget():
    mesh = build_icosphere(1.0, LEVEL)
    form = assemble_quadratic_form(mesh, ModelParams(1.0, 1.0, 1.0))
    A, peak = traced_peak(lambda: form.A)
    assert peak <= 3.9 * held_bytes(A)


def test_consistent_taylor_check_budget():
    mesh = build_icosphere(1.0, LEVEL)
    form = assemble_quadratic_form(mesh, ModelParams(1.0, 1.0, 1.0))
    u = mesh.vertices[:, 2] ** 2 - 1.0 / 3.0
    report, peak = traced_peak(lambda: taylor_consistency(
        form, u, 0.5, rho_list=(0.1, 0.05, 0.025, 0.0125), reconstruction="consistent"))
    assert report.status == "converged"
    assert "A" not in vars(form)
    assert peak <= 0.62 * form_bytes(form)


def test_perturbed_surface_measure_budget():
    # The pass keeps no triangle normals: its peak is the (m, 6) local
    # stiffness values, the volume terms, its areas, M and S, and one block's
    # temporaries.
    sphere = build_icosphere(1.0, LEVEL)
    surface = perturb(sphere, sphere.vertices[:, 2] ** 2 - 1.0 / 3.0, 0.1)
    assert "pattern" in vars(surface)
    measures, peak = traced_peak(lambda: _measure_triangles(surface))
    assert peak <= 2.5 * held_bytes(measures.areas, measures.mass, measures.stiffness)
