"""Memory budgets of mesh measurement and assembly, by ``tracemalloc``.

NumPy reports every array buffer it allocates to ``tracemalloc``, so the
traced peak of a call is deterministic: the most its temporaries and results
hold at one time, above what was held when it started.  Each budget below is
a multiple of the bytes the call returns or leaves held, at level 4 (2562
vertices), set with about 10% headroom over the ratio measured then:

==========================================  ======  =================
call                                        budget  measured (before)
==========================================  ======  =================
``_csr_pattern`` / its pattern              2.3     2.10 (2.54)
``assemble_quadratic_form`` / the assembly  1.55    1.39 (1.39)
first ``form.A`` / A                        3.9     3.49 (3.49)
consistent ``taylor_consistency`` / form    0.66    0.59 (0.59)
==========================================  ======  =================

"Before" is the code whose ``_csr_pattern`` returned each triangle's nine
pattern slots, from which the mesh took the six scatter keys in a second
step.  Now ``_csr_pattern`` returns the keys themselves: 48 bytes per
triangle in place of the slots' 36.  Its traced peak fell from 0.83 to
0.82 MB (13.27 to 13.03 MB at level 6), so the ratio falls with the larger
result; the other three calls are unchanged.  The assembly's bytes are the
unique buffers of M, S, the constraint rows, the lumped diagonal, and the
pattern, areas and normals it leaves on the mesh.  A is built on its first
use, not by the assembly, and the form's bytes add A's to the assembly's.
At levels 5 and 6 the ratios are 2.09, 1.38, 3.49 and 0.51 to 0.49.  At
level 3, whose 1280 triangles make a single block of the measuring pass,
the assembly's is 1.90 and the check's 0.99.
"""
import gc
import tracemalloc

import numpy as np

from spheremem.mesh import _csr_pattern, build_icosphere
from spheremem.model import ModelParams, assemble_quadratic_form
from spheremem.oracle import taylor_consistency

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
                      mesh.pattern, mesh.areas, mesh.normals)


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
    assert peak <= 0.66 * form_bytes(form)
