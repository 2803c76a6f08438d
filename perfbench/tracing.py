"""Span tracing of spheremem from outside the package, and the per-layer
metrics computed from the spans.

The child process installs the tracer after its set-up phase.  Every public
name listed in ``FUNCTIONS`` is wrapped in each ``spheremem`` namespace that
holds it, because ``from .x import y`` binds the function object at import
time; the methods in ``METHODS`` are patched on their classes.  SuperLU is
traced by wrapping ``scipy.sparse.linalg.splu``, which every caller looks up
at call time, and returning a proxy whose ``solve`` is timed.

Spans are kept in memory as ``[name, start, end, parent, status, value]``
and written out when the operation ends.  ``layer_metrics`` turns the spans
of one operation into the per-layer metrics; it needs only the standard
library so the parent process can run it.
"""
from __future__ import annotations

import functools
import os
import sys
import time

#: (home module, attribute, span name).  Span names are "<layer>.<what>".
FUNCTIONS = (
    ("spheremem.cli", "main", "cli.main"),
    ("spheremem.mesh", "build_icosphere", "mesh.build"),
    ("spheremem.mesh", "mesh_stats", "mesh.stats"),
    ("spheremem.model", "assemble_quadratic_form", "model.assemble"),
    ("spheremem.fem", "assemble_mass", "fem.assemble"),
    ("spheremem.fem", "assemble_stiffness", "fem.assemble"),
    ("spheremem.fem", "lumped_diagonal", "fem.assemble"),
    ("spheremem.fem", "solve_saddle", "fem.solve_saddle"),
    ("spheremem.points", "solve_hard", "points.solve_hard"),
    ("spheremem.points", "solve_penalty", "points.solve_penalty"),
    ("spheremem.points", "convergence_study", "points.study"),
    ("spheremem.phasefield", "run_flow", "phasefield.run_flow"),
    ("spheremem.phasefield", "energy", "phasefield.energy"),
    ("spheremem.phasefield", "constraint_residuals", "phasefield.residuals"),
    ("spheremem.oracle", "taylor_consistency", "oracle.taylor"),
    ("spheremem.oracle", "energies", "oracle.energies"),
    ("spheremem.oracle", "willmore_energy", "oracle.willmore"),
    ("spheremem.vtk_io", "write_vtk", "vtk_io.write"),
)

#: (module, class, method, span name).
METHODS = (
    ("spheremem.model", "QuadraticForm", "evaluate_consistent", "model.evaluate_consistent"),
    ("spheremem.fem", "PointLocator", "row", "fem.locate"),
    ("spheremem.phasefield", "FlowSolver", "__init__", "phasefield.solver_init"),
    ("spheremem.phasefield", "FlowSolver", "step", "phasefield.step"),
)

LAYERS = ("cli", "mesh", "model", "fem", "superlu", "points", "phasefield",
          "oracle", "vtk_io")
SUPERLU_CALLERS = ("fem", "phasefield", "oracle")


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, "ok", 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, status: str = "ok") -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = status
        self._stack.pop()

    def wrap(self, name: str, fn, value=None):
        """Trace calls of ``fn``; ``value(args, result)`` sets the span value."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            status = "ok"
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    self.spans[idx][5] = value(args, result)
                return result
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                self.close(idx, status)
        return traced


class TracedLU:
    """Delegating proxy for a SuperLU object whose ``solve`` is traced."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._solve = tracer.wrap("superlu.solve", lu.solve)

    def solve(self, *args, **kwargs):
        return self._solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer) -> None:
    """Wrap the traced names in every loaded spheremem namespace."""
    import scipy.sparse.linalg as spla

    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "spheremem" or k.startswith("spheremem."))]
    for home, attr, name in FUNCTIONS:
        original = getattr(sys.modules[home], attr)
        wrapped = tracer.wrap(name, original, value=SPAN_VALUES.get(name))
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
    for home, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules[home], cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    # The span value is SuperLU's own count of stored L and U entries
    # (supernodal storage), which costs nothing to read.
    factor = tracer.wrap("superlu.factor", spla.splu, value=lambda a, lu: int(lu.nnz))
    spla.splu = lambda *args, **kwargs: TracedLU(factor(*args, **kwargs), tracer)


def _file_size(args, result) -> int:
    return os.path.getsize(args[0])


#: Span name -> function of (args, result) giving the span's value.
SPAN_VALUES = {"vtk_io.write": _file_size}


# -- analysis (standard library only) -----------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _caller_layer(spans, idx: int) -> str:
    """Layer of the nearest enclosing span outside superlu."""
    parent = spans[idx][3]
    while parent >= 0:
        layer = spans[parent][0].split(".", 1)[0]
        if layer != "superlu":
            return layer
        parent = spans[parent][3]
    return "none"


def layer_metrics(spans: list[list], wall_s: float, final_tau: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``wall_s`` is the traced wall time of the CLI call, measured around it by
    the child; ``final_tau`` comes from the flow report (0 without a flow).
    """
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        dur[s[0]] = dur.get(s[0], 0.0) + (s[2] - s[1])
        calls[s[0]] = calls.get(s[0], 0) + 1
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, selfs):
        layer_self[s[0].split(".", 1)[0]] += t
    step_self = sum(t for s, t in zip(spans, selfs) if s[0] == "phasefield.step")
    top = sum(s[2] - s[1] for s in spans if s[3] < 0)

    m: dict[str, float] = {}
    m["mesh.build_s"] = dur.get("mesh.build", 0.0)
    m["mesh.stats_s"] = dur.get("mesh.stats", 0.0)
    m["mesh.stats_calls"] = calls.get("mesh.stats", 0)
    m["model.assemble_s"] = dur.get("model.assemble", 0.0)
    m["model.evaluate_consistent_s"] = dur.get("model.evaluate_consistent", 0.0)
    m["fem.assemble_s"] = sum(
        s[2] - s[1] for i, s in enumerate(spans)
        if s[0] == "fem.assemble" and not _has_ancestor(spans, i, "model.assemble"))
    m["fem.solve_saddle_s"] = dur.get("fem.solve_saddle", 0.0)
    m["fem.solve_saddle_calls"] = calls.get("fem.solve_saddle", 0)
    m["fem.locate_s"] = dur.get("fem.locate", 0.0)
    m["fem.locate_calls"] = calls.get("fem.locate", 0)

    lu = {c: {"factor_s": 0.0, "factor_calls": 0, "lu_nnz": 0, "solve_s": 0.0,
              "solve_calls": 0} for c in SUPERLU_CALLERS + ("other",)}
    for i, s in enumerate(spans):
        if s[0] in ("superlu.factor", "superlu.solve"):
            kind = s[0].split(".")[1]
            entry = lu.get(_caller_layer(spans, i), lu["other"])
            entry[f"{kind}_s"] += s[2] - s[1]
            entry[f"{kind}_calls"] += 1
            if kind == "factor":
                entry["lu_nnz"] += s[5]
    for key in ("factor_s", "factor_calls", "lu_nnz", "solve_s", "solve_calls"):
        m[f"superlu.{key}"] = sum(entry[key] for entry in lu.values())
        for caller in SUPERLU_CALLERS:
            m[f"superlu.{caller}.{key}"] = lu[caller][key]

    m["points.solve_hard_s"] = dur.get("points.solve_hard", 0.0)
    m["points.solve_hard_calls"] = calls.get("points.solve_hard", 0)
    m["points.solve_penalty_s"] = dur.get("points.solve_penalty", 0.0)
    m["points.solve_penalty_calls"] = calls.get("points.solve_penalty", 0)
    m["points.study_s"] = dur.get("points.study", 0.0)

    steps = calls.get("phasefield.step", 0)
    rejected = sum(1 for s in spans
                   if s[0] == "phasefield.step" and s[4] == "StepRejectedError")
    m["phasefield.solver_init_s"] = dur.get("phasefield.solver_init", 0.0)
    m["phasefield.solver_inits"] = calls.get("phasefield.solver_init", 0)
    m["phasefield.step_s"] = step_self
    m["phasefield.steps"] = steps
    m["phasefield.accepted_steps"] = steps - rejected
    m["phasefield.rejected_steps"] = rejected
    m["phasefield.accept_ratio"] = (steps - rejected) / steps if steps else 0.0
    m["phasefield.final_tau"] = final_tau
    m["phasefield.energy_s"] = dur.get("phasefield.energy", 0.0)
    m["phasefield.energy_calls"] = calls.get("phasefield.energy", 0)
    m["phasefield.energy_per_step"] = (
        calls.get("phasefield.energy", 0) / steps if steps else 0.0)
    m["phasefield.residuals_s"] = dur.get("phasefield.residuals", 0.0)
    m["phasefield.residuals_calls"] = calls.get("phasefield.residuals", 0)

    m["oracle.energies_s"] = dur.get("oracle.energies", 0.0)
    m["oracle.energies_calls"] = calls.get("oracle.energies", 0)
    m["oracle.willmore_s"] = dur.get("oracle.willmore", 0.0)
    m["vtk_io.write_s"] = dur.get("vtk_io.write", 0.0)
    m["vtk_io.bytes"] = sum(s[5] for s in spans if s[0] == "vtk_io.write")
    m["cli.self_s"] = layer_self["cli"]
    for layer in LAYERS[1:]:
        m[f"self.{layer}_s"] = layer_self[layer]
    m["trace.wall_s"] = wall_s
    m["unattributed_s"] = wall_s - top
    return m
