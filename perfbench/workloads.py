"""The benchmark's workloads: the CLI calls each one makes, and the checks
that decide whether a call's outputs are correct.

Every workload is a closed loop with one client: the next CLI call starts
when the previous one has ended.  The thresholds are those of the
acceptance suite (``tests/test_acceptance.py``).
"""
from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

#: Recorded flow references: (level, flow seed) -> (accepted steps, rejected
#: steps, final energy).  Parameters are those of ``flow_calls``; measured
#: with one BLAS thread on x86-64, NumPy 2.4.6, SciPy 1.17.1.  At level 4,
#: seeds 1 and 3 reach the E = 9.6106 minimum and the others E = 9.6086; the
#: step counts range from 4.4k to 20.8k.  Level 3 serves the quick test; at
#: level 2 the interface is under-resolved and criterion 9 does not hold.
FLOW_REFERENCES = {
    (3, 0): (4059, 4, 9.5168622280339),
    (3, 2): (1946, 2, 9.516862228036347),
    (3, 4): (3539, 3, 9.525204379408217),
    (4, 0): (5412, 5, 9.608646338602284),
    (4, 1): (14735, 14, 9.610601092991187),
    (4, 2): (5486, 5, 9.60864633861289),
    (4, 3): (20815, 20, 9.610601095321094),
    (4, 4): (5386, 5, 9.608646338599032),
    (4, 5): (9060, 9, 9.608646338606771),
    (4, 6): (4444, 4, 9.608646338599227),
    (4, 7): (13234, 13, 9.608646338610752),
    (4, 8): (6010, 6, 9.608646338602991),
    (4, 9): (4936, 5, 9.608646338612912),
}

#: Flow seeds the benchmark seed rotates through.  Their step counts at
#: level 4 lie within 2% of each other, so the spread of wall_s across
#: benchmark seeds measures the code rather than how long a seed takes to
#: coarsen.  The other recorded seeds re-check a claim outside the rotation.
FLOW_SEEDS = (0, 2, 4)

PENALTY_DELTAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
TAYLOR_RHOS = (0.1, 0.05, 0.025, 0.0125)
STATIONARITY_TOL = 1e-5


@dataclass(frozen=True)
class Call:
    """One CLI call: a label, the subcommand and its config sections."""

    label: str
    subcommand: str
    sections: dict


@dataclass(frozen=True)
class Workload:
    name: str
    level: int
    calls: Callable[[int], list]             # seed -> [Call]
    check: Callable[..., tuple]              # see check_output

    def config_text(self, call: Call, out_dir: str) -> str:
        sections = {"mesh": {"R": 1.0, "level": self.level},
                    "model": {"kappa": 1.0, "sigma": 1.0},
                    **call.sections, "output": {"dir": out_dir}}
        lines = []
        for sec, kv in sections.items():
            lines.append(f"[{sec}]")
            lines.extend(f"{k} = {v}" for k, v in kv.items())
        return "\n".join(lines) + "\n"


def flow_seed(seed: int) -> int:
    return FLOW_SEEDS[seed % len(FLOW_SEEDS)]


def flow_calls(seed: int) -> list:
    phase = {"epsilon": 0.15, "b": 1.0, "coupling": 1.0, "alpha": -0.3,
             "tau": 0.01, "stat_tol": STATIONARITY_TOL}
    s = flow_seed(seed)
    return [Call(f"seed{s}", "phase-flow", {"phase": phase, "run": {"seed": s}})]


def points_calls(seed: int) -> list:
    deltas = " ".join(repr(d) for d in PENALTY_DELTAS)
    return [Call(preset, "penalty-study",
                 {"points": {"preset": preset}, "penalty_study": {"deltas": deltas}})
            for preset in ("icosahedron", "polar_rings", "equator")]


def taylor_calls(seed: int) -> list:
    taylor = {"field": "z2", "mu": 0.5,
              "rho_list": " ".join(repr(r) for r in TAYLOR_RHOS),
              "reconstruction": "consistent"}
    return [Call("z2", "taylor-check", {"taylor": taylor})]


def _rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")][1:]


def _loglog_slope(x: list[float], y: list[float]) -> float:
    """Least-squares slope of log|y| against log x over y != 0."""
    pts = [(math.log(a), math.log(abs(b))) for a, b in zip(x, y) if b != 0]
    if len(pts) < 2:
        return float("nan")
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


def check_flow(level: int, call: Call, out_dir: str, stdout: str, capture: dict):
    """Criteria 7 and 9 of the acceptance suite plus the seed's reference.

    ``capture`` holds ``lambda_residual``, |lambda_phi + (b/eps) mean f'| in
    b/eps units, and ``final_tau``, both from the state and report that
    ``run_flow`` returned.
    """
    problems = []
    m = re.search(r"steps: (\d+) \(rejected (\d+)\), converged: (\w+)", stdout)
    if not m:
        return {}, ["no step summary on stdout"]
    accepted, rejected = int(m.group(1)), int(m.group(2))
    if m.group(3) != "True":
        problems.append("flow did not converge")
    rows = _rows(os.path.join(out_dir, "flow_energy.csv"))
    energies = [float(r[1]) for r in rows]
    for a, b in zip(energies, energies[1:]):
        if b - a > 1e-8 * abs(a):
            problems.append(f"energy rose from {a!r} to {b!r}")
            break
    worst = max(max(float(v) for v in r[6:9]) for r in rows)
    if not worst <= 1e-10:
        problems.append(f"constraint residual {worst:.3g} > 1e-10")
    if len(rows) != accepted + 1:
        problems.append(f"{len(rows)} energy rows for {accepted} accepted steps")
    if not capture.get("lambda_residual", math.inf) <= 1e-8:
        problems.append(f"multiplier residual {capture.get('lambda_residual')} > 1e-8")
    if not os.path.getsize(os.path.join(out_dir, "flow_final.vtk")):
        problems.append("empty flow_final.vtk")
    seed = call.sections["run"]["seed"]
    ref = FLOW_REFERENCES.get((level, seed))
    if ref is None:
        problems.append(f"no recorded reference for level {level}, seed {seed}")
    else:
        if (accepted, rejected) != ref[:2]:
            problems.append(f"steps {accepted}/{rejected} differ from the "
                            f"reference {ref[0]}/{ref[1]}")
        if abs(energies[-1] - ref[2]) > 1e-8 * abs(ref[2]):
            problems.append(f"final energy {energies[-1]!r} differs from {ref[2]!r}")
    summary = {"accepted_steps": accepted, "rejected_steps": rejected,
               "final_energy": energies[-1], "final_tau": capture.get("final_tau", 0.0)}
    return summary, problems


def check_points(level: int, call: Call, out_dir: str, stdout: str, capture: dict):
    """Criterion 5: fitted rate in [0.45, 1.1], strictly decreasing errors."""
    problems = []
    path = os.path.join(out_dir, "penalty_rates.csv")
    rows = _rows(path)
    deltas = [float(r[0]) for r in rows]
    errors = [float(r[1]) for r in rows]
    if tuple(deltas) != PENALTY_DELTAS:
        problems.append(f"deltas {deltas} differ from {list(PENALTY_DELTAS)}")
    if any(b >= a for a, b in zip(errors, errors[1:])):
        problems.append(f"errors not strictly decreasing: {errors}")
    rate = _loglog_slope(deltas, errors)
    if not 0.45 <= rate <= 1.1:
        problems.append(f"fitted rate {rate:.4f} outside [0.45, 1.1]")
    m = re.search(r"fitted rate: (\S+)", stdout)
    if not m or abs(float(m.group(1)) - rate) > 1e-4:
        problems.append(f"printed rate {m.group(1) if m else None} != {rate:.4f}")
    return {"rate": rate, "errors": errors}, problems


def check_taylor(level: int, call: Call, out_dir: str, stdout: str, capture: dict):
    """Criterion 4: log-log slope >= 2.7 and status converged."""
    problems = []
    rows = _rows(os.path.join(out_dir, "taylor_residuals.csv"))
    rhos = [float(r[0]) for r in rows]
    if tuple(rhos) != TAYLOR_RHOS:
        problems.append(f"rho values {rhos} differ from {list(TAYLOR_RHOS)}")
    slope = _loglog_slope(rhos, [float(r[2]) for r in rows])
    if not slope >= 2.7:
        problems.append(f"slope {slope:.4f} < 2.7")
    m = re.search(r"slope: (\S+) \(([\w-]+)\)", stdout)
    if not m:
        return {"slope": slope}, problems + ["no slope on stdout"]
    if m.group(2) != "converged":
        problems.append(f"status {m.group(2)}")
    if abs(float(m.group(1)) - slope) > 1e-4:
        problems.append(f"printed slope {m.group(1)} != {slope:.4f}")
    return {"slope": slope, "status": m.group(2)}, problems


WORKLOADS = {
    # The coarsening regime of the acceptance sweep (96% of Tier-1 time):
    # thousands of back-solves from about 15 factorizations, three energy
    # evaluations per step, and the only rejected steps.
    "flow-coarsen": Workload("flow-coarsen", 4, flow_calls, check_flow),
    # Factor-heavy: six saddle factorizations per study and no phase field.
    # The equator study's hard reference solve misses the absolute residual
    # contract (1.65e-10 > 1e-10); the study stays in the loop as a counted
    # failure so that a fix of the contract shows as one failure fewer.
    "points-l5": Workload("points-l5", 5, points_calls, check_points),
    # Largest mesh: mesh statistics, consistent-mass LUs and the geometry
    # oracle; no phase field and no point constraints.
    "taylor-l6": Workload("taylor-l6", 6, taylor_calls, check_taylor),
}


def check_output(workload: Workload, call: Call, out_dir: str, stdout: str,
                 capture: dict) -> tuple[dict, list[str]]:
    """Run the workload's checks; a missing or unreadable output is a problem."""
    try:
        return workload.check(workload.level, call, out_dir, stdout, capture)
    except (OSError, ValueError, IndexError) as exc:
        return {}, [f"unreadable output: {type(exc).__name__}: {exc}"]
