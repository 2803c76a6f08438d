"""Command-line front end tying meshing, solves and flows into reproducible runs.

The config-driven subcommands share one run harness, ``run_config``: it
loads the config, builds the mesh and the quadratic form (stages ``mesh`` and
``assemble``), calls the subcommand's body, records ``failed: error`` when
anything raises, and always writes a plain-text manifest (config echo, code
version, mesh checksum, wall clock, per-stage status) to the output
directory.  Each subcommand in ``CONFIG_COMMANDS`` is a body that holds only
its own compute and output code.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .config import POINT_PRESETS, RunConfig, load_config
from .errors import ConfigError, SphereMemError, check_finite
from .mesh import (
    TriangleMesh,
    build_icosphere,
    mesh_checksum,
    mesh_stats,
    validate_closed,
)
from .model import ModelParams, QuadraticForm, assemble_quadratic_form
from .oracle import RECONSTRUCTIONS, taylor_consistency
from .phasefield import (
    PhaseFieldParams,
    closed_form_multipliers,
    field_correlation,
    initial_state,
    run_flow,
)
from .points import (
    ConstraintSet,
    convergence_study,
    equator_points,
    icosahedron_points,
    polar_ring_points,
    solve_hard,
    solve_penalty,
)
from .vtk_io import write_vtk


class Run:
    """Record of one config-driven run, written to <out_dir>/manifest.txt."""

    def __init__(self, cfg: RunConfig, subcommand: str):
        self.cfg = cfg
        self.subcommand = subcommand
        self.stages: list[tuple[str, str]] = []
        self.t0 = time.perf_counter()
        self.checksum = "-"

    def stage(self, name: str, status: str = "ok"):
        self.stages.append((name, status))

    def out(self, name: str) -> str:
        """Path of an output file, creating the output directory."""
        os.makedirs(self.cfg.out_dir, exist_ok=True)
        return os.path.join(self.cfg.out_dir, name)

    def write_text(self, name: str, text: str):
        with open(self.out(name), "w") as fh:
            fh.write(text)

    def write_manifest(self):
        with open(self.out("manifest.txt"), "w") as fh:
            fh.write(f"subcommand: {self.subcommand}\n")
            fh.write(f"version: {__version__}\n")
            fh.write(f"mesh_checksum: {self.checksum}\n")
            fh.write(f"wall_clock_s: {time.perf_counter() - self.t0:.3f}\n")
            fh.write("stages:\n")
            for name, status in self.stages:
                fh.write(f"  {name}: {status}\n")
            fh.write("config:\n")
            for line in self.cfg.echo().splitlines():
                fh.write(f"  {line}\n")


def run_config(subcommand: str, body, config_path: str) -> int:
    """The run harness: the one place a config-driven run's failure is caught.

    ``body(run, mesh, form)`` does the subcommand's compute and output.
    """
    cfg = load_config(config_path)
    run = Run(cfg, subcommand)
    try:
        mesh = build_icosphere(cfg.R, cfg.level)
        run.checksum = mesh_checksum(mesh)
        run.stage("mesh")
        form = assemble_quadratic_form(mesh, ModelParams(cfg.kappa, cfg.sigma, cfg.R))
        run.stage("assemble")
        body(run, mesh, form)
    except BaseException:
        run.stage("failed", "error")
        raise
    finally:
        run.write_manifest()
    return 0


def _constraint_points(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the [points] section to (points, heights)."""
    preset = cfg.get("points", "preset", "icosahedron", str)
    if preset not in POINT_PRESETS:
        raise ConfigError(f"[points] preset must be one of {POINT_PRESETS}, got {preset!r}")
    if preset == "icosahedron":
        pts = icosahedron_points(cfg.R)
        heights = cfg.floats("points", "heights", [1.0])
    elif preset == "equator":
        count = cfg.get("points", "count", 10, int)
        pts = equator_points(count, cfg.R)
        heights = cfg.floats("points", "heights", [1.0])
    elif preset == "polar_rings":
        angle = cfg.get("points", "ring_angle_deg", 10.0, float)
        per_ring = cfg.get("points", "points_per_ring", 6, int)
        pts, h = polar_ring_points(angle, per_ring, cfg.R)
        heights = cfg.floats("points", "heights", list(h))
    else:
        pts = cfg.point_array()
        heights = cfg.floats("points", "heights", [1.0])
    heights = np.asarray(heights, dtype=float)
    if heights.size == 1:
        heights = np.full(pts.shape[0], heights[0])
    if heights.size != pts.shape[0]:
        raise ConfigError(
            f"[points] heights has {heights.size} entries for {pts.shape[0]} points"
        )
    return pts, heights


def _write_solution(run: Run, mesh, u: np.ndarray, stem: str, rho: float):
    """Emit the field on the sphere plus its surface displaced by rho*u for viewing."""
    write_vtk(run.out(f"{stem}.vtk"), mesh, {"u": u})
    nu = mesh.vertices / run.cfg.R
    displaced = TriangleMesh(
        mesh.vertices + rho * u[:, None] * nu, mesh.triangles, radius_hint=None
    )
    write_vtk(run.out(f"{stem}_displaced.vtk"), displaced, {"u": u})


def _report_csv(path: str, report, points: np.ndarray):
    with open(path, "w") as fh:
        fh.write("point_index [1],x [length],y [length],z [length],"
                 "value [length],residual [length]\n")
        for j, p in enumerate(points):
            fh.write(f"{j},{p[0]:.17g},{p[1]:.17g},{p[2]:.17g},"
                     f"{report.point_values[j]:.17g},{report.point_residuals[j]:.17g}\n")
        fh.write(f"# energy: {report.energy:.17g}\n")


# -- subcommands ---------------------------------------------------------------

def cmd_mesh(args) -> int:
    mesh = build_icosphere(args.R, args.level)
    validate_closed(mesh)
    write_vtk(args.out, mesh)
    stats = mesh_stats(mesh)
    print(f"wrote {args.out}: {stats.num_vertices} points, "
          f"{stats.num_triangles} triangles, h_max {stats.h_max:.4g}")
    return 0


def cmd_validate(args) -> int:
    mesh = build_icosphere(args.R, args.level)
    validate_closed(mesh)
    stats = mesh_stats(mesh)
    area_err = abs(stats.total_area - 4 * np.pi * args.R**2) / (4 * np.pi * args.R**2)
    vol_err = abs(stats.enclosed_volume - 4 / 3 * np.pi * args.R**3) / (4 / 3 * np.pi * args.R**3)
    print(f"closed oriented mesh: {stats.num_vertices} vertices")
    print(f"area relative error: {area_err:.3e}")
    print(f"volume relative error: {vol_err:.3e}")
    form = assemble_quadratic_form(mesh, ModelParams(1.0, 1.0, args.R))
    asym = abs(form.A - form.A.T).max()
    print(f"operator asymmetry: {asym:.3e}")
    ones = np.ones(mesh.num_vertices)
    a11 = form.evaluate(ones, ones)
    print(f"a(1,1) + 8 pi sigma: {a11 + 8 * np.pi:.3e}")
    modes = form.normal_modes()
    worst = max(
        float(np.linalg.norm((form.A @ modes[i]) / np.sqrt(form.m_lumped)))
        for i in range(1, 4)
    )
    print(f"normal-mode residual: {worst:.3e}")
    if area_err > 1e-1 or vol_err > 1e-1 or asym > 1e-12:
        raise SphereMemError("validation thresholds exceeded")
    print("validate: ok")
    return 0


def cmd_points(run: Run, mesh: TriangleMesh, form: QuadraticForm):
    pts, heights = _constraint_points(run.cfg)
    rho_visual = run.cfg.get("points", "rho_visual", 1.0, float)
    check_finite(rho_visual=rho_visual)
    if run.subcommand == "points-hard":
        stem = "hard"
        u, _, report = solve_hard(form, ConstraintSet(points=pts, heights=heights, delta=None))
    else:
        stem = "penalty"
        delta = run.cfg.get("points", "delta", 1e-4, float)
        u, report = solve_penalty(form, ConstraintSet(points=pts, heights=heights, delta=delta))
    run.stage("solve")
    _write_solution(run, mesh, u, stem, rho_visual)
    _report_csv(run.out(f"{stem}_report.csv"), report, pts)
    run.stage("output")
    print(f"energy: {report.energy:.10g}")
    print(f"max point residual: {np.max(np.abs(report.point_residuals)):.3e}")


def cmd_penalty_study(run: Run, mesh: TriangleMesh, form: QuadraticForm):
    pts, heights = _constraint_points(run.cfg)
    deltas = run.cfg.floats("penalty_study", "deltas", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    cs = ConstraintSet(points=pts, heights=heights, delta=deltas[0])
    table = convergence_study(form, cs, deltas)
    run.stage("study")
    run.write_text("penalty_rates.csv", table.to_csv())
    run.stage("output")
    print(f"fitted rate: {table.slope:.4f}")


def cmd_taylor(run: Run, mesh: TriangleMesh, form: QuadraticForm):
    cfg = run.cfg
    field = cfg.get("taylor", "field", "xy", str)
    x = mesh.vertices / cfg.R
    harmonics = {
        "xy": x[:, 0] * x[:, 1],
        "yz": x[:, 1] * x[:, 2],
        "xz": x[:, 0] * x[:, 2],
        "z2": x[:, 2] ** 2 - 1.0 / 3.0,
    }
    if field not in harmonics:
        raise ConfigError(f"[taylor] field must be one of {sorted(harmonics)}")
    reconstruction = cfg.get("taylor", "reconstruction", "lumped", str)
    if reconstruction not in RECONSTRUCTIONS:
        raise ConfigError(f"[taylor] reconstruction must be one of {RECONSTRUCTIONS}")
    mu = cfg.get("taylor", "mu", 0.5, float)
    rho_list = cfg.floats("taylor", "rho_list", [0.1, 0.05, 0.025, 0.0125])
    report = taylor_consistency(form, harmonics[field], mu, rho_list=rho_list,
                                reconstruction=reconstruction)
    run.stage("taylor")
    run.write_text("taylor_residuals.csv", report.to_csv())
    run.stage("output")
    print(f"slope: {report.slope:.4f} ({report.status}); "
          f"discretization floor {report.discretization_floor:.3e}")


def _phase_params(cfg: RunConfig, coupling: float | None = None) -> PhaseFieldParams:
    t_end = cfg.get("phase", "t_end", None, float)
    stat_tol = cfg.get("phase", "stat_tol", None if t_end is not None else 1e-5, float)
    return PhaseFieldParams(
        epsilon=cfg.get("phase", "epsilon", 0.15, float),
        b=cfg.get("phase", "b", 1.0, float),
        coupling=coupling if coupling is not None else cfg.get("phase", "coupling", 1.0, float),
        alpha=cfg.get("phase", "alpha", -0.3, float),
        alpha1=cfg.get("phase", "alpha1", 1.0, float),
        alpha2=cfg.get("phase", "alpha2", 1.0, float),
        tau=cfg.get("phase", "tau", 0.01, float),
        t_end=t_end,
        stat_tol=stat_tol,
        seed=cfg.seed,
        noise_amplitude=cfg.get("phase", "noise_amplitude", 0.1, float),
    )


def cmd_phase_flow(run: Run, mesh: TriangleMesh, form: QuadraticForm):
    pf = _phase_params(run.cfg)
    final, report = run_flow(initial_state(form, pf), form, pf)
    run.stage("flow")
    run.write_text("flow_energy.csv", report.to_csv())
    write_vtk(run.out("flow_final.vtk"), mesh, {"u": final.u, "phi": final.phi})
    run.stage("output")
    lam_phi, lam_u = closed_form_multipliers(final, form, pf)
    print(f"steps: {report.accepted_steps} (rejected {report.rejected_steps}), "
          f"converged: {report.converged}")
    print(f"final energy: {report.energies[-1]:.10g}")
    print(f"multipliers lambda_phi={final.lambda_phi:.6g} (closed {lam_phi:.6g}), "
          f"lambda_u={final.lambda_u:.6g} (closed {lam_u:.6g})")


def cmd_lambda_sweep(run: Run, mesh: TriangleMesh, form: QuadraticForm):
    couplings = run.cfg.floats("sweep", "couplings", [-10.0, -5.0, -1.0, 0.0, 1.0, 5.0, 10.0])
    rows = []
    for lam in couplings:
        pf = _phase_params(run.cfg, coupling=lam)
        final, report = run_flow(initial_state(form, pf), form, pf)
        corr = field_correlation(final.u, final.phi, form, pf)
        rows.append((lam, report.energies[-1], corr,
                     float(np.max(np.abs(final.u))), report.accepted_steps,
                     report.converged))
        write_vtk(run.out(f"sweep_lambda_{lam:+g}.vtk"), mesh,
                  {"u": final.u, "phi": final.phi})
        run.write_text(f"sweep_lambda_{lam:+g}_energy.csv", report.to_csv())
        run.stage(f"flow lambda={lam:+g}")
    with open(run.out("lambda_sweep.csv"), "w") as fh:
        fh.write("coupling [1/length],final_energy [energy],"
                 "corr_u_phi [1],max_abs_u [length],steps [1],converged [bool]\n")
        for row in rows:
            fh.write(f"{row[0]:.17g},{row[1]:.17g},{row[2]:.17g},"
                     f"{row[3]:.17g},{row[4]},{row[5]}\n")
    run.stage("output")
    for row in rows:
        print(f"Lambda {row[0]:+g}: energy {row[1]:.6g}, corr {row[2]:+.4f}, "
              f"max|u| {row[3]:.3e}, steps {row[4]}")


#: Config-driven subcommands: (name, help, body), all run through ``run_config``.
CONFIG_COMMANDS = (
    ("points-penalty", "solve the penalized point-constraint equilibrium", cmd_points),
    ("points-hard", "solve the hard point-constraint equilibrium", cmd_points),
    ("penalty-study", "penalty-to-hard convergence rates", cmd_penalty_study),
    ("taylor-check", "quadratic-model Taylor consistency", cmd_taylor),
    ("phase-flow", "run the conserved gradient flow", cmd_phase_flow),
    ("lambda-sweep", "gradient flow over a coupling sweep", cmd_lambda_sweep),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheremem",
        description="Spherical membrane deformation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("mesh", help="build an icosphere and write it as VTK")
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("validate", help="run the mesh/operator invariant suite")
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--level", type=int, default=4)
    p.set_defaults(func=cmd_validate)

    for name, help_text, body in CONFIG_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.set_defaults(func=lambda a, name=name, body=body: run_config(name, body, a.config))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SphereMemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
