"""Command-line front end tying meshing, solves and flows into reproducible runs.

The config-driven subcommands share one run harness, ``run_config``: it
loads the config, builds the mesh and the quadratic form (stages ``mesh`` and
``assemble``), calls the subcommand's body, records ``failed: error`` when
anything raises, and always writes a plain-text manifest (config echo, code
version, mesh checksum, wall clock, per-stage status) to the output
directory, which it makes and checks first.  Each subcommand in
``CONFIG_COMMANDS`` is a body that holds only its own compute and output
code, and writes every table through ``Run.write_table``.  Exit codes: 0
success, 1 domain error, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .config import POINT_PRESETS, RunConfig, load_config
from .errors import ConfigError, SphereMemError
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
        """Path of an output file in the output directory."""
        return os.path.join(self.cfg.out_dir, name)

    def write_table(self, name: str, header: str, rows, notes=()):
        """Write a CSV table: the header line, one line per row of the
        nonempty ``rows``, then one ``# <note>`` line per note.  Floats are
        written as ``%.17g``, ints and bools as ``str``; a column's type is
        that of its first row."""
        rows = iter(rows)
        first = next(rows)
        line = ",".join("{}" if isinstance(v, int) else "{:.17g}" for v in first) + "\n"
        with open(self.out(name), "w") as fh:
            fh.write(header + "\n" + line.format(*first))
            fh.writelines(line.format(*row) for row in rows)
            fh.writelines(f"# {note}\n" for note in notes)

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


def _check_output_dir(path: str, what: str, create: bool = False) -> None:
    """Raise :class:`ConfigError` naming ``what`` and the OS error unless
    files can be written in the directory ``path``, made first if ``create``."""
    try:
        if create:
            os.makedirs(path, exist_ok=True)
        if not os.path.isdir(path):
            os.stat(path)               # names a missing path or one under a file
            raise NotADirectoryError(f"not a directory: {path!r}")
        if not os.access(path, os.W_OK | os.X_OK):
            raise PermissionError(f"cannot write in {path!r}")
    except OSError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def run_config(subcommand: str, body, config_path: str) -> int:
    """The run harness: the one place a config-driven run's failure is caught.

    ``body(run, mesh, form)`` does the subcommand's compute and output.
    """
    cfg = load_config(config_path)
    _check_output_dir(cfg.out_dir, "[output] dir", create=True)
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
        # Zero points is a domain error of the solve, a negative count a
        # configuration error.
        count = cfg.get("points", "count", 10, int)
        if count < 0:
            raise ConfigError(f"[points] count must be nonnegative, got {count}")
        pts = equator_points(count, cfg.R)
        heights = cfg.floats("points", "heights", [1.0])
    elif preset == "polar_rings":
        pts, h = polar_ring_points(cfg.R)
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


def _write_solution(run: Run, mesh, u: np.ndarray, stem: str):
    """Emit the field on the sphere plus the displaced surface X + u nu for viewing."""
    write_vtk(run.out(f"{stem}.vtk"), mesh, {"u": u})
    nu = mesh.vertices / run.cfg.R
    displaced = TriangleMesh(
        mesh.vertices + u[:, None] * nu, mesh.triangles, radius_hint=None
    )
    write_vtk(run.out(f"{stem}_displaced.vtk"), displaced, {"u": u})


def _write_flow_table(run: Run, name: str, report):
    """A flow's energy history: one row per state, the initial one first."""
    rows = ((t, e, bd["bending"], bd["coupling"], bd["interface_gradient"], bd["potential"], *cr)
            for t, e, bd, cr in zip(report.times, report.energies, report.breakdowns,
                                    report.constraint_residuals))
    run.write_table(name, "t [time],energy [energy],bending [energy],coupling [energy],"
                    "interface_gradient [energy],potential [energy],"
                    "phi_mean_residual [1],u_mean_residual [1],u_normal_residual [1]", rows)


# -- subcommands ---------------------------------------------------------------

def cmd_mesh(args) -> int:
    if os.path.isdir(args.out):
        raise ConfigError(f"--out: {args.out!r} is a directory, not a file")
    _check_output_dir(os.path.dirname(args.out) or ".", "--out")
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
    cs = ConstraintSet(pts, heights)
    if run.subcommand == "points-hard":
        stem = "hard"
        u, report = solve_hard(form, cs)
    else:
        stem = "penalty"
        u, report = solve_penalty(form, cs, run.cfg.get("points", "delta", 1e-4, float))
    run.stage("solve")
    _write_solution(run, mesh, u, stem)
    run.write_table(
        f"{stem}_report.csv",
        "point_index [1],x [length],y [length],z [length],value [length],residual [length]",
        ((j, *p, v, r) for j, (p, v, r) in enumerate(
            zip(pts, report.point_values, report.point_residuals))),
        notes=[f"energy: {report.energy:.17g}"])
    run.stage("output")
    print(f"energy: {report.energy:.10g}")
    print(f"max point residual: {np.max(np.abs(report.point_residuals)):.3e}")


def cmd_penalty_study(run: Run, mesh: TriangleMesh, form: QuadraticForm):
    pts, heights = _constraint_points(run.cfg)
    deltas = run.cfg.floats("penalty_study", "deltas", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    table = convergence_study(form, ConstraintSet(pts, heights), deltas)
    run.stage("study")
    run.write_table("penalty_rates.csv",
                    "delta [1],h2_error [length],penalty_energy [energy]",
                    zip(table.deltas, table.errors, table.energies),
                    notes=[f"fitted rate: {table.slope:.6g}"])
    run.stage("output")
    print(f"fitted rate: {table.slope:.4f}")


def cmd_taylor(run: Run, mesh: TriangleMesh, form: QuadraticForm):
    cfg = run.cfg
    field = cfg.get("taylor", "field", "xy", str)
    harmonics = {
        "xy": lambda x: x[:, 0] * x[:, 1],
        "yz": lambda x: x[:, 1] * x[:, 2],
        "xz": lambda x: x[:, 0] * x[:, 2],
        "z2": lambda x: x[:, 2] ** 2 - 1.0 / 3.0,
    }
    if field not in harmonics:
        raise ConfigError(f"[taylor] field must be one of {sorted(harmonics)}")
    reconstruction = cfg.get("taylor", "reconstruction", "lumped", str)
    if reconstruction not in RECONSTRUCTIONS:
        raise ConfigError(f"[taylor] reconstruction must be one of {RECONSTRUCTIONS}")
    mu = cfg.get("taylor", "mu", 0.5, float)
    rho_list = cfg.floats("taylor", "rho_list", [0.1, 0.05, 0.025, 0.0125])
    report = taylor_consistency(form, harmonics[field](mesh.vertices / cfg.R), mu,
                                rho_list=rho_list,
                                reconstruction=reconstruction)
    run.stage("taylor")
    run.write_table("taylor_residuals.csv",
                    "rho [1],lagrangian [energy],residual [energy],slope_so_far [1]",
                    zip(report.rhos, report.lagrangians, report.residuals,
                        report.running_slopes))
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
        tau=cfg.get("phase", "tau", 0.01, float),
        t_end=t_end,
        stat_tol=stat_tol,
        seed=cfg.seed,
    )


def cmd_phase_flow(run: Run, mesh: TriangleMesh, form: QuadraticForm):
    pf = _phase_params(run.cfg)
    final, report = run_flow(initial_state(form, pf), form, pf)
    run.stage("flow")
    _write_flow_table(run, "flow_energy.csv", report)
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
    if not couplings:
        raise ConfigError("[sweep] couplings needs at least one value")
    named = {}
    for lam in couplings:
        name = f"sweep_lambda_{lam:+g}"
        if name in named:
            raise ConfigError(f"[sweep] couplings {named[name]!r} and {lam!r} clash: "
                              f"both write {name}.*")
        named[name] = lam
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
        _write_flow_table(run, f"sweep_lambda_{lam:+g}_energy.csv", report)
        run.stage(f"flow lambda={lam:+g}")
    run.write_table("lambda_sweep.csv",
                    "coupling [1/length],final_energy [energy],corr_u_phi [1],"
                    "max_abs_u [length],steps [1],converged [bool]",
                    rows)
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
