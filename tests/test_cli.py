import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spheremem import cli
from spheremem.cli import main
from spheremem.config import load_config
from spheremem.errors import ConfigError
from spheremem.mesh import build_icosphere
from spheremem.vtk_io import write_vtk


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


# -- vtk -----------------------------------------------------------------------

def read_written_vtk(path):
    """(vertices, triangles, fields) of a file in the fixed layout of
    ``write_vtk``: four header lines, POINTS, POLYGONS of triangles, then
    optionally POINT_DATA with one-component SCALARS."""
    lines = Path(path).read_text().splitlines()
    assert lines[:4] == ["# vtk DataFile Version 3.0", "spheremem surface", "ASCII",
                         "DATASET POLYDATA"]
    n = int(lines[4].split()[1])
    vertices = np.array([line.split() for line in lines[5:5 + n]], dtype=float)
    m = int(lines[5 + n].split()[1])
    cells = np.array([line.split() for line in lines[6 + n:6 + n + m]], dtype=int)
    assert np.all(cells[:, 0] == 3)
    fields = {}
    if len(lines) > 6 + n + m:
        assert lines[6 + n + m] == f"POINT_DATA {n}"
        for pos in range(7 + n + m, len(lines), n + 2):
            name = lines[pos].split()[1]
            fields[name] = np.array(lines[pos + 2:pos + 2 + n], dtype=float)
    return vertices, cells[:, 1:], fields


def test_vtk_roundtrip(tmp_path):
    mesh = build_icosphere(1.0, 2)
    u = np.sin(3 * mesh.vertices[:, 2])
    path = tmp_path / "m.vtk"
    write_vtk(path, mesh, {"u": u})
    vertices, triangles, fields = read_written_vtk(path)
    np.testing.assert_array_equal(vertices, mesh.vertices)
    np.testing.assert_array_equal(triangles, mesh.triangles)
    np.testing.assert_array_equal(fields["u"], u)


def test_vtk_deterministic_field_order(tmp_path):
    mesh = build_icosphere(1.0, 1)
    a = np.arange(mesh.num_vertices, dtype=float)
    b = a[::-1].copy()
    p1, p2 = tmp_path / "1.vtk", tmp_path / "2.vtk"
    write_vtk(p1, mesh, {"u": a, "phi": b})
    write_vtk(p2, mesh, {"phi": b, "u": a})
    assert p1.read_bytes() == p2.read_bytes()


def test_vtk_bad_field_shape(tmp_path):
    mesh = build_icosphere(1.0, 1)
    with pytest.raises(ConfigError):
        write_vtk(tmp_path / "m.vtk", mesh, {"u": np.zeros(3)})


# -- config --------------------------------------------------------------------

def test_config_defaults():
    cfg = load_config(None)
    assert cfg.R == 1.0 and cfg.level == 4 and cfg.seed == 0


def test_config_unknown_key_listed(tmp_path):
    path = tmp_path / "c.cfg"
    write(path, "[mesh]\nlevel = 2\nradius = 1\n[bogus]\nx = 1\n"
                "[phase]\nalpha1 = 1\nalpha2 = 1\nnoise_amplitude = 0.1\n"
                "[points]\nrho_visual = 1\nring_angle_deg = 10\npoints_per_ring = 6\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    msg = str(exc.value)
    assert "radius" in msg and "bogus" in msg
    for entry in ("[phase] alpha1", "[phase] alpha2", "[phase] noise_amplitude",
                  "[points] rho_visual", "[points] ring_angle_deg",
                  "[points] points_per_ring"):
        assert entry in msg


def test_config_bad_value(tmp_path):
    path = tmp_path / "c.cfg"
    write(path, "[mesh]\nlevel = two\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_config_explicit_points(tmp_path):
    path = tmp_path / "c.cfg"
    write(path, "[points]\npreset = explicit\npoints = 1 0 0; 0 1 0\n")
    cfg = load_config(str(path))
    pts = cfg.point_array()
    assert pts.shape == (2, 3)


# -- cli -----------------------------------------------------------------------

def test_cli_mesh_trivial_count(tmp_path):
    out = tmp_path / "m.vtk"
    assert main(["mesh", "--R", "1", "--level", "3", "--out", str(out)]) == 0
    vertices, _, _ = read_written_vtk(out)
    assert vertices.shape == (642, 3)


def test_cli_validate(capsys):
    assert main(["validate", "--level", "3"]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["validate", "--level", "2"],
                                  ["mesh", "--level", "2", "--out", "m.vtk"]],
                         ids=lambda argv: argv[0])
def test_cli_checks_closedness_once(tmp_path, monkeypatch, argv):
    import spheremem.cli as cli
    import spheremem.mesh as mesh_module

    calls = []
    original = mesh_module.validate_closed

    def counting(mesh):
        calls.append(mesh)
        original(mesh)

    monkeypatch.setattr(mesh_module, "validate_closed", counting)
    monkeypatch.setattr(cli, "validate_closed", counting)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert len(calls) == 1


def test_cli_import_loads_no_kd_tree():
    # Point location needs no scipy.spatial, whose import adds to every CLI start.
    code = "import sys, spheremem.cli; print('scipy.spatial' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_usage_error():
    assert main(["no-such-command"]) == 2


def test_cli_config_error_exits_2(tmp_path):
    path = tmp_path / "c.cfg"
    write(path, "[mesh]\nlevvel = 2\n")
    assert main(["taylor-check", "--config", str(path)]) == 2


@pytest.mark.parametrize("out", ["under-a-file/out", "a-file"])
def test_cli_unusable_output_dir_is_config_error(tmp_path, capsys, monkeypatch, out):
    # An [output] dir that cannot be made fails before the mesh stage: exit 2,
    # one line naming the key, and no manifest.
    monkeypatch.setattr(cli, "build_icosphere", lambda *a: pytest.fail("the mesh was built"))
    (tmp_path / "a-file").write_text("")
    (tmp_path / "under-a-file").write_text("")
    cfg = tmp_path / "c.cfg"
    write(cfg, f"[mesh]\nlevel = 1\n[output]\ndir = {tmp_path / out}\n")
    assert main(["taylor-check", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: [output] dir: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file", "c.cfg", "under-a-file"]


@pytest.mark.parametrize("out", ["missing/m.vtk", "a-file/m.vtk", ".", "d/"])
def test_cli_mesh_unusable_out_dir_is_config_error(tmp_path, capsys, monkeypatch, out):
    # An --out under a missing path or a file, or naming an existing directory.
    monkeypatch.setattr(cli, "build_icosphere", lambda *a: pytest.fail("the mesh was built"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-file").write_text("")
    (tmp_path / "d").mkdir()
    assert main(["mesh", "--level", "1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --out: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file", "d"]
    assert not any((tmp_path / "d").iterdir())


def test_cli_points_penalty_outputs(tmp_path):
    cfg = tmp_path / "fig1.cfg"
    out = tmp_path / "out"
    write(cfg, f"""[mesh]
level = 3

[points]
preset = icosahedron
delta = 1e-4
heights = 1

[output]
dir = {out}
""")
    assert main(["points-penalty", "--config", str(cfg)]) == 0
    assert (out / "penalty.vtk").exists()
    assert (out / "penalty_displaced.vtk").exists()
    assert (out / "manifest.txt").exists()
    report = (out / "penalty_report.csv").read_text()
    assert "[length]" in report.splitlines()[0]
    manifest = (out / "manifest.txt").read_text()
    assert "mesh_checksum" in manifest and "output: ok" in manifest


@pytest.mark.parametrize("subcommand, sections", [
    pytest.param("points-hard", "[points]\npreset = equator\nheights = 1\n", id="points-hard"),
    pytest.param("phase-flow", "[phase]\nepsilon = 0.5\ncoupling = -2\ntau = 0.05\n"
                 "t_end = 0.2\n", id="phase-flow"),
    pytest.param("taylor-check", "[taylor]\nfield = z2\nreconstruction = consistent\n",
                 id="taylor-check"),
    pytest.param("points-penalty", "[points]\npreset = icosahedron\ndelta = 1e-3\n",
                 id="points-penalty"),
    pytest.param("penalty-study", "[points]\npreset = icosahedron\n", id="penalty-study"),
    pytest.param("lambda-sweep", "[phase]\nepsilon = 0.5\ntau = 0.05\nt_end = 0.1\n"
                 "[sweep]\ncouplings = -2\n", id="lambda-sweep"),
])
def test_cli_outputs_deterministic(tmp_path, capsys, subcommand, sections):
    # Every output but the manifest (wall clock, output path) is byte-identical.
    cfg = tmp_path / "f.cfg"
    runs = []
    for name in ("a", "b"):
        write(cfg, f"[mesh]\nlevel = 2\n{sections}[output]\ndir = {tmp_path / name}\n")
        capsys.readouterr()
        assert main([subcommand, "--config", str(cfg)]) == 0
        files = sorted((tmp_path / name).iterdir())
        runs.append((capsys.readouterr().out,
                     {p.name: p.read_bytes() for p in files if p.name != "manifest.txt"}))
    assert runs[0][1] and runs[0] == runs[1]


# -- output tables -------------------------------------------------------------

TABLE_RUNS = {
    "points-hard": "[points]\npreset = equator\ncount = 6\n",
    "penalty-study": "[points]\npreset = icosahedron\n[penalty_study]\ndeltas = 1e-2 1e-3 1e-4\n",
    "taylor-check": "[taylor]\nfield = xy\n",
    "phase-flow": "[phase]\nepsilon = 0.5\ncoupling = -2\ntau = 0.05\nt_end = 0.2\n",
    "lambda-sweep": "[phase]\nepsilon = 0.5\ntau = 0.05\nt_end = 0.1\n[sweep]\ncouplings = -1 1\n",
}

FLOW_HEADER = ("t [time],energy [energy],bending [energy],coupling [energy],"
               "interface_gradient [energy],potential [energy],"
               "phi_mean_residual [1],u_mean_residual [1],u_normal_residual [1]")


@pytest.fixture(scope="module")
def table_runs(tmp_path_factory):
    """{subcommand: (output directory, stdout)} of one level-2 run of each."""
    root = tmp_path_factory.mktemp("tables")
    runs = {}
    for subcommand, sections in TABLE_RUNS.items():
        cfg = root / f"{subcommand}.cfg"
        write(cfg, f"[mesh]\nlevel = 2\n{sections}[output]\ndir = {root / subcommand}\n")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([subcommand, "--config", str(cfg)]) == 0
        runs[subcommand] = (root / subcommand, out.getvalue())
    return runs


def flow_rows(out, stdout):
    """The initial state and one row per accepted step."""
    return 1 + int(re.search(r"steps: (\d+) ", stdout).group(1))


def sweep_rows(out, stdout):
    row = next(line.split(",") for line in (out / "lambda_sweep.csv").read_text().splitlines()
               if line.startswith("1,"))
    return 1 + int(row[4])


@pytest.mark.parametrize("subcommand, name, header, rows, notes", [
    ("points-hard", "hard_report.csv",
     "point_index [1],x [length],y [length],z [length],value [length],residual [length]",
     6, ["energy"]),
    ("penalty-study", "penalty_rates.csv",
     "delta [1],h2_error [length],penalty_energy [energy]", 3, ["fitted rate"]),
    ("taylor-check", "taylor_residuals.csv",
     "rho [1],lagrangian [energy],residual [energy],slope_so_far [1]", 4, []),
    ("phase-flow", "flow_energy.csv", FLOW_HEADER, flow_rows, []),
    ("lambda-sweep", "sweep_lambda_+1_energy.csv", FLOW_HEADER, sweep_rows, []),
    ("lambda-sweep", "lambda_sweep.csv",
     "coupling [1/length],final_energy [energy],corr_u_phi [1],max_abs_u [length],"
     "steps [1],converged [bool]", 2, []),
], ids=["hard_report", "penalty_rates", "taylor_residuals", "flow_energy",
        "sweep_lambda_energy", "lambda_sweep"])
def test_cli_table_format(table_runs, subcommand, name, header, rows, notes):
    # A header with units, one line per row whose floats are %.17g, then the
    # "# name: value" notes.
    out, stdout = table_runs[subcommand]
    lines = (out / name).read_text().splitlines()
    assert lines[0] == header
    body = [line for line in lines[1:] if not line.startswith("#")]
    assert [line.split(":")[0] for line in lines[1 + len(body):]] == [f"# {n}" for n in notes]
    assert len(body) == (rows if isinstance(rows, int) else rows(out, stdout))
    for line in body:
        fields = line.split(",")
        assert len(fields) == header.count(",") + 1
        for s in fields:
            assert s in ("True", "False") or format(float(s), ".17g") == s


def test_cli_points_hard_large_kappa(tmp_path):
    # The fourth-order block grows with kappa; the solve must still meet the contract.
    cfg = tmp_path / "k.cfg"
    out = tmp_path / "out"
    write(cfg, f"""[mesh]
level = 3

[model]
kappa = 1000

[points]
preset = icosahedron
heights = 1

[output]
dir = {out}
""")
    assert main(["points-hard", "--config", str(cfg)]) == 0
    assert "output: ok" in (out / "manifest.txt").read_text()


def test_cli_manifest_on_failure(tmp_path):
    cfg = tmp_path / "f.cfg"
    out = tmp_path / "out"
    write(cfg, f"""[mesh]
level = 2

[points]
preset = explicit
points = 1 0 0; 1 0 0
heights = 1

[output]
dir = {out}
""")
    # Duplicate attachment points: domain error after the mesh stage.
    assert main(["points-hard", "--config", str(cfg)]) == 1
    manifest = (out / "manifest.txt").read_text()
    assert "failed: error" in manifest
    assert "mesh: ok" in manifest


@pytest.mark.parametrize("points", ["preset = equator\ncount = 0"])
def test_cli_empty_point_set_is_domain_error(tmp_path, points):
    cfg = tmp_path / "e.cfg"
    out = tmp_path / "out"
    write(cfg, f"[mesh]\nlevel = 2\n[points]\n{points}\n[output]\ndir = {out}\n")
    assert main(["points-hard", "--config", str(cfg)]) == 1
    assert "failed: error" in (out / "manifest.txt").read_text()


def test_cli_unresolved_points_at_level_0_are_domain_error(tmp_path, capsys):
    # The equator points lift onto the coarsest mesh, two of them into one triangle.
    cfg = tmp_path / "u.cfg"
    out = tmp_path / "out"
    write(cfg, f"[mesh]\nlevel = 0\n[points]\npreset = equator\n[output]\ndir = {out}\n")
    assert main(["points-hard", "--config", str(cfg)]) == 1
    assert "lie in one triangle" in capsys.readouterr().err
    assert "failed: error" in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("points", ["preset = equator\ncount = -1"])
def test_cli_negative_point_count_is_config_error(tmp_path, capsys, points):
    # A negative count is a configuration error that names its key (exit 2).
    cfg = tmp_path / "n.cfg"
    out = tmp_path / "out"
    write(cfg, f"[mesh]\nlevel = 1\n[points]\n{points}\n[output]\ndir = {out}\n")
    assert main(["points-hard", "--config", str(cfg)]) == 2
    key = points.split("\n")[1].split(" = ")[0]
    assert f"[points] {key} must be nonnegative" in capsys.readouterr().err
    assert "failed: error" in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("preset,key,reader", [
    ("icosahedron", "count = 3", "equator"), ("polar_rings", "count = 3", "equator"),
    ("equator", "points = 0 0 1", "explicit"), ("icosahedron", "points = 0 0 1", "explicit"),
])
def test_cli_points_key_of_another_preset_is_config_error(tmp_path, capsys, preset, key, reader):
    # A key that only another preset reads would be ignored: it is a
    # configuration error that names the key and the preset (exit 2).
    cfg = tmp_path / "k.cfg"
    out = tmp_path / "out"
    write(cfg, f"[mesh]\nlevel = 1\n[points]\npreset = {preset}\n{key}\n[output]\ndir = {out}\n")
    assert main(["points-hard", "--config", str(cfg)]) == 2
    name = key.split(" = ")[0]
    assert (f"[points] {name} is read only by preset = {reader}, not by preset = {preset}"
            in capsys.readouterr().err)
    assert "failed: error" in (out / "manifest.txt").read_text()


def test_cli_taylor_check(tmp_path):
    cfg = tmp_path / "t.cfg"
    out = tmp_path / "out"
    write(cfg, f"""[mesh]
level = 3

[taylor]
field = xy
mu = 0.5

[output]
dir = {out}
""")
    assert main(["taylor-check", "--config", str(cfg)]) == 0
    assert (out / "taylor_residuals.csv").exists()


def test_cli_consistent_taylor_check_never_builds_the_operator(tmp_path, monkeypatch):
    # The consistent check reads S, M and the constraint rows, never A.
    import spheremem.model as model

    monkeypatch.setattr(model, "_bending_operator",
                        lambda *a: pytest.fail("the operator A was built"))
    cfg = tmp_path / "t.cfg"
    out = tmp_path / "out"
    write(cfg, f"""[mesh]
level = 3

[taylor]
field = z2
mu = 0.5
reconstruction = consistent

[output]
dir = {out}
""")
    assert main(["taylor-check", "--config", str(cfg)]) == 0
    assert (out / "taylor_residuals.csv").exists()


def test_cli_phase_flow(tmp_path):
    cfg = tmp_path / "p.cfg"
    out = tmp_path / "out"
    write(cfg, f"""[mesh]
level = 2

[phase]
epsilon = 0.5
coupling = -2
tau = 0.05
t_end = 0.2

[output]
dir = {out}
""")
    assert main(["phase-flow", "--config", str(cfg)]) == 0
    assert (out / "flow_energy.csv").exists()
    assert (out / "flow_final.vtk").exists()


def test_cli_lambda_sweep(tmp_path):
    cfg = tmp_path / "s.cfg"
    out = tmp_path / "out"
    write(cfg, f"""[mesh]
level = 2

[phase]
epsilon = 0.5
tau = 0.05
t_end = 0.1

[sweep]
couplings = -1 0 1

[output]
dir = {out}
""")
    assert main(["lambda-sweep", "--config", str(cfg)]) == 0
    table = (out / "lambda_sweep.csv").read_text().splitlines()
    assert len(table) == 4
    assert (out / "sweep_lambda_+0.vtk").exists() or (out / "sweep_lambda_0.vtk").exists()


def test_cli_lambda_sweep_empty_couplings_exits_2(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    out = tmp_path / "out"
    write(cfg, f"[mesh]\nlevel = 1\n[sweep]\ncouplings =\n[output]\ndir = {out}\n")
    assert main(["lambda-sweep", "--config", str(cfg)]) == 2
    assert "couplings" in capsys.readouterr().err
    assert not (out / "lambda_sweep.csv").exists()
    assert "failed: error" in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("couplings", ["1 1", "1 1.000001"])
def test_cli_lambda_sweep_clashing_couplings_exit_2(tmp_path, capsys, monkeypatch, couplings):
    # Both couplings would write sweep_lambda_+1.*; neither flow may run.
    monkeypatch.setattr(cli, "run_flow", lambda *a, **k: pytest.fail("flow ran"))
    cfg = tmp_path / "s.cfg"
    out = tmp_path / "out"
    write(cfg, f"[mesh]\nlevel = 1\n[sweep]\ncouplings = {couplings}\n[output]\ndir = {out}\n")
    assert main(["lambda-sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "clash" in err and couplings.split()[1] in err
    assert not (out / "lambda_sweep.csv").exists()
    assert "failed: error" in (out / "manifest.txt").read_text()


def test_cli_negative_seed_is_domain_error(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    out = tmp_path / "out"
    write(cfg, f"[mesh]\nlevel = 2\n[phase]\nepsilon = 0.5\nt_end = 0.1\n"
               f"[run]\nseed = -1\n[output]\ndir = {out}\n")
    assert main(["phase-flow", "--config", str(cfg)]) == 1
    assert "error: seed must be non-negative" in capsys.readouterr().err
    assert "failed: error" in (out / "manifest.txt").read_text()


def test_cli_mesh_negative_level_is_domain_error(tmp_path, capsys):
    assert main(["mesh", "--level", "-1", "--out", str(tmp_path / "m.vtk")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_cli_mesh_non_finite_radius_writes_nothing(tmp_path, capsys, radius):
    out = tmp_path / "m.vtk"
    assert main(["mesh", "--R", radius, "--level", "1", "--out", str(out)]) == 1
    assert "radius must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_negative_level_writes_failed_manifest(tmp_path):
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "out"
    write(cfg, f"[mesh]\nlevel = -1\n[output]\ndir = {out}\n")
    assert main(["points-hard", "--config", str(cfg)]) == 1
    manifest = (out / "manifest.txt").read_text()
    assert "failed: error" in manifest and "mesh: ok" not in manifest


@pytest.mark.parametrize("key", ["field", "reconstruction"])
def test_cli_taylor_bad_choice_exits_2(tmp_path, key):
    cfg = tmp_path / "t.cfg"
    write(cfg, f"[mesh]\nlevel = 1\n[taylor]\n{key} = foo\n[output]\ndir = {tmp_path}\n")
    assert main(["taylor-check", "--config", str(cfg)]) == 2


def test_shipped_configs_load():
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert configs
    for path in configs:
        load_config(str(path))


def test_cli_lambda_sweep_writes_energy_history_per_coupling(tmp_path):
    cfg = tmp_path / "s.cfg"
    body = """[mesh]
level = 2

[phase]
epsilon = 0.5
coupling = 1
tau = 0.05
t_end = 0.1

[sweep]
couplings = 1

[output]
dir = {}
"""
    write(cfg, body.format(tmp_path / "sweep"))
    assert main(["lambda-sweep", "--config", str(cfg)]) == 0
    write(cfg, body.format(tmp_path / "flow"))
    assert main(["phase-flow", "--config", str(cfg)]) == 0
    history = (tmp_path / "sweep" / "sweep_lambda_+1_energy.csv").read_bytes()
    assert history == (tmp_path / "flow" / "flow_energy.csv").read_bytes()
    # Recorded byte for byte (x86-64, NumPy 2.4.6, SciPy 1.17.1, one BLAS
    # thread): any change to the table's columns, their order, their format
    # or the flow's arithmetic shows here.
    assert history == (Path(__file__).parent / "data" / "flow_energy_l2.csv").read_bytes()
