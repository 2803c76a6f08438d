import os
from pathlib import Path

import numpy as np
import pytest

from spheremem.cli import main
from spheremem.config import load_config
from spheremem.errors import ConfigError, MeshTopologyError
from spheremem.mesh import TriangleMesh, build_icosphere
from spheremem.vtk_io import read_vtk, write_vtk


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


# -- vtk -----------------------------------------------------------------------

def test_vtk_roundtrip(tmp_path):
    mesh = build_icosphere(1.0, 2)
    u = np.sin(3 * mesh.vertices[:, 2])
    path = tmp_path / "m.vtk"
    write_vtk(path, mesh, {"u": u})
    mesh2, fields = read_vtk(path)
    np.testing.assert_array_equal(mesh2.vertices, mesh.vertices)
    np.testing.assert_array_equal(mesh2.triangles, mesh.triangles)
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


def test_vtk_rejects_garbage(tmp_path):
    path = tmp_path / "bad.vtk"
    write(path, "not a vtk file\n")
    with pytest.raises(ConfigError):
        read_vtk(path)


def test_vtk_read_rejects_open_mesh(tmp_path):
    # A connectivity read from a file is checked once, on reading.
    mesh = build_icosphere(1.0, 1)
    path = tmp_path / "open.vtk"
    write_vtk(path, TriangleMesh(mesh.vertices, mesh.triangles[:-1]))
    with pytest.raises(MeshTopologyError):
        read_vtk(path)


# -- config --------------------------------------------------------------------

def test_config_defaults():
    cfg = load_config(None)
    assert cfg.R == 1.0 and cfg.level == 4 and cfg.seed == 0


def test_config_unknown_key_listed(tmp_path):
    path = tmp_path / "c.cfg"
    write(path, "[mesh]\nlevel = 2\nradius = 1\n[bogus]\nx = 1\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    msg = str(exc.value)
    assert "radius" in msg and "bogus" in msg


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
    mesh, _ = read_vtk(out)
    assert mesh.num_vertices == 642


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


def test_cli_usage_error():
    assert main(["no-such-command"]) == 2


def test_cli_config_error_exits_2(tmp_path):
    path = tmp_path / "c.cfg"
    write(path, "[mesh]\nlevvel = 2\n")
    assert main(["taylor-check", "--config", str(path)]) == 2


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


@pytest.mark.parametrize("points", ["preset = equator\ncount = 0",
                                    "preset = polar_rings\npoints_per_ring = 0"])
def test_cli_empty_point_set_is_domain_error(tmp_path, points):
    cfg = tmp_path / "e.cfg"
    out = tmp_path / "out"
    write(cfg, f"[mesh]\nlevel = 2\n[points]\n{points}\n[output]\ndir = {out}\n")
    assert main(["points-hard", "--config", str(cfg)]) == 1
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


def test_cli_mesh_negative_level_is_domain_error(tmp_path, capsys):
    assert main(["mesh", "--level", "-1", "--out", str(tmp_path / "m.vtk")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_cli_mesh_non_finite_radius_writes_nothing(tmp_path, capsys, radius):
    out = tmp_path / "m.vtk"
    assert main(["mesh", "--R", radius, "--level", "1", "--out", str(out)]) == 1
    assert "radius must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_points_non_finite_rho_visual_fails_before_solving(tmp_path):
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "out"
    write(cfg, f"[mesh]\nlevel = 2\n[points]\nrho_visual = nan\n[output]\ndir = {out}\n")
    assert main(["points-hard", "--config", str(cfg)]) == 1
    manifest = (out / "manifest.txt").read_text()
    assert "failed: error" in manifest and "solve: ok" not in manifest
    assert not (out / "hard_displaced.vtk").exists()


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
