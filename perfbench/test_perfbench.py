"""Quick test of the benchmark itself, on small meshes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs at the smallest level where its checks hold: points at
level 2, the flow and the Taylor check at level 3 (at level 2 the flow's
interface is under-resolved and the Taylor residual is floor-limited).
"""
import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

QUICK_LEVELS = {"flow-coarsen": 3, "points-l5": 2, "taylor-l6": 3}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def quick(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], level=QUICK_LEVELS[name])


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric(name):
    res = run.run(quick(name), seed=1, seconds=0, trace=True)
    assert res["correct"], res["errors"]
    untraced = json.loads(run.result_line(res, trace=False))
    traced = json.loads(run.result_line(res, trace=True))
    for line, spec in ((untraced, BENCHMARK["end_to_end"]), (traced, BENCHMARK["per_layer"])):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {m["name"]: m["unit"] for m in spec} == {
            k: v["unit"] for k, v in line["metrics"].items()}
    assert untraced["metrics"]["wall_s"]["value"] > 0
    layers = res["layers"]
    # Self times and the unattributed rest add up to the traced wall time.
    total = sum(v for k, v in layers.items() if k.startswith("self.")) \
        + layers["cli.self_s"] + layers["unattributed_s"]
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert 0 <= layers["unattributed_s"] < 0.01 * layers["trace.wall_s"]
    if name == "flow-coarsen":
        ref = workloads.FLOW_REFERENCES[(3, workloads.flow_seed(1))]
        assert (layers["phasefield.accepted_steps"], layers["phasefield.rejected_steps"]) \
            == ref[:2]
        assert layers["superlu.phasefield.factor_calls"] == layers["phasefield.solver_inits"]


def test_ledger_reports_changed_counts():
    os.makedirs(run.WORK)
    assert run.ledger_check("k", {"superlu.factor_calls": 6}) == []
    assert run.ledger_check("k", {"superlu.factor_calls": 6}) == []
    assert run.ledger_check("k", {"superlu.factor_calls": 7})


def _cli_outputs(name: str, out_dir: str):
    """Run the workload's first call in process and return what the checks need."""
    import spheremem.cli as cli

    wl = quick(name)
    call = wl.calls(1)[0]
    cfg = os.path.join(out_dir, "run.cfg")
    with open(cfg, "w") as fh:
        fh.write(wl.config_text(call, out_dir))
    capture = {}
    run_flow = cli.run_flow
    child._capture_flow(cli, capture)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([call.subcommand, "--config", cfg]) == 0
    finally:
        cli.run_flow = run_flow
    return wl, call, out.getvalue(), child._flow_capture_summary(capture)


def _scale_cell(path: str, line: int, col: int, factor: float) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[line].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[line] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_checks_catch_corrupted_outputs(tmp_path):
    for name in ("points-l5", "taylor-l6", "flow-coarsen"):
        out_dir = str(tmp_path / name)
        os.makedirs(out_dir)
        wl, call, stdout, capture = _cli_outputs(name, out_dir)
        assert workloads.check_output(wl, call, out_dir, stdout, capture)[1] == []
        if name == "points-l5":
            # The last H2 error no longer below the one before it.
            _scale_cell(os.path.join(out_dir, "penalty_rates.csv"), -2, 1, 100.0)
        elif name == "taylor-l6":
            stdout = stdout.replace("(converged)", "(floor-limited)")
        else:
            assert workloads.check_output(
                wl, call, out_dir, stdout, dict(capture, lambda_residual=1e-6))[1]
            assert workloads.check_output(
                wl, call, out_dir, stdout.replace("steps: ", "steps: 1", 1), capture)[1]
            # An energy that rises.
            _scale_cell(os.path.join(out_dir, "flow_energy.csv"), 5, 1, 1.1)
        assert workloads.check_output(wl, call, out_dir, stdout, capture)[1]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "taylor-l6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
