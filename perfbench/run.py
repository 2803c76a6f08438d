"""spheremem benchmark: end-to-end and per-layer metrics of three CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is ``flow-coarsen``, ``points-l5`` or ``taylor-l6`` (see
``workloads.py``).  Each operation runs in a fresh interpreter, one at a
time, with BLAS and OpenMP pinned to one thread.  A run first spawns
``SETUP_CHILDREN`` set-up-only children, then repeats the workload's calls
until S seconds have passed (at least one round).  With ``--trace 1`` it then
makes one more, traced round and reports the per-layer metrics of that round;
otherwise it reports the end-to-end metrics.  ``all`` runs every workload
untraced and then traced and prints both sets of metrics as a table.

For a single workload, the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
benchmark exits with a non-zero code and prints no result when the checkout
has no ``src/spheremem`` or when no operation completed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

SETUP_CHILDREN = 4
#: A run starts no new round once this much time has passed, and no child
#: may run past RUN_LIMIT_S, so a run ends well within its 180 s allowance.
ROUND_BUDGET_S = 100.0
RUN_LIMIT_S = 170.0

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Counts that must repeat exactly for the same code and seed.
DETERMINISTIC_COUNTS = ("phasefield.accepted_steps", "phasefield.rejected_steps",
                        "phasefield.energy_calls", "superlu.factor_calls",
                        "superlu.solve_calls", "superlu.lu_nnz")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("accept_ratio", "energy_per_step")):
        return "1"
    if name.endswith("final_tau"):
        return "time"
    return "count"


class BenchmarkError(Exception):
    """The benchmark could not measure: no result is printed."""


def source_hash() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "spheremem")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def machine_record(seed: int, versions: dict) -> dict:
    sha = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cores": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "machine": platform.machine(), **versions,
        "git_sha": sha, "source_sha256": source_hash(), "seed": seed,
    }


class Runner:
    """Spawns the children of one benchmark run and keeps its deadline."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.start = time.perf_counter()
        self.count = 0
        os.makedirs(WORK, exist_ok=True)
        # Peak RSS repeats only with a fixed malloc mmap threshold: glibc's
        # adaptive threshold and NumPy's huge-page advice each made the flow's
        # peak vary by tens of MB between identical runs.
        self.env = dict(os.environ, PYTHONHASHSEED="0", NUMPY_MADVISE_HUGEPAGE="0",
                        MALLOC_MMAP_THRESHOLD_="131072",
                        **{k: "1" for k in THREAD_ENV})

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, call: workloads.Call | None, trace: bool = False) -> dict:
        self.count += 1
        tag = f"{self.workload.name}-{os.getpid()}-{self.count}"
        out_dir = os.path.join(WORK, tag)
        os.makedirs(out_dir)
        spec = {"src": SRC, "workload": self.workload.name, "level": self.workload.level,
                "setup_only": call is None, "trace": trace, "out_dir": out_dir,
                "result": os.path.join(out_dir, "result.json")}
        if call is not None:
            spec["call"] = {"label": call.label, "subcommand": call.subcommand,
                            "sections": call.sections}
            spec["config"] = os.path.join(out_dir, "run.cfg")
            with open(spec["config"], "w") as fh:
                fh.write(self.workload.config_text(call, out_dir))
        spec_path = os.path.join(out_dir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                env=self.env, capture_output=True, text=True,
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
            if proc.returncode == 0:
                with open(spec["result"]) as fh:
                    result = json.load(fh)
            else:
                result = {"rc": proc.returncode, "error": proc.stderr.strip()[-2000:]}
        except subprocess.TimeoutExpired:
            result = {"rc": -9, "error": "timed out"}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if call is None:
            if "setup_s" not in result:
                raise BenchmarkError(f"set-up child failed: {result.get('error')}")
            return result
        result["label"] = call.label
        result["traced"] = trace
        result["completed"] = result.get("rc") == 0 and not result.get("problems")
        return result


def log_op(r: dict) -> None:
    kind = "traced" if r["traced"] else "op"
    if r["completed"]:
        print(f"{kind} {r['label']}: ok wall {r['wall_s']:.3f} s, setup "
              f"{r['setup_s']:.3f} s, peak RSS {r['peak_rss_mb']:.0f} MB, "
              f"{json.dumps(r['summary'])}", flush=True)
    else:
        lines = r.get("error", "").splitlines()
        why = "; ".join(r.get("problems") or []) or (lines[-1] if lines else "no result")
        print(f"{kind} {r['label']}: FAILED ({why})", flush=True)


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result dict before metric selection."""
    runner = Runner(workload)
    calls = workload.calls(seed)
    setups = [runner.child(None) for _ in range(SETUP_CHILDREN)]
    ops: list[dict] = []
    loop_start = runner.elapsed()
    while True:
        round_start = runner.elapsed()
        for call in calls:
            ops.append(runner.child(call))
            log_op(ops[-1])
        now = runner.elapsed()
        if now - loop_start >= seconds or now + (now - round_start) > ROUND_BUDGET_S:
            break
    traced = []
    if trace:
        for call in calls:
            traced.append(runner.child(call, trace=True))
            log_op(traced[-1])

    done = [r for r in ops if r["completed"]]
    if not done:
        raise BenchmarkError("no operation completed")
    errors = [f"{r['label']}: {p}" for r in ops + traced for p in r.get("problems", [])]
    setup_samples = [r["setup_s"] for r in setups + ops if "setup_s" in r]
    import_samples = [r["import_s"] for r in setups + ops + traced if "import_s" in r]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in done),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in done),
    }
    layers = None
    if trace:
        layers, problems = layer_report(workload, seed, ops, traced)
        errors += problems
        layers["import_s"] = statistics.median(import_samples)
    versions = next((r["versions"] for r in ops if "versions" in r), {})
    return {
        "correct": not errors, "errors": errors,
        "attempted": len(ops), "failed": len(ops) - len(done),
        "metrics": metrics, "layers": layers,
        "machine": machine_record(seed, versions),
    }


def layer_report(workload, seed, ops, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced round, averaged over completed calls,
    and the problems that show the traced round disagrees with the rest."""
    problems = []
    done = [r for r in traced if r["completed"]]
    if not done:
        return {}, ["no traced operation completed"]
    per_op = [tracing.layer_metrics(r["spans"], r["wall_s"], r["summary"].get("final_tau", 0.0))
              for r in done]
    layers = {k: statistics.fmean(m[k] for m in per_op) for k in per_op[0]}
    untraced = [r for r in ops if r["completed"] and r["label"] in {t["label"] for t in done}]
    layers["trace.overhead_s"] = (statistics.fmean(r["wall_s"] for r in done)
                                  - statistics.fmean(r["wall_s"] for r in untraced)
                                  if untraced else 0.0)
    for r in traced:
        same = [u for u in ops if u["label"] == r["label"]]
        if same and same[0]["completed"] != r["completed"]:
            problems.append(f"{r['label']}: the traced call {_outcome(r)} but the "
                            f"untraced call {_outcome(same[0])}")
        elif same and r["completed"] and same[0]["summary"] != r["summary"]:
            problems.append(f"{r['label']}: traced outputs {r['summary']} differ from "
                            f"untraced {same[0]['summary']}")
    for r, m in zip(done, per_op):
        if workload.name == "flow-coarsen":
            for key in ("accepted_steps", "rejected_steps"):
                if m[f"phasefield.{key}"] != r["summary"][key]:
                    problems.append(f"{r['label']}: traced {key} {m[f'phasefield.{key}']}"
                                    f" but the CLI reported {r['summary'][key]}")
        counts = {k: m[k] for k in DETERMINISTIC_COUNTS}
        problems += ledger_check(f"{source_hash()}:{workload.name}:L{workload.level}:"
                                 f"{seed}:{r['label']}", counts)
    return layers, problems


def _outcome(r: dict) -> str:
    return "completed" if r["completed"] else "failed"


def ledger_check(key: str, counts: dict) -> list[str]:
    """Compare counts with earlier traced runs of the same code and seed in
    this checkout, and record them for later runs."""
    path = os.path.join(WORK, "counts.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as fh:
            ledger = json.load(fh)
    if key in ledger:
        return [f"count {k} = {v} but an earlier run of the same code and seed had "
                f"{ledger[key][k]}" for k, v in counts.items() if ledger[key].get(k) != v]
    ledger[key] = counts
    with open(path, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    return []


def result_line(res: dict, trace: bool) -> str:
    chosen = res["layers"] if trace else res["metrics"]
    units = unit if trace else END_TO_END_UNITS.get
    return json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in chosen.items()},
    })


def print_metrics(title: str, metrics: dict, units) -> None:
    print(title)
    for k, v in metrics.items():
        print(f"  {k:36s} {v:>16.6g} {units(k)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spheremem", "cli.py")):
        print(f"no spheremem sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]
            trace = bool(args.trace) or args.workload == "all"
            print(f"== {name} (level {wl.level}, seed {args.seed}, "
                  f"{'traced' if trace else 'untraced'})", flush=True)
            res = run(wl, args.seed, args.seconds, trace)
            print("machine: " + json.dumps(res["machine"]))
            for e in res["errors"]:
                print(f"ERROR {e}")
            results[name] = res
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(result_line(results[args.workload], bool(args.trace)))
        return 0
    for name, res in results.items():
        print(f"== {name}: {res['attempted'] - res['failed']} of {res['attempted']} "
              f"operations completed, correct {res['correct']}")
        print_metrics("end to end (untraced)", res["metrics"], END_TO_END_UNITS.get)
        print_metrics("per layer (traced)", res["layers"], unit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
