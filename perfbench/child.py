"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the checkout's ``src`` directory, the workload, the call, the
config file, whether to trace, and where to write the result.  The child
caps its address space, times the set-up a CLI user pays (``import
spheremem.cli``, then ``build_icosphere`` and ``assemble_quadratic_form`` at
the workload's level), then runs ``cli.main`` once, checks the outputs and
writes one JSON result.  A set-up-only child stops after the set-up.

Nothing but the standard library is imported before the set-up is timed.
"""
import contextlib
import dataclasses
import gc
import io
import json
import resource
import sys
import time
import traceback

#: Address-space cap, so running out of memory fails one operation with
#: MemoryError instead of taking the machine's memory.
ADDRESS_SPACE_BYTES = 3 << 30


def _setup(spec: dict) -> dict:
    t0 = time.perf_counter()
    import spheremem.cli  # noqa: F401
    t1 = time.perf_counter()
    from spheremem.mesh import build_icosphere
    from spheremem.model import ModelParams, assemble_quadratic_form

    t2 = time.perf_counter()
    form = assemble_quadratic_form(build_icosphere(1.0, spec["level"]),
                                   ModelParams(1.0, 1.0, 1.0))
    t3 = time.perf_counter()
    del form
    gc.collect()
    return {"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)}


def _capture_flow(cli, capture: dict) -> None:
    """Keep what ``run_flow`` returns, for the multiplier check."""
    run_flow = cli.run_flow

    def capturing(initial, form, pf, *args, **kwargs):
        final, report = run_flow(initial, form, pf, *args, **kwargs)
        capture.update(final=final, form=form, pf=pf, report=report)
        return final, report

    cli.run_flow = capturing


def _flow_capture_summary(capture: dict) -> dict:
    """|lambda_phi + (b/eps) mean f'(phi)| in b/eps units (criterion 9)."""
    if "final" not in capture:
        return {}
    final, form, pf = capture["final"], capture["form"], capture["pf"]
    phi = final.phi
    shift = pf.epsilon * form.params.kappa * pf.coupling**2 / pf.b
    fp = phi**3 - phi + shift * phi
    mean_fp = float(form.m_lumped @ fp) / float(form.m_lumped.sum())
    scale = pf.b / pf.epsilon
    return {"lambda_residual": abs(final.lambda_phi + scale * mean_fp) / scale,
            "final_tau": float(capture["report"].final_tau)}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    sys.path.insert(0, spec["src"])
    result = _setup(spec)
    if not spec["setup_only"]:
        result.update(_operation(spec))
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def _operation(spec: dict) -> dict:
    import numpy
    import scipy
    import spheremem.cli as cli
    import tracing
    import workloads

    wl = dataclasses.replace(workloads.WORKLOADS[spec["workload"]], level=spec["level"])
    call = workloads.Call(**spec["call"])
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    capture: dict = {}
    _capture_flow(cli, capture)
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([call.subcommand, "--config", spec["config"]])
    except Exception:  # a crash is a failed operation, recorded with its traceback
        rc = -1
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rc != 0 and not error:
        error = err.getvalue().strip() or f"exit code {rc}"
    summary, problems = {}, []
    if rc == 0:
        summary, problems = workloads.check_output(
            wl, call, spec["out_dir"], out.getvalue(), _flow_capture_summary(capture))
    return {
        "rc": rc, "error": error, "wall_s": wall, "peak_rss_mb": peak_rss_mb,
        "summary": summary, "problems": problems,
        "spans": tracer.spans if tracer else None,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
