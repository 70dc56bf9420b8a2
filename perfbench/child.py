"""One benchmark child: import satotate.cli, run a workload's steps, check.

Usage: python3 child.py JOB.json

The driver (run.py) starts each child in a fresh directory holding its own
coefficient cache.  The job names the package's ``src`` directory, the
steps (CLI argument lists run through ``satotate.cli.main``, or arguments
for ``envelopes``, which goes through the public API), the output checks,
and whether to trace.  The child writes ``result.json`` beside the job and
exits 0 only if every step returned 0 and every check passed.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def envelopes(path, method, modes, xs, params):
    """``ErrorEnvelope(mode, *params).<method>(x)`` for every mode and x."""
    from satotate import region

    values = {}
    for mode in modes:
        env = region.ErrorEnvelope(mode, *params)
        for x in xs:
            values[f"{mode}@{x:g}"] = getattr(env, method)(x)
    Path(path).write_text(json.dumps(values), encoding="utf-8")
    return 0


def run_step(step, tracer):
    import satotate.cli

    if "cli" in step:
        fn, kwargs = satotate.cli.main, {"argv": step["cli"]}
    else:
        fn, kwargs = envelopes, step["envelopes"]
    name = f"step.{step['name']}"
    try:
        rc = tracer.call(name, fn, **kwargs)[0] if tracer else fn(**kwargs)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    return [] if rc == 0 else [f"step {step['name']} returned {rc}"]


def main(job_path):
    job_path = Path(job_path)
    job = json.loads(job_path.read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    # nothing that loads numpy is imported above this line: setup_s counts it
    started = time.perf_counter()
    import satotate.cli

    import_s = time.perf_counter() - started
    result = {
        "import_at": started, "import_s": import_s, "errors": [], "spans": [], "counts": {}, "missing": [],
    }
    if src not in Path(satotate.cli.__file__).resolve().parents:
        result["errors"].append(f"imported {satotate.cli.__file__}, not the package under {src}")
    tracer = None
    if job["trace"]:
        import layers
        import spans

        tracer = spans.Tracer()
        result["missing"] = spans.install(tracer, layers.HOOKS)
    try:
        for step in job["steps"]:
            result["errors"] += run_step(step, tracer)
            if result["errors"]:
                break
        if not result["errors"]:
            import checks

            for check in job["checks"]:
                result["errors"] += checks.CHECKS[check["kind"]](**check["args"])
    except Exception:  # report any crash as a failed run, with its traceback
        result["errors"].append(traceback.format_exc())
    if tracer:
        result["spans"], result["counts"] = tracer.spans, tracer.counts
    (job_path.parent / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0 if not result["errors"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
