"""Benchmark driver for the satotate package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {seed,figures,density,certify,all}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Each workload first sets up (inputs from the seed, references for the
checks; the seconds spent are logged and kept out of every metric), then
starts import-only probe children, then runs the workload as a closed loop
of one client: a fresh child process (child.py) at a time, each starting
when the previous one has exited, for about ``--seconds``.  The driver, its
children and the speed sampler of ``speed.py`` share one pinned CPU.  Every
child gets its own temporary cache and output directories under
``.bench_build/perfbench``, with SATOTATE_CACHE_DIR pointed at the cache,
so ``~/.cache`` is never touched.

With ``--trace 0`` the children run untraced and the result holds the
end-to-end metrics, each the median over the run's children:

* ``wall_s``       child spawn to exit, measured here;
* ``setup_s``      time in the child to ``import satotate.cli``, over every
                   child, import-only probes included;
* ``cpu_s``        user + system CPU of the child, from its rusage;
* ``peak_rss_mb``  the child's maximum resident set size.

The three times are normalised seconds: each raw time is multiplied by the
speed factor of ``speed.py`` for the interval it covers, so that the
shared host's changes of speed cancel out.  The raw times and the factors
are in the report line.

With ``--trace 1`` traced and untraced children alternate; the result holds
the per-layer metrics of ``layers.METRICS`` (medians over traced children,
raw seconds) and ``trace.overhead_s``, the median normalised wall time of
the traced children minus that of the untraced ones.

A child fails when it exits non-zero or an output check fails; the
``fail_ratio`` line counts every child started, set-up children included.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it reports the
machine facts, the set-up log and every sample.  The exit code is 0 only
when every child passed.

The sha256 digests in ``expected.json`` were recorded from
``satotate fetch --seed-bundled --n N`` and
``satotate figures --f 5.4.a.a --fp 6.6.a.a --x-max N`` at the commit that
introduced this benchmark; the README promises byte-identical re-runs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: a child still running after this long is killed and counted as failed
CHILD_TIMEOUT_S = 150.0


@dataclass
class Sample:
    dir: Path
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    started: float = 0.0  # perf_counter at spawn and at exit
    ended: float = 0.0
    factor: float = 1.0  # speed factor over the child's life
    import_at: float | None = None
    import_s: float | None = None
    import_factor: float = 1.0  # speed factor over its import
    errors: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)

    @property
    def ok(self):
        return self.exit_code == 0 and not self.errors


class Runner:
    """Starts children one at a time and keeps every sample."""

    def __init__(self, src, run_dir):
        self.src = src
        self.run_dir = run_dir
        self.samples = []

    def run(self, job, cache_files=(), keep=False, traced=False):
        child_dir = Path(tempfile.mkdtemp(prefix="child-", dir=self.run_dir))
        (child_dir / "cache").mkdir()
        (child_dir / "out").mkdir()
        for path in cache_files:
            shutil.copyfile(path, child_dir / "cache" / Path(path).name)
        job_path = child_dir / "job.json"
        job = {"src": str(self.src), "trace": traced, "steps": [], "checks": [], **job}
        job_path.write_text(json.dumps(job), encoding="utf-8")
        env = dict(os.environ, SATOTATE_CACHE_DIR=str(child_dir / "cache"))
        with open(child_dir / "log.txt", "wb") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(job_path)],
                cwd=child_dir, env=env, stdout=log, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(
            dir=child_dir,
            traced=traced,
            wall_s=ended - started,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=proc.returncode,
            started=started,
            ended=ended,
        )
        result_path = child_dir / "result.json"
        if result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
            sample.import_at, sample.import_s = result["import_at"], result["import_s"]
            sample.errors = result["errors"]
            sample.spans, sample.counts = result["spans"], result["counts"]
            sample.missing = result["missing"]
        else:
            sample.errors = [f"child exited {proc.returncode} without a result"]
        if not sample.ok:
            tail = (child_dir / "log.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"child failed in {child_dir.name}: {sample.errors}\n{tail}", file=sys.stderr)
        if not keep:
            shutil.rmtree(child_dir, ignore_errors=True)
        self.samples.append(sample)
        return sample


def machine_facts():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sympy": version("sympy"),
        "matplotlib_present": importlib.util.find_spec("matplotlib") is not None,
        "blas_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        },
        "isolation": "one child at a time, pinned to one CPU with the speed sampler; fresh "
        "temp cache and output dirs per child; SATOTATE_CACHE_DIR set to the child's cache",
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, args, digests, keep_dir):
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=keep_dir))
    runner = Runner(ROOT / "src", run_dir)
    ctx = workloads.Context(
        seed=args.seed,
        size=workloads.SIZES[args.size],
        digests=digests,
        run_dir=run_dir,
        keep_dir=keep_dir,
        spawn=runner.run,
        log={},
    )
    try:
        started = time.perf_counter()
        plan = workloads.WORKLOADS[name](ctx)
        ctx.log["setup_total_s"] = time.perf_counter() - started
        n_setup = len(runner.samples)
        timed = []
        with speed.Sampler(run_dir / "speed.txt") as sampler:
            for _ in range(ctx.size["probes"]):  # import-only children for setup_s
                runner.run({})
            if all(s.ok for s in runner.samples):
                job = {"steps": plan.steps, "checks": plan.checks}
                kinds = (True, False) if args.trace else (False,)
                loop_start = time.perf_counter()
                while True:
                    traced = kinds[len(timed) % len(kinds)]
                    same = [s.wall_s for s in timed if s.traced == traced]
                    done = all(any(s.traced == k for s in timed) for k in kinds)
                    if done and time.perf_counter() - loop_start + _median(same) > args.seconds:
                        break
                    timed.append(runner.run(job, plan.cache_files, traced=traced))
            measured = runner.samples[n_setup:]
            for s in measured:
                s.factor = sampler.factor(s.started, s.ended)
                if s.import_s is not None:
                    s.import_factor = sampler.factor(s.import_at, s.import_at + s.import_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = [s for s in timed if not s.traced]
    traced = [s for s in timed if s.traced]
    metrics = {}
    if args.trace:
        per_child = [layers.layer_values(s.spans, s.counts) for s in traced]
        for metric, unit, _ in layers.METRICS:
            metrics[metric] = (_median([v[metric] for v in per_child]), unit, len(per_child))
        overhead = _median([s.wall_s * s.factor for s in traced]) - _median(
            [s.wall_s * s.factor for s in untraced]
        )
        metrics["trace.overhead_s"] = (overhead, "s", len(traced))
    else:
        imports = [s.import_s * s.import_factor for s in measured if s.import_s is not None]
        metrics = {
            "wall_s": (_median([s.wall_s * s.factor for s in untraced]), "s", len(untraced)),
            "setup_s": (_median(imports), "s", len(imports)),
            "cpu_s": (_median([s.cpu_s * s.factor for s in untraced]), "s", len(untraced)),
            "peak_rss_mb": (_median([s.peak_rss_mb for s in untraced]), "MB", len(untraced)),
        }
    failed = sum(not s.ok for s in runner.samples)
    report = {
        "workload": name,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "setup_log_s": ctx.log,
        "missing_hooks": sorted({m for s in traced for m in s.missing}),
        "samples": [
            {"traced": s.traced, "raw_wall_s": s.wall_s, "raw_cpu_s": s.cpu_s, "factor": s.factor,
             "peak_rss_mb": s.peak_rss_mb, "raw_import_s": s.import_s, "import_factor": s.import_factor,
             "ok": s.ok}
            for s in measured
        ],
    }
    return metrics, len(runner.samples), failed, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="recorded output digests (tests point this at a corrupted copy)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "satotate" / "cli.py").is_file():
        print(f"error: no satotate package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    digests = json.loads(args.expected.read_text(encoding="utf-8"))[args.size]
    keep_dir = ROOT / ".bench_build" / "perfbench"
    keep_dir.mkdir(parents=True, exist_ok=True)
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)

    # A driver stopped by SIGTERM still stops its child and the sampler.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for the driver and every child it starts: a child that the
    # scheduler moves between CPUs runs up to a third slower, and varies more.
    facts = machine_facts()
    facts["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {facts["pinned_cpu"]})
    metrics, attempted, failed, reports = {}, 0, 0, []
    for name in names:
        wl_metrics, wl_attempted, wl_failed, report = run_workload(name, args, digests, keep_dir)
        attempted += wl_attempted
        failed += wl_failed
        reports.append(report)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit, count) in wl_metrics.items():
            print(f"{name:8s} {metric:32s} {value:14.6f} {unit:6s} n={count}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
        print(f"{name:8s} {'fail_ratio':32s} {wl_failed / wl_attempted:14.6f} {'':6s} "
              f"n={wl_attempted} ({wl_failed} failed)")
    print(json.dumps({"facts": facts, "runs": reports}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
