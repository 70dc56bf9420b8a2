"""The benchmark's own tests, on the tiny workload sizes.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "3", "--seconds", "0.1", "--size", "tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_the_contract_metrics(trace, section):
    code, result = _bench("--workload", "all", "--trace", str(trace))
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(CONTRACT["workloads"])
    units = {m["name"]: m["unit"] for m in CONTRACT[section]}
    for wl in CONTRACT["workloads"]:
        got = {
            name.split(".", 1)[1]: metric["unit"]
            for name, metric in result["metrics"].items()
            if name.startswith(wl["name"] + ".")
        }
        assert got == units, wl["name"]
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_contract_lists_every_layer_metric():
    per_layer = [m["name"] for m in CONTRACT["per_layer"]]
    assert per_layer == [name for name, _, _ in layers.METRICS] + ["trace.overhead_s"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_digest_is_reported_as_a_failure(tmp_path):
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    digests = expected["tiny"]["seed"]
    first = next(iter(digests))
    digests[first] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected), encoding="utf-8")
    code, result = _bench("--workload", "seed", "--trace", "0", "--expected", str(corrupted))
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def _child(runner, plan, traced):
    sample = runner.run({"steps": plan.steps, "checks": plan.checks}, plan.cache_files, keep=True, traced=traced)
    assert sample.ok, sample.errors
    outputs = {p.relative_to(sample.dir / "out"): p.read_bytes() for p in (sample.dir / "out").rglob("*")}
    return sample, outputs


@pytest.mark.parametrize("workload", ["figures", "density"])
def test_tracing_keeps_outputs_byte_identical_and_spans_nested(workload, tmp_path):
    digests = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))["tiny"]
    runner = run.Runner(ROOT / "src", tmp_path)
    ctx = workloads.Context(
        seed=5, size=workloads.SIZES["tiny"], digests=digests, run_dir=tmp_path,
        keep_dir=tmp_path, spawn=runner.run, log={},
    )
    plan = workloads.WORKLOADS[workload](ctx)
    plain, plain_out = _child(runner, plan, traced=False)
    traced, traced_out = _child(runner, plan, traced=True)
    assert plain_out and traced_out == plain_out
    assert not traced.missing and traced.spans and not plain.spans

    recorded = traced.spans
    for sid, (_, parent, start, end) in enumerate(recorded, start=1):
        assert start <= end
        if parent:
            assert parent < sid
            assert recorded[parent - 1][2] <= start and end <= recorded[parent - 1][3]
    each = spans.self_times([[str(sid), p, s, e] for sid, (_, p, s, e) in enumerate(recorded, start=1)])
    assert all(v >= 0 for v in each.values())
    assert sum(each.values()) <= traced.wall_s


def test_self_time_subtracts_direct_children_only():
    # root span 1 (0..100) holds span 2 (10..40), which holds span 3 (20..30)
    recorded = [["a", 0, 0, 100], ["b", 1, 10, 40], ["c", 2, 20, 30], ["b", 1, 50, 60]]
    assert spans.self_times(recorded) == {"a": 60e-9, "b": 30e-9, "c": 10e-9}


def test_speed_factor_averages_the_child_interval_widened_to_enough_samples(tmp_path):
    # a host twice as slow from t = 100 s on: the kernel costs 2 * REFERENCE_NS
    path = tmp_path / "speed.txt"
    times = [i * speed.PERIOD_S for i in range(4000)]
    path.write_text("".join(
        f"{t:.6f} {speed.REFERENCE_NS * (2 if t >= 100 else 1)}\n" for t in times
    ))
    sampler = speed.Sampler(path)
    assert sampler.factor(10.0, 20.0) == pytest.approx(1.0)
    assert sampler.factor(150.0, 190.0) == pytest.approx(0.5)
    assert sampler.factor(50.0, 150.0) == pytest.approx(1 / 1.5, rel=1e-3)
    # an interval shorter than MIN_SAMPLES periods takes the nearest samples
    assert sampler.factor(99.99, 99.99) == pytest.approx(1 / 1.5, rel=0.06)
