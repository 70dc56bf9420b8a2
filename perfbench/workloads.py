"""The four workloads: their set-up, child steps and output checks.

Each ``prepare_*`` function runs in the driver before anything is timed.
It builds the workload's inputs from the seed, computes the references the
checks compare against, and returns a ``Plan``: the steps and checks every
child runs, and the files copied into each child's fresh cache directory.

Why these four: the cost of the package is spread over its modules, so no
single path can judge every change.

* ``seed``     cold ``fetch --seed-bundled``: the eta engine, the 6.6.a.a
               combination and coefficient-file writes.
* ``figures``  the paper's figures from a warm cache: sympy factoring,
               curve tracing, the dominance quadtree, file parsing, lifts,
               and the SVG/CSV writers.
* ``density``  the large-x path on synthetic tables read from the cache:
               file parsing, the sieve, normalization and lifts.
* ``certify``  certified measures, grid brackets and error envelopes: the
               quadtree, grid classification and pi(x) sieves up to 1e8.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import synth

#: Workload sizes: ``full`` is what the benchmark measures, ``tiny`` is the
#: benchmark's own smoke test.
SIZES = {
    "full": {
        "probes": 5,
        "seed_n": 100_000,
        "figures_x": 100_000,
        "density_n": 1_000_000,
        "measure_target": 1e-5,
        "bracket_m": (16, 64, 256, 1024),
        "envelope_xs": (1e6, 1e7, 1e8),
    },
    "tiny": {
        "probes": 1,
        "seed_n": 3_000,
        "figures_x": 3_000,
        "density_n": 5_000,
        "measure_target": 1e-3,
        "bracket_m": (16, 32),
        "envelope_xs": (1e4, 1e5),
    },
}

DENSITY_PAIRS = ((1, 1), (2, 2), (1, 2), (2, 4), (4, 4), (3, 6))

#: pi(x) at the envelope points, from published prime counts.
KNOWN_PI = {1e4: 1229, 1e5: 9592, 1e6: 78498, 1e7: 664579, 1e8: 5761455}

#: ErrorEnvelope(mode, k, k', N, N', L, alpha, beta) as acceptance criterion 9
#: sets it up: 5.4.a.a against 6.6.a.a with L = 10, alpha = 5, beta = 4.
ENVELOPE_PARAMS = (4, 6, 5, 6, 10.0, 5, 4)
ENVELOPE_MODES = ("Unconditional13", "Unconditional12")


@dataclass
class Plan:
    steps: list
    checks: list
    cache_files: list = field(default_factory=list)


@dataclass
class Context:
    seed: int
    size: dict
    digests: dict  # workload -> {relative path: sha256}
    run_dir: Path  # removed when the run ends
    keep_dir: Path  # survives across runs in the same checkout
    spawn: object  # run.Runner.run: (job fields, cache files, keep) -> Sample
    log: dict  # set-up seconds by name, reported but kept out of every metric


def _cli(name, *argv):
    return {"name": name, "cli": list(argv)}


def _timed(ctx, name, fn, *args):
    started = time.perf_counter()
    out = fn(*args)
    ctx.log[name] = ctx.log.get(name, 0.0) + time.perf_counter() - started
    return out


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- seed ------------------------------------------------------------------------


def prepare_seed(ctx):
    return Plan(
        steps=[_cli("fetch", "fetch", "--seed-bundled", "--n", str(ctx.size["seed_n"]))],
        checks=[{"kind": "sha256", "args": {"files": ctx.digests["seed"]}}],
    )


# -- figures ---------------------------------------------------------------------


def _warm_cache(ctx):
    """Seeded cache files, built once per checkout and re-verified each run."""
    want = ctx.digests["seed"]
    warm = ctx.keep_dir / f"warm-{ctx.size['seed_n']}"
    files = [warm / Path(rel).name for rel in want]
    if all(p.is_file() and _sha256(p) == want[rel] for p, rel in zip(files, want)):
        return files
    plan = prepare_seed(ctx)
    sample = ctx.spawn({"steps": plan.steps, "checks": plan.checks}, [], keep=True)
    if not sample.ok:
        return []
    warm.mkdir(parents=True, exist_ok=True)
    for rel, dest in zip(want, files):
        tmp = dest.with_suffix(".tmp")
        shutil.copyfile(sample.dir / rel, tmp)
        os.replace(tmp, dest)
    shutil.rmtree(sample.dir, ignore_errors=True)
    return files


def prepare_figures(ctx):
    files = _timed(ctx, "warm_cache_s", _warm_cache, ctx)
    x = str(ctx.size["figures_x"])
    return Plan(
        steps=[_cli("figures", "--out", "out", "figures", "--f", "5.4.a.a", "--fp", "6.6.a.a", "--x-max", x)],
        checks=[{"kind": "sha256", "args": {"files": ctx.digests["figures"]}}],
        cache_files=files,
    )


# -- density ---------------------------------------------------------------------


def _synthetic_inputs(ctx):
    """Write the seeded tables and the exact sign oracle for every pair."""
    n = ctx.size["density_n"]
    synth_dir = ctx.run_dir / "synth"
    synth_dir.mkdir()
    primes = synth.primes_upto(n)
    (_, _, nf), (_, _, nfp) = synth.FORMS
    eligible = primes[(nf * nfp) % primes != 0]
    lifts = []
    files = []
    for (label, k, level), indices in zip(synth.FORMS, zip(*DENSITY_PAIRS)):
        coeffs = synth.hecke_table(ctx.seed, k, level, n)
        path = synth_dir / f"{label}.txt"
        path.write_text(synth.coefficient_file_text(label, k, level, coeffs), encoding="utf-8")
        files.append(path)
        a_p = [coeffs[p - 1] for p in eligible.tolist()]
        lifts.append({m: synth.lift_signs(a_p, eligible.tolist(), k, m) for m in set(indices)})
    oracle = synth_dir / "oracle.npz"
    np.savez(
        oracle,
        primes=primes,
        eligible=eligible,
        **{f"signs_{a}_{b}": lifts[0][a] * lifts[1][b] for a, b in DENSITY_PAIRS},
    )
    return files, oracle


def prepare_density(ctx):
    files, oracle = _timed(ctx, "synthetic_tables_s", _synthetic_inputs, ctx)
    n = ctx.size["density_n"]
    mn = ";".join(f"{m},{k}" for m, k in DENSITY_PAIRS)
    (lf, _, _), (lfp, _, _) = synth.FORMS
    return Plan(
        steps=[_cli("density", "--out", "out", "density", "--f", lf, "--fp", lfp, "--mn", mn, "--x-max", str(n))],
        checks=[
            {
                "kind": "density",
                "args": {"oracle": str(oracle), "pairs": DENSITY_PAIRS, "x_max": n},
            }
        ],
        cache_files=files,
    )


# -- certify ---------------------------------------------------------------------


def _st_density(u):
    return math.sqrt(max(0.0, 4.0 - u * u)) / (2.0 * math.pi)


def _st_cdf(u):
    u = min(2.0, max(-2.0, u))
    return (0.5 * u * math.sqrt(4.0 - u * u) + 2.0 * math.asin(0.5 * u)) / (2.0 * math.pi) + 0.5


def quadrature_references():
    """Joint Sato-Tate measures of the certify regions by 1-D quadrature.

    disk:    u^2 + v^2 < 1;
    bracket: P(S_1(u), S_3(v)) >= 0 with P(x, y) = y - x, i.e. u <= v^3 - 2v.
    """
    from scipy.integrate import quad

    tight = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 200}

    def disk_section(u):
        h = math.sqrt(1.0 - u * u)
        return _st_density(u) * (_st_cdf(h) - _st_cdf(-h))

    disk, _ = quad(disk_section, -1.0, 1.0, **tight)
    # v^3 - 2v leaves [-2, 2] where it equals +-2: breakpoints for quad
    kinks = sorted(
        float(r.real)
        for c in (-2.0, 2.0)
        for r in np.roots([1.0, 0.0, -2.0, -c])
        if abs(r.imag) < 1e-12 and -2.0 < r.real < 2.0
    )
    cubic, _ = quad(lambda v: _st_density(v) * _st_cdf(v**3 - 2.0 * v), -2.0, 2.0, points=kinks, **tight)
    return disk, cubic


def envelope_expectations(method, xs):
    """ErrorEnvelope values (with the known pi(x)) or ratios to pi(x)."""
    k, kp, level, level_p, length, alpha, beta = ENVELOPE_PARAMS
    K = k * kp * level * level_p
    out = {}
    for x in xs:
        M = math.sqrt(math.sqrt(math.log(x)) / math.log(K * math.log(x)))
        pi_x = KNOWN_PI[x] if method == "value" else 1
        out[f"Unconditional13@{x:g}"] = length * alpha * pi_x / M ** (1.0 / 3.0)
        out[f"Unconditional12@{x:g}"] = length * alpha * beta * pi_x / math.sqrt(M)
    return out


def _envelope_job(method, xs):
    path = f"out/envelope_{method}.json"
    step = {
        "name": f"envelope_{method}",
        "envelopes": {"path": path, "method": method, "modes": ENVELOPE_MODES, "xs": xs, "params": ENVELOPE_PARAMS},
    }
    check = {
        "kind": "envelopes",
        "args": {"path": path, "expected": envelope_expectations(method, xs), "rel_tol": 1e-9},
    }
    return step, check


def prepare_certify(ctx):
    disk, cubic = _timed(ctx, "quadrature_s", quadrature_references)
    xs = ctx.size["envelope_xs"]
    # pi(x) cancels in ratio(x), so the known prime counts are checked once
    # per run through value(x), before the timed children
    step, check = _envelope_job("value", xs)
    _timed(ctx, "pi_check_s", ctx.spawn, {"steps": [step], "checks": [check]}, [])
    m = ctx.size["bracket_m"]
    step, check = _envelope_job("ratio", xs)
    return Plan(
        steps=[
            _cli("measure", "--out", "out", "measure", "--disk", "--target", repr(ctx.size["measure_target"]),
                 "--out-csv", "out/measure.csv"),
            _cli("bracket", "--out", "out", "bracket", "--poly-interval", "0,-1,1", "--lift", "1,3",
                 "--m", ",".join(map(str, m))),
            step,
        ],
        checks=[
            {"kind": "measure", "args": {"csv_path": "out/measure.csv", "reference": disk, "slack": 1e-10}},
            {"kind": "bracket", "args": {"pattern": "out/bracket_*.csv", "reference": cubic, "m": m, "slack": 1e-10}},
            check,
        ],
    )


WORKLOADS = {
    "seed": prepare_seed,
    "figures": prepare_figures,
    "density": prepare_density,
    "certify": prepare_certify,
}
