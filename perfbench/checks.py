"""Output checks run by the child after a workload's steps.

Every check returns a list of error strings; an empty list means the
outputs are right.  References come from the driver's set-up (digests,
quadrature values, the density oracle), never from the package under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np


def sha256(files):
    """Files must match the digests recorded at the benchmark's commit."""
    errors = []
    for rel, digest in files.items():
        path = Path(rel)
        if not path.is_file():
            errors.append(f"{rel}: missing")
            continue
        got = hashlib.sha256(path.read_bytes()).hexdigest()
        if got != digest:
            errors.append(f"{rel}: sha256 {got} != expected {digest}")
    return errors


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def density(oracle, pairs, x_max):
    """Counts and pi(x) at every checkpoint equal the exact-integer oracle."""
    data = np.load(oracle)
    primes, eligible = data["primes"], data["eligible"]
    errors = []
    for m, n in pairs:
        path = Path("out") / f"density_{m}_{n}.csv"
        if not path.is_file():
            errors.append(f"{path}: missing")
            continue
        signs = data[f"signs_{m}_{n}"]
        cum = {
            key: np.concatenate([[0], np.cumsum(mask)])
            for key, mask in (("count_pos", signs > 0), ("count_neg", signs < 0), ("count_zero", signs == 0))
        }
        rows = _rows(path)
        xs = [int(r["x"]) for r in rows]
        if not xs or xs[-1] != x_max or xs != sorted(set(xs)):
            errors.append(f"{path}: checkpoints {xs[:3]}... do not rise to {x_max}")
        for row, x in zip(rows, xs):
            want = {"pi_x": int(np.searchsorted(primes, x, side="right"))}
            idx = int(np.searchsorted(eligible, x, side="right"))
            want.update({key: int(c[idx]) for key, c in cum.items()})
            got = {key: int(row[key]) for key in want}
            if got != want:
                errors.append(f"{path} x={x}: {got} != oracle {want}")
    return errors


def measure(csv_path, reference, slack):
    """The certified measure brackets the independent quadrature value."""
    rows = _rows(csv_path)
    if len(rows) != 1:
        return [f"{csv_path}: expected one row, got {len(rows)}"]
    value, err = float(rows[0]["value"]), float(rows[0]["abs_error"])
    if not abs(value - reference) <= err + slack:
        return [f"{csv_path}: {value} +- {err} misses reference {reference}"]
    return []


def bracket(pattern, reference, m, slack):
    """Every grid bracket [mu_low, mu_high] contains the reference measure."""
    found = sorted(Path().glob(pattern))
    if len(found) != 1:
        return [f"{pattern}: expected one bracket CSV, found {len(found)}"]
    csv_path = found[0]
    rows = _rows(csv_path)
    if [int(r["m"]) for r in rows] != list(m):
        return [f"{csv_path}: resolutions {[r['m'] for r in rows]} != {m}"]
    errors = []
    for r in rows:
        lo, hi = float(r["mu_low"]), float(r["mu_high"])
        if not lo - slack <= reference <= hi + slack:
            errors.append(f"{csv_path} m={r['m']}: [{lo}, {hi}] misses reference {reference}")
    return errors


def envelopes(path, expected, rel_tol):
    """Envelope ratios equal the benchmark's own evaluation of the formulas."""
    got = json.loads(Path(path).read_text(encoding="utf-8"))
    errors = []
    for key, want in expected.items():
        value = got.get(key)
        if value is None or not math.isclose(value, want, rel_tol=rel_tol):
            errors.append(f"{path} {key}: {value} != expected {want}")
    return errors


CHECKS = {
    "sha256": sha256,
    "density": density,
    "measure": measure,
    "bracket": bracket,
    "envelopes": envelopes,
}
