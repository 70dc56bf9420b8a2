"""Exact newform Fourier coefficients.

A table stores the integers A(n) appearing in the q-expansion
f = sum A(n) q^n (so A(n) = a(n) * n^{(k-1)/2} with a(n) the Deligne-normalized
eigenvalue) and lazily exposes a(p) = A(p) / p^{(k-1)/2} in floating point.

Three acquisition paths: eta-quotient expansion (exact integer power-series
arithmetic), file ingestion, and a caching HTTP client.  The expansion engine
runs on int64 numpy arrays while a certified magnitude bound guarantees no
overflow is possible, and transparently reruns with arbitrary-precision
Python integers once coefficients outgrow 64 bits (weight 12 does, well
below n = 10^4).
"""

from __future__ import annotations

import json
import os
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .counting import sieve
from .errors import (
    GapError,
    InvariantError,
    NetworkError,
    NotFoundError,
    OutOfRangeError,
    ParseError,
    RecipeError,
)

#: Environment variable overriding the on-disk cache directory.
CACHE_ENV_VAR = "SATOTATE_CACHE_DIR"

#: URL template is <base>/q_expansion/<label>?n=<n_max>; the default base is a
#: placeholder -- point it at any service implementing the template.
DEFAULT_BASE_URL = "https://q-expansions.example.org/api"

_INT64_LIMIT = 2**62


class Source(Enum):
    ETA_QUOTIENT = "eta"
    FILE = "file"
    REMOTE = "remote"


@dataclass(frozen=True)
class NewformDescriptor:
    """Identifying data for a normalized newform with trivial nebentypus.

    ``non_cm`` is a user assertion; nothing here verifies CM status or
    twist-inequivalence.
    """

    label: str
    weight: int
    level: int
    eta_recipe: tuple | None = None
    source: Source = Source.FILE
    non_cm: bool = True

    def __post_init__(self):
        if self.weight < 2 or self.weight % 2 != 0:
            raise InvariantError(f"weight must be even and >= 2, got {self.weight}")
        if self.level < 1:
            raise InvariantError(f"level must be >= 1, got {self.level}")
        if self.eta_recipe is not None:
            recipe = tuple((int(d), int(e)) for d, e in self.eta_recipe)
            object.__setattr__(self, "eta_recipe", recipe)
            _validate_recipe(recipe, self.weight, self.level)


def _validate_recipe(recipe, weight, level):
    if not recipe:
        raise RecipeError("empty eta recipe")
    for d, e in recipe:
        if d < 1:
            raise RecipeError(f"divisor {d} must be positive")
        if e == 0:
            raise RecipeError("zero exponent in eta recipe")
        if level % d != 0:
            raise RecipeError(f"divisor {d} does not divide the level {level}")
    twice_weight = sum(e for _, e in recipe)
    if twice_weight != 2 * weight:
        raise RecipeError(
            f"recipe weight {twice_weight}/2 does not match declared weight {weight}"
        )
    num = sum(d * e for d, e in recipe)
    if num <= 0 or num % 24 != 0:
        raise RecipeError(
            f"vanishing order {num}/24 is not a positive integer"
        )


class CoefficientTable:
    """Immutable table of exact integers A(1..bound) for one newform."""

    def __init__(self, descriptor, raw, check=True):
        self.descriptor = descriptor
        self._raw = tuple(int(c) for c in raw)  # A(1) first
        self.bound = len(self._raw)
        self._norm_cache = {}
        if check:
            self._validate()

    def _validate(self):
        if self.bound < 1 or self._raw[0] != 1:
            raise InvariantError("A(1) must equal 1")
        k, N = self.descriptor.weight, self.descriptor.level
        for p in sieve(self.bound).primes.tolist():
            A = self._raw[p - 1]
            if N % p != 0:
                # Deligne: |a(p)| <= 2, i.e. A(p)^2 <= 4 p^{k-1}, exactly
                if A * A > 4 * p ** (k - 1):
                    raise InvariantError(
                        f"|A({p})| = {abs(A)} violates the two-sided bound "
                        f"2 p^{{(k-1)/2}} for k={k}; wrong weight or level?"
                    )
            elif (N // p) % p != 0:
                # p exactly divides N: |A(p)| = p^{(k-2)/2}; k even so the
                # square comparison is exact
                if A * A != p ** (k - 2):
                    raise InvariantError(
                        f"|A({p})| = {abs(A)} but p={p} exactly divides N={N}; "
                        f"expected p^{{(k-2)/2}}"
                    )

    def a_int(self, n):
        """Exact integer A(n) for 1 <= n <= bound."""
        if not 1 <= n <= self.bound:
            raise OutOfRangeError(f"n={n} outside table range 1..{self.bound}")
        return self._raw[n - 1]

    @property
    def raw(self):
        return self._raw

    def normalized_prime_value(self, p):
        """Deligne-normalized a(p) = A(p) / p^{(k-1)/2} as a float; memoized."""
        cached = self._norm_cache.get(p)
        if cached is not None:
            return cached
        if p > self.bound:
            raise OutOfRangeError(f"p={p} exceeds table bound {self.bound}")
        value = self._raw[p - 1] / p ** ((self.descriptor.weight - 1) / 2)
        self._norm_cache[p] = value
        return value

    def normalized_values(self, primes):
        """Vectorized a(p) for an integer array of primes within the bound."""
        primes = np.asarray(primes, dtype=np.int64)
        if primes.size and int(primes.max()) > self.bound:
            raise OutOfRangeError(
                f"prime {int(primes.max())} exceeds table bound {self.bound}"
            )
        A = np.array([float(self._raw[p - 1]) for p in primes])
        return A / np.power(primes.astype(float), (self.descriptor.weight - 1) / 2)

    def __repr__(self):
        return (
            f"CoefficientTable({self.descriptor.label!r}, k={self.descriptor.weight}, "
            f"N={self.descriptor.level}, bound={self.bound})"
        )


# -- pentagonal series and the eta engine --------------------------------------


@dataclass(frozen=True)
class PentagonalSeries:
    """Truncation of prod_{n>=1} (1 - q^n); nonzero terms are +-1 at the
    generalized pentagonal numbers j(3j-1)/2."""

    bound: int
    coeffs: tuple


def _pentagonal_terms(bound, step=1):
    """(exponent, sign) pairs of prod (1 - q^{step*n}) up to q^bound."""
    terms = [(0, 1)]
    j = 1
    while True:
        hit = False
        for jj in (j, -j):
            e = step * jj * (3 * jj - 1) // 2
            if e <= bound:
                terms.append((e, -1 if j % 2 else 1))
                hit = True
        if not hit:
            break
        j += 1
    terms.sort()
    return terms


def _cube_terms(bound, step=1):
    """(exponent, coefficient) pairs of prod (1 - q^{step*n})^3 up to q^bound.

    The cube of the product collapses to sum_j (-1)^j (2j+1) q^{j(j+1)/2},
    so exponents that are multiples of three apply in one sparse pass.
    """
    terms = []
    j = 0
    while step * j * (j + 1) // 2 <= bound:
        terms.append((step * j * (j + 1) // 2, (2 * j + 1) * (-1 if j % 2 else 1)))
        j += 1
    return terms


def pentagonal_series(bound):
    """Exact coefficients of prod (1 - q^n) through degree ``bound``."""
    if bound < 1:
        raise RecipeError(f"bound must be >= 1, got {bound}")
    coeffs = [0] * (bound + 1)
    for e, s in _pentagonal_terms(bound):
        coeffs[e] += s
    return PentagonalSeries(bound, tuple(coeffs))


class _Int64Overflow(Exception):
    pass


def _apply_sparse_int64(dense, mag, terms):
    length = dense.shape[0]
    new = np.zeros(length, dtype=np.int64)
    new_mag = np.zeros(length)
    for e, c in terms:
        if e >= length:
            break
        if c == 1:
            new[e:] += dense[: length - e]
        elif c == -1:
            new[e:] -= dense[: length - e]
        else:
            new[e:] += c * dense[: length - e]
        new_mag[e:] += abs(c) * mag[: length - e]
    new_mag *= 1.0 + 1e-12
    if new_mag.max() >= _INT64_LIMIT:
        raise _Int64Overflow
    return new, new_mag


def _apply_sparse_object(dense, terms):
    length = dense.shape[0]
    new = np.zeros(length, dtype=object)
    new[:] = 0
    for e, c in terms:
        if e >= length:
            break
        if c == 1:
            new[e:] += dense[: length - e]
        elif c == -1:
            new[e:] -= dense[: length - e]
        else:
            new[e:] += c * dense[: length - e]
    return new


def _divide_sparse_object(dense, terms):
    # sequential long division by a sparse monic factor (leading term q^0 = 1)
    length = dense.shape[0]
    out = [0] * length
    tail = [(e, s) for e, s in terms if e > 0]
    for n in range(length):
        acc = int(dense[n])
        for e, s in tail:
            if e > n:
                break
            acc -= s * out[n - e]
        out[n] = acc
    arr = np.zeros(length, dtype=object)
    arr[:] = out
    return arr


def eta_product_qexpansion(recipe, n_max):
    """Coefficients of q^0..q^{n_max} of prod_d eta(d z)^{e_d} / q^{v}... shifted.

    Returns the coefficients of the full eta quotient including its leading
    power q^v, i.e. index n holds the coefficient of q^n; entries below the
    vanishing order v are zero.  Exact integers throughout.
    """
    num = sum(d * e for d, e in recipe)
    if num <= 0 or num % 24 != 0:
        raise RecipeError(f"vanishing order {num}/24 is not a positive integer")
    v = num // 24
    length = n_max - v + 1
    if length <= 0:
        return [0] * (n_max + 1)
    factor_apps = []
    for d, e in sorted(recipe):
        if e > 0:
            # apply (1-q^{dn})^3 blocks in single sparse passes, remainder
            # as plain pentagonal factors
            cubes, rest = divmod(e, 3)
            cube = _cube_terms(length - 1, step=d)
            factor_apps.extend([(cube, True)] * cubes)
            if rest:
                terms = _pentagonal_terms(length - 1, step=d)
                factor_apps.extend([(terms, True)] * rest)
        else:
            terms = _pentagonal_terms(length - 1, step=d)
            factor_apps.extend([(terms, False)] * abs(e))

    dense = None
    try:
        dense = np.zeros(length, dtype=np.int64)
        dense[0] = 1
        mag = np.zeros(length)
        mag[0] = 1.0
        for terms, positive in factor_apps:
            if not positive:
                raise _Int64Overflow  # divisions go straight to the exact path
            dense, mag = _apply_sparse_int64(dense, mag, terms)
        series = [int(c) for c in dense]
    except _Int64Overflow:
        dense = np.zeros(length, dtype=object)
        dense[:] = 0
        dense[0] = 1
        for terms, positive in factor_apps:
            if positive:
                dense = _apply_sparse_object(dense, terms)
            else:
                dense = _divide_sparse_object(dense, terms)
        series = [int(c) for c in dense]
    return [0] * v + series


def expand_eta_quotient(descriptor, n_max):
    """Expand the descriptor's eta recipe into a coefficient table.

    The product over the recipe factors is carried out with exact integer
    arithmetic; evaluation order does not affect the result.
    """
    if descriptor.eta_recipe is None:
        raise RecipeError(f"descriptor {descriptor.label!r} carries no eta recipe")
    if n_max < 1:
        raise RecipeError(f"n_max must be >= 1, got {n_max}")
    full = eta_product_qexpansion(descriptor.eta_recipe, n_max)
    raw = full[1 : n_max + 1]
    if not raw or raw[0] != 1:
        raise InvariantError(
            f"recipe for {descriptor.label!r} does not produce a normalized "
            f"expansion starting q + ..."
        )
    return CoefficientTable(descriptor, raw)


# -- file format ----------------------------------------------------------------

_HEADER_RE = re.compile(r"^label=(?P<label>\S+)\s+k=(?P<k>\d+)\s+N=(?P<N>\d+)\s*$")


def write_coefficient_file(path, table):
    """Write a table in the standard line format (see load_coefficient_file)."""
    lines = [f"label={table.descriptor.label} k={table.descriptor.weight} N={table.descriptor.level}"]
    lines.extend(f"{n} {table.a_int(n)}" for n in range(1, table.bound + 1))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_coefficient_file(path):
    """Read a coefficient file.

    Format (UTF-8 text): a header line ``label=<text> k=<int> N=<int>``
    followed by one ``<n> <A(n)>`` line per index, ascending and contiguous
    from 1.  ``#`` starts a comment.  All table invariants are checked.
    """
    path = Path(path)
    header = None
    entries = []
    with path.open(encoding="utf-8") as fh:
        for lineno, rawline in enumerate(fh, start=1):
            line = rawline.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                m = _HEADER_RE.match(line)
                if not m:
                    raise ParseError(f"bad header {line!r}", lineno)
                header = (m.group("label"), int(m.group("k")), int(m.group("N")))
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"expected '<n> <A(n)>', got {line!r}", lineno)
            try:
                n, a = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer entry {line!r}", lineno) from None
            expected = len(entries) + 1
            if n != expected:
                raise GapError(f"expected index {expected}, got {n}", lineno)
            entries.append(a)
    if header is None:
        raise ParseError("missing header line", 1)
    if not entries:
        raise GapError("no coefficient lines (A(1) missing)")
    label, k, N = header
    descriptor = NewformDescriptor(label=label, weight=k, level=N, source=Source.FILE)
    return CoefficientTable(descriptor, entries)


# -- remote fetch ----------------------------------------------------------------


def parse_label(label):
    """Split an 'N.k.x.y' label into (level, weight)."""
    parts = label.split(".")
    if len(parts) < 2:
        raise ParseError(f"cannot parse level/weight from label {label!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"cannot parse level/weight from label {label!r}") from None


def default_cache_dir():
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "satotate"


class _CacheLock:
    """Advisory lock file serializing cache writes."""

    def __init__(self, target, timeout=30.0):
        self.path = Path(str(target) + ".lock")
        self.timeout = timeout
        self._fd = None

    def __enter__(self):
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                return self
            except FileExistsError:
                if time.monotonic() > deadline:
                    raise NetworkError(f"stale cache lock {self.path}") from None
                time.sleep(0.05)

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
        self.path.unlink(missing_ok=True)
        return False


def _truncate_table(table, n_max):
    if table.bound == n_max:
        return table
    return CoefficientTable(table.descriptor, table.raw[:n_max], check=False)


def fetch_remote(label, n_max, base_url=DEFAULT_BASE_URL, cache_dir=None, timeout=30.0):
    """Fetch a q-expansion over HTTP, persisting it to the local cache.

    GETs ``<base>/q_expansion/<label>?n=<n_max>`` and accepts either a JSON
    array of integers or whitespace/comma separated text.  A warm cache with
    enough coefficients skips the network entirely.
    """
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache_file = cache_dir / f"{label}.txt"
    if cache_file.exists():
        table = load_coefficient_file(cache_file)
        if table.bound >= n_max:
            return _truncate_table(table, n_max)

    url = f"{base_url.rstrip('/')}/q_expansion/{label}?n={n_max}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            body = resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise NotFoundError(f"label {label!r} unknown at {base_url}") from exc
        raise NetworkError(f"HTTP {exc.code} fetching {url}") from exc
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise NetworkError(f"cannot reach {url}: {exc}") from exc

    coeffs = _parse_remote_body(body)
    if len(coeffs) < n_max:
        raise NotFoundError(
            f"remote returned {len(coeffs)} coefficients, wanted {n_max}"
        )
    N, k = parse_label(label)
    descriptor = NewformDescriptor(label=label, weight=k, level=N, source=Source.REMOTE)
    table = CoefficientTable(descriptor, coeffs[:n_max])
    with _CacheLock(cache_file):
        write_coefficient_file(cache_file, table)
    return table


def _parse_remote_body(body):
    body = body.strip()
    try:
        data = json.loads(body)
    except json.JSONDecodeError:
        data = body.replace(",", " ").split()
    try:
        return [int(x) for x in data]
    except (TypeError, ValueError):
        raise ParseError("remote payload is not an integer list") from None
