"""Exact newform Fourier coefficients.

A table stores the integers A(n) appearing in the q-expansion
f = sum A(n) q^n (so A(n) = a(n) * n^{(k-1)/2} with a(n) the Deligne-normalized
eigenvalue) and lazily exposes a(p) = A(p) / p^{(k-1)/2} in floating point.

Three sources of tables: eta-quotient expansion (exact integer power-series
arithmetic), file ingestion, and an HTTP client.  ``cli.resolve_table`` is
the cache's one reader and one writer: it looks a label up with
``cached_table`` before the bundled constructors and ``download_table``, and
writes what they return with ``write_coefficient_file``.

The expansion engine runs its sparse pentagonal and cube passes (and long
division, for negative net exponents) on residue rows and lifts once.  Every
step is a ring operation in Z[[q]]/(q^(top+1)): sums, integer multiples and
division by a series with constant term 1, so reducing modulo any m commutes
with all of them.  The modulus comes from an a-priori bound on the final
coefficients.  When 2 bound + 1 <= 2^64 it is the 64-bit word itself: one
uint64 row, whose unsigned overflow reduces modulo 2^64 for free (C defines
unsigned wraparound; int64 overflow it does not), read back as the two's
complement int64, which is A(n) since |A(n)| <= bound < 2^63.  Otherwise
the row is int64 modulo each of the fewest primes below 2^31 that cover the
bound, and the lift is the Chinese remainder theorem, exact however far the
coefficients outgrow 64 bits (weight 12 does, well below n = 10^4).  See
Hart, Tornaria and Watkins, "Congruent number theta coefficients to 10^12"
(ANTS IX, 2010) for multi-modular series arithmetic.  Every coefficient
enters a word row as ``np.uint64(c % 2**64)``: under numpy 1.24's
value-based casting a uint64 array times a negative Python int is float64,
and under NEP 50 (numpy 2) it raises.

Each product starts from the exact int64 product of its two costliest
multiplying passes, whose coefficients stay below the product of the two
passes' l1 norms (about 4e10 at n = 1e5), and only the other passes run
densely (see ``_product_residues``).

The bound is one of two.  The l1 bound, the product of the truncated eta
factors' l1 norms, holds for every recipe; user recipes (``expand --eta``,
``expand_eta_quotient`` on a user descriptor) use it.  The newform bound
2 n_max^(k/2), from Deligne's |A(n)| <= d(n) n^((k-1)/2) and
d(n) <= 2 sqrt(n), holds only for a newform, and only ``bundled`` passes
it, for forms proven to be newforms: 5.4.a.a and 1.12.a.a span spaces of
dimension 1, and 6.6.a.a's fixed combination is proven by its snapshot
match.  That proof runs on the same residues: the moduli also cover
the l1 bound through q^9, so q^1..q^9 lift exactly; agreement there is past
the Sturm bound (6), so the combination is the newform; so every coefficient
obeys Deligne's bound and lifts exactly.  At n = 10^5 the newform bound is
about 51 bits against the l1 bound's 87: the word instead of three primes
for 6.6.a.a.  The l1 bound of a recipe with an inverse factor passes 2^63
within a few dozen coefficients (n = 14 for eta(2z)^16 / eta(z)^8), so its
division runs on primes at any useful length.

A recipe whose divisors share a factor g > 1 is its primitive recipe (the
divisors divided by g) read at q^g, so each primitive product is expanded
once per combination: eta(2z)^6 eta(6z)^6 reuses the expansion of
eta(z)^6 eta(3z)^6 on every second coefficient.
"""

from __future__ import annotations

import io
import math
import os
import re
import threading
import warnings
from pathlib import Path

import numpy as np

from .errors import (
    GapError,
    InvariantError,
    NetworkError,
    NotFoundError,
    OutOfRangeError,
    ParseError,
    RecipeError,
)
from .primes import sieve
from .records import Record

#: Environment variable overriding the on-disk cache directory.
CACHE_ENV_VAR = "SATOTATE_CACHE_DIR"

#: URL template is <base>/q_expansion/<label>?n=<n_max>; the default base is a
#: placeholder -- point it at any service implementing the template.
DEFAULT_BASE_URL = "https://q-expansions.example.org/api"

#: The eta engine computes modulo primes below this limit, so that a residue
#: times a pass's coefficient sum stays inside int64.
_MODULUS_LIMIT = 2**31

#: The modulus of a uint64 residue row, which wraps modulo it for free.
_WORD = 2**64


class NewformDescriptor(Record):
    """Identifying data for a normalized newform with trivial nebentypus."""

    label: str
    weight: int
    level: int
    eta_recipe: tuple | None = None

    def _check(self):
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
    _eta_shape(recipe)  # the engine's checks of the divisors and the vanishing order
    for d, e in recipe:
        if e == 0:
            raise RecipeError("zero exponent in eta recipe")
        if level % d != 0:
            raise RecipeError(f"divisor {d} does not divide the level {level}")
    twice_weight = sum(e for _, e in recipe)
    if twice_weight != 2 * weight:
        raise RecipeError(
            f"recipe weight {twice_weight}/2 does not match declared weight {weight}"
        )


#: The int64 range; a table outside it is stored as exact Python ints.
_INT64 = np.iinfo(np.int64)


def _exact_array(values):
    """Exact integers as one array: int64 when every value fits, else an
    object array of Python ints.  An int64 array is returned as it is."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values
    values = np.asarray(values, dtype=object)
    if not values.size or (_INT64.min <= values.min() and values.max() <= _INT64.max):
        return values.astype(np.int64)
    return values


class CoefficientTable:
    """Immutable table of exact integers A(1..bound) for one newform, A(1)
    first.  They are stored as one array (see ``_exact_array``); ``raw``
    returns them as a tuple of Python ints.  A table is checked as it is
    built: A(1) must be 1, and each |A(p)| within its bound."""

    def __init__(self, descriptor, raw):
        self.descriptor = descriptor
        self._values = _exact_array(raw)
        self._values.flags.writeable = False
        self.bound = len(self._values)
        if self.bound < 1 or self._values[0] != 1:
            raise InvariantError("A(1) must equal 1")
        k, N = self.descriptor.weight, self.descriptor.level
        primes = sieve(self.bound).primes
        # a float pre-screen of Deligne's bound |A(p)| <= 2 p^{(k-1)/2}; the
        # suspects and the primes dividing N are decided exactly below
        try:
            suspect = np.abs(self._normalized(primes)) > 2 - 1e-6
        except OverflowError:  # an exact value beyond the float range
            suspect = np.ones(primes.size, dtype=bool)
        for p in primes[suspect | (N % primes == 0)].tolist():
            A = self.a_int(p)
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
        """Exact integer A(n) for 1 <= n <= bound, as a Python int."""
        if not 1 <= n <= self.bound:
            raise OutOfRangeError(f"n={n} outside table range 1..{self.bound}")
        return int(self._values[n - 1])

    @property
    def raw(self):
        return tuple(self._values.tolist())

    def normalized_values(self, primes):
        """Vectorized a(p) for an integer array of primes within the bound;
        each A(p) is rounded to a float once, as float(A(p)) would."""
        primes = np.asarray(primes, dtype=np.int64)
        if primes.size and int(primes.max()) > self.bound:
            raise OutOfRangeError(
                f"prime {int(primes.max())} exceeds table bound {self.bound}"
            )
        return self._normalized(primes)

    def _normalized(self, primes):
        A = self._values[primes - 1].astype(float)
        return A / np.power(primes.astype(float), (self.descriptor.weight - 1) / 2)

    def __repr__(self):
        return (
            f"CoefficientTable({self.descriptor.label!r}, k={self.descriptor.weight}, "
            f"N={self.descriptor.level}, bound={self.bound})"
        )


# -- pentagonal series and the eta engine --------------------------------------


def _pentagonal_terms(bound, step=1):
    """(exponent, sign) pairs of prod (1 - q^{step*n}) up to q^bound, sorted:
    Euler's (-1)^j q^{step j(3j-1)/2}, where j(3j-1)/2 >= j^2 bounds j."""
    limit = bound // step
    root = math.isqrt(limit)
    pent = ((j * (3 * j - 1) // 2, (-1) ** abs(j)) for j in range(-root, root + 1))
    return sorted((step * g, s) for g, s in pent if g <= limit)


def _cube_terms(bound, step=1):
    """(exponent, coefficient) pairs of prod (1 - q^{step*n})^3 up to q^bound:
    Jacobi's sum_j (-1)^j (2j+1) q^{step j(j+1)/2}."""
    count = (math.isqrt(8 * (bound // step) + 1) + 1) // 2
    return [(step * j * (j + 1) // 2, (-1) ** j * (2 * j + 1)) for j in range(count)]


def _is_prime(n):
    """Miller-Rabin over the bases 2, 3, 5, 7: deterministic for odd n < 3215031751."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    for a in (2, 3, 5, 7):
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


def _crt_moduli(bound):
    """The moduli that lift any integer of absolute value <= bound: the
    64-bit word alone when 2 * bound + 1 <= 2^64, else the fewest primes
    below 2^31, largest first, whose product exceeds 2 * bound + 1."""
    if 2 * bound + 1 <= _WORD:
        return (_WORD,)
    moduli, product, n = [], 1, _MODULUS_LIMIT - 1
    while product <= 2 * bound + 1:
        if _is_prime(n):
            moduli.append(n)
            product *= n
        n -= 2
    return tuple(moduli)


def _crt_lift(residues, moduli):
    """The integers of absolute value below prod(moduli) / 2 with the given
    residues (one row per modulus: uint64 for the word, int64 for primes),
    as an ``_exact_array``."""
    if moduli == (_WORD,):
        return residues[0].view(np.int64)  # the two's-complement reading
    modulus = math.prod(moduli)
    # Python ints: primes are taken only past the word, so the sum outgrows int64
    value = np.zeros(len(residues[0]), dtype=object)
    for row, p in zip(residues, moduli):
        cofactor = modulus // p
        value += (row * pow(cofactor, -1, p) % p).astype(object) * cofactor
    value %= modulus
    value[value > modulus // 2] -= modulus
    return _exact_array(value)


def _eta_shape(recipe):
    """Check an eta recipe and split it as q^v P(q^g).  P is the product of
    the truncated (1 - q^{dn})^{e_d} over its *primitive* recipe: the net
    exponent e_d of each divisor g*d, summed per divisor, where g is the gcd
    of the divisors whose net exponent is not zero.  Returns v, g and the
    primitive recipe as sorted (d, e_d) pairs."""
    num = sum(d * e for d, e in recipe)
    if num <= 0 or num % 24 != 0:
        raise RecipeError(f"vanishing order {num}/24 is not a positive integer")
    if any(d < 1 for d, _ in recipe):
        raise RecipeError(f"eta divisors must be positive, got {recipe}")
    net = {}
    for d, e in recipe:
        net[d] = net.get(d, 0) + e
    g = math.gcd(*(d for d, e in net.items() if e))
    return num // 24, g, tuple(sorted((d // g, e) for d, e in net.items() if e))


def _product_passes(primitive, top):
    """The sparse passes (terms, divide) that expand the product of a
    primitive recipe through q^top, and a bound on its coefficients: the
    product of the truncated factors' l1 norms.  The inverse of
    prod (1 - q^{dn})^k has m + 1 = top // d + 1 terms, k-coloured partition
    counts below exp(pi sqrt(2km/3)) (the proof of Apostol, Thm 14.5, with
    k colours)."""
    passes, bound = [], 1
    for d, e in primitive:
        pent = _pentagonal_terms(top, step=d)
        if e > 0:
            # each (1 - q^{dn})^3 block applies in one sparse pass
            cubes, rest = divmod(e, 3)
            cube = _cube_terms(top, step=d)
            passes += [(cube, False)] * cubes + [(pent, False)] * rest
            bound *= sum(abs(c) for _, c in cube) ** cubes * len(pent) ** rest
        else:
            bits = math.pi * math.sqrt(-2 * e * (top // d) / 3) / math.log(2)
            passes += [(pent, True)] * -e
            bound *= (top // d + 1) << math.ceil(bits * (1 + 1e-9))
    return passes, bound


def _apply_sparse(rows, terms, moduli):
    # one modulus at a time (a row stays in cache).  A prime row: residues
    # stay below 2^31 and a pass's sum |c| below 2^32, so no int64 sum can
    # overflow before the reduction.  A word row wraps and is not reduced
    word = moduli == (_WORD,)
    out = np.zeros_like(rows)
    for row, new, p in zip(rows, out, moduli):
        for e, c in terms:
            if c == 1:
                new[e:] += row[: len(row) - e]
            elif c == -1:
                new[e:] -= row[: len(row) - e]
            else:
                new[e:] += (np.uint64(c % _WORD) if word else c) * row[: len(row) - e]
        if not word:
            np.remainder(new, p, out=new)
    return out


def _divide_sparse(rows, terms, moduli):
    # long division by a pentagonal factor (constant term 1, the rest +-1),
    # one coefficient per step, vectorised across the rows.  Only array
    # arithmetic runs in the loop: a uint64 scalar warns when it wraps
    word = moduli == (_WORD,)
    exps, signs = np.array(terms[1:], dtype=np.int64).reshape(-1, 2).T
    signs = signs.astype(rows.dtype)  # -1 is 2^64 - 1 in a word row
    primes = None if word else np.array(moduli, dtype=np.int64)
    out = rows.T.copy()
    reach = np.searchsorted(exps, np.arange(len(out)), side="right")
    for n in range(1, len(out)):
        diff = out[n] - signs[: reach[n]] @ out[n - exps[: reach[n]]]
        out[n] = diff if word else diff % primes
    return out.T.copy()


def eta_bound(recipe, n_max):
    """A bound on the absolute values of the eta quotient's coefficients
    through q^n_max: the l1 bound of ``_product_passes``.  Dilating a recipe
    by g leaves it unchanged, since (n_max - v) // (g d) = ((n_max - v) // g) // d."""
    v, g, primitive = _eta_shape(recipe)
    return _product_passes(primitive, max(n_max - v, 0) // g)[1]


def _sweeps(terms):
    """The cost of one dense pass of ``terms`` in full-length sweeps of a
    row: one add per +-1 term, a multiply and an add per other term."""
    return sum(1 if abs(c) == 1 else 2 for _, c in terms)


def _sparse_product(terms, other, out):
    """Add into ``out`` the exact coefficients of q^0..q^(len(out) - 1) of
    the product of two sparse series, (exponent, coefficient) pairs sorted
    by exponent: one vectorised add per term of ``terms``, with no
    len(terms) x len(other) temporary.  The exponents of one series are
    distinct, so no index of an add repeats."""
    exps, cs = np.array(other, dtype=np.int64).reshape(-1, 2).T
    top = len(out) - 1
    for e, c in terms:
        k = np.searchsorted(exps, top - e, side="right")
        out[e + exps[:k]] += c * cs[:k]


def _product_residues(primitive, top, moduli):
    """Coefficients of q^0..q^top of a primitive recipe's product modulo
    each of ``moduli`` (see ``_crt_moduli``), one row per modulus: uint64
    for the word, int64 for primes below 2^31.

    Truncated multiplication commutes, and so does division by a series
    with constant term 1, so the passes may run in any order.  The rows
    start from the exact product of the two multiplying passes that would
    cost the most dense sweeps (a lone multiplying pass is multiplied by 1):
    reduced modulo each prime, or read as its uint64 bits for the word.  The
    other passes run on those residues.

    The start is exact in int64.  Its coefficients are bounded by the
    product of the two passes' l1 norms; a cube pass through q^top has l1
    norm below 2 top + 2 sqrt(2 top) + 1 and a pentagonal pass below
    2 sqrt(top) + 2, so the bound is about 4e10 at top = 1e5 and 4e12 at
    1e6.  It stays below 2^63 while top < 1.5e9, the same scale at which a
    pass's sum |c| reaches the 2^32 that ``_apply_sparse`` assumes."""
    passes = _product_passes(primitive, top)[0]
    # a positive net exponent exists (the vanishing order is positive), so
    # at least one pass multiplies
    multiply = sorted(
        (i for i, (_, divide) in enumerate(passes) if not divide),
        key=lambda i: _sweeps(passes[i][0]),
        reverse=True,
    )[:2]
    start = [passes[i][0] for i in multiply] + [[(0, 1)]]  # times 1 if one pass
    # the start is built and reduced in place: no further row-sized array
    rows = np.zeros((len(moduli), top + 1), dtype=np.int64)
    _sparse_product(start[1], start[0], out=rows[0])
    if moduli == (_WORD,):
        rows = rows.view(np.uint64)  # two's complement: already the residues
    else:
        np.remainder(rows[0], np.array(moduli[1:], dtype=np.int64)[:, None], out=rows[1:])
        rows[0] %= moduli[0]
    for i, (terms, divide) in enumerate(passes):
        if i not in multiply:
            rows = (_divide_sparse if divide else _apply_sparse)(rows, terms, moduli)
    return rows


def eta_combination(terms, n_max, bound=None):
    """Exact coefficients of q^0..q^n_max of sum_i c_i prod_d eta(d z)^{e_d}
    over the (integer c_i, recipe) pairs in ``terms``, as an ``_exact_array``;
    entries below every vanishing order are zero.

    The sum is formed on residues modulo the moduli ``_crt_moduli`` picks
    for ``bound`` (the 64-bit word, or primes), and lifted once.  ``bound``
    must bound the absolute values of the sum's coefficients through
    q^n_max.  By default it is the l1 bound
    sum_i |c_i| eta_bound(recipe_i, n_max), which holds for every recipe.
    A caller that has proved the sum to be a known multiple of a newform may
    pass Deligne's bound instead (see ``bundled``); a bound that is too
    small gives wrong coefficients, not an error.

    Each primitive product (see ``_eta_shape``) is expanded once, to the
    length its longest use needs: a recipe whose divisors share a factor g
    is its primitive recipe read at q^g, so eta(2z)^6 eta(6z)^6 is the
    product of eta(z)^6 eta(3z)^6 placed on every second coefficient.
    """
    shapes = [(c, *_eta_shape(recipe)) for c, recipe in terms]
    if bound is None:
        bound = sum(abs(c) * eta_bound(recipe, n_max) for c, recipe in terms)
    moduli = _crt_moduli(bound)
    word = moduli == (_WORD,)
    dtype = np.uint64 if word else np.int64
    shapes = [shape for shape in shapes if shape[1] <= n_max]  # the rest are 0 here
    tops = {}
    for _, v, g, primitive in shapes:
        tops[primitive] = max(tops.get(primitive, 0), (n_max - v) // g)
    products = {primitive: _product_residues(primitive, top, moduli) for primitive, top in tops.items()}
    total = np.zeros((len(moduli), n_max + 1), dtype=dtype)
    for c, v, g, primitive in shapes:
        # the weight as a residue: uint64 wraps for the word, and residues
        # below 2^31 on both sides keep a prime product inside int64
        weight = np.array([[c % p] for p in moduli], dtype=dtype)
        total[:, v::g] += weight * products[primitive][:, : (n_max - v) // g + 1]
        if not word:
            total[:, v::g] %= np.array(moduli, dtype=np.int64)[:, None]
    return _crt_lift(total, moduli)


def eta_product_qexpansion(recipe, n_max, bound=None):
    """Exact coefficients of q^0..q^{n_max} of prod_d eta(d z)^{e_d}, as an
    ``_exact_array``; entries below the vanishing order are zero.  ``bound``
    is as in ``eta_combination``."""
    return eta_combination([(1, recipe)], n_max, bound)


def expand_eta_quotient(descriptor, n_max, bound=None):
    """Expand the descriptor's eta recipe into an exact coefficient table;
    ``bound`` is as in ``eta_combination``."""
    if descriptor.eta_recipe is None:
        raise RecipeError(f"descriptor {descriptor.label!r} carries no eta recipe")
    if n_max < 1:
        raise RecipeError(f"n_max must be >= 1, got {n_max}")
    full = eta_product_qexpansion(descriptor.eta_recipe, n_max, bound)
    if full[1] != 1:
        raise InvariantError(
            f"recipe for {descriptor.label!r} does not produce a normalized "
            f"expansion starting q + ..."
        )
    return CoefficientTable(descriptor, full[1:])


# -- file format ----------------------------------------------------------------

_HEADER_RE = re.compile(r"^label=(?P<label>\S+)\s+k=(?P<k>\d+)\s+N=(?P<N>\d+)\s*$", re.ASCII)
#: one field of a coefficient line or of a remote text payload
_FIELD = re.compile(r"[+-]?[0-9]+")


#: Lines per block of a written table: a write holds one block's text at a
#: time, so its memory does not grow with the table.
_BLOCK_LINES = 2**13


def coefficient_file_blocks(table):
    """A table as text in the standard line format (see
    load_coefficient_file), in pieces: the header line, then the
    ``<n> <A(n)>`` lines, ``_BLOCK_LINES`` to a piece."""
    d = table.descriptor
    yield f"label={d.label} k={d.weight} N={d.level}\n"
    for at in range(0, table.bound, _BLOCK_LINES):
        values = table._values[at : at + _BLOCK_LINES].tolist()
        # one format call over the interleaved (n, A(n)) items
        items = [0] * (2 * len(values))
        items[::2] = range(at + 1, at + 1 + len(values))
        items[1::2] = values
        yield ("{} {}\n" * len(values)).format(*items)


def write_coefficient_file(path, table):
    """Write ``coefficient_file_blocks(table)`` through a fsynced temp file
    renamed over ``path``: never a partial file.  The temp file is the
    writer's own, one per process and thread."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.writelines(coefficient_file_blocks(table))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_coefficient_file(path, n_max=None):
    r"""Read a coefficient file, or only its first ``n_max`` coefficients.

    Format (UTF-8 text): a header line ``label=<text> k=<int> N=<int>``
    followed by one ``<n> <A(n)>`` line per index, ascending and contiguous
    from 1.  Fields are an optional sign and ASCII digits, separated by
    whitespace.  ``#`` starts a comment, blank lines are skipped, and every
    line ends in a newline (``\n``, ``\r\n`` or ``\r``), so a file cut
    short is refused.  All table invariants are checked on the lines read:
    with ``n_max`` the parse stops there, and a bad line past it is unseen.
    """
    with open(path, "rb") as binary, io.TextIOWrapper(binary, encoding="utf-8") as fh:
        binary.seek(max(binary.seek(0, os.SEEK_END) - 1, 0))
        terminated = binary.read(1) in (b"\n", b"\r")
        binary.seek(0)
        header_line = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body; refused below
            # numpy 1.x parses a field that is not an int64 as a float and
            # truncates it (so 5.0 and 1e3 load, and 2^63 wraps), warning
            # once: make that warning fail the parse
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            try:
                header_line, header = _read_header(fh)
                try:
                    rows = _load_body(path, fh, header_line, np.int64, n_max)
                    values = rows["a"].copy()  # contiguous, without the n column
                except (ValueError, DeprecationWarning):
                    # a value beyond int64, or a malformed line: read A(n) as text
                    rows = _load_body(path, fh, header_line, object, n_max)
                    digits = "".join(rows["a"])  # int() also takes '_' and non-ASCII digits
                    if not digits.isascii() or "_" in digits:
                        raise ValueError("a field that is not an optional sign and ASCII digits")
                    values = list(map(int, rows["a"]))
            except (ValueError, DeprecationWarning):  # UnicodeDecodeError included
                _raise_at_first_bad_line(path, header_line)
    if not (terminated and np.array_equal(rows["n"], np.arange(1, len(rows) + 1))):
        _raise_at_first_bad_line(path, header_line)
    if not len(rows):
        raise GapError("no coefficient lines (A(1) missing)")
    label, k, N = header
    descriptor = NewformDescriptor(label=label, weight=k, level=N)
    return CoefficientTable(descriptor, values)


#: The names numpy.loadtxt decompresses when it is given a path.
_COMPRESSOR_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _load_body(path, fh, header_line, value_dtype, max_rows):
    """The (n, A(n)) rows below the header, line ``header_line``, up to
    ``max_rows`` of them.  numpy parses a path with its chunked C reader, a
    file object one Python line at a time.  The file is read from ``fh``,
    rewound, as plain text when numpy would decompress the path (a
    compressor suffix) or cannot open it: numpy resolves the working
    directory first, and fails when that directory has been removed."""
    kwargs = dict(
        dtype=[("n", np.int64), ("a", value_dtype)],
        comments="#",
        skiprows=header_line,
        max_rows=max_rows,
        encoding="utf-8",
        ndmin=1,
    )
    source = os.fsdecode(path)
    if not source.endswith(_COMPRESSOR_SUFFIXES):
        try:
            return np.loadtxt(source, **kwargs)
        except FileNotFoundError:
            pass
    fh.seek(0)
    return np.loadtxt(fh, **kwargs)


def _read_header(fh):
    """The line number and (label, k, N) of the first non-blank line."""
    for lineno, rawline in enumerate(fh, start=1):
        line = rawline.split("#", 1)[0].strip()
        if line:
            return lineno, _parse_header(line, lineno)
    raise ParseError("missing header line", 1)


def _parse_header(line, lineno):
    m = _HEADER_RE.match(line)
    if not m:
        raise ParseError(f"bad header {line!r}", lineno)
    return m.group("label"), int(m.group("k")), int(m.group("N"))


def _raise_at_first_bad_line(path, header_line):
    """Raise the error of the first line that breaks the file format: the
    error path of load_coefficient_file, which finds the line number only
    once the whole-body parse has failed.  With ``header_line`` None (the
    header could not be decoded) the header is found and checked here."""
    expected = 1
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # undecodable bytes became lone surrogates
            except UnicodeEncodeError:
                raise ParseError("not UTF-8 text", lineno) from None
            content = line.split("#", 1)[0]
            if header_line is None and content.strip():
                header_line = lineno
                _parse_header(content.strip(), lineno)
            fields = content.split() if header_line is not None and lineno > header_line else ()
            if fields:
                if len(fields) != 2 or not all(_FIELD.fullmatch(f) for f in fields):
                    raise ParseError(f"expected '<n> <A(n)>', got {line.strip()!r}", lineno)
                if int(fields[0]) != expected:
                    raise GapError(f"expected index {expected}, got {fields[0]}", lineno)
                expected += 1
            if not line.endswith("\n"):
                raise ParseError("no newline at the end of the last line (truncated file?)", lineno)
    raise ParseError(f"malformed coefficient file {path}")


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


def cache_file(label, cache_dir=None):
    """The cache file of ``label``, ``<cache_dir>/<label>.txt``; the
    directory defaults to $SATOTATE_CACHE_DIR, else ~/.cache/satotate."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR) or Path.home() / ".cache" / "satotate"
    return Path(cache_dir) / f"{label}.txt"


def cached_table(label, n_max, cache_dir=None):
    """The first n_max coefficients in the ``cache_file`` of ``label``, or
    None when it is missing or holds fewer.  Only their lines are parsed: a
    corrupt one raises, as does a file cut short or unreadable (exit 3)."""
    path = cache_file(label, cache_dir)
    if not path.exists():
        return None
    try:
        table = load_coefficient_file(path, n_max)
    except OSError as exc:  # a directory in the file's place, no permission
        raise ParseError(f"cache file {path}: {exc.strerror}") from None
    return table if table.bound == n_max else None


def download_table(label, n_max, base_url, timeout=30.0):
    """Fetch a q-expansion over HTTP; the caller caches it.

    GETs ``<base>/q_expansion/<label>?n=<n_max>`` and accepts either a JSON
    array of integers or whitespace/comma separated text.  A malformed base
    URL, an unreachable host or a broken reply is a NetworkError.
    """
    # the remote client's modules (http.client, ssl, email): only when a table is downloaded
    import http.client
    import urllib.error
    import urllib.request

    url = f"{base_url.rstrip('/')}/q_expansion/{label}?n={n_max}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            body = resp.read().decode("utf-8", errors="replace")  # U+FFFD fails every grammar
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise NotFoundError(f"label {label!r} unknown at {base_url}") from exc
        raise NetworkError(f"HTTP {exc.code} fetching {url}") from exc
    except (urllib.error.URLError, OSError, TimeoutError, http.client.HTTPException, ValueError) as exc:
        raise NetworkError(f"cannot reach {url}: {exc}") from exc

    coeffs = _parse_remote_body(body)
    if len(coeffs) < n_max:
        raise NotFoundError(
            f"remote returned {len(coeffs)} coefficients, wanted {n_max}"
        )
    N, k = parse_label(label)
    descriptor = NewformDescriptor(label=label, weight=k, level=N)
    return CoefficientTable(descriptor, coeffs[:n_max])


def _parse_remote_body(body):
    """The integers of a remote payload: a JSON array of integers, or text
    fields of the file grammar (an optional sign and ASCII digits) separated
    by whitespace or commas.  Anything else, bools and floats included, is
    refused."""
    import json  # the remote client's, like urllib in download_table

    body = body.strip()
    try:
        data = json.loads(body)
    except json.JSONDecodeError:
        data = body.replace(",", " ").split()
        if all(_FIELD.fullmatch(field) for field in data):
            return [int(field) for field in data]
    else:
        if isinstance(data, list) and all(type(x) is int for x in data):
            return data
    raise ParseError("remote payload is not an integer list")
