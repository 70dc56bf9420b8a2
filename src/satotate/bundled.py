"""Offline constructors for the bundled newforms.

Two forms carry eta recipes (5.4.a.a and the discriminant form 1.12.a.a).
The weight-6 level-6 form 6.6.a.a has no single-eta-quotient expression; it
is reconstructed as the integer combination

    -eta(z)^6 eta(3z)^6 + 8 eta(2z)^6 eta(6z)^6
    + 2 eta(z)^5 eta(2z)^5 eta(3z) eta(6z)

of holomorphic eta-quotient cusp forms of the same weight and level.  The
combination is solved from the first three coefficients and then checked
against the shipped nine-coefficient snapshot; since agreement through
q^9 exceeds the Sturm bound (6) for weight 6 on Gamma_0(6), a full match
identifies the combination with the newform, not merely an approximation.
Every full-table invariant (Deligne bound, ramified-prime values) is checked
again on construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

from .coeffs import (
    CoefficientTable,
    NewformDescriptor,
    Source,
    eta_bound,
    eta_combination,
    eta_product_qexpansion,
    expand_eta_quotient,
    write_coefficient_file,
)
from .errors import InvariantError, NotFoundError

ETA_RECIPES = {
    "5.4.a.a": ((1, 4), (5, 4)),
    "1.12.a.a": ((1, 24),),
}

_WEIGHT_LEVEL = {
    "5.4.a.a": (4, 5),
    "1.12.a.a": (12, 1),
    "6.6.a.a": (6, 6),
}

#: First nine coefficients of 6.6.a.a, shipped as an offline snapshot.
SNAPSHOT_6_6_A_A = (1, 4, -9, 16, -66, -36, 176, 64, 81)

#: Cusp-form basis used to reconstruct 6.6.a.a (recipes on divisors of 6).
_LEVEL6_BASIS = (
    ((1, 6), (3, 6)),
    ((2, 6), (6, 6)),
    ((1, 5), (2, 5), (3, 1), (6, 1)),
)

BUNDLED_LABELS = tuple(sorted(_WEIGHT_LEVEL))


def descriptor_for(label):
    if label not in _WEIGHT_LEVEL:
        raise NotFoundError(f"no bundled data for label {label!r}")
    k, N = _WEIGHT_LEVEL[label]
    recipe = ETA_RECIPES.get(label)
    source = Source.ETA_QUOTIENT if recipe else Source.FILE
    return NewformDescriptor(label=label, weight=k, level=N, eta_recipe=recipe, source=source)


def _solve_level6_combination(series, target):
    """Solve sum_i x_i * series_i = target on q^1..q^3 with exact rationals."""
    rows = [[Fraction(s[n]) for s in series] + [Fraction(target[n])] for n in (1, 2, 3)]
    size = len(series)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            raise InvariantError("level-6 eta basis is degenerate")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[r][size] for r in range(size)]


def newform_bound(weight, n_max, denominator=1):
    """denominator * 2 n_max^(k/2): a bound on denominator * |A(n)| for
    n <= n_max and any newform of weight k, by Deligne's bound
    |A(n)| <= d(n) n^((k-1)/2) and d(n) <= 2 sqrt(n) (divisors pair off
    around sqrt(n))."""
    return denominator * 2 * n_max ** (weight // 2)


def _level6_combination():
    """The denominator and the integer (weight, recipe) terms of the level-6
    combination: the solved rational weights cleared to integers."""
    prefixes = [eta_product_qexpansion(recipe, 3).tolist() for recipe in _LEVEL6_BASIS]
    weights = _solve_level6_combination(prefixes, (0,) + SNAPSHOT_6_6_A_A)
    denominator = math.lcm(*(w.denominator for w in weights))
    return denominator, [(int(w * denominator), recipe) for w, recipe in zip(weights, _LEVEL6_BASIS)]


def build_6_6_a_a(n_max):
    """Reconstruct 6.6.a.a up to n_max; exact integers, fully re-verified.
    The integer combination is expanded exactly, then divided back by the
    denominator.

    Its moduli cover the newform bound, not the l1 bound of the eta
    factors.  That is sound: the coefficients of q^1..q^9 obey the l1 bound
    through q^9, which the moduli also cover, so they lift exactly; their
    match with the snapshot goes past the Sturm bound (6), so it proves the
    combination equal to denominator * 6.6.a.a; hence every coefficient obeys
    Deligne's bound and lifts exactly too.  A failed match raises before any
    coefficient beyond q^9 is used."""
    length = max(n_max, 9)
    denominator, terms = _level6_combination()
    sturm = sum(abs(c) * eta_bound(recipe, 9) for c, recipe in terms)
    bound = max(newform_bound(6, length, denominator), sturm)
    lifted = eta_combination(terms, length, bound)
    if (lifted % denominator).any():
        raise InvariantError("non-integral coefficient in the level-6 combination")
    combo = lifted[1:] // denominator
    if tuple(combo[:9].tolist()) != SNAPSHOT_6_6_A_A:
        raise InvariantError("level-6 combination does not match the snapshot expansion")
    return CoefficientTable(descriptor_for("6.6.a.a"), combo[:n_max])


def bundled_table(label, n_max):
    """Coefficient table for a bundled label, computed entirely offline.
    5.4.a.a and 1.12.a.a are their eta quotients, each the one normalized
    cusp form of a space of dimension 1 (S_4(Gamma_0(5)) and S_12(SL_2(Z))),
    so the newform bound sizes their moduli."""
    if label in ETA_RECIPES:
        k = _WEIGHT_LEVEL[label][0]
        return expand_eta_quotient(descriptor_for(label), n_max, newform_bound(k, n_max))
    if label == "6.6.a.a":
        return build_6_6_a_a(n_max)
    raise NotFoundError(f"no bundled data for label {label!r}")


def snapshot_path():
    """Path of the packaged nine-coefficient snapshot file for 6.6.a.a."""
    return Path(__file__).parent / "data" / "6.6.a.a.q9.txt"


def seed_cache(cache_dir, n_max, labels=("5.4.a.a", "6.6.a.a")):
    """Write bundled tables into a fetch cache, enabling offline runs.

    Returns the list of files written.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for label in labels:
        table = bundled_table(label, n_max)
        path = cache_dir / f"{label}.txt"
        write_coefficient_file(path, table)
        written.append(path)
    return written
