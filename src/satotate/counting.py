"""Prime statistics for pairs of newforms.

Everything here counts primes p <= x with conditions on the normalized pair
(a(p), a'(p)) or its symmetric-power lifts a(p^m) = U_m(a(p)/2).  Primes
dividing either level are excluded from density statistics; the first
sign-change search offers both exclusion rules.

Every sign decision goes through ``PairFrame.decide``: it runs in floating
point with a guard band, and whenever a value lands within 1e-9 of zero the
prime is re-examined exactly.  With A = A(p) integral and k even, every
quantity of interest lies in Q + Q*sqrt(p) (since
a(p) = [A / p^{(k-2)/2}] / sqrt(p)), where signs and zero tests are exact
rational arithmetic, so no tie is ever binned silently.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .bipoly import Poly2, compose_bivariate
from .chebyshev import check_pair, eval_u, s_poly
from .errors import CoverageError, DomainError, InvariantError
from .measures import d_mn, mu_jst_region
from .primes import sieve
from .records import Record
from . import region as region_mod

_GUARD = 1e-9
#: The first checkpoint of ``default_checkpoints`` (x_max when smaller).
_FIRST_CHECKPOINT = 1000
#: The certified error of the quadrature behind ``dominance_prediction``.
_PREDICTION_TARGET = 1e-3


def default_checkpoints(x_max, count=20):
    """Geometric checkpoint grid, deduplicated, ending exactly at x_max."""
    if x_max < 2:
        raise DomainError("x_max must be at least 2")
    pts = np.geomspace(min(_FIRST_CHECKPOINT, x_max), x_max, count)
    xs = sorted({int(round(p)) for p in pts} | {int(x_max)})
    return xs


# -- exact radical arithmetic -----------------------------------------------------


def _exact_pair_value(W, p, tables):
    """Value of W(a(p), a'(p)) written exactly as X + Y*sqrt(p), for the
    pair of tables (f, f').

    a(p) = A / p^{(k-1)/2} with k even, so every monomial contributes either
    a rational or a rational multiple of sqrt(p).
    """
    (A, k), (A_prime, k_prime) = ((t.a_int(p), t.descriptor.weight) for t in tables)
    X = Fraction(0)
    Y = Fraction(0)
    for (i, j), c in W.coeffs.items():
        num = Fraction(c) * Fraction(A) ** i * Fraction(A_prime) ** j
        e = i * (k - 1) + j * (k_prime - 1)
        if e % 2 == 0:
            X += num / p ** (e // 2)
        else:
            Y += num / p ** ((e + 1) // 2)
    return X, Y


def _radical_sign(X, Y, p):
    """Exact sign of X + Y*sqrt(p) for rational X, Y and prime p."""
    if X == 0 and Y == 0:
        return 0
    if X >= 0 and Y >= 0:
        return 1
    if X <= 0 and Y <= 0:
        return -1
    lhs, rhs = X * X, Y * Y * p
    if lhs == rhs:
        raise InvariantError("sqrt(p) cannot be rational")
    if X > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


@functools.lru_cache(maxsize=None)
def _lift_poly(m, axis):
    """S_m on one axis: a(p^m) = S_m(a(p)) as a Poly2 in u or v."""
    return Poly2.from_univariate(s_poly(m), axis)


def exact_lift_sign(table, p, m):
    """Exact sign of a(p^m) = U_m(a(p)/2) at a prime p coprime to the level."""
    # S_m in u reads the first table only
    return _radical_sign(*_exact_pair_value(_lift_poly(m, "u"), p, (table, table)), p)


# -- the prime-pair frame --------------------------------------------------------------


class PairFrame:
    """The normalized pairs (a(p), a'(p)) at the primes p <= x coprime to both levels.

    Every statistic in this module is a reduction over one frame: it checks
    coverage, sieves once, drops the level primes and normalizes both tables
    once, memoizes lift values and exact-guarded lift signs per (side, m),
    and makes every sign decision in ``decide``.  Side 0 is f, side 1 is f'.
    Build frames through ``pair_frame``, which reuses the last one.
    """

    def __init__(self, table_f, table_fp, x):
        if table_f.bound < x or table_fp.bound < x:
            raise CoverageError(
                f"tables cover {table_f.bound} and {table_fp.bound}, need {x}"
            )
        self.tables = (table_f, table_fp)
        self.primes_all = sieve(int(x)).primes
        level_product = table_f.descriptor.level * table_fp.descriptor.level
        self.primes = self.primes_all[level_product % self.primes_all != 0]
        self.values = tuple(t.normalized_values(self.primes) for t in self.tables)
        self._lifts = {}
        self._signs = {}

    def lift(self, side, m):
        """Float values of a(p^m) = U_m(a(p)/2) on one side."""
        if (side, m) not in self._lifts:
            self._lifts[side, m] = np.asarray(eval_u(m, self.values[side] / 2.0))
        return self._lifts[side, m]

    def lift_signs(self, side, m):
        """Signs of a(p^m) on one side."""
        if (side, m) not in self._signs:
            self._signs[side, m] = self.decide(_lift_poly(m, "uv"[side]), self.lift(side, m))
        return self._signs[side, m]

    def decide(self, W, values):
        """Signs of W(a(p), a'(p)) at every prime of the frame, given its
        float ``values`` there.  Each value within the guard band is
        re-decided exactly in Q + Q*sqrt(p)."""
        signs = np.sign(values).astype(np.int64)
        for idx in np.flatnonzero(np.abs(values) <= _GUARD):
            p = int(self.primes[idx])
            signs[idx] = _radical_sign(*_exact_pair_value(W, p, self.tables), p)
        return signs

    def sign_event(self, m, n):
        """Sign of a(p^m) a'(p^n) per prime."""
        return self.lift_signs(0, m) * self.lift_signs(1, n)

    def dominance_event(self, m, n):
        """+1 where a(p^m) < a'(p^n), -1 where greater, 0 at exact ties."""
        W = _lift_poly(n, "v") - _lift_poly(m, "u")
        return self.decide(W, self.lift(1, n) - self.lift(0, m))

    def tally(self, event, checkpoints):
        """Per checkpoint: (x, pi(x), #event > 0, #event < 0, #event = 0, density of
        event > 0 among the primes counted)."""
        idx = np.searchsorted(self.primes, checkpoints, side="right")
        cums = [
            np.concatenate([[0], np.cumsum(flags.astype(np.int64))])[idx]
            for flags in (event > 0, event < 0, event == 0)
        ]
        pis = np.searchsorted(self.primes_all, checkpoints, side="right")
        rows = []
        for x, pi_x, pos, neg, zero in zip(checkpoints, pis, *cums):
            n_eligible = int(pos + neg + zero)
            emp = float(pos / n_eligible) if n_eligible else 0.0
            rows.append((int(x), int(pi_x), int(pos), int(neg), int(zero), emp))
        return rows


@functools.lru_cache(maxsize=1)
def pair_frame(table_f, table_fp, x):
    """The pair frame of two tables up to x; a repeated request reuses it."""
    return PairFrame(table_f, table_fp, x)


# -- reports -----------------------------------------------------------------------


class CheckpointRow(Record):
    x: int
    pi_x: int
    count_pos: int
    count_neg: int
    count_zero: int
    emp_density: float
    pred_density: float
    envelope_ratio: float


class DensityReport(Record):
    """Per-checkpoint empirical counts with predictions and envelope ratios.

    ``count_pos`` counts the tracked event (product positive, or dominance
    a(p^m) < a'(p^n)), ``count_neg`` the opposite strict comparison, and
    ``count_zero`` the exact ties; the three always sum to the number of
    eligible primes (p not dividing either level).
    """

    rows: tuple

    def _check(self):
        for row in self.rows:
            if not 0.0 <= row.emp_density <= 1.0:
                raise InvariantError(f"empirical density {row.emp_density} outside [0,1]")

    @classmethod
    def build(cls, kind, frame, m, n, checkpoints, stat_region):
        """Tally the (kind, m, n) event over the frame; the envelope column is
        the ratio of the sharper unconditional envelope of ``stat_region`` to
        pi(x)."""
        event, pred = event_and_prediction(frame, kind, m, n)
        length, alpha, beta = stat_region.envelope_params()
        df, dfp = (t.descriptor for t in frame.tables)
        envelope = region_mod.ErrorEnvelope(
            "Unconditional12", df.weight, dfp.weight, df.level, dfp.level, length, alpha, beta,
        )
        rows = []
        for x, pi_x, pos, neg, zero, emp in frame.tally(event, checkpoints):
            ratio = envelope.ratio(x) if x >= 16 else float("inf")
            rows.append(CheckpointRow(x, pi_x, pos, neg, zero, emp, pred, ratio))
        return cls(tuple(rows))

    def final(self):
        return self.rows[-1]


def sign_density_series(table_f, table_fp, m, n, checkpoints):
    """Counts of primes with a(p^m) a'(p^n) > 0 (and < 0, = 0) per checkpoint.

    The predicted density is the closed-form d_{m,n}; the envelope column is
    the ratio of the sharper unconditional envelope to pi(x).
    """
    check_pair(m, n)
    frame = pair_frame(table_f, table_fp, max(checkpoints))
    return DensityReport.build(
        "sign", frame, m, n, list(checkpoints), region_mod.sign_product(m, n)
    )


@functools.lru_cache(maxsize=None)
def _dominance_region(m, n):
    """The region {S_m(u) < S_n(v)}, built once per (m, n)."""
    return region_mod.poly_positive(Poly2({(0, 1): 1, (1, 0): -1}), m, n)


def dominance_prediction(m, n):
    """Limiting density of {a(p^m) < a'(p^n)}.

    It is exactly 1/2 when a symmetry of the square maps the one-leaf region
    {W > 0}, W = S_n(v) - S_m(u), onto its complement (equal indices, by
    u <-> v, or two odd ones, by (u, v) -> (-u, -v)): ``mu_jst_region``'s
    test, made before W is factored.  Otherwise the joint measure of
    {U_m(u/2) < U_n(v/2)} is certified to ``_PREDICTION_TARGET``.
    """
    check_pair(m, n)
    W = _lift_poly(n, "v") - _lift_poly(m, "u")
    if region_mod.PolynomialRegion((region_mod.Constraint(W, ">"),)).symmetries[1]:
        return 0.5
    return mu_jst_region(_dominance_region(m, n), _PREDICTION_TARGET).value


def dominance_density_series(table_f, table_fp, m, n, checkpoints):
    """Counts of primes with a(p^m) < a'(p^n) per checkpoint."""
    check_pair(m, n)
    frame = pair_frame(table_f, table_fp, max(checkpoints))
    return DensityReport.build(
        "dominance", frame, m, n, list(checkpoints), _dominance_region(m, n)
    )


def event_and_prediction(frame, kind, m, n):
    """(event, prediction) of a "sign" or "dominance" statistic over the
    frame: the per-prime event of ``PairFrame.sign_event`` or
    ``dominance_event`` and its limiting density."""
    if kind == "sign":
        return frame.sign_event(m, n), d_mn(m, n)
    return frame.dominance_event(m, n), dominance_prediction(m, n)


# -- region counting ----------------------------------------------------------------


def count_in_region(table_f, table_fp, stat_region, x):
    """Count of primes p <= x, p coprime to both levels, whose normalized
    pair lies in the region.

    Each constraint's sign is decided by ``PairFrame.decide``: in floating
    point, and exactly in Q + Q*sqrt(p) within 1e-9 of the boundary.  The
    count is exact only while that guard band covers the rounding of the
    composed polynomial's evaluation, which at high lift degree it does not:
    {S_m(u) > 0} built by ``region_from_poly_interval`` on 5.4.a.a x 1.12.a.a
    up to 1e4 counts 620 and 612 primes at m = 48 and 64, where the exact
    counts (``poly_positive``, or the lift signs) are 616 and 601.
    """
    frame = pair_frame(table_f, table_fp, x)
    statuses = [
        leaf.status(frame.decide(leaf.poly, leaf.poly.eval_float(*frame.values)))
        for leaf in stat_region.leaves
    ]
    return int((stat_region.tree_status(statuses, shape=frame.primes.shape) == 1).sum())


def zero_count(table_f, table_fp, P, m, n, x):
    """Primes p <= x (coprime to the levels) where P(a(p^m), a'(p^n)) = 0.

    Float hits within the guard band are confirmed by the exact radical
    representation, so the count has no false positives.
    """
    if P.is_constant():
        raise DomainError("P must be non-constant")
    W = compose_bivariate(P, list(s_poly(m)), list(s_poly(n)))
    frame = pair_frame(table_f, table_fp, x)
    return int((frame.decide(W, W.eval_float(*frame.values)) == 0).sum())


# -- first sign change ---------------------------------------------------------------

EXCLUSION_RULES = ("AllPrimes", "ExcludeLevelPrimes")


class FirstSignChange(Record):
    """Search outcome; ``prime`` is None when no sign change was found."""

    prime: int | None
    searched_bound: int
    exclusion: str
    skipped: tuple = ()

    @property
    def found(self):
        return self.prime is not None


def first_sign_change(table_f, table_fp, m, n, exclusion="AllPrimes", search_bound=None):
    """Least prime with a(p^m) a'(p^n) < 0 under the chosen exclusion rule.

    With AllPrimes, ramified primes participate: the lift relation only
    covers p coprime to the level, so there the sign is read directly from
    the stored A(p^m) (such a prime is skipped, and recorded, if p^m exceeds
    the table bound).  Never raises on a fruitless search; returns a
    NotFound-style result carrying the searched bound.  ``search_bound``,
    when given, must be at least 2, and (m, n) pass ``check_pair``.
    """
    if exclusion not in EXCLUSION_RULES:
        raise DomainError(f"unknown exclusion rule {exclusion!r}")
    check_pair(m, n)
    if search_bound is not None and search_bound < 2:
        raise DomainError(f"search_bound must be at least 2, got {search_bound}")
    bound = min(table_f.bound, table_fp.bound, math.inf if search_bound is None else search_bound)
    frame = pair_frame(table_f, table_fp, bound)
    negative = frame.primes[frame.sign_event(m, n) < 0]
    found = [int(negative[0])] if negative.size else []
    skipped = []
    if exclusion == "AllPrimes":
        for p in np.setdiff1d(frame.primes_all, frame.primes).tolist():
            factors = []
            for table, mm in ((table_f, m), (table_fp, n)):
                if table.descriptor.level % p != 0:
                    factors.append(exact_lift_sign(table, p, mm))
                elif p**mm <= table.bound:
                    A = table.a_int(p**mm)
                    factors.append((A > 0) - (A < 0))
            if len(factors) < 2:
                skipped.append(p)
            elif factors[0] * factors[1] < 0:
                found.append(p)
    return FirstSignChange(min(found, default=None), bound, exclusion, tuple(skipped))


def theoretical_first_sign_bound(m, n, k, k_prime, level, level_prime, d):
    """Smallest j such that x = 2^j satisfies (1 - d_{m,n}) * sqrt(M(x)) > d.

    This is the doubling-grid solution of the inequality whose first success
    witnesses a sign change: past it, the guaranteed count of primes with a
    negative product is positive.  Returned as the exponent j: the solution
    grows like exp(const * (log kk'NN')^2), so x itself leaves float range,
    and as an integer it would take 364 Mbit for 1.12.a.a at d = 2.5.
    """
    if not 0 < d < math.inf:  # NaN fails this too
        raise DomainError(f"the envelope constant d must be finite and positive, got {d}")
    dmn = d_mn(m, n)
    if dmn >= 1:
        raise DomainError("d_{m,n} = 1 leaves no negative-sign density")
    K = k * k_prime * level * level_prime

    def satisfied(j):
        M = region_mod.m_of_log_x(j * math.log(2.0), K)
        return M is not None and (1.0 - dmn) * math.sqrt(M) > d

    lo_j, hi_j = 3, 4
    while not satisfied(hi_j):
        lo_j = hi_j
        hi_j *= 2
        if hi_j > 2**40:
            raise DomainError("no doubling checkpoint satisfies the inequality")
    while hi_j - lo_j > 1:
        mid = (lo_j + hi_j) // 2
        if satisfied(mid):
            hi_j = mid
        else:
            lo_j = mid
    return hi_j
