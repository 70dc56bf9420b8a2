import math
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from satotate import bundled, counting, region
from satotate.bipoly import Poly2, compose_bivariate
from satotate.chebyshev import s_poly
from satotate.coeffs import CoefficientTable, NewformDescriptor
from satotate.counting import (
    count_in_region,
    default_checkpoints,
    dominance_density_series,
    dominance_prediction,
    exact_lift_sign,
    first_sign_change,
    sign_density_series,
    theoretical_first_sign_bound,
    zero_count,
)
from satotate.errors import BudgetError, CoverageError, DomainError
from satotate.measures import Interval, MeasureValue, d_mn, mu_jst_region
from satotate.primes import prime_count, sieve
from satotate.symmetry import SQUARE_GROUP

import oracles


# -- sieve -------------------------------------------------------------------------


def test_sieve_small():
    assert list(sieve(10).primes) == [2, 3, 5, 7]
    assert sieve(100).primes.size == 25


def test_sieve_against_segmented_oracle():
    assert sieve(10**5).primes.size == 9592
    assert sieve(10**5).primes.size == oracles.segmented_sieve_count(10**5)
    assert sieve(54321).primes.size == oracles.segmented_sieve_count(54321)


def test_sieve_budget():
    with pytest.raises(BudgetError):
        sieve(10**8 + 1)


def test_sieve_memoises_the_last_bound_read_only():
    first = sieve(4321)
    assert sieve(4321) is first
    with pytest.raises(ValueError):
        first.primes[0] = 4
    assert sieve(4321).primes.size == oracles.segmented_sieve_count(4321)


# -- prime counting ------------------------------------------------------------------

#: pi(10^k), the published prime counts
PUBLISHED_PI = {
    1: 4, 2: 25, 3: 168, 4: 1229, 5: 9592, 6: 78498, 7: 664579,
    8: 5761455, 9: 50847534, 10: 455052511,
}


def test_prime_count_matches_sieve_below_3000():
    assert [prime_count(x) for x in range(3001)] == [sieve(x).primes.size for x in range(3001)]


@pytest.fixture(scope="module")
def primes_to_1e7():
    return sieve(10**7)


@settings(max_examples=60, deadline=None)
@given(x=st.integers(min_value=0, max_value=10**7))
@example(x=10**7)
@example(x=9_999_991)  # the largest prime below 10^7
@example(x=3137**2)  # the square of the largest prime below sqrt(10^7)
def test_prime_count_matches_sieve_up_to_1e7(primes_to_1e7, x):
    assert prime_count(x) == np.searchsorted(primes_to_1e7.primes, x, side="right")


@pytest.mark.parametrize("k", sorted(PUBLISHED_PI))
def test_prime_count_published_powers_of_ten(k):
    assert prime_count(10**k) == PUBLISHED_PI[k]


def test_prime_count_budget():
    with pytest.raises(BudgetError):
        prime_count(10**11 + 1)


def test_envelope_pi_is_exact_through_1e11():
    region._pi_x.cache_clear()
    assert region._pi_x(1e11) == 4_118_054_813
    # beyond 10^11 the logarithmic integral, a float within 1e-5 of pi(10^12)
    assert region._pi_x(1e12) == pytest.approx(37_607_912_018, rel=1e-5)


def test_checkpoints():
    cps = default_checkpoints(10**4)
    assert cps[-1] == 10**4
    assert all(a < b for a, b in zip(cps, cps[1:]))


# -- counting in regions -------------------------------------------------------------


def test_count_full_square(delta_table, f54_table):
    x = 10**4
    expected = sieve(x).primes.size - 1  # only p = 5 divides the level product
    assert count_in_region(delta_table, f54_table, region.full_square(), x) == expected


def test_count_sign_product_near_half(delta_table, f54_table):
    x = 10**4
    count = count_in_region(delta_table, f54_table, region.sign_product(1, 1), x)
    pi_x = sieve(x).primes.size
    assert abs(count - 0.5 * pi_x) <= 0.05 * pi_x
    # cross-check against a direct brute-force scan
    primes = [int(p) for p in sieve(x).primes if p != 5]
    brute = sum(1 for p in primes if delta_table.a_int(p) * f54_table.a_int(p) > 0)
    assert count == brute


def test_count_empty_region(delta_table, f54_table):
    u = Poly2({(1, 0): 1})
    empty = region.PolynomialRegion(
        (region.Constraint(u, ">"), region.Constraint(u, "<"))
    )
    assert count_in_region(delta_table, f54_table, empty, 10**3) == 0


def test_count_coverage_error(delta_table, f54_table):
    with pytest.raises(CoverageError):
        count_in_region(delta_table, f54_table, region.full_square(), 10**6)


# -- density series --------------------------------------------------------------------


def test_sign_series_odd_prediction(delta_table, f54_table):
    cps = default_checkpoints(10**4)
    rep = sign_density_series(delta_table, f54_table, 1, 2, cps)
    assert all(r.pred_density == 0.5 for r in rep.rows)


def test_sign_series_even_prediction(f54_table, f66_table):
    cps = default_checkpoints(10**4)
    rep = sign_density_series(f54_table, f66_table, 2, 2, cps)
    assert rep.rows[0].pred_density == pytest.approx(0.523761, abs=1e-6)


def test_sign_series_trichotomy(f54_table, f66_table):
    cps = default_checkpoints(10**4)
    rep = sign_density_series(f54_table, f66_table, 2, 2, cps)
    primes = sieve(10**4).primes
    for row in rep.rows:
        pi_x = int(np.searchsorted(primes, row.x, side="right"))
        excluded = sum(1 for p in (2, 3, 5) if p <= row.x)
        assert row.count_pos + row.count_neg + row.count_zero == pi_x - excluded
        assert row.pi_x == pi_x


def test_dominance_predictions():
    assert dominance_prediction(1, 3) == 0.5
    assert dominance_prediction(2, 2) == 0.5
    p23 = dominance_prediction(2, 3)
    assert p23 > 0.5
    lt = region.poly_positive(Poly2({(0, 1): 1, (1, 0): -1}), 2, 3)
    assert p23 == pytest.approx(mu_jst_region(lt, 1e-3).value, abs=1e-5)


def test_dominance_prediction_memory_stays_small():
    # the (2,3) quadtree ends at 26,940 classified and 13,467 polished cells:
    # a cell is two int32 edge indices and its stabiliser byte, the polish
    # solves the sections once per t-column and estimates the cells in
    # blocks of 2^12, and the enclosures drop the powers no derivative uses;
    # 3.4 MB traced (6.1 MB with four float edge records per cell, 10.3 MB
    # when the polish ran blocks of 2^14)
    tracemalloc.start()
    try:
        assert dominance_prediction(2, 3) > 0.5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_100_000


def test_dominance_self_comparison_is_zero(f54_table):
    cps = default_checkpoints(10**3)
    rep = dominance_density_series(f54_table, f54_table, 2, 2, cps)
    assert rep.final().count_pos == 0
    assert rep.final().count_zero == rep.final().count_pos + rep.final().count_neg + rep.final().count_zero


# -- zero counts -------------------------------------------------------------------------


def test_zero_count_tau_never_vanishes(delta_table, f54_table):
    assert zero_count(delta_table, f54_table, Poly2({(1, 0): 1}), 1, 1, 10**4) == 0


def test_zero_count_identical_difference(f54_table):
    x = 10**3
    eligible = [int(p) for p in sieve(x).primes if p != 5]
    P = Poly2({(1, 0): 1, (0, 1): -1})
    assert zero_count(f54_table, f54_table, P, 2, 2, x) == len(eligible)


def test_zero_count_envelope_ratio_logged(delta_table, f54_table):
    x = 10**4
    zc = zero_count(delta_table, f54_table, Poly2({(1, 1): 1, (0, 0): -1}), 1, 1, x)
    ratio = zc / sieve(x).primes.size
    assert ratio <= 0.05  # recorded sanity margin, not a tight envelope claim


def test_zero_count_rejects_constant(delta_table, f54_table):
    with pytest.raises(DomainError):
        zero_count(delta_table, f54_table, Poly2({(0, 0): 2}), 1, 1, 100)


# -- first sign change -------------------------------------------------------------------


def test_first_sign_change_all_primes(f54_table, f66_table):
    res = first_sign_change(f54_table, f66_table, 1, 1, "AllPrimes")
    assert res.prime == 2  # A(2) = -4 < 0 while A'(2) = 4 > 0


def test_first_sign_change_excluding_level(f54_table, f66_table):
    res = first_sign_change(f54_table, f66_table, 1, 1, "ExcludeLevelPrimes")
    # p = 7 has 6 * 176 > 0; the first opposite-sign prime coprime to 30
    assert res.prime == 11
    assert f54_table.a_int(11) * f66_table.a_int(11) < 0


def test_first_sign_change_exclusion_ordering(f54_table, f66_table):
    all_p = first_sign_change(f54_table, f66_table, 1, 1, "AllPrimes")
    excl = first_sign_change(f54_table, f66_table, 1, 1, "ExcludeLevelPrimes")
    assert all_p.prime <= excl.prime


def test_first_sign_change_skips_a_level_prime_past_the_table():
    # 5 divides the level of 5.4.a.a, so its sign is read from A(5^3), and
    # 125 lies past a table of 100 coefficients
    f, fp = (bundled.bundled_table(label, 100) for label in ("5.4.a.a", "6.6.a.a"))
    res = first_sign_change(f, fp, 3, 3, "AllPrimes")
    assert (res.prime, res.skipped) == (11, (5,))


def test_first_sign_change_not_found(f54_table):
    res = first_sign_change(f54_table, f54_table, 2, 2, "AllPrimes", search_bound=500)
    assert not res.found
    assert res.searched_bound == 500


@pytest.mark.parametrize("bound", [0, 1])
def test_first_sign_change_refuses_a_bound_below_2(f54_table, f66_table, bound):
    # 0 once read as "unset" and searched the whole table
    with pytest.raises(DomainError):
        first_sign_change(f54_table, f66_table, 1, 1, search_bound=bound)


def test_first_sign_change_searches_up_to_2(f54_table, f66_table):
    res = first_sign_change(f54_table, f66_table, 1, 1, search_bound=2)
    assert (res.prime, res.searched_bound) == (2, 2)


@pytest.mark.parametrize("rule", counting.EXCLUSION_RULES)
def test_first_sign_change_refuses_the_constant_pair(f54_table, f66_table, rule):
    # S_0(u) S_0(v) = 1 at every prime: once reported as "no sign change"
    with pytest.raises(DomainError, match=r"\(0, 0\)"):
        first_sign_change(f54_table, f66_table, 0, 0, rule)
    assert first_sign_change(f54_table, f66_table, 0, 1, rule).found  # one zero index is a statistic


_HIGH_DEGREE = [(48, 616), (64, 601)]


@pytest.mark.parametrize("m, exact", _HIGH_DEGREE)
def test_lift_signs_and_factored_regions_count_high_degrees_exactly(f54_table, delta_table, m, exact):
    # {S_m(u) > 0} on 5.4.a.a x 1.12.a.a up to 1e4
    frame = counting.pair_frame(f54_table, delta_table, 10**4)
    assert int((frame.lift_signs(0, m) > 0).sum()) == exact
    assert count_in_region(f54_table, delta_table, region.poly_positive(Poly2({(1, 0): 1}), m, 0), 10**4) == exact


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: the 1e-9 guard band of PairFrame.decide does not cover the rounding "
    "of the composed S_m, so {S_m(u) > 0} counts 620 and 612 at m = 48 and 64",
)
@pytest.mark.parametrize("m, exact", _HIGH_DEGREE)
def test_count_in_region_is_exact_at_high_lift_degree(f54_table, delta_table, m, exact):
    composed = region.region_from_poly_interval(Poly2({(1, 0): 1}), Interval(0, math.inf), m, 0)
    assert count_in_region(f54_table, delta_table, composed, 10**4) == exact


def test_theoretical_bound_minimality():
    kwargs = dict(m=2, n=2, k=4, k_prime=6, level=5, level_prime=6)
    j = theoretical_first_sign_bound(d=0.6, **kwargs)

    def holds(jj):
        log_x = jj * math.log(2)
        mval = math.sqrt(math.sqrt(log_x) / math.log(720 * log_x))
        return (1 - d_mn(2, 2)) * math.sqrt(mval) > 0.6

    assert holds(j)
    assert not holds(j - 1)


@pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf])
def test_theoretical_bound_needs_a_finite_positive_constant(d):
    with pytest.raises(DomainError, match="finite and positive"):
        theoretical_first_sign_bound(2, 2, 4, 6, 5, 6, d)


def test_theoretical_bound_monotone_in_conductor():
    bounds = [
        theoretical_first_sign_bound(2, 2, k, 2, 1, 1, 0.6)
        for k in (10, 1000, 1000000)
    ]
    assert bounds[0] <= bounds[1] <= bounds[2]


def test_theoretical_bound_shape():
    # log(bound) / (log K)^2 stays bounded as the conductor grows, settling
    # toward the 4 A^8 constant of the doubling-grid inequality
    ratios = []
    for K in (10**2, 10**4, 10**6, 10**8):
        j = theoretical_first_sign_bound(2, 2, K, 1, 1, 1, 0.6)
        ratios.append(((j + 1) * math.log(2)) / math.log(K) ** 2)
    assert max(ratios) < 50
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


# -- exact radical arithmetic ----------------------------------------------------------


def test_radical_sign_matches_float():
    from fractions import Fraction

    from satotate.counting import _radical_sign

    rng = np.random.default_rng(11)
    for p in (2, 3, 7, 101):
        for _ in range(200):
            X = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 9)))
            Y = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 9)))
            approx = float(X) + float(Y) * math.sqrt(p)
            got = _radical_sign(X, Y, p)
            if abs(approx) > 1e-9:
                assert got == (1 if approx > 0 else -1), (X, Y, p)
            elif X == 0 and Y == 0:
                assert got == 0


def test_exact_pair_value_reconstructs_float(f54_table, f66_table):
    from satotate.counting import _exact_pair_value

    W = Poly2({(2, 1): 3, (1, 0): -2, (0, 3): 1, (0, 0): 5})
    for p in (7, 11, 13, 101):
        X, Y = _exact_pair_value(W, p, (f54_table, f66_table))
        exact = float(X) + float(Y) * math.sqrt(p)
        direct = W.eval_float(
            f54_table.normalized_values([p])[0], f66_table.normalized_values([p])[0]
        )
        assert exact == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_exact_lift_sign_decides_exact_ties():
    # weight-2 tables at p = 2, where a(2) = A / sqrt(2)
    for A, m, sign in (
        (1, 2, -1),  # a^2 = 1/2: S_2(a) = a^2 - 1 < 0
        (2, 2, 1),  # a = sqrt(2): S_2(a) = 1
        (2, 1, 1),
        (-2, 1, -1),  # odd degree carries the sign of a
        (2, 3, 0),  # S_3(a) = a (a^2 - 2) vanishes at a = sqrt(2)
        (-2, 3, 0),
        (-2, 5, 1),  # S_5(a) = a (a^2 - 1)(a^2 - 3) = -a
        (0, 3, 0),
        (0, 2, -1),
    ):
        table = CoefficientTable(NewformDescriptor("t", 2, 1), [1, A])
        assert exact_lift_sign(table, 2, m) == sign, (A, m)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 24, 48, 64])
def test_exact_lift_sign_matches_oracle(delta_table, f54_table, m):
    for table in (delta_table, f54_table):
        k = table.descriptor.weight
        for p in (2, 3, 7, 11, 97, 9973):
            if table.descriptor.level % p:
                expected = _sign(oracles._surd_lift(table.a_int(p), k, p, m))
                assert exact_lift_sign(table, p, m) == expected, (table, p, m)


# -- symmetry detection ----------------------------------------------------------------


def _flips(P, m, n):
    """The symmetries of the square that map {W > 0}, W = P(S_m(u), S_n(v)),
    onto its complement."""
    W = compose_bivariate(P, list(s_poly(m)), list(s_poly(n)))
    return list(region.PolynomialRegion((region.Constraint(W, ">"),)).symmetries[1])


def test_symmetry_odd_twist():
    P = Poly2({(1, 0): 3, (1, 2): 1})  # u * (v^2 + 3)
    # S_1 is odd and S_2 even: u -> -u negates, with or without v -> -v
    assert [(g.a, g.b, g.swap) for g in _flips(P, 1, 2)] == [(-1, 1, False), (-1, -1, False)]


def test_symmetry_antisymmetric():
    P = Poly2({(3, 0): 1, (0, 3): -1})  # (u - v)(u^2 + uv + v^2)
    # S_2 is even, so every element that exchanges u and v negates
    assert [g.swap for g in _flips(P, 2, 2)] == [True] * 4


def test_symmetry_none():
    assert _flips(Poly2({(2, 0): 1, (0, 0): 1}), 2, 2) == []


def test_symmetry_forces_half_measure():
    for P, m, n in (
        (Poly2({(1, 0): 3, (1, 2): 1}), 1, 2),
        (Poly2({(3, 0): 1, (0, 3): -1}), 2, 2),
    ):
        assert _flips(P, m, n)
        assert mu_jst_region(region.poly_positive(P, m, n), 1e-3) == MeasureValue(0.5, 0.0)


def test_dominance_half_is_decided_before_any_region(monkeypatch):
    # exactly the pairs with equal or two odd indices are 1/2, and W is not
    # factored for them; (0, 0) is refused
    monkeypatch.setattr(region, "poly_positive", None)
    for m in range(9):
        for n in range(9):
            if (m, n) == (0, 0):
                continue
            half = m == n or m % 2 == n % 2 == 1
            assert bool(_flips(Poly2({(0, 1): 1, (1, 0): -1}), m, n)) == half, (m, n)
            if half:
                assert dominance_prediction(m, n) == 0.5


def test_dominance_is_half_exactly_when_a_symmetry_negates_the_difference(monkeypatch):
    # 1/2 if and only if some g of the square maps W = S_n(v) - S_m(u) to -W,
    # compared exactly on the coefficients; any other pair goes to the
    # quadrature, stubbed here
    monkeypatch.setattr(counting, "_dominance_region", lambda m, n: None)
    monkeypatch.setattr(counting, "mu_jst_region", lambda reg, target: MeasureValue(0.25, 0.0))
    for m in range(25):
        for n in range(25):
            if (m, n) == (0, 0):
                continue
            W = Poly2.from_univariate(s_poly(n), "v") - Poly2.from_univariate(s_poly(m), "u")
            negated = any(g.act(W) == -W for g in SQUARE_GROUP)
            assert (dominance_prediction(m, n) == 0.5) == negated, (m, n)


def test_dominance_prediction_refuses_the_constant_pair():
    # {S_0(u) < S_0(v)} = {1 < 1} is empty, so no density is 1/2 there
    with pytest.raises(DomainError, match=r"\(0, 0\)"):
        dominance_prediction(0, 0)


def test_empirical_convergence_all_panels(f54_table, f66_table):
    # every displayed panel configuration sits within 0.05 of its prediction
    # by x = 10^4
    cps = default_checkpoints(10**4)
    for m, n in ((1, 1), (2, 2), (1, 2)):
        rep = sign_density_series(f54_table, f66_table, m, n, cps)
        final = rep.final()
        assert abs(final.emp_density - final.pred_density) <= 0.05, ("sign", m, n)
    for m, n in ((1, 3), (2, 2), (2, 3)):
        rep = dominance_density_series(f54_table, f66_table, m, n, cps)
        final = rep.final()
        assert abs(final.emp_density - final.pred_density) <= 0.05, ("dom", m, n)


# -- the pair pipeline against an exact per-prime oracle ------------------------------

_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_TABLE_PAIRS = ((1, 2), (0, 1), (1, 1))  # indices into (delta, 5.4.a.a, 6.6.a.a)
_ORACLE_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def _pair_problems(draw):
    """P of degree <= 2 with small integer coefficients, lift indices m, n <= 6
    (not both zero), a bound x and a pair of bundled tables."""
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    assume(any(coeffs[1:]))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    assume((m, n) != (0, 0))
    x = draw(st.integers(2, 2000))
    return Poly2(dict(zip(_MONOMIALS, coeffs))), m, n, x, draw(st.sampled_from(_TABLE_PAIRS))


def _sign(value):
    return int(sympy.sign(value))


# a(p) = a'(p) on a self pair, so P = x - y vanishes at every prime: each one
# lands in the guard band and only the exact re-decision counts it
_SELF_TIE = (Poly2({(1, 0): 1, (0, 1): -1}), 2, 2, 2000, (1, 1))


@_ORACLE_SETTINGS
@given(
    problem=_pair_problems(),
    bounds=st.sampled_from(
        [(-math.inf, 0), (0, math.inf), (-1, 1), (0, 0), (1, 2), (-math.inf, math.inf)]
    ),
)
@example(problem=_SELF_TIE, bounds=(0, 0))
@example(problem=_SELF_TIE, bounds=(0, math.inf))
def test_region_and_zero_counts_match_exact_oracle(
    delta_table, f54_table, f66_table, problem, bounds
):
    P, m, n, x, (i, j) = problem
    tables = (delta_table, f54_table, f66_table)
    tf, tfp = tables[i], tables[j]
    lo, hi = bounds
    try:
        stat_region = region.region_from_poly_interval(P, Interval(lo, hi), m, n)
    except DomainError:
        assume(False)  # P(S_m(u), S_n(v)) is constant
    values = oracles.exact_pair_values(tf, tfp, P, m, n, x)
    # infinite endpoints impose nothing; finite ones are closed
    inside = sum(
        1
        for v in values.values()
        if (lo == -math.inf or _sign(v - lo) >= 0) and (hi == math.inf or _sign(v - hi) <= 0)
    )
    assert count_in_region(tf, tfp, stat_region, x) == inside
    assert zero_count(tf, tfp, P, m, n, x) == sum(1 for v in values.values() if v == 0)


@_ORACLE_SETTINGS
@given(problem=_pair_problems())
# 5.4.a.a has a(2) = -sqrt(2), a zero of S_3: an exact tie at p = 2
@example(problem=(None, 1, 3, 2000, (0, 1)))
def test_sign_series_counts_match_exact_oracle(delta_table, f54_table, f66_table, problem):
    _, m, n, x, (i, j) = problem
    tables = (delta_table, f54_table, f66_table)
    tf, tfp = tables[i], tables[j]
    checkpoints = sorted({max(2, x // 2), x})
    rows = sign_density_series(tf, tfp, m, n, checkpoints).rows
    signs = {
        p: _sign(v) for p, v in oracles.exact_pair_values(tf, tfp, Poly2({(1, 1): 1}), m, n, x).items()
    }
    for row in rows:
        upto = [s for p, s in signs.items() if p <= row.x]
        assert (row.count_pos, row.count_neg, row.count_zero) == (
            upto.count(1), upto.count(-1), upto.count(0)
        )


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problem=_pair_problems())
# a(p) = a'(p) on a self pair: every prime is an exact tie of S_2(v) - S_2(u)
@example(problem=(None, 2, 2, 2000, (1, 1)))
def test_dominance_series_counts_match_exact_oracle(delta_table, f54_table, f66_table, problem):
    _, m, n, x, (i, j) = problem
    tables = (delta_table, f54_table, f66_table)
    tf, tfp = tables[i], tables[j]
    checkpoints = sorted({max(2, x // 2), x})
    rows = dominance_density_series(tf, tfp, m, n, checkpoints).rows
    # event +1 where a(p^m) < a'(p^n): the sign of P = v - u
    P = Poly2({(0, 1): 1, (1, 0): -1})
    signs = {p: _sign(v) for p, v in oracles.exact_pair_values(tf, tfp, P, m, n, x).items()}
    for row in rows:
        upto = [s for p, s in signs.items() if p <= row.x]
        assert (row.count_pos, row.count_neg, row.count_zero) == (
            upto.count(1), upto.count(-1), upto.count(0)
        )


def _every_statistic(delta_table, f54_table, f66_table):
    """Sign and dominance events, region and zero counts and first sign
    changes over pairs with exact ties (a self pair; a(2) = -sqrt(2) of
    5.4.a.a, a zero of S_3), each from a fresh pair frame."""
    x = 1000
    out = []
    for tf, tfp in ((f54_table, f66_table), (f54_table, f54_table), (f54_table, delta_table)):
        counting.pair_frame.cache_clear()  # a frame memoizes its lift signs
        frame = counting.pair_frame(tf, tfp, x)
        for m, n in ((1, 1), (2, 2), (3, 1), (2, 3)):
            out.append(frame.sign_event(m, n).tolist())
            out.append(frame.dominance_event(m, n).tolist())
        for reg in (
            region.sign_product(3, 2),
            region.poly_positive(Poly2({(0, 1): 1, (1, 0): -1}), 2, 3),
            region.region_from_poly_interval(Poly2({(1, 1): 1}), Interval(0, math.inf), 3, 1),
        ):
            out.append(count_in_region(tf, tfp, reg, x))
        for P, m, n in ((Poly2({(1, 0): 1, (0, 1): -1}), 2, 2), (Poly2({(1, 0): 1}), 3, 1)):
            out.append(zero_count(tf, tfp, P, m, n, x))
        for rule in counting.EXCLUSION_RULES:
            out.append(first_sign_change(tf, tfp, 3, 1, rule, search_bound=x))
    counting.pair_frame.cache_clear()
    return out


def test_exact_path_at_every_prime_agrees_with_the_guard_band(
    delta_table, f54_table, f66_table, monkeypatch
):
    default = _every_statistic(delta_table, f54_table, f66_table)
    monkeypatch.setattr(counting, "_GUARD", math.inf)  # every prime is decided exactly
    assert _every_statistic(delta_table, f54_table, f66_table) == default
