import functools
import hashlib
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipe

from satotate import region
from satotate.bipoly import Poly2, compose_bivariate, poly1_mul, poly1_root_count, poly1_roots
from satotate.chebyshev import s_poly
from satotate.counting import count_in_region
from satotate.errors import (
    BudgetError,
    DegenerateError,
    DomainError,
    HypothesisError,
    ParseError,
)
from satotate.measures import Interval, d_mn, mu_jst_region
from satotate.region import (
    ENVELOPE_MODES,
    Constraint,
    ErrorEnvelope,
    boundary_bound_check,
    build_grid,
    classify_boxes,
    disk,
    error_envelope,
    full_square,
    m_of_x,
    parse_region_file,
    poly_positive,
    rect,
    region_from_poly_interval,
    sign_product,
    strip_merge,
    trace_boundary,
)

import oracles

REGIONS = {
    "full": (full_square, lambda: 1.0),
    "rect": (lambda: rect(-1, 1, -1, 1), lambda: 0.37087829731679517),
    "half": (lambda: rect(0, 2, -2, 2), lambda: 0.5),
    "disk": (lambda: disk(1), lambda: oracles.disk_measure(1.0)),
    "u2u2": (lambda: sign_product(2, 2), lambda: d_mn(2, 2)),
}


# -- grid ---------------------------------------------------------------------------


def test_build_grid_single_box():
    g = build_grid(1)
    assert list(g.edges) == [-2.0, 2.0]


def test_build_grid_m2_interior_line():
    g = build_grid(2)
    tau = 1 + 1 / (4 * math.sqrt(2))
    assert g.tau == pytest.approx(tau, abs=1e-15)
    assert g.edges[1] == pytest.approx(-2 + 2 * tau, abs=1e-12)
    assert g.edges[1] == pytest.approx(0.353553, abs=1e-6)


def test_build_grid_monotone_closing():
    for m in (1, 2, 7, 64, 377):
        g = build_grid(m)
        assert np.all(np.diff(g.edges) > 0)
        assert g.edges[-1] == 2.0
        assert np.max(np.diff(g.edges)) <= 4 * g.tau / m + 1e-15


def test_grid_lines_bound_the_classified_boxes():
    # box i spans [edges[i], edges[i+1]]: the line u = edges[i] is the upper
    # edge of box i - 1 and the lower edge of box i, -2 bounds box 0 only and
    # the closing line +2 box m - 1 only
    m = 4
    g = build_grid(m)
    u = Poly2({(1, 0): 1})
    for i, edge in enumerate(g.edges):
        line = Constraint(u - Poly2.constant(Fraction(float(edge))), ">")
        status = classify_boxes(region.PolynomialRegion((line,)), m).status
        expected = [-1 if r < i - 1 else 0 if r <= i else 1 for r in range(m)]
        assert status.tolist() == [[s] * m for s in expected], i


# -- classification --------------------------------------------------------------------


def test_rect_over_the_whole_square_is_the_full_square():
    reg = rect(-2, 2, -2, 2)
    mv = mu_jst_region(reg, 1e-6)
    assert (reg.label, reg.leaves, mv.value, mv.abs_error) == ("full-square", (), 1.0, 0.0)


def test_classify_full_square():
    for m in (1, 2, 16):
        approx = classify_boxes(full_square(), m)
        assert approx.boundary_count == 0
        assert (approx.status == 1).sum() == m * m
        assert approx.bracket == (pytest.approx(1.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))


def test_classify_halfplane_m2():
    approx = classify_boxes(rect(0, 2, -2, 2), 2)
    # the strip containing u = 0 is undecided; the right strip is interior
    assert (approx.status == 1).sum() == 2
    assert approx.boundary_count == 2
    assert (approx.status == -1).sum() == 0
    lo, hi = approx.bracket
    assert lo <= 0.5 <= hi


def test_classify_rect_m64_bracket():
    approx = classify_boxes(rect(-1, 1, -1, 1), 64)
    lo, hi = approx.bracket
    assert lo <= 0.370879 <= hi
    mass_t = hi - lo
    # the complement's interior boxes are exactly this region's exterior ones
    exterior = classify_boxes(rect(-1, 1, -1, 1).complement(), 64)
    assert np.array_equal(exterior.status, -approx.status)
    grid_mass = 1.0 - lo - exterior.mu_low
    assert mass_t == pytest.approx(grid_mass, abs=1e-9)


def test_bracket_encloses_quadrature_value():
    for name, (factory, oracle) in REGIONS.items():
        reg = factory()
        approx = classify_boxes(reg, 32)
        value = oracle()
        assert approx.mu_low - 1e-9 <= value <= approx.mu_high + 1e-9, name


def test_bracket_width_scales_inverse_m():
    for name, (factory, _) in REGIONS.items():
        if name == "full":
            continue
        reg = factory()
        fitted = []
        for m in (16, 32, 64, 128):
            approx = classify_boxes(reg, m)
            fitted.append((approx.mu_high - approx.mu_low) * m)
        assert max(fitted) / min(fitted) <= 2.0, (name, fitted)


def test_disjoint_cover():
    for name, (factory, _) in REGIONS.items():
        approx = classify_boxes(factory(), 48)
        exterior = classify_boxes(factory().complement(), 48)
        assert np.array_equal(exterior.status, -approx.status), name
        lo, hi = approx.bracket
        total = lo + (hi - lo) + exterior.mu_low
        assert total == pytest.approx(1.0, abs=1e-9), name


_LOW_DEGREE_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda key: sum(key) <= 3),
    st.one_of(st.integers(-4, 4), st.fractions(-2, 2, max_denominator=4)).filter(bool),
    min_size=1,
    max_size=5,
).map(Poly2)


@st.composite
def _region_trees(draw, n_leaves, depth=2):
    """An and/or/sign tree over leaf indices below ``n_leaves``."""
    kind = draw(st.sampled_from(("and", "or", "sign")))
    children = tuple(
        draw(_region_trees(n_leaves, depth - 1))
        if depth > 1 and draw(st.booleans())
        else ("leaf", draw(st.integers(0, n_leaves - 1)))
        for _ in range(draw(st.integers(1, 3)))
    )
    if kind == "sign":
        return ("sign", draw(st.sampled_from((1, -1))), children)
    return (kind, children)


@st.composite
def _low_degree_regions(draw):
    polys = draw(st.lists(_LOW_DEGREE_POLYS, min_size=1, max_size=3))
    leaves = [Constraint(p, draw(st.sampled_from([">", ">=", "<", "<="]))) for p in polys]
    return region.PolynomialRegion(leaves, draw(_region_trees(len(leaves))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(reg=_low_degree_regions(), m=st.one_of(st.integers(32, 64), st.integers(1, 31)))
@example(reg=disk(1), m=64)
@example(reg=sign_product(2, 2), m=48)
@example(reg=rect(-1, 1, -1, 1).complement(), m=37)
def test_coarse_to_fine_classification_keeps_every_direct_decision(reg, m):
    # the direct classification takes one enclosure per box; coarse to fine
    # may decide more boxes (a block's enclosure covers all of its boxes),
    # but never one the other way, nor leave one the direct one decides
    direct = oracles.direct_grid_approximation(reg, m)
    approx = classify_boxes(reg, m)
    assert approx.status.shape == (m, m) and approx.status.dtype == np.int8
    assert not np.any(approx.status * direct.status == -1)
    decided = direct.status != 0
    assert np.array_equal(approx.status[decided], direct.status[decided])
    if np.array_equal(approx.status, direct.status):
        assert approx.bracket == direct.bracket
        assert approx.boundary_count == direct.boundary_count
    # a decided box lies on its side of the boundary: its corners, edge
    # midpoints and centre are in the region exactly when it is interior
    i, j = np.nonzero(approx.status)
    edges, t = approx.grid.edges, np.array([0.0, 0.5, 1.0])
    u = edges[i, None, None] + (edges[i + 1] - edges[i])[:, None, None] * t[:, None]
    v = edges[j, None, None] + (edges[j + 1] - edges[j])[:, None, None] * t
    assert np.all(reg.contains_many(u, v) == (approx.status[i, j] == 1)[:, None, None])


# sha256 of status.tobytes() and the exact bracket, recorded from the direct
# classification (one enclosure per box) before it went coarse to fine; the
# cubic u <= v^3 - 2v is the region perfbench's certify workload brackets
_PINNED_REGIONS = {
    "cubic": lambda: region_from_poly_interval(
        region.graded_lex_poly(["0", "-1", "1"]), Interval(0.0, math.inf), 1, 3
    ),
    "disk": lambda: disk(1),
}
GRID_PINS = {
    ("cubic", 1000): (
        "abb5d7b90a9ec2cabebc43fba20fe4e36b3aebb6c9a62ea47e79e9918885c408",
        (0.49832390049646846, 0.501687933551599),
    ),
    ("cubic", 1024): (
        "3df042e3748c589a58eed246ba7d17f869972ab4801d50e61f546014ca91f057",
        (0.498373135036286, 0.5016615467821557),
    ),
    ("disk", 1000): (
        "e295f44e96d8d5caaa104c05087b362cbbe0cf47b22a24bdbdf0ad9a52d03c1e",
        (0.2965424166547832, 0.2993678401741216),
    ),
    ("disk", 1024): (
        "4dc81efa6903b04a2264226b95f46aeed4a6034e7c5405efaa4dadb973062375",
        (0.2965573090515671, 0.2993164944772953),
    ),
}


@pytest.mark.parametrize("name, m", sorted(GRID_PINS))
def test_grid_status_matches_recorded_digest(name, m):
    approx = classify_boxes(_PINNED_REGIONS[name](), m)
    digest, bracket = GRID_PINS[name, m]
    assert approx.status.dtype == np.int8
    assert hashlib.sha256(approx.status.tobytes()).hexdigest() == digest
    assert approx.bracket == bracket


def test_classify_budget():
    with pytest.raises(BudgetError):
        classify_boxes(disk(1), 5000)


def test_degenerate_constraint_rejected():
    with pytest.raises(DegenerateError):
        Constraint(Poly2({}), ">")


# -- boundary-count bound ------------------------------------------------------------------


def test_boundary_bound_halfplane_linear_growth():
    for m in (8, 16, 32, 64):
        approx = classify_boxes(rect(0, 2, -2, 2), m)
        ratio = approx.boundary_count / m
        assert 0.5 <= ratio <= 4.0


def test_boundary_bound_full_square():
    n, bound = boundary_bound_check(classify_boxes(full_square(), 16))
    assert n == 0 and bound == 0


def test_boundary_bound_disk():
    n, bound = boundary_bound_check(classify_boxes(disk(1), 64))
    assert 0 < n <= bound


@pytest.mark.parametrize("radius", [0, -1, Fraction(-1, 2), math.inf, -math.inf, math.nan])
def test_disk_radius_must_be_finite_and_positive(radius):
    with pytest.raises(DomainError):
        disk(radius)


# -- strip merge ------------------------------------------------------------------------


def test_strip_merge_halfplane():
    merge = strip_merge(classify_boxes(rect(0, 2, -2, 2), 32))
    assert merge.per_strip_counts.max() <= 1


def test_strip_merge_sign_product_composed():
    # composed single-polynomial form: alpha = 1 + 4 edges, beta = deg = 4
    reg = region_from_poly_interval(Poly2({(1, 1): 1}), Interval(0, math.inf, False, True), 2, 2)
    assert reg.alpha == 5 and reg.beta == 4
    merge = strip_merge(classify_boxes(reg, 64))
    assert merge.per_strip_counts.max() <= 1 + reg.alpha * reg.beta
    assert len(merge.rectangles) <= 64 * (1 + reg.alpha * reg.beta)


def test_strip_merge_disk():
    reg = disk(1)
    assert reg.beta == 2
    merge = strip_merge(classify_boxes(reg, 64))
    assert merge.per_strip_counts.max() <= 1 + reg.alpha * reg.beta


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 12),
    data=st.data(),
    cap=st.sampled_from([(4, 1), (5, 4), (0, 0)]),
)
def test_strip_merge_matches_column_walk(m, data, cap):
    # random +1/0/-1 grids: the runs of +1 boxes against a box-by-box walk
    cells = data.draw(st.lists(st.sampled_from([1, 0, -1]), min_size=m * m, max_size=m * m))
    status = np.array(cells, dtype=np.int8).reshape(m, m)
    reg = full_square()
    reg.alpha, reg.beta = cap
    grid = build_grid(m)
    approx = region.GridApproximation(reg, grid, status, 0.0, 1.0, int((status == 0).sum()))
    expected = oracles.strip_runs(status.tolist(), grid.edges, 1 + reg.alpha * reg.beta)
    if expected[0] is None:
        _, i, count = expected
        with pytest.raises(HypothesisError, match=f"^strip {i} splits into {count} components"):
            strip_merge(approx)
    else:
        merge = strip_merge(approx)
        assert merge.rectangles == tuple(expected[0])
        assert merge.per_strip_counts.tolist() == expected[1]


def test_strip_merge_violation_detected():
    # an understated certificate (alpha = beta = 0 caps strips at one
    # component) must be caught, not silently accepted
    bad = sign_product(2, 2)
    bad.alpha = 0
    bad.beta = 0
    with pytest.raises(HypothesisError):
        strip_merge(classify_boxes(bad, 16))


# -- curve length ------------------------------------------------------------------------


def test_curve_length_vertical_segment():
    assert trace_boundary(Poly2({(1, 0): 1}))[0] == pytest.approx(4.0, abs=0.05)


@pytest.mark.parametrize(
    "poly, expected",
    [
        # crossing curves: lines through the square's centre, and
        # (u-c)(v-c), whose lines cross at (c, c), off the sweeps' lines
        (Poly2({(1, 1): 1}), (8.08, 1)),
        (Poly2({(2, 0): 1, (0, 2): -1}), (11.426845583974611, 2)),
        (Poly2({(2, 1): 1, (1, 2): 1, (1, 0): -1, (0, 1): -1}), (10.287068185055007, 3)),
        (disk(Fraction(1, 2)).curves[0], (3.1730085732300433, 2)),
        (
            Poly2({(1, 1): 1, (1, 0): Fraction(-1, 1000), (0, 1): Fraction(-1, 1000), (0, 0): Fraction(1, 10**6)}),
            (8.08, 1),
        ),
    ],
    ids=["uv", "u2-v2", "(uv-1)(u+v)", "disk(1/2)", "(u-c)(v-c)"],
)
def test_trace_boundary_is_pinned(poly, expected):
    assert trace_boundary(poly) == expected


def test_trace_components():
    _, comps = trace_boundary(Poly2({(2, 0): 1, (0, 0): -1}))  # u^2 = 1: two lines
    assert comps == 2


@pytest.mark.parametrize("m", range(1, 65))
def test_univariate_lines_are_counted_exactly(m):
    # S_m has m simple roots 2 cos(k pi / (m + 1)) in (-2, 2); a float root
    # finder lost some of them from m = 45 on
    for axis in "uv":
        assert trace_boundary(Poly2.from_univariate(list(s_poly(m)), axis)) == (4.0 * m, m)


@pytest.mark.parametrize(
    "coeffs, lines",
    [
        ([-2, 1], 1),  # u = 2, the square's side
        ([4, -4, 1], 1),  # (u - 2)^2: one line, counted once
        ([8, 12, 6, 1], 1),  # (u + 2)^3
        ([-4, 0, 1], 2),  # u = -2 and u = 2
        ([4, 0, -5, 0, 1], 4),  # (u^2 - 1)(u^2 - 4)
        ([Fraction(1, 9), Fraction(-2, 3), 1], 1),  # (u - 1/3)^2
        ([1, 0, 1], 0),
        ([-9, 0, 1], 0),  # u = -3 and u = 3, outside
        ([5], 0),
    ],
)
def test_univariate_lines_count_distinct_roots_in_the_closed_square(coeffs, lines):
    for axis in "uv":
        assert trace_boundary(Poly2.from_univariate(coeffs, axis)) == (4.0 * lines, lines)


def _from_roots(factors):
    """Ascending integer coefficients of the product of (d x - n)^k over the
    triples (n, d, k)."""
    p = [1]
    for n, d, k in factors:
        for _ in range(k):
            p = poly1_mul(p, [-n, d])
    return p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 9).flatmap(lambda d: st.tuples(st.just(d), st.sets(st.integers(-3 * d, 3 * d), max_size=8))),
    st.integers(0, 3),
)
def test_isolator_matches_numpy_on_separated_simple_roots(d_nums, c):
    # roots n/d at least 1/d apart, some outside the square; x^2 + c adds a
    # complex pair.  A float root finder cannot place a root on +-2 exactly.
    d, nums = d_nums
    nums = sorted(n for n in nums if abs(n) != 2 * d)
    p = poly1_mul(_from_roots([(n, d, 1) for n in nums]), [c, 0, 1] if c else [1])
    found = poly1_roots(tuple(p))
    expected = sorted(r.real for r in np.roots(p[::-1]) if abs(r.imag) < 1e-9 and abs(r.real) <= 2)
    inside = [Fraction(n, d) for n in nums if abs(n) <= 2 * d]
    assert len(found) == len(expected) == len(inside) == poly1_root_count(p)
    for (lo, hi), r, exact in zip(found, expected, inside):
        assert Fraction(lo) <= exact <= Fraction(hi)
        assert lo - 1e-9 <= r <= hi + 1e-9


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 4), st.integers(1, 3)), max_size=4),
    st.sampled_from([None, -1, 2, 3]),
    st.fractions(-5, 5, max_denominator=7).filter(bool),
)
@example([(4, 3, 1)], None, Fraction(1))
@example([(1, 3, 2)], None, Fraction(1))
@example([(2, 1, 2), (-2, 1, 3)], 2, Fraction(-3, 7))
def test_isolator_matches_sympy_on_multiple_and_edge_roots(factors, c, scale):
    # multiple roots, roots on +-2, non-dyadic rationals (4/3, 1/3 doubled),
    # irrational pairs x^2 - c, and Fraction coefficients
    p = [scale * a for a in poly1_mul(_from_roots(factors), [-c, 0, 1] if c else [1])]
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(a.numerator, a.denominator) for a in reversed(p)], x)
    expected = sorted({r for r in sympy.real_roots(poly) if -2 <= r <= 2})
    found = poly1_roots(tuple(p))
    assert len(found) == len(expected) == poly1_root_count(p)
    for (lo, hi), r in zip(found, expected):
        assert sympy.Rational(Fraction(lo)) <= r <= sympy.Rational(Fraction(hi))
        if r.is_Rational and r.q & (r.q - 1) == 0:  # a dyadic root is met exactly
            assert lo == hi == float(r)


def _cubic_length():
    # u = v^3 - 2v inside the square: v runs between the roots of v^3 - 2v = -2 and 2
    top = max(r.real for r in np.roots([1, 0, -2, -2]) if abs(r.imag) < 1e-12)
    return quad(lambda v: math.hypot(1.0, 3 * v * v - 2), -top, top, epsabs=1e-13)[0]


@pytest.mark.parametrize(
    "poly, exact, tol",
    [
        (disk(1).curves[0], lambda: 2 * math.pi, 2e-4),
        (disk(Fraction(1, 2)).curves[0], lambda: math.pi, 2e-4),
        (Poly2({(1, 0): -1, (0, 3): 1, (0, 1): -2}), _cubic_length, 2e-4),  # the certify bracket's curve
        (Poly2({(0, 1): 1, (1, 0): -1}), lambda: 4 * math.sqrt(2), 1e-12),
        (Poly2({(1, 1): 1}), lambda: 8.0, 1e-12),
        (Poly2({(2, 0): 1, (0, 2): -1}), lambda: 8 * math.sqrt(2), 1e-12),
        (
            Poly2({(1, 1): 1, (1, 0): Fraction(-1, 3), (0, 1): Fraction(-1, 3), (0, 0): Fraction(1, 9)}),
            lambda: 8.0,
            1e-12,
        ),
    ],
    ids=["circle", "circle(1/2)", "cubic", "v-u", "uv", "u2-v2", "(u-c)(v-c)"],
)
def test_length_against_exact(poly, exact, tol):
    length, _ = trace_boundary(poly)
    assert abs(length / 1.01 - exact()) <= tol


def _ellipse(cu, cv, a, b):
    """(u - cu)^2 / a^2 + (v - cv)^2 / b^2 = 1, times a^2 b^2."""
    return Poly2({
        (2, 0): b * b, (1, 0): -2 * b * b * cu, (0, 2): a * a, (0, 1): -2 * a * a * cv,
        (0, 0): b * b * cu * cu + a * a * cv * cv - a * a * b * b,
    })


@st.composite
def _ellipses(draw, low=100, equal=False):
    """(cu, cv, a, b), semi-axes in thousandths from ``low`` to 2, centred
    so that the ellipse lies in the square (it may touch an edge)."""
    a = Fraction(draw(st.integers(low, 2000)), 1000)
    b = a if equal else Fraction(draw(st.integers(low, 2000)), 1000)
    cu, cv = (Fraction(draw(st.integers(-int(2000 - 1000 * s), int(2000 - 1000 * s))), 1000) for s in (a, b))
    return cu, cv, a, b


def _clipped_length(a, b, c):
    """Length of the line a u + b v = c inside the square."""
    ends = {(s, Fraction(c - a * s, b)) for s in (-2, 2) if b} | {(Fraction(c - b * s, a), s) for s in (-2, 2) if a}
    ends = sorted(p for p in ends if -2 <= p[0] <= 2 and -2 <= p[1] <= 2)
    return math.dist(ends[0], ends[-1]) if ends else 0.0


def _assert_length(poly, exact):
    length, _ = trace_boundary(poly)
    assert abs(length / 1.01 - exact) <= 5e-4
    assert length >= exact


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_ellipses(equal=True))
# touches the edge v = 2 at u = 372/401, where the two edge crossings came
# out equal; counted as a jump there, they added 3.8e-3
@example((Fraction(372, 401), Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)))
def test_circle_length_property(circle):
    _assert_length(_ellipse(*circle), 2 * math.pi * circle[2])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_ellipses(low=250))
def test_ellipse_length_property(ellipse):
    # semi-axes from 1/4: the length is accurate where the curve's radius of
    # curvature (here at least 1/32) spans several of the sweeps' line gaps
    big, small = sorted(ellipse[2:], reverse=True)
    _assert_length(_ellipse(*ellipse), 4 * float(big) * ellipe(float(1 - (small / big) ** 2)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(-4, 4).filter(bool), st.integers(-4, 4).filter(bool), st.integers(-8000, 8000))
def test_line_length_property(a, b, c):
    # a line in u or v alone is counted exactly, without the 1% pad
    _assert_length(Poly2({(1, 0): a, (0, 1): b, (0, 0): -Fraction(c, 1000)}), _clipped_length(a, b, Fraction(c, 1000)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(_ellipses(equal=True), min_size=1, max_size=3))
def test_disjoint_circles_count_as_components(circles):
    assume(all(
        math.dist(p[:2], q[:2]) > p[2] + q[2] for i, p in enumerate(circles) for q in circles[i + 1:]
    ))
    _, comps = trace_boundary(functools.reduce(operator.mul, (_ellipse(*c) for c in circles)))
    assert comps >= len(circles)


@pytest.mark.xfail(strict=True, reason="the per-line counts cannot see one circle end where the next begins")
def test_component_estimate_sees_a_handover_between_lines():
    # the circles' u-ranges and v-ranges abut at -1/2 and 1/2, both cell
    # boundaries of the sweeps, so each sweep's count stays at 2 throughout
    r = Fraction(1, 2)
    _, comps = trace_boundary(functools.reduce(operator.mul, (_ellipse(c, c, r, r) for c in (-1, 0, 1))))
    assert comps >= 3


# -- composed regions -----------------------------------------------------------------------


def test_region_from_poly_interval_product():
    reg = region_from_poly_interval(Poly2({(1, 1): 1}), Interval(0, math.inf, False, True), 1, 1)
    assert reg.beta == 2
    assert reg.contains_many(1.0, 1.0)
    assert not reg.contains_many(1.0, -1.0)


def test_region_from_poly_interval_linear():
    reg = region_from_poly_interval(Poly2({(1, 0): 1, (0, 1): -1}), Interval(0, math.inf, False, True), 1, 1)
    assert reg.beta == 1
    assert reg.contains_many(1.5, 0.0)


def test_region_from_poly_interval_degree_four():
    reg = region_from_poly_interval(Poly2({(1, 1): 1}), Interval(-math.inf, 0, True, False), 2, 2)
    assert reg.beta == 4
    composed = compose_bivariate(
        Poly2({(1, 1): 1}), [Fraction(-1), 0, Fraction(1)], [Fraction(-1), 0, Fraction(1)]
    )
    assert composed == Poly2({(2, 2): 1, (2, 0): -1, (0, 2): -1, (0, 0): 1})
    mv = mu_jst_region(reg, 1e-4)
    assert mv.value == pytest.approx(1 - d_mn(2, 2), abs=1e-5)


def test_region_from_poly_interval_rejects_constant():
    with pytest.raises(DomainError):
        region_from_poly_interval(Poly2({(0, 0): 3}), Interval(0, 1), 1, 1)
    with pytest.raises(DomainError):
        region_from_poly_interval(Poly2({(1, 0): 1}), Interval(0, 1), 0, 0)


@st.composite
def _power_cells(draw):
    """(k, cells): an exponent k <= 192 = 3 * DEGREE_CAP and intervals
    [lo, hi] with an interior fraction t, of either sign, straddling 0,
    tiny or large; |x| <= 2^(1000/k) keeps x^k inside the float range."""
    k = draw(st.integers(1, 192))
    bound = 2.0 ** (1000 / k)
    end = st.one_of(st.floats(-bound, bound), st.floats(-1e-150, 1e-150), st.floats(-2.0, 2.0))
    cells = draw(st.lists(st.tuples(end, end, st.floats(0.0, 1.0)), min_size=1, max_size=6))
    return k, [(min(a, b), max(a, b), t) for a, b, t in cells]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_power_cells())
@example((192, [(-2.0, 2.0, 0.75), (1.9, 2.0, 0.5), (-2.0, -1e-300, 1.0)]))
@example((3, [(-1e-120, 1e-130, 0.5), (5e-324, 1.0, 0.0)]))
def test_power_enclosure_holds_the_exact_powers(case):
    # the square-and-multiply powers and their pad enclose x^k exactly, at
    # both ends of each cell and at an interior point
    k, cells = case
    lo, hi, t = (np.array(col) for col in zip(*cells))
    zero = np.zeros_like(lo)
    enc_lo, enc_hi = Poly2({(k, 0): 1}).interval_enclosure_cells(lo, hi, zero, zero)
    for a, b, s, e_lo, e_hi in zip(lo, hi, t, enc_lo, enc_hi):
        a, b = Fraction(a), Fraction(b)
        for x in (a, b, a + Fraction(s) * (b - a)):
            assert Fraction(e_lo) <= x**k <= Fraction(e_hi), (k, a, b, x)


def test_region_file_parsing(tmp_path):
    path = tmp_path / "region.txt"
    # u^2 + v^2 < 1 in graded-lex coefficients: 1; u, v; u^2, uv, v^2
    path.write_text("# unit disk\npoly 0 0 0 1 0 1 cmp < bound 1\n")
    reg = parse_region_file(path)
    assert reg.contains_many(0.1, 0.1)
    assert not reg.contains_many(1.5, 0.0)
    bad = tmp_path / "bad.txt"
    bad.write_text("poly 1 0 cmp ?? bound 0\n")
    with pytest.raises(ParseError):
        parse_region_file(bad)


def test_region_with_many_leaves_is_measured():
    # numpy broadcasts at most 32 (numpy 1.x) or 64 arrays in one call
    disks = [Constraint(Poly2({(2, 0): 1, (0, 2): 1, (0, 0): -1 - i}), "<") for i in range(70)]
    mv = mu_jst_region(region.PolynomialRegion(disks), 1e-2)
    assert abs(mv.value - oracles.disk_measure(1.0)) <= mv.abs_error


@pytest.mark.parametrize(
    "line",
    ["poly 1 x cmp < bound 0", "poly 1 1/0 cmp < bound 0", "poly 1 1 cmp < bound 1/0"],
)
def test_region_file_rejects_bad_numbers(tmp_path, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(line + "\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_region_file(bad)


# -- envelopes ---------------------------------------------------------------------------


def test_m_of_x_hand_value():
    assert m_of_x(math.exp(math.e), 1) == pytest.approx(math.exp(0.25), abs=1e-12)
    with pytest.raises(DomainError):
        m_of_x(1.5, 1)


def test_m_of_log_x_matches_m_of_x():
    for x in (16.0, 1e5, 1e12):
        assert region.m_of_log_x(math.log(x), 720) == m_of_x(x, 720)
    assert region.m_of_log_x(0.5, 1) is None
    # x = 2^4000 lies past float range
    assert region.m_of_log_x(4000 * math.log(2.0), 720) > m_of_x(1e300, 720)


@pytest.mark.parametrize("x", [1e11 + 1, 1e12, 1e15, 1e20, 1e30])
def test_li_series_matches_mpmath(x):
    import mpmath

    with mpmath.workdps(40):
        ref = mpmath.li(x)
        assert abs((region._li(x) - ref) / ref) <= 1e-13


def test_envelope_ratio_needs_no_scipy(run_python):
    # beyond the exact prime count, pi(x) is li(x) without scipy; the
    # unconditional ratio needs no pi(x) at all
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from satotate.region import ErrorEnvelope\n"
        "for mode in ('Unconditional12', 'GRH12'):\n"
        "    print(repr(ErrorEnvelope(mode, 4, 6, 5, 6, 10.0, 5, 4).ratio(1e12)))\n"
    )
    proc = run_python(script, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert all(0 < float(line) < math.inf for line in proc.stdout.split())


def test_envelope_ratio_decreasing():
    from satotate.primes import sieve

    def ratios(mode):
        out = []
        for x in (1e3, 1e4, 1e5, 1e6):
            env = error_envelope(mode, x, 4, 6, 5, 6, 10.0, 5, 4)
            out.append(env / sieve(int(x)).primes.size)
        return out

    # the M(x)-based envelopes are monotone decreasing relative to pi(x)
    for mode in ("Unconditional13", "Unconditional12"):
        r = ratios(mode)
        assert all(a > b for a, b in zip(r, r[1:])), mode
    # the GRH shapes carry slowly-varying log factors that bump near 10^4;
    # they still decrease across the range
    for mode in ("GRH13", "GRH12"):
        r = ratios(mode)
        assert r[-1] < r[0], mode


_ENVELOPE_PARAMS = (4, 6, 5, 6, 10.0, 5, 4)
_UNCONDITIONAL = ("Unconditional13", "Unconditional12")


def test_envelope_ratio_counts_primes_once_per_x(monkeypatch):
    from satotate import primes
    from satotate.region import ENVELOPE_MODES, ErrorEnvelope

    xs = [10**4, 10**5]
    envs = [ErrorEnvelope(mode, *_ENVELOPE_PARAMS) for mode in ENVELOPE_MODES]
    # an unconditional envelope is pi(x) times a factor in M(x): its ratio is
    # that factor, with no pi(x); a GRH ratio divides by the exact pi(x)
    expected = [
        error_envelope(env.mode, x, *_ENVELOPE_PARAMS, pi_x=1)
        if env.mode in _UNCONDITIONAL
        else env.value(x) / primes.sieve(x).primes.size
        for x in xs
        for env in envs
    ]
    region._pi_x.cache_clear()
    counted = []
    real = primes.prime_count
    monkeypatch.setattr(primes, "prime_count", lambda x: counted.append(x) or real(x))
    monkeypatch.setattr(primes, "sieve", lambda bound: pytest.fail("pi(x) must not sieve"))
    assert [env.ratio(x) for x in xs for env in envs] == expected
    assert counted == xs


def test_envelopes_count_primes_through_primes_prime_count(monkeypatch):
    # the tripwires beside this test patch primes.prime_count: were pi(x)
    # counted anywhere else, they would pass without watching anything
    from satotate import primes
    from satotate.region import ErrorEnvelope

    def refuse(x):
        raise AssertionError(f"counted pi({x})")

    region._pi_x.cache_clear()
    monkeypatch.setattr(primes, "prime_count", refuse)
    with pytest.raises(AssertionError, match=r"counted pi\(1000000\)"):
        ErrorEnvelope("GRH12", *_ENVELOPE_PARAMS).ratio(10**6)


_UNCONDITIONAL_RATIO_X = st.one_of(
    st.floats(math.log10(16.0), 300.0).map(lambda e: min(max(10.0**e, 16.0), 1e300)),
    st.integers(16, 10**400),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=_UNCONDITIONAL_RATIO_X, mode=st.sampled_from(_UNCONDITIONAL))
@example(x=1e6, mode="Unconditional13")
@example(x=10**11, mode="Unconditional12")
@example(x=1e300, mode="Unconditional12")
@example(x=10**400, mode="Unconditional13")
def test_unconditional_ratio_is_the_m_factor(x, mode):
    from satotate import primes
    from satotate.region import ErrorEnvelope

    k, kp, level, level_p, length, alpha, beta = _ENVELOPE_PARAMS
    env = ErrorEnvelope(mode, *_ENVELOPE_PARAMS)

    def refuse(*args):
        raise AssertionError(f"an unconditional ratio evaluated pi(x) at {args}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "prime_count", refuse)
        mp.setattr(region, "_li", refuse)
        mp.setattr(region, "_pi_x", refuse)
        got = env.ratio(x)
    m = m_of_x(x, k * kp * level * level_p)
    closed = length * alpha / m ** (1.0 / 3.0) if mode == "Unconditional13" else length * alpha * beta / math.sqrt(m)
    assert got == closed
    if x <= 10**7:
        via_pi = env.value(x) / primes.prime_count(int(x))
        assert abs(got - via_pi) <= 4 * math.ulp(via_pi)


_NON_FINITE_SCRIPT = """
import functools, sys, time
from satotate import region
from satotate.errors import DomainError
x = float(sys.argv[1])
calls = {f"li({x})": functools.partial(region._li, x)}
for mode in region.ENVELOPE_MODES:
    env = region.ErrorEnvelope(mode, 4, 6, 5, 6, 10.0, 5, 4)
    for name in ("value", "ratio"):
        calls[f"{mode}.{name}({x})"] = functools.partial(getattr(env, name), x)
for label, call in calls.items():
    started = time.perf_counter()
    try:
        got = call()
    except DomainError:
        spent = time.perf_counter() - started
        if spent > 1.0:
            sys.exit(f"{label} took {spent:.2f} s to refuse")
    else:
        sys.exit(f"{label} returned {got!r}")
"""


@pytest.mark.parametrize("x", ["inf", "-inf", "nan"])
def test_envelope_refuses_non_finite_x(run_python, x):
    # li(x)'s series never met its stop test on inf or nan, so the envelopes
    # that counted pi(x) there summed until killed: run them where a hang
    # is a timeout, not a stuck suite
    proc = run_python(_NON_FINITE_SCRIPT, x, timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_envelope_past_float_range():
    from satotate.region import ENVELOPE_MODES, ErrorEnvelope

    big = 10**400
    for mode in ENVELOPE_MODES:
        env = ErrorEnvelope(mode, *_ENVELOPE_PARAMS)
        with pytest.raises(DomainError, match="float range"):
            env.value(big)
        if mode in _UNCONDITIONAL:
            # M(x) takes log x, so the ratio stays finite and keeps decaying
            assert 0 < env.ratio(big) < env.ratio(1e300) < math.inf
        else:
            with pytest.raises(DomainError, match="float range"):
                env.ratio(big)
    with pytest.raises(DomainError, match="float range"):
        region._li(big)


def test_envelope_validation():
    with pytest.raises(DomainError):
        error_envelope("Unconditional12", 8, 4, 6, 5, 6, 10.0, 5, 4)
    with pytest.raises(DomainError):
        error_envelope("Bogus", 100, 4, 6, 5, 6, 10.0, 5, 4)
    # weights and levels below 1; a length, alpha or beta negative or not
    # finite. The record refuses what the function refuses.
    good = (4, 6, 5, 6, 10.0, 5, 4)
    for i, bad in [(0, 0), (1, 0), (2, 0), (3, -1), (4, -1.0), (4, math.nan), (4, math.inf), (5, -1), (6, -1)]:
        params = good[:i] + (bad,) + good[i + 1:]
        for mode in ENVELOPE_MODES:
            with pytest.raises(DomainError):
                error_envelope(mode, 1e6, *params)
            with pytest.raises(DomainError):
                ErrorEnvelope(mode, *params)


def test_error_envelope_dataclass():
    from satotate.region import ErrorEnvelope

    env = ErrorEnvelope("Unconditional12", 4, 6, 5, 6, 10.0, 5, 4)
    assert env.conductor_product == 720
    x = 10**4
    assert env.value(x) == error_envelope("Unconditional12", x, 4, 6, 5, 6, 10.0, 5, 4)
    assert env.ratio(x) > 0
    with pytest.raises(DomainError):
        ErrorEnvelope("Nope", 4, 6, 5, 6, 10.0, 5, 4)


def test_grh_crossover_exists():
    # GRH envelopes decay faster; they dip below the unconditional shape at
    # some finite x (=~ 6e8 for this parameter set) and stay below
    def pair(x):
        un = error_envelope("Unconditional12", x, 4, 6, 5, 6, 10.0, 5, 4)
        gr = error_envelope("GRH12", x, 4, 6, 5, 6, 10.0, 5, 4)
        return gr, un

    gr6, un6 = pair(1e6)
    assert gr6 > un6  # before the crossover
    crossed = [x for x in np.geomspace(1e6, 1e14, 33) if pair(x)[0] < pair(x)[1]]
    assert crossed
    x_star = min(crossed)
    for x in (x_star, 10 * x_star, 100 * x_star):
        gr, un = pair(x)
        assert gr < un


# -- sign patterns against the Or-of-And expansion ---------------------------------------

_U, _V = Poly2({(1, 0): 1}), Poly2({(0, 1): 1})
_QUARTERS = st.integers(-8, 8).map(lambda q: Fraction(q, 4))


def _pattern_pair(factors, target):
    """The sign-pattern region and the Or-of-And reference for its factors."""
    leaves, tree = oracles.sign_pattern_or_of_and(len(factors), target)
    return region._sign_pattern(factors, target, "pattern"), leaves, tree


def _reference_member(leaves, tree, values):
    # the expansion's leaves are strict: a factor's zero fails either sign
    def status(i):
        factor, s = leaves[i]
        return 1 if s * values[factor] > 0 else -1

    return oracles.kleene(tree, status) == 1


@settings(max_examples=200, deadline=None)
@given(
    target=st.sampled_from([1, -1]),
    statuses=st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(st.integers(-1, 1), min_size=k, max_size=k), min_size=1, max_size=12)
    ),
)
def test_sign_node_matches_or_of_and_on_interval_statuses(target, statuses):
    # interval statuses are antisymmetric: "< 0" holds where "> 0" fails
    k = len(statuses[0])
    reg, leaves, tree = _pattern_pair([_U - Poly2.constant(i) for i in range(k)], target)
    columns = [np.array([row[f] for row in statuses], dtype=np.int8) for f in range(k)]
    expected = [oracles.kleene(tree, lambda i: leaves[i][1] * row[leaves[i][0]]) for row in statuses]
    shape = (len(statuses),)
    assert reg.tree_status(columns, shape).tolist() == expected
    assert reg.complement().tree_status(columns, shape).tolist() == [-e for e in expected]
    expansion = region.PolynomialRegion(
        [Constraint(reg.leaves[f].poly, ">" if s > 0 else "<") for f, s in leaves], tree
    )
    leaf_columns = [s * columns[f] for f, s in leaves]
    assert expansion.tree_status(leaf_columns, shape).tolist() == expected


@settings(max_examples=100, deadline=None)
@given(
    target=st.sampled_from([1, -1]),
    factors=st.lists(st.tuples(_QUARTERS, _QUARTERS, _QUARTERS), min_size=1, max_size=4),
    points=st.lists(st.tuples(_QUARTERS, _QUARTERS), min_size=1, max_size=20),
)
# a point on the zero line of one factor
@example(target=1, factors=[(1, 0, 0), (0, 1, 0)], points=[(0, 1), (1, 1), (-1, -1), (1, -1)])
def test_sign_pattern_membership_matches_or_of_and(target, factors, points):
    # linear factors with quarter-integer coefficients at quarter-integer
    # points: float evaluation is exact and zeros of a factor are frequent
    polys = [a * _U + b * _V + Poly2.constant(c) for a, b, c in factors]
    assume(not any(p.is_zero for p in polys))
    reg, leaves, tree = _pattern_pair(polys, target)
    values = [[a * u + b * v + c for a, b, c in factors] for u, v in points]
    us = np.array([float(u) for u, _ in points])
    vs = np.array([float(v) for _, v in points])
    assert reg.contains_many(us, vs).tolist() == [_reference_member(leaves, tree, x) for x in values]
    # the complement is the opposite sign: zeros of a factor are in neither
    leaves, tree = oracles.sign_pattern_or_of_and(len(factors), -target)
    expected = [_reference_member(leaves, tree, x) for x in values]
    assert reg.complement().contains_many(us, vs).tolist() == expected


_SELF_TIE = _U - _V  # vanishes at every prime of a self pair
_S3 = Poly2({(3, 0): 1, (1, 0): -2})  # 5.4.a.a has a(2) = -sqrt(2), a zero of S_3


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    target=st.sampled_from([1, -1]),
    factors=st.lists(
        st.one_of(
            st.sampled_from([_SELF_TIE, _S3, _U + _V]),
            st.tuples(*[st.integers(-2, 2)] * 6).map(
                lambda c: Poly2(dict(zip(((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)), c)))
            ),
        ),
        min_size=1,
        max_size=4,
    ),
    pair=st.sampled_from([(1, 1), (0, 1), (1, 2)]),
    x=st.integers(2, 800),
)
@example(target=1, factors=[_SELF_TIE, _U], pair=(1, 1), x=300)
@example(target=-1, factors=[_S3, _V], pair=(1, 2), x=50)
def test_sign_pattern_counts_match_or_of_and(delta_table, f54_table, f66_table, target, factors, pair, x):
    assume(not any(p.is_zero for p in factors))
    tables = (delta_table, f54_table, f66_table)
    tf, tfp = tables[pair[0]], tables[pair[1]]
    reg, leaves, tree = _pattern_pair(factors, target)
    values = [oracles.exact_pair_values(tf, tfp, poly, 1, 1, x) for poly in factors]
    expected = sum(
        _reference_member(leaves, tree, [vals[p] for vals in values]) for p in values[0]
    )
    assert count_in_region(tf, tfp, reg, x) == expected


@pytest.mark.parametrize(
    "P, k",
    [
        (_U * _V, 2),  # rank one: u and v
        ((_U - _V) * (_U + _V), 2),
        (_U * _V * (_U - _V), 3),
        (_U * _V * (_U - _V) * (_U + _V), 4),
        ((_U - _V) * (_U - _V) * (_U + _V), 1),  # the square drops out
        (_U * _U - Poly2.constant(1), 2),  # B(v) = 1 is constant: factored
    ],
)
def test_poly_positive_has_one_leaf_per_odd_factor(P, k):
    # reducible, so the Newton-polygon certificate must leave it to sympy
    assert region._newton_certificate(P) is None
    for sign in (1, -1):
        reg = poly_positive(P, 1, 1, sign)
        assert len(reg.leaves) == k
        assert len(reg.curves) == k


@pytest.mark.parametrize("sign, label, value", [(1, "full-square", 1.0), (-1, "poly<0(1,1)", 0.0)])
def test_poly_positive_of_even_factors_only(sign, label, value):
    # u^2 has no odd-multiplicity factor: positive a.e., negative nowhere
    reg = poly_positive(Poly2({(2, 0): 1}), 1, 1, sign)
    mv = mu_jst_region(reg, 1e-6)
    assert (reg.label, mv.value, mv.abs_error) == (label, value, 0.0)


# -- the Newton-polygon irreducibility certificate ----------------------------------

_COEFF = st.one_of(
    st.integers(-30, 30).filter(bool),
    st.fractions(-5, 5, max_denominator=12).filter(bool),
)


@st.composite
def _no_monomial_factor_polys(draw):
    """Poly2 with a term free of u and a term free of v, so that only the
    polygon test decides whether the certificate fires."""
    keys = draw(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=5))
    keys |= {(draw(st.integers(0, 5)), 0), (0, draw(st.integers(0, 5)))}
    return Poly2({key: draw(_COEFF) for key in keys})


@st.composite
def _lifted_polys(draw):
    """P(S_m(u), S_n(v)) for a small P (the dominance P = v - u among them)
    and m, n <= 12."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    P = draw(st.one_of(
        st.just(_V - _U),
        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _COEFF, min_size=1, max_size=4).map(Poly2),
    ))
    return compose_bivariate(P, list(s_poly(m)), list(s_poly(n)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(poly=st.one_of(_no_monomial_factor_polys(), _lifted_polys()))
@example(poly=compose_bivariate(_V - _U, list(s_poly(2)), list(s_poly(3))))  # figures' (2,3)
@example(poly=Poly2({(0, 0): Fraction(-3, 4), (1, 2): Fraction(3, 2), (0, 1): 3}))
def test_newton_certificate_matches_sympy_factor_list(poly):
    certified = region._newton_certificate(poly)
    if certified is None:
        return
    csign, parts = region._sympy_factors(poly)
    assert certified[0] == csign
    assert len(parts) == 1 and parts[0][1] == 1 and certified[1][0][1] == 1
    # same terms in the same order: interval sums run in dict order
    assert list(certified[1][0][0].coeffs.items()) == list(parts[0][0].coeffs.items())
    assert all(type(c) is Fraction for c in certified[1][0][0].coeffs.values())


@pytest.mark.parametrize(
    "poly, fires",
    [
        (_V - _U, True),  # a lattice segment of length 1
        (compose_bivariate(_V - _U, list(s_poly(2)), list(s_poly(4))), False),  # irreducible, polygon splits
        (Poly2({(2, 0): 1, (0, 3): -1, (0, 1): 2, (0, 0): -1}), True),  # S_2(u) - S_3(v)
    ],
)
def test_newton_certificate_fires_only_on_indecomposable_polygons(poly, fires):
    assert (region._newton_certificate(poly) is not None) == fires
