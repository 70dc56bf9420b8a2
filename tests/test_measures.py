import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from satotate import bipoly, counting, measures, region
from satotate.bipoly import Poly2, _horner
from satotate.chebyshev import eval_u
from satotate.errors import BudgetError, DomainError, InvariantError
from satotate.measures import (
    Interval,
    MeasureValue,
    d_ell,
    d_mn,
    mu_jst_rect,
    mu_jst_region,
    mu_st,
)
from satotate.region import Constraint, PolynomialRegion
from satotate.symmetry import SQUARE_GROUP

import oracles


# -- 1-D measure --------------------------------------------------------------------


def test_mu_st_basic():
    assert mu_st(Interval(-2, 2)).value == pytest.approx(1.0, abs=1e-14)
    assert mu_st(Interval(0, 2)).value == pytest.approx(0.5, abs=1e-14)


def test_mu_st_closed_form_vs_quadrature():
    expected = math.sqrt(3) / (2 * math.pi) + 1 / 3
    got = mu_st(Interval(-1, 1)).value
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(oracles.simpson_mu_st(-1, 1), abs=1e-10)


def test_mu_st_clipping_and_infinities():
    assert mu_st(Interval(-10, 10)).value == pytest.approx(1.0, abs=1e-14)
    assert mu_st(Interval(-math.inf, 0)).value == pytest.approx(0.5, abs=1e-14)


def test_mu_st_additivity():
    grid = np.arange(-2.0, 2.01, 0.1)
    for a in grid:
        for b in grid[grid >= a - 1e-12]:
            for c in grid[grid >= b - 1e-12]:
                lhs = mu_st(Interval(a, b)).value + mu_st(Interval(b, c)).value
                assert lhs == pytest.approx(mu_st(Interval(a, c)).value, abs=1e-12)


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1, -1)
    # NaN compares false with everything, so no order check would catch it
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(DomainError):
            Interval(lo, hi)
    assert Interval(0.0, math.inf).hi == math.inf


def test_measure_value_invariants():
    with pytest.raises(InvariantError):
        MeasureValue(1.2, 0.0)
    with pytest.raises(InvariantError):
        MeasureValue(0.9, 0.2)
    with pytest.raises(InvariantError):
        MeasureValue(0.5, -0.1)
    # every comparison with NaN is false, so NaN is refused by name
    with pytest.raises(InvariantError):
        MeasureValue(math.nan, 0.0)
    with pytest.raises(InvariantError):
        MeasureValue(0.5, math.nan)


def test_mu_jst_rect():
    assert mu_jst_rect(Interval(-2, 2), Interval(-2, 2)).value == pytest.approx(1.0)
    assert mu_jst_rect(Interval(0, 2), Interval(0, 2)).value == pytest.approx(0.25)
    sq = mu_st(Interval(-1, 1)).value ** 2
    assert mu_jst_rect(Interval(-1, 1), Interval(-1, 1)).value == pytest.approx(sq, abs=1e-14)
    assert sq == pytest.approx(0.370879, abs=1e-6)


# -- density constants ----------------------------------------------------------------


def test_d_ell_values():
    assert d_ell(1) == 0.5
    assert d_ell(2) == pytest.approx(2 / 3 - math.sqrt(3) / (2 * math.pi), abs=1e-15)
    assert d_ell(4) == pytest.approx(0.6 - math.tan(math.pi / 5) / (2 * math.pi), abs=1e-15)
    with pytest.raises(DomainError):
        d_ell(0)


def test_d_ell_against_quadrature_oracle():
    for ell in range(1, 21):
        oracle = oracles.d_ell_quadrature(ell, eval_u)
        assert d_ell(ell) == pytest.approx(oracle, abs=1e-9)


def test_d_mn_odd_cases():
    for n in range(0, 9):
        assert d_mn(1, n) == 0.5
        assert d_mn(3, n) == 0.5
        if n != 0:
            assert d_mn(n, 5) == 0.5


def test_d_mn_degenerate_index_matches_single():
    for n in (2, 4, 6, 8):
        assert d_mn(0, n) == pytest.approx(d_ell(n), abs=1e-14)
        assert d_mn(n, 0) == pytest.approx(d_ell(n), abs=1e-14)
    with pytest.raises(DomainError):
        d_mn(0, 0)


def test_d_mn_product_identity():
    def d0(ell):
        return 1.0 if ell == 0 else d_ell(ell)

    for m in range(1, 21):
        for n in range(1, 21):
            dm, dn = d0(m), d0(n)
            assert d_mn(m, n) == pytest.approx(dm * dn + (1 - dm) * (1 - dn), abs=1e-12)


def test_d_mn_positivity_bias_and_taylor():
    for m in range(2, 21, 2):
        for n in range(2, 21, 2):
            assert d_mn(m, n) > 0.5
    for ell in (10, 20, 40):
        lead = (math.pi**4 / 18) / ((ell + 1) ** 3 * (ell + 1) ** 3)
        assert abs(d_mn(ell, ell) - 0.5 - lead) <= 0.2 * lead


# -- region quadrature ------------------------------------------------------------------


def test_region_full_square():
    mv = mu_jst_region(region.full_square(), 1e-8)
    assert mv.value == pytest.approx(1.0, abs=1e-12)
    assert mv.abs_error <= 1e-8


def test_region_sign_symmetry_half():
    mv = mu_jst_region(region.sign_product(1, 1), 1e-7)
    assert mv.abs_error <= 1e-14
    assert mv.value == pytest.approx(0.5, abs=1e-14)


def test_region_matches_closed_form_d22():
    mv = mu_jst_region(region.sign_product(2, 2), 1e-7)
    assert mv.abs_error <= 1e-14
    assert mv.value == pytest.approx(d_mn(2, 2), abs=1e-14)


def test_separable_sign_products_match_closed_form():
    pairs = [(m, n) for m in range(13) for n in range(13) if (m, n) != (0, 0)]
    for m, n in pairs + [(24, 24), (48, 64), (64, 64)]:
        mv = mu_jst_region(region.sign_product(m, n), 1e-7)
        assert mv.abs_error <= 1e-14, (m, n)
        assert abs(mv.value - d_mn(m, n)) <= 1e-14, (m, n)


def _refuse_cells(*args, **kwargs):
    raise AssertionError("a separable region reached the cell classifier")


def test_separable_measure_classifies_no_cells(monkeypatch):
    # the root pieces decide every sign: no interval enclosure, and no
    # subdivision toward the target, which ran away at 1e-7 for (24, 24)
    monkeypatch.setattr(measures, "leaf_statuses", _refuse_cells)
    mv = mu_jst_region(region.sign_product(64, 64), 1e-8)
    assert mv.abs_error <= 1e-14
    assert abs(mv.value - d_mn(64, 64)) <= 1e-14


def test_region_riemann_sanity():
    reg = region.sign_product(2, 2)
    riemann = oracles.riemann_jst(reg.contains_many, n=2000)
    assert mu_jst_region(reg, 1e-7).value == pytest.approx(riemann, abs=5e-4)


def test_region_disk_against_section_oracle():
    mv = mu_jst_region(region.disk(1), 1e-4)
    assert mv.value == pytest.approx(oracles.disk_measure(1.0), abs=1e-6)
    # the certificate brackets the truth
    assert mv.value - mv.abs_error - 1e-12 <= oracles.disk_measure(1.0) <= mv.value + mv.abs_error + 1e-12


def test_region_rect_tensor():
    mv = mu_jst_region(region.rect(-1, 1, -1, 1), 1e-8)
    assert mv.abs_error <= 1e-14
    assert mv.value == pytest.approx(0.37087829731679517, abs=1e-14)


@pytest.mark.parametrize("ends", [(-1, 1, -1, 1), (-0.3, 1.7, 0.25, 2), (-2, 2, -1.5, 0.1), (0.5, 0.5, -1, 1)])
def test_region_rect_matches_the_product_of_1d_measures(ends):
    mv = mu_jst_region(region.rect(*ends), 1e-4)
    closed = mu_jst_rect(Interval(*ends[:2]), Interval(*ends[2:])).value
    assert mv.abs_error <= 1e-14
    assert abs(mv.value - closed) <= 1e-14


def _tan_gap_40(ell):
    import mpmath

    return -mpmath.pi if ell == 0 else mpmath.tan(mpmath.pi / (ell + 1)) - mpmath.pi / (ell + 1)


def test_separable_brackets_hold_the_40_digit_measure():
    # the masses are float differences of the antiderivative: sign(2, 2)
    # lands 1.9e-17 below its measure and rect(-1, 1, -1, 1) 4.6e-17 above,
    # so abs_error must cover the rounding, not only the undecided mass
    import mpmath

    with mpmath.workdps(40):
        for m in range(13):
            for n in range(13):
                if (m, n) == (0, 0):
                    continue
                mv = mu_jst_region(region.sign_product(m, n), 1e-7)
                if m % 2 or n % 2:
                    truth = mpmath.mpf(1) / 2
                else:
                    truth = mpmath.mpf(1) / 2 + _tan_gap_40(m) * _tan_gap_40(n) / (2 * mpmath.pi**2)
                assert abs(mv.value - truth) <= mv.abs_error <= 1e-14, (m, n)
        # F(1) - F(-1) = (sqrt(3) / 2 + pi / 3) / pi
        side = (mpmath.sqrt(3) / 2 + mpmath.pi / 3) / mpmath.pi
        square = mu_jst_rect(Interval(-1, 1), Interval(-1, 1))
        for mv in (mu_jst_region(region.rect(-1, 1, -1, 1), 1e-4), square):
            assert abs(mv.value - side**2) <= mv.abs_error <= 1e-15
        mv = mu_st(Interval(-1, 1))
        assert abs(mv.value - side) <= mv.abs_error <= 1e-15


def test_separable_boundaries_off_the_dyadic_grid_and_on_the_edge():
    # 1 - F(4/3): 4/3 is no dyadic number, so it sits in an isolating interval
    mv = mu_jst_region(PolynomialRegion((Constraint(Poly2({(0, 1): 3, (0, 0): -4}), ">"),)), 1e-4)
    assert mv.abs_error <= 1e-14
    assert abs(mv.value - 0.10955101870852402) <= 1e-14
    # a boundary on the square's edge, and a double root at +-1: both regions
    # are the whole square, measured exactly
    edge = PolynomialRegion((Constraint(Poly2({(1, 0): 1, (0, 0): -2}), "<"),))
    square = region.region_from_poly_interval(Poly2({(2, 0): 1}), Interval(0, math.inf), 2, 2)
    for reg in (edge, square):
        assert mu_jst_region(reg, 1e-4) == MeasureValue(1.0, 0.0)


def test_region_target_validation():
    with pytest.raises(DomainError):
        mu_jst_region(region.disk(1), 1e-9)
    # a NaN or infinite target is refused before any cell is classified
    for target in (math.nan, math.inf):
        with pytest.raises(DomainError):
            mu_jst_region(region.disk(1), target)


def test_region_budget_error():
    with pytest.raises(BudgetError):
        mu_jst_region(region.disk(1), 1e-8, budget=2000)


def test_complementarity():
    for reg in (region.sign_product(2, 2), region.disk(1)):
        plus = mu_jst_region(reg, 1e-4)
        minus = mu_jst_region(reg.complement(), 1e-4)
        tol = plus.abs_error + minus.abs_error + 1e-9
        assert abs(plus.value + minus.value - 1.0) <= tol


def test_poly_positive_symmetric_is_half():
    # odd-power antisymmetric polynomial in lifted coordinates
    P = Poly2({(3, 0): 1, (0, 3): -1})
    mv = mu_jst_region(region.poly_positive(P, 2, 2), 1e-3)
    assert mv.value == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize(
    "build, target",
    [
        (lambda: region.disk(1), 1e-5),
        (lambda: region.poly_positive(Poly2({(0, 1): 1, (1, 0): -1}), 2, 3), 1e-3),
    ],
    ids=["disk", "poly(2,3)"],
)
def test_quadtree_result_does_not_depend_on_cell_block(monkeypatch, build, target):
    # the deepest levels (174,763 disk cells, 26,940 of the (2,3) region)
    # span several blocks of 2^10 and 2^14, and the disk's several of 2^16;
    # the polished cells (87,382 and 13,467) span several polish blocks of
    # 2^10 and 2^12, and one of 2^17; Poly2.section_roots solves their
    # distinct nodes in chunks of the same size
    real = measures.leaf_statuses
    runs = set()
    for block, polish_block in ((1 << 10, 1 << 12), (1 << 14, 1 << 10), (1 << 14, 1 << 12), (1 << 16, 1 << 17)):
        sizes = []

        def spy(leaves, u_lo, u_hi, v_lo, v_hi):
            sizes.append(int(u_lo.size))
            return real(leaves, u_lo, u_hi, v_lo, v_hi)

        monkeypatch.setattr(measures, "_CELL_BLOCK", block)
        monkeypatch.setattr(measures, "_POLISH_BLOCK", polish_block)
        monkeypatch.setattr(bipoly, "_SECTION_BLOCK", polish_block)
        monkeypatch.setattr(measures, "leaf_statuses", spy)
        mv = mu_jst_region(build(), target)
        assert max(sizes) > 1 << 14
        runs.add((mv.value.hex(), mv.abs_error.hex(), tuple(sizes)))
    assert len(runs) == 1


def test_disk_quadtree_memory_stays_small():
    # the disk at 1e-5 classifies 174,763 cells at its last level and
    # polishes 87,382: 9 bytes a cell, an edge store per axis, and the
    # level's float bounds while it is classified; 12.1 MB traced (30.3 MB
    # with four float edge records per cell)
    tracemalloc.start()
    try:
        mu_jst_region(region.disk(1), 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14_500_000


# -- symmetry folding ---------------------------------------------------------------

V_MINUS_U = Poly2({(0, 1): 1, (1, 0): -1})
# (u, v) -> identity, (u, -v), (-u, v), (-u, -v), (v, u), (v, -u), (-v, u), (-v, -u)
E, FLIP_V, FLIP_U, ROT180, SWAP, ROT_CW, ROT_CCW, ANTI_SWAP = SQUARE_GROUP


def test_reflections_of_named_regions():
    assert region.disk(1).symmetries == (SQUARE_GROUP, ())
    assert region.disk(1).complement().symmetries == (SQUARE_GROUP, ())
    assert region.poly_positive(V_MINUS_U, 2, 3).symmetries == ((E, FLIP_U), ())
    # S_1 and S_3 are odd, so u -> -u moves the boundary S_n(v) = S_m(u)
    assert region.poly_positive(V_MINUS_U, 1, 2).symmetries == ((E, FLIP_V), ())
    assert region.poly_positive(V_MINUS_U, 3, 2).symmetries == ((E, FLIP_V), ())
    # {v^2 > u^2}: its two factors are exchanged by u -> -u, and each
    # diagonal reflection negates one of them, which flips the sign node
    assert region.poly_positive(V_MINUS_U, 2, 2).symmetries == (
        (E, FLIP_V, FLIP_U, ROT180),
        (SWAP, ROT_CW, ROT_CCW, ANTI_SWAP),
    )
    # the four leaves of a centred square are permuted by every symmetry
    assert region.rect(-1, 1, -1, 1).symmetries == (SQUARE_GROUP, ())
    assert region.rect(-1, 1, -0.5, 0.5).symmetries == ((E, FLIP_V, FLIP_U, ROT180), ())
    assert region.rect(0, 2, -2, 2).symmetries == ((E, FLIP_V), (FLIP_U, ROT180))


def test_one_uneven_leaf_anywhere_stops_the_fold_on_its_axis():
    even = Constraint(Poly2({(2, 0): 1, (0, 2): 1, (0, 0): -1}), "<")
    odd_in_u = Constraint(Poly2({(3, 0): 1, (0, 2): 1, (0, 0): -2}), ">")
    odd_in_v = Constraint(Poly2({(2, 2): 1, (0, 1): 1}), ">")
    deep = ("or", (("leaf", 0), ("and", (("leaf", 0), ("sign", 1, (("leaf", 1),))))))
    assert PolynomialRegion((even, even), deep).symmetries == (SQUARE_GROUP, ())
    assert PolynomialRegion((even, odd_in_u), deep).symmetries == ((E, FLIP_V), ())
    assert PolynomialRegion((even, odd_in_v), deep).symmetries == ((E, FLIP_U), ())
    # a leaf the tree never reads does not count
    assert PolynomialRegion((even, odd_in_u), ("or", (("leaf", 0),))).symmetries == (SQUARE_GROUP, ())


@pytest.mark.parametrize(
    "build",
    [
        lambda: region.poly_positive(V_MINUS_U, 2, 2),
        lambda: region.poly_positive(V_MINUS_U, 4, 4),
        lambda: region.poly_positive(V_MINUS_U, 1, 3),
        lambda: region.region_from_poly_interval(V_MINUS_U, Interval(0, math.inf), 1, 3),
        lambda: region.sign_product(1, 1),
        lambda: region.sign_product(3, 2),
        lambda: region.rect(0, 2, -2, 2),
    ],
    ids=["dominance(2,2)", "dominance(4,4)", "dominance(1,3)", "cubic", "sign(1,1)", "sign(3,2)", "u>0"],
)
def test_a_region_mapped_onto_its_complement_measures_exactly_half(monkeypatch, build):
    reg = build()
    assert reg.symmetries[1]
    monkeypatch.setattr(measures, "leaf_statuses", None)  # no cell is classified
    assert mu_jst_region(reg, 1e-3) == MeasureValue(0.5, 0.0)


def test_bracket_near_zero_or_one_stays_in_the_unit_interval():
    # u^2 v^2 > 0 off two lines: the polish puts the value at an end of the
    # certified bracket, where value +- abs_error used to leave [0, 1]
    reg = PolynomialRegion((Constraint(Poly2({(2, 2): 1}), ">"),))
    for target in (1e-3, 1e-4):
        for r, truth in ((reg, 1.0), (reg.complement(), 0.0)):
            mv = mu_jst_region(r, target)
            assert mv.lo <= truth <= mv.hi and mv.abs_error <= target


_MATRICES = {g: np.array([[g.a, 0], [0, g.b]])[:, ::-1] if g.swap else np.diag([g.a, g.b]) for g in SQUARE_GROUP}


def _generated(gens):
    """The subgroup of SQUARE_GROUP generated by ``gens``, by closure of
    the point maps' signed permutation matrices."""
    by_matrix = {m.tobytes(): g for g, m in _MATRICES.items()}
    group = {E}
    while True:
        grown = group | {by_matrix[(_MATRICES[g] @ _MATRICES[h]).tobytes()] for g in group for h in gens}
        if grown == group:
            return group
        group = grown


@st.composite
def _invariant_polys(draw):
    """(P, H): a subgroup H of the square's symmetries, drawn from random
    generators, and P = sum over h in H of Q o h, which H fixes, for Q of
    degree <= 2 in each variable with small integer coefficients."""
    group = _generated(draw(st.lists(st.sampled_from(SQUARE_GROUP), min_size=1, max_size=3)))
    monomials = [(i, j) for i in range(3) for j in range(3)]
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monomials), max_size=len(monomials)))
    seed = Poly2(dict(zip(monomials, coeffs)))
    return sum((h.act(seed) for h in group), Poly2.zero()), group


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_invariant_polys(), op=st.sampled_from([">", "<"]))
# a quarter turn maps {-u^2 + uv + v^2 > 0} onto its complement: exactly 1/2
@example(case=(Poly2({(2, 0): -1, (1, 1): 1, (0, 2): 1}), {E, ROT180}), op=">")
def test_folded_measure_matches_unfolded(case, op):
    poly, group = case
    assume(poly.depends_on_u() and poly.depends_on_v())  # else no quadtree
    folded = PolynomialRegion((Constraint(poly, op),))
    assert group <= set(folded.symmetries[0])
    # u + 2v + 7 > 0 holds on the whole square and no symmetry but the
    # identity fixes it
    whole = Constraint(Poly2({(1, 0): 1, (0, 1): 2, (0, 0): 7}), ">")
    unfolded = PolynomialRegion((Constraint(poly, op), whole))
    assert unfolded.symmetries == ((E,), ())
    a = mu_jst_region(folded, 1e-3)
    b = mu_jst_region(unfolded, 1e-3)
    if a.abs_error == 0:
        # a flipping symmetry makes the folded value an exact 1/2, a bracket
        # of one point; the unfolded polish lands near it within no
        # certified bound (1.5e-11 off on the example above)
        assert b.lo <= a.value <= b.hi
        return
    # each value lies in the other's certified bracket; the slack covers the
    # rounding of the unfolded sum
    assert a.lo - 1e-12 <= b.value <= a.hi + 1e-12
    assert b.lo <= a.value <= b.hi
    if not any(g.swap for g in folded.symmetries[0] + folded.symmetries[1]):
        # a reflection maps a cell's Gauss nodes and sections onto those of
        # its image, so the folded polish repeats the unfolded one up to
        # rounding.  An element that exchanges u and v transposes them, and
        # the two polishes then agree only within their brackets.
        assert a.value == pytest.approx(b.value, abs=1e-12)


@pytest.mark.parametrize(
    "build, target, level1",
    [(lambda: region.disk(1), 1e-4, 1), (lambda: region.poly_positive(V_MINUS_U, 2, 3), 1e-3, 2)],
    ids=["disk", "poly(2,3)"],
)
def test_budget_counts_the_cells_classified(monkeypatch, build, target, level1):
    sizes = []
    real = measures.leaf_statuses

    def spy(leaves, u_lo, u_hi, v_lo, v_hi):
        sizes.append(int(u_lo.size))
        return real(leaves, u_lo, u_hi, v_lo, v_hi)

    monkeypatch.setattr(measures, "leaf_statuses", spy)
    reference = mu_jst_region(build(), target)
    total = sum(sizes)
    assert mu_jst_region(build(), target, budget=total) == reference
    sizes.clear()
    with pytest.raises(BudgetError):
        mu_jst_region(build(), target, budget=total - 1)
    assert sum(sizes) <= total - 1
    # level 0 is one cell; of its four children the disk keeps one (its
    # stabiliser is the whole group) and (2,3) two (u -> -u pairs them), so
    # a budget of 3 reaches level 1 on both
    sizes.clear()
    with pytest.raises(BudgetError):
        mu_jst_region(build(), target, budget=3)
    assert sizes[:2] == [1, level1]


# -- sparse Horner and sections solved once per node ----------------------------------

_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0]),
    st.floats(-2.5, 2.5, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(
    mat=st.integers(1, 5).flatmap(
        lambda rows: st.lists(
            st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=rows, max_size=rows),
            min_size=1,
            max_size=5,
        )
    ),
    us=st.lists(_POINTS, min_size=1, max_size=4),
    vs=st.lists(_POINTS, min_size=1, max_size=4),
)
def test_horner_over_nonzero_terms_is_bit_identical_to_dense(mat, us, vs):
    mat = np.array(mat, dtype=float)
    u, v = np.array(us)[:, None], np.array(vs)[None, :]
    got = _horner(mat, u, v)
    want = oracles.dense_horner(mat, u, v)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert _horner(mat, us[0], vs[0]).hex() == float(oracles.dense_horner(mat, us[0], vs[0])).hex()


# float.hex of (value, abs_error) of disk(1) at 1e-4 (x86-64, numpy 2.4),
# recorded when the quadtree began to fold the disk by all eight symmetries
# of the square; the sections are still grouped by node and Horner still
# skips zero terms.  The disk's sections are quadratic, with closed-form
# roots, so no LAPACK eigenvalue solve enters these bits.
DISK_HEX = ("0x1.311b98bb22b67p-2", "0x1.032d77acd2076p-15")


def test_polished_disk_matches_recorded_bits():
    mv = mu_jst_region(region.disk(1), 1e-4)
    assert (mv.value.hex(), mv.abs_error.hex()) == DISK_HEX


def _ungrouped_section_roots(poly, u_nodes):
    return bipoly._real_roots_batched(poly.v_coefficients_at(u_nodes))


@pytest.mark.parametrize(
    "reg",
    [region.disk(1), region.poly_positive(V_MINUS_U, 2, 3), region.poly_positive(V_MINUS_U, 2, 4)],
    ids=["disk(1)", "dominance(2,3)", "dominance(2,4)"],
)
def test_grouped_section_roots_are_bit_identical_to_ungrouped(reg):
    # quadratic, cubic and quartic sections at a block of nodes with
    # repeats, as the cells of one t-column share theirs
    (leaf,) = reg.leaves
    poly = leaf.poly
    u_nodes = np.cos(np.linspace(0.0, math.pi, 37))[np.arange(111) % 37 // 2 * 2]
    got = poly.section_roots(u_nodes)
    want = _ungrouped_section_roots(poly, u_nodes)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("y", [1e-3, 1e-6, 1e-8])
def test_a_complex_pair_near_the_axis_is_no_real_root(y):
    # (v - 0.3)((v - 1)^2 + y^2) and that times (v + 2): |y| is above the
    # 1e-9 under which a pair counts as a real root, in the cubic formula
    # as in the quartic's companion eigenvalues
    for others in ([0.3], [-2.0, 0.3]):
        row = _ascending(1.0, [*others, 1 + 1j * y, 1 - 1j * y])
        got = np.sort(bipoly._real_roots_batched(row)[0])
        assert got[: len(others)] == pytest.approx(others, abs=1e-12)
        assert np.isnan(got[len(others) :]).all()


@pytest.mark.parametrize("roots", [[-1.0, 1.0, 1.0], [0.5, 0.5, 0.5]])
def test_the_cubic_reports_exact_multiple_roots_with_multiplicity(roots):
    got = np.sort(bipoly._real_roots_batched(_ascending(1.0, roots))[0])
    assert got == pytest.approx(roots, abs=1e-7)


def test_sections_up_to_cubic_make_no_eigensolve(monkeypatch):
    # the (2,3) prediction and its curve (cubic in v, quadratic in u), the
    # disk (quadratic) and the certify cubic u = v^3 - 2v are solved in
    # closed form; the values are the eigenvalue path's, recorded before
    # the cubic formula, to 1e-15 and 1e-12
    def refuse(*args, **kwargs):
        raise AssertionError("a section of degree <= 3 reached numpy.linalg.eigvals")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    assert abs(counting.dominance_prediction(2, 3) - 0.5165991442402753) <= 1e-15
    mu_jst_region(region.disk(1), 1e-3)
    (leaf,) = region.poly_positive(V_MINUS_U, 2, 3).leaves
    length, components = region.trace_boundary(leaf.poly)
    assert components == 4 and length == pytest.approx(12.451725164865852, rel=1e-12)
    length, components = region.trace_boundary(Poly2({(0, 3): 1, (0, 1): -2, (1, 0): -1}))
    assert components == 3 and length == pytest.approx(9.569687095619434, rel=1e-12)


@st.composite
def _root_rows(draw):
    """(ascending coefficients, kind) of a polynomial of degree 1 to 6 built
    from drawn roots: real ones at least 0.05 apart from -2.5 on, where
    the last two may close to a near-double pair (gap 1e-10 to 1e-4), the
    last three to a triple root, or all move so that the first lies within
    1e-9 to 1e-3 of 0; and complex pairs x +- iy, |y| >= 0.05."""
    degree = draw(st.integers(1, 6))
    pairs = draw(st.integers(0, degree // 2))
    reals = [draw(st.floats(-2.5, -1.0))] if degree > 2 * pairs else []
    while len(reals) < degree - 2 * pairs:
        reals.append(reals[-1] + draw(st.floats(0.05, 1.0)))
    kind = draw(st.sampled_from(["separated", "near-double", "triple", "near-zero"]))
    if kind == "near-double" and len(reals) >= 2:
        reals[-1] = reals[-2] + 10.0 ** draw(st.floats(-10.0, -4.0))
    elif kind == "triple" and len(reals) >= 3:
        reals[-2:] = [reals[-3]] * 2
    elif kind == "near-zero" and reals:
        small = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-9.0, -3.0))
        reals = [small] + [r + (small - reals[0]) for r in reals[1:]]
    else:
        kind = "separated"
    roots = [complex(r) for r in reals]
    for _ in range(pairs):
        x, y = draw(st.floats(-2.5, 2.5)), draw(st.floats(0.05, 2.0))
        roots += [complex(x, y), complex(x, -y)]
    lead = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return _ascending(lead, roots), kind


def _ascending(lead, roots):
    return np.real(lead * np.poly(roots))[::-1].copy()


def _check_roots_against_oracle(coefficients, got):
    """The reported real roots of one row against the roots of the same
    float coefficients: sympy splits the exact polynomial into square-free
    factors, whose simple roots mpmath's polyroots finds at 50 digits."""
    import mpmath
    import sympy

    degree = coefficients.size - 1
    exact = sympy.Poly([sympy.Rational(*c.as_integer_ratio()) for c in coefficients[::-1]], sympy.Symbol("x"))
    want = []
    with mpmath.workdps(50):
        for factor, multiplicity in exact.sqf_list()[1]:
            cs = [mpmath.mpf(c.p) / c.q for c in factor.all_coeffs()]
            want += [complex(z) for z in mpmath.polyroots(cs, maxsteps=3000, extraprec=200)] * multiplicity
    got = got[~np.isnan(got)]
    assert got.size <= degree
    # every reported root is close to a root of the oracle: a triple root
    # moves by the cube root of the solver's error, (1000 eps)^(1/3) = 6e-5
    # times the row's scale for companion eigenvalues
    for g in got:
        assert min(abs(g - z) / max(1.0, abs(z)) for z in want) <= 1e-3, (g, want)
    derivative = np.polynomial.polynomial.polyder(coefficients)
    for i, w in enumerate(want):
        if w.imag != 0 or min((abs(w - z) for z in want[:i] + want[i + 1 :]), default=math.inf) < 1e-3:
            continue
        # a simple real root: found once, to 1e-12 relative, or to the
        # solver's error bound where that is larger, eps times the root's
        # condition number sum b_i |w|^i / |P'(w)| times a few ulps.  The
        # closed forms, whose roots never come from a cancelling sum, err
        # as if each coefficient moved by an ulp of itself (b_i = |c_i|,
        # 8 ulps); companion eigenvalues as if each moved by an ulp of the
        # largest (b_i = max |c|, 1000 ulps)
        w = w.real
        near = got[np.abs(got - w) < 1e-3]
        assert near.size == 1, (w, got)
        if degree <= 3:
            bound, ulps = np.abs(coefficients), 8
        else:
            bound, ulps = np.abs(coefficients).max(), 1000
        kappa = np.sum(bound * abs(w) ** np.arange(degree + 1))
        kappa /= abs(np.polynomial.polynomial.polyval(w, derivative))
        tol = max(1e-12 * abs(w), ulps * np.finfo(float).eps * kappa)
        assert abs(near[0] - w) <= tol, (w, near[0], tol)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(_root_rows(), min_size=1, max_size=5))
@example([(_ascending(1.0, [0.5, 0.5, 0.5]), "triple"), (_ascending(-3.0, [-1.0, 1e-7 - 1.0, 2.0]), "near-double")])
@example([(_ascending(2.0, [0.3, 1 + 1e-3j, 1 - 1e-3j]), "separated"), (_ascending(1.0, [-2.0, 1.0, 2.0]), "separated")])
# -b + sqrt(disc) cancels in the root near -1e-5, which (-b + sqrt(disc))/2a
# gets 1e-12 relative off where eps times its condition number is 4e-16
@example([(np.array([9.9999e-06, 0.99998, -1.0]), "separated")])
def test_real_roots_batched_matches_the_oracle_alone_and_in_a_batch(rows):
    width = max(c.size for c, _ in rows)
    batch = np.zeros((len(rows), width))
    for i, (c, _) in enumerate(rows):
        batch[i, : c.size] = c
    together = bipoly._real_roots_batched(batch)
    assert together.shape == (len(rows), width - 1)
    for i, (c, kind) in enumerate(rows):
        alone = bipoly._real_roots_batched(c)[0]
        # bit-identical beside rows of other degrees, as section_roots's
        # chunking needs; the padding columns report no root
        assert np.array_equal(together[i, : alone.size].view(np.uint64), alone.view(np.uint64)), kind
        assert np.isnan(together[i, alone.size :]).all()
        _check_roots_against_oracle(c, alone)


@pytest.mark.parametrize(
    "build, target",
    [
        (lambda: region.disk(1), 1e-4),
        (lambda: region.poly_positive(V_MINUS_U, 2, 3), 1e-3),
        (lambda: region.poly_positive(V_MINUS_U, 2, 4), 1e-3),
    ],
    ids=["disk(1)@1e-4", "dominance(2,3)@1e-3", "dominance(2,4)@1e-3"],
)
def test_polished_measure_is_bit_identical_to_ungrouped_polish(monkeypatch, build, target):
    grouped = mu_jst_region(build(), target)
    monkeypatch.setattr(Poly2, "section_roots", _ungrouped_section_roots)
    ungrouped = mu_jst_region(build(), target)
    assert (grouped.value.hex(), grouped.abs_error.hex()) == (
        ungrouped.value.hex(),
        ungrouped.abs_error.hex(),
    )


@pytest.mark.parametrize(
    "reg, target",
    [
        (region.disk(1), 1e-4),
        (region.poly_positive(V_MINUS_U, 2, 3), 1e-3),
        (region.poly_positive(V_MINUS_U, 2, 4), 1e-3),
    ],
    ids=["disk(1)", "dominance(2,3)", "dominance(2,4)"],
)
def test_sections_are_solved_once_per_node(monkeypatch, reg, target):
    # the disk's sections are quadratic; those of (2,3) and (2,4),
    # U_n(v/2) - U_2(u/2), cubic and quartic in v, so their roots take
    # companion eigenvalues.  Blocks of 2^10 split the 10,923, 13,467 and
    # 8,689 polished cells, and the cells of one t-column, over several
    # blocks: a node is still solved once in all of them
    calls = []
    real = Poly2.v_coefficients_at

    def spy(self, u_values):
        calls.append(np.asarray(u_values))
        return real(self, u_values)

    monkeypatch.setattr(measures, "_CELL_BLOCK", 1 << 10)
    monkeypatch.setattr(measures, "_POLISH_BLOCK", 1 << 10)
    monkeypatch.setattr(bipoly, "_SECTION_BLOCK", 1 << 10)
    monkeypatch.setattr(Poly2, "v_coefficients_at", spy)
    mu_jst_region(reg, target)
    assert calls and all(nodes.ndim == 1 for nodes in calls)
    nodes = np.concatenate(calls)
    assert np.unique(nodes).size == nodes.size
