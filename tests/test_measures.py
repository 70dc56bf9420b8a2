import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from satotate import measures, region
from satotate.bipoly import Poly2
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
    assert mv.value == pytest.approx(0.5, abs=1e-7)


def test_region_matches_closed_form_d22():
    mv = mu_jst_region(region.sign_product(2, 2), 1e-7)
    assert mv.abs_error <= 1e-7
    assert mv.value == pytest.approx(d_mn(2, 2), abs=1e-7)


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
    assert mv.value == pytest.approx(0.37087829731679517, abs=1e-8)


def test_region_target_validation():
    with pytest.raises(DomainError):
        mu_jst_region(region.disk(1), 1e-9)
    # a NaN target is refused before any cell is classified
    with pytest.raises(DomainError):
        mu_jst_region(region.disk(1), math.nan)


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
    "build",
    [lambda: region.disk(1), lambda: region.poly_positive(Poly2({(0, 1): 1, (1, 0): -1}), 2, 3)],
    ids=["disk", "poly(2,3)"],
)
def test_quadtree_result_does_not_depend_on_cell_block(monkeypatch, build):
    reg = build()
    reference = mu_jst_region(reg, 1e-3)
    monkeypatch.setattr(measures, "_CELL_BLOCK", 1000)
    assert mu_jst_region(reg, 1e-3) == reference


# -- reflection folding -------------------------------------------------------------

V_MINUS_U = Poly2({(0, 1): 1, (1, 0): -1})


def test_reflections_of_named_regions():
    assert region.disk(1).reflections == (True, True)
    assert region.poly_positive(V_MINUS_U, 2, 3).reflections == (True, False)
    # S_1 and S_3 are odd, so u -> -u moves the boundary S_n(v) = S_m(u)
    assert not region.poly_positive(V_MINUS_U, 1, 2).reflections[0]
    assert not region.poly_positive(V_MINUS_U, 3, 2).reflections[0]
    assert region.disk(1).complement().reflections == (True, True)


def test_one_uneven_leaf_anywhere_stops_the_fold_on_its_axis():
    even = Constraint(Poly2({(2, 0): 1, (0, 2): 1, (0, 0): -1}), "<")
    odd_in_u = Constraint(Poly2({(3, 0): 1, (0, 2): 1, (0, 0): -2}), ">")
    odd_in_v = Constraint(Poly2({(2, 2): 1, (0, 1): 1}), ">")
    deep = ("or", (("leaf", 0), ("and", (("leaf", 0), ("sign", 1, (("leaf", 1),))))))
    assert PolynomialRegion((even, even), deep).reflections == (True, True)
    assert PolynomialRegion((even, odd_in_u), deep).reflections == (False, True)
    assert PolynomialRegion((even, odd_in_v), deep).reflections == (True, False)
    # a leaf the tree never reads still counts
    assert PolynomialRegion((even, odd_in_u), ("or", (("leaf", 0),))).reflections == (False, True)


def test_bracket_near_zero_or_one_stays_in_the_unit_interval():
    # u^2 v^2 > 0 off two lines: the polish puts the value at an end of the
    # certified bracket, where value +- abs_error used to leave [0, 1]
    reg = PolynomialRegion((Constraint(Poly2({(2, 2): 1}), ">"),))
    for target in (1e-3, 1e-4):
        for r, truth in ((reg, 1.0), (reg.complement(), 0.0)):
            mv = mu_jst_region(r, target)
            assert mv.lo <= truth <= mv.hi and mv.abs_error <= target


@st.composite
def _even_polys(draw):
    """(P, fold_u, fold_v): P of degree <= 2 in each variable with small
    integer coefficients, even in u when fold_u and in v when fold_v."""
    fold_u, fold_v = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    monomials = [(i, j) for i in ((0, 2) if fold_u else (0, 1, 2)) for j in ((0, 2) if fold_v else (0, 1, 2))]
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monomials), max_size=len(monomials)))
    return Poly2(dict(zip(monomials, coeffs))), fold_u, fold_v


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_even_polys(), op=st.sampled_from([">", "<"]))
def test_folded_measure_matches_unfolded(case, op):
    poly, fold_u, fold_v = case
    assume(poly.depends_on_u() and poly.depends_on_v())  # else no quadtree
    folded = PolynomialRegion((Constraint(poly, op),))
    assert folded.reflections[0] >= fold_u and folded.reflections[1] >= fold_v
    # u + v + 5 > 0 holds on the whole square and is even in neither variable
    whole = Constraint(Poly2({(1, 0): 1, (0, 1): 1, (0, 0): 5}), ">")
    unfolded = PolynomialRegion((Constraint(poly, op), whole))
    assert unfolded.reflections == (False, False)
    a = mu_jst_region(folded, 1e-3)
    b = mu_jst_region(unfolded, 1e-3)
    assert a.value == pytest.approx(b.value, abs=1e-12)
    assert a.lo <= b.value <= a.hi
    assert b.lo <= a.value <= b.hi


@pytest.mark.parametrize(
    "build, target",
    [(lambda: region.disk(1), 1e-4), (lambda: region.poly_positive(V_MINUS_U, 2, 3), 1e-3)],
    ids=["disk", "poly(2,3)"],
)
def test_budget_counts_the_cells_classified(monkeypatch, build, target):
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
    # level 0 is one cell and the fold keeps one (disk) or two ((2,3)) of
    # its four children, so a budget of 3 reaches level 1 on both
    sizes.clear()
    with pytest.raises(BudgetError):
        mu_jst_region(build(), target, budget=3)
    assert sizes[:2] == [1, 4 // 2 ** sum(build().reflections)]
