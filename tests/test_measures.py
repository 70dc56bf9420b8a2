import math

import numpy as np
import pytest

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
