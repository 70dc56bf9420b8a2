import math
from fractions import Fraction

import numpy as np
import pytest

from satotate.chebyshev import eval_u, s_poly, sympower_coeff, u_poly
from satotate.errors import BadPrimeError, CapError


def test_u_poly_base_cases():
    assert u_poly(0).coefficients == (1,)
    assert u_poly(1).coefficients == (0, 2)
    assert u_poly(2).coefficients == (-1, 0, 4)


def test_u_poly_structure():
    for m in range(12):
        coeffs = u_poly(m).coefficients
        assert coeffs[-1] == 2**m  # leading coefficient
        for k, c in enumerate(coeffs):
            if (k - m) % 2 != 0:
                assert c == 0  # parity


def test_degree_cap():
    u_poly(64)
    with pytest.raises(CapError):
        u_poly(65)
    with pytest.raises(CapError):
        eval_u(65, 0.3)
    with pytest.raises(CapError):
        u_poly(-1)


def test_eval_u_examples():
    assert eval_u(0, 123.4) == 1.0
    assert eval_u(2, 1.0) == pytest.approx(3.0, abs=1e-12)
    for m in range(1, 11):
        root = math.cos(math.pi / (m + 1))
        assert abs(eval_u(m, root)) <= 1e-12


def test_eval_u_matches_monomial_form():
    for m in range(0, 21):
        coeffs = u_poly(m).coefficients
        for u in np.linspace(-1, 1, 17):
            direct = sum(c * u**k for k, c in enumerate(coeffs))
            assert eval_u(m, u) == pytest.approx(direct, abs=1e-9)


def test_trig_identity():
    for m in range(0, 21):
        for theta in np.arange(0.1, 3.01, 0.1):
            expected = math.sin((m + 1) * theta) / math.sin(theta)
            assert abs(eval_u(m, math.cos(theta)) - expected) <= 1e-9


def test_parity_identity():
    rng = np.random.default_rng(7)
    us = rng.uniform(-1, 1, 40)
    for m in range(0, 25):
        vals_pos = eval_u(m, us)
        vals_neg = eval_u(m, -us)
        assert np.max(np.abs(vals_neg - (-1.0) ** m * vals_pos)) <= 1e-12


def test_sup_bound_on_unit_interval():
    us = np.linspace(-1, 1, 4001)
    for m in range(0, 33):
        assert np.max(np.abs(eval_u(m, us))) <= m + 1 + 1e-9


def test_eval_u_vectorized():
    us = np.linspace(-1, 1, 9)
    vec = eval_u(5, us)
    assert vec.shape == (9,)
    for u, v in zip(us, vec):
        assert eval_u(5, float(u)) == pytest.approx(v, abs=1e-14)


def test_s_poly_is_scaled_u_poly():
    for m in range(0, 15):
        s = s_poly(m)
        u = u_poly(m).coefficients
        # U_m(u/2): coefficient k scales by 2^{-k}
        assert [Fraction(c, 2**k) for k, c in enumerate(u)] == [Fraction(c) for c in s]


def test_sympower_coeff(f54_table):
    assert sympower_coeff(f54_table, 7, 0) == 1.0
    a7 = f54_table.normalized_prime_value(7)
    assert sympower_coeff(f54_table, 7, 1) == pytest.approx(a7, abs=1e-14)
    # a(2) = -4 / 2^{3/2} = -sqrt(2), so U_2(a/2) = 4*(1/2) - 1 = 1
    assert sympower_coeff(f54_table, 2, 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(BadPrimeError):
        sympower_coeff(f54_table, 5, 2)
