import math

import numpy as np
import pytest

from satotate.chebyshev import DEGREE_CAP, check_pair, eval_u, s_poly
from satotate.counting import PairFrame
from satotate.errors import CapError, DomainError


def test_s_poly_base_cases():
    # S_m(u) = U_m(u/2): U_0 = 1, U_1 = 2u, U_2 = 4u^2 - 1
    assert s_poly(0) == (1,)
    assert s_poly(1) == (0, 1)
    assert s_poly(2) == (-1, 0, 1)


def test_check_pair_is_the_one_lift_pair_rule():
    for pair in ((0, 1), (1, 0), (DEGREE_CAP, DEGREE_CAP)):
        check_pair(*pair)
    for pair in ((-1, 1), (1, DEGREE_CAP + 1)):
        with pytest.raises(CapError):
            check_pair(*pair)
    with pytest.raises(DomainError, match=r"^\(m, n\) = \(0, 0\) "):
        check_pair(0, 0)


def test_s_poly_structure():
    for m in range(12):
        coeffs = s_poly(m)
        assert len(coeffs) == m + 1 and coeffs[-1] == 1  # monic of degree m
        for k, c in enumerate(coeffs):
            if (k - m) % 2 != 0:
                assert c == 0  # parity
        if m >= 2:  # S_m = u S_{m-1} - S_{m-2}, exactly
            shifted = (0,) + s_poly(m - 1)
            prev = s_poly(m - 2) + (0, 0)
            assert coeffs == tuple(a - b for a, b in zip(shifted, prev))


def test_degree_cap():
    s_poly(64)
    eval_u(64, 0.3)
    with pytest.raises(CapError):
        s_poly(65)
    with pytest.raises(CapError):
        eval_u(65, 0.3)
    with pytest.raises(CapError):
        s_poly(-1)
    with pytest.raises(CapError):
        eval_u(-1, 0.3)


def test_eval_u_examples():
    assert eval_u(0, 123.4) == 1.0
    assert eval_u(2, 1.0) == pytest.approx(3.0, abs=1e-12)
    for m in range(1, 11):
        root = math.cos(math.pi / (m + 1))
        assert abs(eval_u(m, root)) <= 1e-12


def test_eval_u_matches_monomial_form():
    # U_m's coefficient of u^k is S_m's times 2^k
    for m in range(0, 21):
        coeffs = s_poly(m)
        for u in np.linspace(-1, 1, 17):
            direct = sum(c * 2**k * u**k for k, c in enumerate(coeffs))
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


def test_sympower_coeff(f54_table, delta_table):
    # the lift a(p^m) = U_m(a(p)/2) over a frame's primes, which leave out
    # those dividing a level (5 for 5.4.a.a)
    frame = PairFrame(f54_table, delta_table, 100)
    assert 5 not in frame.primes.tolist()
    assert (frame.lift(0, 0) == 1.0).all()
    assert frame.lift(0, 1).tobytes() == frame.values[0].tobytes()
    # a(2) = -4 / 2^{3/2} = -sqrt(2), so U_2(a/2) = 4*(1/2) - 1 = 1
    assert frame.lift(0, 2)[0] == pytest.approx(1.0, abs=1e-12)
    # the table's own a(p^2) = A(p^2) / p^(k-1), and a(p^3) likewise
    for side, table in enumerate(frame.tables):
        k = table.descriptor.weight
        for i, p in enumerate(frame.primes.tolist()):
            for m in (2, 3):
                if p**m <= table.bound:
                    expected = table.a_int(p**m) / p ** (m * (k - 1) / 2)
                    assert frame.lift(side, m)[i] == pytest.approx(expected, abs=1e-9), (table, p, m)
