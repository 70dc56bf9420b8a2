"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (run with ``pytest -s`` to see them all)
and enforces its stated runtime budget.
"""

import math
import time

import numpy as np
import pytest

from satotate import bundled, region
from satotate.bipoly import Poly2
from satotate.chebyshev import eval_u
from satotate.cli import main as cli_main
from satotate.cli import resolve_table
from satotate.coeffs import NewformDescriptor, expand_eta_quotient
from satotate.counting import (
    default_checkpoints,
    dominance_density_series,
    first_sign_change,
    sign_density_series,
    theoretical_first_sign_bound,
)
from satotate.measures import MeasureValue, d_ell, d_mn, mu_jst_region
from satotate.primes import sieve
from satotate.region import (
    boundary_bound_check,
    classify_boxes,
    error_envelope,
    m_of_x,
    strip_merge,
)

import oracles


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.1f}s over budget"
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.1f}s)")
        return False


@pytest.fixture(scope="module")
def full_scale_pair(tmp_path_factory, seed_cache):
    """The weight-4/level-5 and weight-6/level-6 pair to 10^5 via a seeded
    cache, exercising the pre-fetched-cache path."""
    cache = tmp_path_factory.mktemp("cache")
    seed_cache(cache, 10**5)
    f = resolve_table("5.4.a.a", 10**5, cache_dir=cache, base_url="http://127.0.0.1:9")
    fp = resolve_table("6.6.a.a", 10**5, cache_dir=cache, base_url="http://127.0.0.1:9")
    return f, fp


def test_criterion_1_eta_golden():
    with _Budget("C1 eta-engine-golden", 1.0):
        descriptor = NewformDescriptor("5.4.a.a", 4, 5, ((1, 4), (5, 4)))
        table = expand_eta_quotient(descriptor, 9)
        assert table.raw == (1, -4, 2, 8, -5, -8, 6, 0, -23)


def test_criterion_2_density_constants():
    with _Budget("C2 density-constants", 30.0):
        for ell in range(1, 21):
            oracle = oracles.d_ell_quadrature(ell, eval_u)
            assert abs(d_ell(ell) - oracle) <= 1e-9, ell
        for m in range(0, 7):
            for n in range(0, 7):
                if (m, n) == (0, 0):
                    continue
                quad = mu_jst_region(region.sign_product(m, n), 1e-7)
                assert abs(d_mn(m, n) - quad.value) <= 1e-14, (m, n)
        for m in range(1, 21):
            for n in range(1, 21):
                dm, dn = d_ell(m), d_ell(n)
                identity = dm * dn + (1 - dm) * (1 - dn)
                assert abs(d_mn(m, n) - identity) <= 1e-12, (m, n)


def test_criterion_3_d22_dual_evaluation(capsys):
    with _Budget("C3 d22-dual-evaluation", 10.0):
        closed = d_mn(2, 2)
        quad = mu_jst_region(region.sign_product(2, 2), 1e-7)
        assert abs(closed - quad.value) <= 1e-14
        assert abs(closed - 0.523762) <= 1e-6
        assert abs(closed - 0.534) > 1e-2  # must not match the misprint
        assert cli_main(["--out", ".", "measure", "--sign-product", "2,2", "--target", "1e-7"]) == 0
        out = capsys.readouterr().out
        assert "0.534" in out and "0.523761" in out


def test_criterion_4_grid_brackets():
    with _Budget("C4 grid-bracket-enclosure", 120.0):
        cases = {
            "full": (region.full_square(), 1.0),
            "rect": (region.rect(-1, 1, -1, 1), 0.37087829731679517),
            "half": (region.rect(0, 2, -2, 2), 0.5),
            "disk": (region.disk(1), oracles.disk_measure(1.0)),
            "u2u2": (region.sign_product(2, 2), d_mn(2, 2)),
        }
        for name, (reg, oracle) in cases.items():
            fitted = []
            for m in (16, 32, 64, 128):
                approx = classify_boxes(reg, m)
                assert approx.mu_low - 1e-9 <= oracle <= approx.mu_high + 1e-9, (name, m)
                width = approx.mu_high - approx.mu_low
                fitted.append(width * m)
                n_obs, bound = boundary_bound_check(approx)
                assert n_obs <= bound, (name, m)
                merge = strip_merge(approx)
                cap = 1 + reg.alpha * reg.beta
                assert merge.per_strip_counts.max(initial=0) <= cap, (name, m)
            if max(fitted) > 0:
                assert max(fitted) / min(f for f in fitted if f > 0) <= 2.0, (name, fitted)


def test_criterion_5_symmetry_forcing():
    with _Budget("C5 symmetry-forcing", 60.0):
        # u (v^2 + 3) at an odd first index: u -> -u maps the region onto
        # its complement
        odd_region = region.poly_positive(Poly2({(1, 0): 3, (1, 2): 1}), 1, 2)
        assert [(g.a, g.b, g.swap) for g in odd_region.symmetries[1]] == [(-1, 1, False), (-1, -1, False)]
        assert mu_jst_region(odd_region, 1e-6) == MeasureValue(0.5, 0.0)

        # (u - v)(u^2 + uv + v^2) at equal indices: so does u <-> v
        anti_region = region.poly_positive(Poly2({(3, 0): 1, (0, 3): -1}), 2, 2)
        assert (1, 1, True) in [(g.a, g.b, g.swap) for g in anti_region.symmetries[1]]
        assert mu_jst_region(anti_region, 1e-3) == MeasureValue(0.5, 0.0)


def test_criterion_6_desk_scale_densities():
    with _Budget("C6 desk-scale-densities", 60.0):
        delta = bundled.bundled_table("1.12.a.a", 10**4)
        f54 = bundled.bundled_table("5.4.a.a", 10**4)
        checkpoints = default_checkpoints(10**4)
        sign_rep = sign_density_series(delta, f54, 1, 1, checkpoints)
        assert abs(sign_rep.final().emp_density - 0.5) <= 0.05
        dom_rep = dominance_density_series(delta, f54, 1, 1, checkpoints)
        assert abs(dom_rep.final().emp_density - 0.5) <= 0.05
        primes = sieve(10**4).primes
        for rep in (sign_rep, dom_rep):
            for row in rep.rows:
                pi_x = int(np.searchsorted(primes, row.x, side="right"))
                excluded = 1 if row.x >= 5 else 0  # levels 1 and 5
                total = row.count_pos + row.count_neg + row.count_zero
                assert total == pi_x - excluded, row.x


def test_criterion_7_full_scale(full_scale_pair):
    with _Budget("C7 full-scale-figures", 300.0):
        f, fp = full_scale_pair
        checkpoints = default_checkpoints(10**5)
        final = {}
        for m, n in ((1, 1), (2, 2), (1, 2)):
            rep = sign_density_series(f, fp, m, n, checkpoints)
            final[("sign", m, n)] = rep.final().emp_density
        for m, n in ((1, 3), (2, 2), (2, 3)):
            rep = dominance_density_series(f, fp, m, n, checkpoints)
            final[("dom", m, n)] = rep.final().emp_density
        assert abs(final[("sign", 1, 1)] - 0.5) <= 0.03
        assert abs(final[("sign", 1, 2)] - 0.5) <= 0.03
        assert final[("sign", 2, 2)] > 0.5
        assert abs(final[("dom", 1, 3)] - 0.5) <= 0.03
        assert abs(final[("dom", 2, 2)] - 0.5) <= 0.03
        assert final[("dom", 2, 3)] > 0.5


def test_criterion_8_first_sign_change(full_scale_pair):
    with _Budget("C8 first-sign-change", 10.0):
        f, fp = full_scale_pair
        res_all = first_sign_change(f, fp, 1, 1, "AllPrimes", search_bound=10**4)
        assert res_all.prime == 2
        res_ex = first_sign_change(f, fp, 1, 1, "ExcludeLevelPrimes", search_bound=10**4)
        assert res_ex.found and res_ex.prime <= 100
        assert res_ex.prime == 11  # frozen regression value from the first scan
        j = theoretical_first_sign_bound(2, 2, 4, 6, 5, 6, 0.6)

        def satisfied(xx):
            mv = m_of_x(xx, 4 * 6 * 5 * 6)
            return (1 - d_mn(2, 2)) * math.sqrt(mv) > 0.6

        assert satisfied(2**j) and not satisfied(2 ** (j - 1))


def test_criterion_9_error_envelopes():
    with _Budget("C9 error-envelopes", 5.0):
        assert abs(m_of_x(math.exp(math.e), 1) - math.exp(0.25)) <= 1e-12
        params = dict(k=4, k_prime=6, level=5, level_prime=6, length=10.0, alpha=5, beta=4)
        grid = (1e3, 1e4, 1e5, 1e6)
        pis = {x: sieve(int(x)).primes.size for x in grid}

        def ratios(mode):
            return [
                error_envelope(mode, x, params["k"], params["k_prime"], params["level"],
                               params["level_prime"], params["length"], params["alpha"],
                               params["beta"], pi_x=pis[x]) / pis[x]
                for x in grid
            ]

        for mode in ("Unconditional13", "Unconditional12"):
            r = ratios(mode)
            assert all(a > b for a, b in zip(r, r[1:])), mode
        for mode in ("GRH13", "GRH12"):
            r = ratios(mode)
            assert r[-1] < r[0], mode
        # GRH envelopes decay faster; the crossover against the sharper
        # unconditional envelope is finite and stable past its onset
        def env(mode, x):
            return error_envelope(
                mode, x, params["k"], params["k_prime"], params["level"],
                params["level_prime"], params["length"], params["alpha"], params["beta"],
                pi_x=float(x) / math.log(x),
            )

        xs = np.geomspace(1e6, 1e14, 33)
        crossed = [x for x in xs if env("GRH12", x) < env("Unconditional12", x)]
        assert crossed
        x_star = min(crossed)
        assert env("GRH12", 1e6) > env("Unconditional12", 1e6)
        for x in (x_star, 10 * x_star, 100 * x_star):
            assert env("GRH12", x) < env("Unconditional12", x)
