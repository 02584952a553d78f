import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from periodetect.densities import (
    Gaussian,
    Poisson,
    density_from_dict,
    density_to_dict,
    kl,
    llr,
    log_density,
    sample,
)

finite_means = st.floats(-20.0, 20.0)
variances = st.floats(0.01, 50.0)
rates = st.floats(0.05, 80.0)


def quadrature_kl_gaussian(g: Gaussian, f: Gaussian) -> float:
    """Independent oracle: integrate g(x) log(g/f) over a wide grid."""
    from scipy import integrate

    lo = g.mean - 14.0 * math.sqrt(g.variance)
    hi = g.mean + 14.0 * math.sqrt(g.variance)

    def integrand(x):
        lg = g.log_density(x)
        return math.exp(lg) * (lg - f.log_density(x))

    val, _ = integrate.quad(integrand, lo, hi, limit=400)
    return val


def summation_kl_poisson(g: Poisson, f: Poisson, kmax: int = 400) -> float:
    """Independent oracle: direct pmf summation."""
    total = 0.0
    for k in range(kmax + 1):
        lg = g.log_density(float(k))
        total += math.exp(lg) * (lg - f.log_density(float(k)))
    return total


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        assert log_density(Gaussian(0, 1), 0.0) == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_poisson_rate_one_at_zero(self):
        assert log_density(Poisson(1), 0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_gaussian_at_its_mean(self):
        # exponent vanishes at the mean
        assert log_density(Gaussian(2, 4), 2.0) == pytest.approx(-0.5 * math.log(8 * math.pi), abs=1e-12)

    def test_poisson_rejects_negative_and_fractional(self):
        with pytest.raises(ValueError):
            log_density(Poisson(2), -1.0)
        with pytest.raises(ValueError):
            log_density(Poisson(2), 1.5)

    def test_rejects_non_finite_observation(self):
        with pytest.raises(ValueError):
            log_density(Gaussian(0, 1), float("nan"))
        with pytest.raises(ValueError):
            log_density(Poisson(1), float("inf"))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Gaussian(0, 0.0)
        with pytest.raises(ValueError):
            Gaussian(0, -1.0)
        with pytest.raises(ValueError):
            Poisson(0.0)


class TestLlr:
    def test_equidistant_point_is_zero(self):
        assert llr(Gaussian(1, 1), Gaussian(0, 1), 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_identical_densities_give_zero(self):
        for x in (-2.0, 0.0, 3.7):
            assert llr(Gaussian(0.3, 2.0), Gaussian(0.3, 2.0), x) == 0.0

    def test_poisson_hand_value(self):
        # 3 log 2 - 1, from the log-pmf difference by hand
        assert llr(Poisson(2), Poisson(1), 3.0) == pytest.approx(1.0794415416798357, abs=1e-12)

    @given(finite_means, variances, finite_means, variances, st.floats(-30, 30))
    def test_antisymmetry_exact(self, m1, v1, m2, v2, x):
        g, f = Gaussian(m1, v1), Gaussian(m2, v2)
        assert llr(g, f, x) == -llr(f, g, x)

    def test_cross_family_evaluable_on_shared_support(self):
        val = llr(Poisson(2), Gaussian(0, 1), 3.0)
        assert math.isfinite(val)


class TestSample:
    def test_same_seed_same_draw(self):
        d = Gaussian(1.5, 2.0)
        a = sample(d, np.random.default_rng(7))
        b = sample(d, np.random.default_rng(7))
        assert a == b

    def test_tiny_variance_concentrates(self):
        d = Gaussian(3.0, 1e-8)
        draws = sample(d, np.random.default_rng(1), size=10_000)
        assert abs(draws.mean() - 3.0) < 5 * math.sqrt(1e-8 / 10_000)

    def test_a_draw_without_a_size_is_a_float(self):
        draw = Poisson(3.0).sample(np.random.default_rng(5))
        assert type(draw) is float
        assert draw == float(np.random.default_rng(5).poisson(3.0))

    def test_poisson_mean_matches_rate(self):
        d = Poisson(4.0)
        draws = sample(d, np.random.default_rng(2), size=100_000)
        assert abs(draws.mean() - 4.0) < 3 * math.sqrt(4.0 / 100_000)


class TestKl:
    def test_identical_laws_zero(self):
        assert kl(Gaussian(1.2, 3.0), Gaussian(1.2, 3.0)) == pytest.approx(0.0, abs=1e-12)
        assert kl(Poisson(5), Poisson(5)) == pytest.approx(0.0, abs=1e-12)

    def test_large_shift_small_variance(self):
        # 0.6 shift at variance 0.01: verified against the quadrature oracle
        g, f = Gaussian(0.6, 0.01), Gaussian(0.0, 0.01)
        assert kl(g, f) == pytest.approx(18.0, rel=1e-12)
        assert kl(g, f) == pytest.approx(quadrature_kl_gaussian(g, f), rel=1e-9)

    def test_poisson_two_vs_one(self):
        g, f = Poisson(2), Poisson(1)
        assert kl(g, f) == pytest.approx(2 * math.log(2) - 1, abs=1e-12)
        assert kl(g, f) == pytest.approx(summation_kl_poisson(g, f), rel=1e-10)

    def test_cross_family_rejected(self):
        with pytest.raises(ValueError):
            kl(Gaussian(0, 1), Poisson(1))

    @given(finite_means, variances, finite_means, variances)
    def test_nonnegative_zero_iff_equal(self, m1, v1, m2, v2):
        g, f = Gaussian(m1, v1), Gaussian(m2, v2)
        val = kl(g, f)
        assert val >= -1e-12
        if m1 == m2 and v1 == v2:
            assert abs(val) <= 1e-12
        elif abs(m1 - m2) > 1e-6 or abs(v1 - v2) > 1e-6:
            assert val > 0

    @given(rates, rates)
    def test_poisson_nonnegative(self, lg, lf):
        assert kl(Poisson(lg), Poisson(lf)) >= -1e-12

    def test_kl_matches_quadrature_on_random_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(12):
            g = Gaussian(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
            f = Gaussian(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
            assert kl(g, f) == pytest.approx(quadrature_kl_gaussian(g, f), rel=1e-6)
        for _ in range(12):
            g = Poisson(rng.uniform(0.3, 15.0))
            f = Poisson(rng.uniform(0.3, 15.0))
            assert kl(g, f) == pytest.approx(summation_kl_poisson(g, f), rel=1e-6)

    def test_monte_carlo_llr_mean_converges_to_kl(self):
        g, f = Gaussian(0.8, 1.3), Gaussian(0.0, 1.0)
        rng = np.random.default_rng(99)
        n = 100_000
        draws = sample(g, rng, size=n)
        vals = np.array([llr(g, f, x) for x in draws])
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - kl(g, f)) < 4 * se


class TestJson:
    def test_round_trip(self):
        for d in (Gaussian(0.25, 1.75), Poisson(3.5)):
            assert density_from_dict(density_to_dict(d)) == d

    def test_encoding_shape(self):
        assert density_to_dict(Gaussian(1, 2)) == {"type": "gaussian", "mean": 1.0, "variance": 2.0}
        assert density_to_dict(Poisson(4)) == {"type": "poisson", "rate": 4.0}

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            density_from_dict({"type": "cauchy"})

    def test_a_non_density_has_no_encoding(self):
        with pytest.raises(TypeError, match=r"^not a slot density: 3\.0$"):
            density_to_dict(3.0)

    @pytest.mark.parametrize("make, message", [
        (lambda: Gaussian(math.inf, 1.0), "Gaussian mean must be finite"),
        (lambda: Gaussian(0.0, 0.0), "Gaussian variance must be > 0, got 0.0"),
        (lambda: Poisson(-1), "Poisson rate must be > 0, got -1.0"),
        (lambda: Poisson(math.inf), "Poisson rate must be > 0, got inf"),
        (lambda: density_from_dict({"type": "cauchy"}), "unknown density type: 'cauchy'")])
    def test_the_message_names_the_fault(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
