import numpy as np
import pytest
from scipy import integrate, special

from fixedgp.kernels import (MaternSpec, bessel_k, matern_correlation, matern_kernel,
                             spectral_density)


def bessel_k_quadrature(nu, x):
    """Independent oracle: K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt,
    with the integrand evaluated in log space to dodge overflow."""

    def f(t):
        ct = np.cosh(t)
        log_cosh = abs(nu * t) + np.log1p(np.exp(-2.0 * abs(nu * t))) - np.log(2.0)
        arg = log_cosh - x * ct
        return np.exp(arg) if arg > -745.0 else 0.0

    t_up = np.arccosh(max(1e8 / x, 2.0))
    val, _ = integrate.quad(f, 0.0, t_up, limit=500, epsabs=1e-300, epsrel=1e-13)
    return val


class TestBesselK:
    def test_half_integer_closed_form_values(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        assert bessel_k(0.5, 1.0) == pytest.approx(np.sqrt(np.pi / 2.0) * np.exp(-1.0), rel=1e-14)
        # frozen from the quadrature oracle
        assert bessel_k(1.5, 2.0) == pytest.approx(0.1799066579520922, rel=1e-12)
        assert bessel_k(2.5, 0.3) == pytest.approx(75.1521401643749, rel=1e-12)

    def test_large_argument_no_overflow(self):
        assert bessel_k(0.5, 50.0) == pytest.approx(np.sqrt(np.pi / 100.0) * np.exp(-50.0), rel=1e-13)

    def test_half_integer_vs_quadrature(self):
        for nu in (0.5, 1.5, 2.5):
            for x in (1e-6, 0.05, 0.7, 3.0, 20.0, 50.0):
                assert bessel_k(nu, x) == pytest.approx(bessel_k_quadrature(nu, x), rel=1e-10)

    def test_general_nu_vs_quadrature(self, rng):
        for _ in range(60):
            nu = rng.uniform(0.05, 10.0)
            x = 10 ** rng.uniform(-8, np.log10(50.0))
            assert bessel_k(nu, x) == pytest.approx(bessel_k_quadrature(nu, x), rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k(0.5, 0.0)
        with pytest.raises(ValueError):
            bessel_k(0.5, -1.0)
        with pytest.raises(ValueError):
            bessel_k(0.0, 1.0)
        with pytest.raises(ValueError):
            bessel_k(-2.0, 1.0)

    def test_small_argument_overflow_signaled(self):
        with pytest.raises(OverflowError):
            bessel_k(8.0, 1e-40)


class TestMaternCorrelation:
    def test_exactly_one_at_zero_lag(self):
        for alpha, nu in [(0.3, 0.5), (2.0, 1.5), (1.0, 2.5), (0.7, 1.7), (5.0, 4.2)]:
            assert matern_correlation(alpha, nu, 0.0) == 1.0

    def test_exponential_case_closed_form(self, rng):
        for _ in range(1000):
            alpha = 10 ** rng.uniform(-2, 2)
            h = 10 ** rng.uniform(-4, 1)
            assert matern_correlation(alpha, 0.5, h) == pytest.approx(np.exp(-alpha * h), rel=1e-12)

    def test_half_integer_closed_forms_vs_bessel_formula(self, rng):
        # nu = 3/2 and 5/2 against the generic Bessel expression
        for nu, poly in [(1.5, None), (2.5, None)]:
            for _ in range(200):
                alpha = 10 ** rng.uniform(-1, 1)
                h = 10 ** rng.uniform(-3, 0.5)
                t = alpha * h
                expected = 2 ** (1 - nu) / special.gamma(nu) * t**nu * special.kv(nu, t)
                assert matern_correlation(alpha, nu, h) == pytest.approx(expected, rel=1e-10)

    def test_half_integer_closed_forms_vs_quadrature(self):
        for nu in (0.5, 1.5, 2.5):
            for t in (0.05, 0.3, 1.0, 4.0):
                expected = 2 ** (1 - nu) / special.gamma(nu) * t**nu * bessel_k_quadrature(nu, t)
                assert matern_correlation(1.0, nu, t) == pytest.approx(expected, rel=1e-10)

    def test_known_value_nu_three_halves(self):
        assert matern_correlation(1.0, 1.5, 1.0) == pytest.approx(2.0 * np.exp(-1.0), rel=1e-14)

    def test_known_value_exponential(self):
        assert matern_correlation(0.5, 0.5, 1.0) == pytest.approx(np.exp(-0.5), rel=1e-14)

    def test_strictly_decreasing_in_h(self):
        h = np.linspace(1e-3, 5.0, 100)
        for alpha, nu in [(0.5, 0.5), (1.0, 1.5), (2.0, 2.5), (1.3, 0.8), (0.9, 3.7)]:
            vals = matern_correlation(alpha, nu, h)
            assert np.all(np.diff(vals) < 0)
            assert np.all((vals > 0) & (vals <= 1))

    def test_vectorized_matches_scalar(self, rng):
        h = rng.uniform(0, 2, 17)
        vec = matern_correlation(0.8, 1.7, h)
        for i, hi in enumerate(h):
            assert vec[i] == pytest.approx(matern_correlation(0.8, 1.7, float(hi)), rel=1e-14)

    def test_extreme_arguments_stay_finite(self):
        assert matern_correlation(1.0, 5.0, 1e-300) == 1.0
        assert matern_correlation(1e6, 5.0, 1e3) == 0.0
        assert matern_correlation(1.0, 0.5, 1e4) >= 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            matern_correlation(-1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            matern_correlation(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            matern_correlation(1.0, 0.5, -0.1)
        # exp(-inf * 0) is NaN at lag 0, so an infinite alpha has no correlation
        with pytest.raises(ValueError, match="positive finite alpha"):
            matern_correlation(np.inf, 0.5, np.array([0.0, 0.3]))
        with pytest.raises(ValueError, match="positive finite nu"):
            matern_kernel(np.inf)


class TestMaternSpec:
    def test_theta_identity(self, rng):
        for _ in range(100):
            sigma2 = 10 ** rng.uniform(-2, 2)
            alpha = 10 ** rng.uniform(-2, 2)
            nu = rng.uniform(0.1, 5.0)
            spec = MaternSpec(sigma2=sigma2, alpha=alpha, nu=nu)
            assert spec.theta == pytest.approx(sigma2 * alpha ** (2 * nu), rel=1e-14)
            back = MaternSpec.from_theta(spec.theta, alpha, nu)
            assert back.sigma2 == pytest.approx(sigma2, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            MaternSpec(sigma2=0.0, alpha=1.0, nu=0.5)
        with pytest.raises(ValueError):
            MaternSpec(sigma2=1.0, alpha=-1.0, nu=0.5)
        with pytest.raises(ValueError):
            MaternSpec.from_theta(-1.0, 1.0, 0.5)
        for bad in (np.inf, np.nan):
            for args in ((bad, 1.0, 0.5), (1.0, bad, 0.5), (1.0, 1.0, bad)):
                with pytest.raises(ValueError, match="positive finite parameters"):
                    MaternSpec(*args)


class TestSpectralDensity:
    def test_known_value_d1(self):
        spec = MaternSpec(sigma2=1.0, alpha=1.0, nu=0.5)
        assert spectral_density(spec, 1, 0.0) == pytest.approx(1.0 / np.pi, rel=1e-14)

    def test_linear_in_sigma2(self, rng):
        for _ in range(50):
            alpha = 10 ** rng.uniform(-1, 1)
            nu = rng.uniform(0.2, 3.0)
            d = int(rng.integers(1, 4))
            w = rng.uniform(0, 10)
            one = spectral_density(MaternSpec(1.0, alpha, nu), d, w)
            two = spectral_density(MaternSpec(2.0, alpha, nu), d, w)
            assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_matched_theta_ratio_bounds(self, rng):
        # spectral ratio of a matched-theta pair is pinched between the
        # endpoint power ratios, for 1e4 random (alpha, omega) pairs
        theta0 = 0.5
        for d in (1, 2, 3):
            nu = float(rng.uniform(0.2, 3.0))
            alpha0 = float(10 ** rng.uniform(-0.5, 0.5))
            f0 = MaternSpec.from_theta(theta0, alpha0, nu)
            alphas = 10 ** rng.uniform(-1, 1, 3400)
            omegas = 10 ** rng.uniform(-3, 3, 3400)
            for alpha, w in zip(alphas, omegas):
                fa = MaternSpec.from_theta(theta0, float(alpha), nu)
                ratio = spectral_density(fa, d, float(w)) / spectral_density(f0, d, float(w))
                power = (alpha0 / alpha) ** (2 * nu + d)
                lo, hi = min(power, 1.0), max(power, 1.0)
                assert lo - 1e-12 <= ratio <= hi + 1e-12

    def test_integrates_to_variance_d1(self):
        # covariance at lag zero: the spectral density integrates to sigma2
        for sigma2, alpha, nu in [(1.0, 1.0, 0.5), (2.0, 0.7, 1.5), (0.5, 2.0, 2.5)]:
            spec = MaternSpec(sigma2, alpha, nu)
            val, _ = integrate.quad(lambda w: spectral_density(spec, 1, w), 0, np.inf,
                                    limit=200)
            assert 2.0 * val == pytest.approx(sigma2, abs=1e-6)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            spectral_density(MaternSpec(1.0, 1.0, 0.5), 4, 0.0)
