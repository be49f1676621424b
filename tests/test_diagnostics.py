import numpy as np
import pytest

from fixedgp.diagnostics import generalized_lambdas, w2_distance
from fixedgp.gp import DenseEngine, Design, GpDataset, build_correlation_matrix


class TestW2Distance:
    def test_identical_samples(self, rng):
        a = rng.standard_normal(100)
        assert w2_distance(a, a.copy()) == 0.0

    def test_hand_example(self):
        assert w2_distance(np.array([0.0, 2.0]), np.array([1.0, 3.0])) == pytest.approx(1.0)

    def test_translation_equivariance(self, rng):
        a = rng.standard_normal(500)
        for c in (-2.3, 0.7):
            assert w2_distance(a, a + c) == pytest.approx(abs(c), rel=1e-12)

    def test_symmetry_and_triangle_inequality(self, rng):
        for _ in range(1000):
            a = rng.standard_normal(30)
            b = rng.standard_normal(30) * rng.uniform(0.5, 2.0)
            c = rng.standard_normal(30) + rng.uniform(-1, 1)
            dab = w2_distance(a, b)
            assert dab == w2_distance(b, a)
            assert dab <= w2_distance(a, c) + w2_distance(c, b) + 1e-12

    def test_normal_mean_shift_identity(self, rng):
        # equal-variance normals: W2 equals the absolute mean difference
        mu = 0.8
        m = 10**5
        a = rng.standard_normal(m)
        b = rng.standard_normal(m) + mu
        assert abs(w2_distance(a, b) - mu) < 0.02

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            w2_distance(np.zeros(3), np.zeros(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            w2_distance(np.array([0.0, np.inf]), np.zeros(2))


class TestGeneralizedLambdas:
    def test_identity_at_alpha0(self, rng):
        d = Design(points=rng.uniform(0, 1, (20, 1)))
        lambdas = generalized_lambdas(d, 0.5, 0.7, 0.7, 0.5)
        assert np.max(np.abs(lambdas - 1.0)) < 1e-10

    def test_power_ratio_bounds(self, rng):
        # matched-theta pair spectrum between the endpoint power ratios
        for _ in range(50):
            d_dim = int(rng.integers(1, 3))
            n = int(rng.integers(5, 51))
            design = Design(points=rng.uniform(0, 1, (n, d_dim)))
            nu = float(rng.choice([0.5, 1.5]))
            alpha = float(10 ** rng.uniform(-0.5, 0.5))
            alpha0 = float(10 ** rng.uniform(-0.5, 0.5))
            lambdas = generalized_lambdas(design, nu, alpha, alpha0, 0.5)
            ratio = (alpha0 / alpha) ** (2 * nu + d_dim)
            lo, hi = min(ratio, 1.0), max(ratio, 1.0)
            assert lambdas.min() >= lo - 1e-8
            assert lambdas.max() <= hi + 1e-8

    def test_three_by_three_characteristic_polynomial_oracle(self, rng):
        # independent route: fit det(A - lambda B) exactly from 4 evaluations
        # and take its roots
        design = Design(points=np.array([[0.1], [0.45], [0.8]]))
        nu, alpha, alpha0, theta0 = 0.5, 1.4, 0.6, 0.5
        sigma2 = theta0 / alpha ** (2 * nu)
        sigma2_0 = theta0 / alpha0 ** (2 * nu)
        a = sigma2 * build_correlation_matrix(design, alpha, nu)
        b = sigma2_0 * build_correlation_matrix(design, alpha0, nu)
        lam_eval = np.array([0.0, 0.5, 1.0, 2.0])
        dets = np.array([np.linalg.det(a - l * b) for l in lam_eval])
        coeffs = np.polyfit(lam_eval, dets, 3)
        roots = np.sort(np.roots(coeffs).real)
        lambdas = generalized_lambdas(design, nu, alpha, alpha0, theta0)
        assert np.allclose(lambdas, roots, rtol=1e-8)

    def test_whitened_reconstruction_identity(self, rng):
        # n (theta_tilde(alpha) - theta_tilde(alpha0)) / theta0 equals
        # sum (1/lambda_k - 1) y_k^2 for the whitened data
        n = 25
        pts = np.sort(rng.uniform(0, 1, n))
        design = Design(points=pts[:, None])
        theta0, alpha0, nu = 0.5, 0.5, 0.5
        sigma2_0 = theta0 / alpha0
        r0 = build_correlation_matrix(design, alpha0, nu)
        x = np.linalg.cholesky(sigma2_0 * r0) @ rng.standard_normal(n)
        data = GpDataset(design=design, x=x)
        engine = DenseEngine(data, nu)
        l0 = np.linalg.cholesky(sigma2_0 * r0)
        for alpha in (0.3, 1.1, 2.4):
            lambdas = generalized_lambdas(design, nu, alpha, alpha0, theta0)
            # whitened coordinates V' L0^{-1} x, V the eigenvectors of the
            # whitened pair in the ascending order of the spectrum
            sigma2 = theta0 / alpha ** (2 * nu)
            whitened = np.linalg.solve(l0, np.linalg.solve(l0, sigma2 * build_correlation_matrix(
                design, alpha, nu)).T)
            _, vec = np.linalg.eigh(0.5 * (whitened + whitened.T))
            y = vec.T @ np.linalg.solve(l0, x)
            lhs = n * (engine.profile(alpha).theta_tilde
                       - engine.profile(alpha0).theta_tilde) / theta0
            rhs = np.sum((1.0 / lambdas - 1.0) * y**2)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_spectrum_sorted_positive(self, rng):
        d = Design(points=rng.uniform(0, 1, (15, 2)))
        lambdas = generalized_lambdas(d, 1.5, 2.0, 0.5, 0.5)
        assert np.all(lambdas > 0)
        assert np.all(np.diff(lambdas) >= 0)
