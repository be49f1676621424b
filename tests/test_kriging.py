import numpy as np
import pytest

from fixedgp.experiments import gen_lhs_testpoints
from fixedgp.gp import Design, GpDataset
from fixedgp.kernels import MaternSpec, matern_correlation
from fixedgp.kriging import (
    CoincidentTestPointError,
    DenseMseFactors,
    MseBreakdown,
    OuMseFactors,
    PredictionQuery,
    blup,
    efficiency_ratios,
    mse_breakdown,
    sym_kl_finite,
    sym_kl_limit,
)
from conftest import efficiency_envelope


def random_design(n, d, rng):
    return Design(points=rng.uniform(0, 1, (n, d)))


def equispaced(n):
    return Design(points=(np.arange(1, n + 1) / n)[:, None])


class TestBlup:
    def test_interpolates_near_design_point(self, rng):
        d = random_design(8, 1, rng)
        x = rng.standard_normal(8)
        data = GpDataset(design=d, x=x)
        s = d.points[3, 0] + 1e-9
        pred = blup(data, 1.0, 0.5, PredictionQuery(s_star=np.array([s])))
        assert pred == pytest.approx(x[3], abs=1e-6)

    def test_single_point_scalar_algebra(self, rng):
        d = Design(points=np.array([[0.4]]))
        data = GpDataset(design=d, x=np.array([2.5]))
        q = PredictionQuery(s_star=np.array([0.7]))
        rho = matern_correlation(1.2, 1.5, 0.3)
        assert blup(data, 1.2, 1.5, q) == pytest.approx(rho * 2.5, rel=1e-12)

    def test_scale_invariance(self, rng):
        d = random_design(6, 2, rng)
        x = rng.standard_normal(6)
        q = PredictionQuery(s_star=rng.uniform(0, 1, 2))
        base = blup(GpDataset(design=d, x=x), 0.9, 0.5, q)
        scaled = blup(GpDataset(design=d, x=3.0 * x), 0.9, 0.5, q)
        assert scaled / 3.0 == pytest.approx(base, rel=1e-12)

    def test_rejects_coincident_point(self, rng):
        d = random_design(5, 1, rng)
        data = GpDataset(design=d, x=np.zeros(5))
        with pytest.raises(CoincidentTestPointError):
            blup(data, 1.0, 0.5, PredictionQuery(s_star=d.points[0].copy()))


class TestMseBreakdown:
    def test_identity_case_zero_ratios(self, rng):
        d = random_design(7, 1, rng)
        spec = MaternSpec(1.0, 0.8, 0.5)
        q = PredictionQuery(s_star=np.array([0.55]))
        br = mse_breakdown(d, 0.5, spec, spec, q)
        assert br.mse_assumed == pytest.approx(br.mse_under_truth, rel=1e-10)
        assert br.mse_assumed == pytest.approx(br.mse_oracle, rel=1e-10)
        r = efficiency_ratios(br)
        assert r.r1 == pytest.approx(0.0, abs=1e-10)
        assert r.r2 == pytest.approx(0.0, abs=1e-10)

    def test_single_point_closed_form(self):
        d = Design(points=np.array([[0.2]]))
        spec = MaternSpec(1.0, 1.0, 0.5)
        q = PredictionQuery(s_star=np.array([0.2 + np.log(2.0)]))
        br = mse_breakdown(d, 0.5, spec, spec, q)
        assert br.mse_assumed == pytest.approx(0.75, rel=1e-12)

    def test_monte_carlo_oracle(self, rng):
        # simulate (X_n, X(s*)) under the truth and check the predictive
        # squared error against the closed-form value, n = 5, 1e6 draws
        d = random_design(5, 1, rng)
        truth = MaternSpec(1.0, 0.5, 0.5)
        assumed = MaternSpec(0.5 / 1.3, 1.3, 0.5)
        s = np.array([0.47])
        q = PredictionQuery(s_star=s)
        br = mse_breakdown(d, 0.5, assumed, truth, q)

        pts = np.vstack([d.points, s[None, :]])
        dist = np.abs(pts[:, None, 0] - pts[None, :, 0])
        cov = truth.sigma2 * np.exp(-truth.alpha * dist)
        chol = np.linalg.cholesky(cov)
        r_assumed = matern_correlation(assumed.alpha, 0.5, dist[:5, 5])
        w = np.linalg.solve(np.exp(-assumed.alpha * dist[:5, :5]), r_assumed)
        n_draws = 10**6
        z = np.random.default_rng(321).standard_normal((n_draws, 6))
        paths = z @ chol.T
        err = paths[:, :5] @ w - paths[:, 5]
        e2 = err**2
        mc = e2.mean()
        mc_se = e2.std(ddof=1) / np.sqrt(n_draws)
        assert abs(br.mse_under_truth - mc) < 3 * mc_se

    def test_oracle_optimality_and_positivity(self, rng):
        truth = MaternSpec(1.0, 0.5, 0.5)
        for _ in range(25):
            d = random_design(10, int(rng.integers(1, 3)), rng)
            alpha = float(10 ** rng.uniform(-0.5, 0.7))
            assumed = MaternSpec.from_theta(truth.theta, alpha, 0.5)
            q = PredictionQuery(s_star=rng.uniform(0, 1, d.d))
            br = mse_breakdown(d, 0.5, assumed, truth, q)
            assert br.mse_under_truth >= br.mse_oracle - 1e-10
            assert 0 < br.mse_assumed <= assumed.sigma2
            assert 0 < br.mse_oracle <= truth.sigma2

    def test_validates_matching_nu(self, rng):
        d = random_design(4, 1, rng)
        with pytest.raises(ValueError):
            mse_breakdown(d, 0.5, MaternSpec(1, 1, 1.5), MaternSpec(1, 1, 0.5),
                          PredictionQuery(s_star=np.array([0.5])))


class TestEfficiencyRatios:
    def test_hand_values(self):
        br = MseBreakdown(mse_assumed=2.0, mse_under_truth=1.0, mse_oracle=1.0)
        r = efficiency_ratios(br)
        assert (r.r1, r.r2) == (1.0, 1.0)
        assert r.varsigma_hat == 1.0

    def test_matched_theta_ratio_decreases_with_n(self):
        # theta-matched misspecified model on an OU grid: the deviation
        # shrinks as the design fills in
        truth = MaternSpec(1.0, 0.5, 0.5)
        assumed = MaternSpec.from_theta(truth.theta, 1.5, 0.5)
        r1 = {}
        for n in (50, 400):
            d = equispaced(n)
            q = PredictionQuery(s_star=np.array([1.0 / (2 * n) + 1e-4]))
            br = mse_breakdown(d, 0.5, assumed, truth, q)
            r1[n] = efficiency_ratios(br).r1
        assert r1[400] < r1[50]


class TestEfficiencyEnvelope:
    def test_zero_at_truth(self, rng):
        truth = MaternSpec(1.0, 0.5, 0.5)
        d = random_design(12, 1, rng)
        pts = [PredictionQuery(s_star=rng.uniform(0, 1, 1)) for _ in range(5)]
        assert efficiency_envelope(d, 0.5, 0.5, truth, pts) == pytest.approx(0.0, abs=1e-9)

    def test_decreases_with_n(self, rng):
        truth = MaternSpec(1.0, 0.5, 0.5)
        base = rng.uniform(0.01, 0.99, 25)
        pts = [PredictionQuery(s_star=np.array([s])) for s in base]
        vals = {}
        for n in (100, 400):
            vals[n] = efficiency_envelope(equispaced(n), 0.5, 1.0, truth, pts)
        assert vals[400] < vals[100]

    def test_single_point_equals_direct_max(self, rng):
        truth = MaternSpec(1.0, 0.5, 0.5)
        d = random_design(9, 1, rng)
        q = PredictionQuery(s_star=np.array([0.315]))
        assumed = MaternSpec.from_theta(truth.theta, 2.0, 0.5)
        br = mse_breakdown(d, 0.5, assumed, truth, q)
        direct = max(abs(br.mse_assumed / br.mse_under_truth - 1),
                     abs(br.mse_assumed / br.mse_oracle - 1))
        assert efficiency_envelope(d, 0.5, 2.0, truth, [q]) == pytest.approx(direct, rel=1e-12)

    def test_empty_test_set(self, rng):
        with pytest.raises(ValueError):
            efficiency_envelope(random_design(5, 1, rng), 0.5, 1.0,
                                MaternSpec(1, 0.5, 0.5), [])

    def test_envelope_decay_rate(self, rng):
        # the envelope over a fixed test set decays roughly like 1/n on the
        # filling OU grid (same mechanism as the KL-gap bound)
        truth = MaternSpec(1.0, 0.5, 0.5)
        base = rng.uniform(0.01, 0.99, 30)
        pts = [PredictionQuery(s_star=np.array([s])) for s in base]
        ns = np.array([100, 200, 400])
        vals = np.array([efficiency_envelope(equispaced(n), 0.5, 1.0, truth, pts)
                         for n in ns])
        slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
        assert slope <= -0.8


class TestSymKl:
    def test_zero_at_alpha0(self):
        d = equispaced(60)
        assert sym_kl_finite(d, 0.5, 0.7, 0.7) == pytest.approx(0.0, abs=1e-8)

    def test_limit_value_and_symmetry(self):
        assert sym_kl_limit(1.0, 0.5) == pytest.approx(0.4375, rel=1e-14)
        assert sym_kl_limit(1.0, 0.5) == sym_kl_limit(0.5, 1.0)
        assert sym_kl_limit(0.5, 0.5) == 0.0

    def test_monotone_in_n(self):
        r100 = sym_kl_finite(equispaced(100), 0.5, 1.0, 0.5)
        r200 = sym_kl_finite(equispaced(200), 0.5, 1.0, 0.5)
        assert r200 >= r100 - 1e-8

    def test_gap_shrinks_like_one_over_n(self):
        ns = np.array([100, 200, 400, 800])
        gaps = np.array([sym_kl_limit(1.0, 0.5) - sym_kl_finite(equispaced(n), 0.5, 1.0, 0.5)
                         for n in ns])
        slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        assert -1.3 <= slope <= -0.7

    def test_general_nu_gated(self):
        d = equispaced(10)
        with pytest.raises(ValueError):
            sym_kl_finite(d, 1.5, 1.0, 0.5)

    def test_report_gap_nonnegative(self):
        r_n = sym_kl_finite(equispaced(150), 0.5, 2.0, 0.5)
        assert sym_kl_limit(2.0, 0.5) - r_n >= -1e-8
        assert r_n >= 0

    def test_stein_bound_on_mse_ratio(self):
        # matched-theta OU pair: the truth-vs-assumed MSE ratio deviation is
        # bounded by four times the remaining KL gap
        truth = MaternSpec(1.0, 0.5, 0.5)
        for alpha in (0.8, 1.5):
            assumed = MaternSpec.from_theta(truth.theta, alpha, 0.5)
            for n in (50, 100, 200):
                d = equispaced(n)
                gap = sym_kl_limit(alpha, 0.5) - sym_kl_finite(d, 0.5, alpha, 0.5)
                test_pts = np.linspace(0.5 / n + 1e-5, 1.0 - 0.5 / n, 40)
                worst = 0.0
                for s in test_pts:
                    br = mse_breakdown(d, 0.5, assumed, truth,
                                       PredictionQuery(s_star=np.array([s])))
                    worst = max(worst, abs(br.mse_under_truth / br.mse_assumed - 1.0))
                assert worst <= 4.0 * gap + 1e-8


class TestOuMseProfiles:
    def test_matches_dense_breakdown(self, rng):
        # interior and boundary test points, random perturbed grid
        n = 40
        pts = np.sort(rng.uniform(0.05, 0.95, n))
        d = Design(points=pts[:, None])
        truth = MaternSpec(1.0, 0.5, 0.5)
        alpha = 1.7
        sigma2 = truth.theta / alpha
        assumed = MaternSpec(sigma2, alpha, 0.5)
        test_points = np.array([0.01, 0.5 * (pts[3] + pts[4]), pts[10] + 1e-4, 0.99])
        factors = OuMseFactors(pts, truth.alpha, test_points)
        (m, q), m0 = factors(np.array([alpha])), factors.m0
        for k, s in enumerate(test_points):
            br = mse_breakdown(d, 0.5, assumed, truth, PredictionQuery(s_star=np.array([s])))
            assert sigma2 * m[0, k] == pytest.approx(br.mse_assumed, rel=1e-10)
            assert truth.sigma2 * q[0, k] == pytest.approx(br.mse_under_truth, rel=1e-10)
            assert truth.sigma2 * m0[k] == pytest.approx(br.mse_oracle, rel=1e-10)
        # the OU factors against the dense ones, on LHS test points; the
        # dense 1 - r' R^{-1} r carries an absolute round-off near 1e-13,
        # which is most of a factor of 1e-5 next to a design point
        lhs = np.array([q.s_star for q in gen_lhs_testpoints(1, 300, 4, d)])
        ou = OuMseFactors(pts, truth.alpha, lhs[:, 0])
        dense = DenseMseFactors(d, 0.5, truth.alpha, lhs)
        np.testing.assert_allclose(ou.m0, dense.m0, rtol=1e-10, atol=1e-11)
        alphas = np.array([0.1, 0.7, 1.7, 3.0, 20.0])
        for got, want in zip(ou(alphas), dense(alphas)):
            assert got.shape == (alphas.shape[0], lhs.shape[0])
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-11)

    def test_rows_of_a_batch_equal_single_calls(self, rng):
        # every OU factor operation is elementwise, so row b of a call with B
        # alphas is bit for bit the call with alpha b alone; the dense rows
        # are single calls by construction
        pts = np.sort(rng.uniform(0.05, 0.95, 60))
        tp = np.concatenate([[0.01, 0.99], rng.uniform(0.0, 1.0, 997)])
        ou = OuMseFactors(pts, 0.5, tp)
        dense = DenseMseFactors(Design(points=pts[:, None]), 0.5, 0.5, tp[:, None])
        alphas = np.exp(rng.uniform(-3.0, 3.0, 17))
        for factors in (ou, dense):
            batch = factors(alphas)
            for b in range(alphas.shape[0]):
                for got, want in zip(batch, factors(alphas[b:b + 1])):
                    assert np.array_equal(got[b], want[0])

    def test_rejects_coincident(self, rng):
        pts = np.sort(rng.uniform(0, 1, 10))
        with pytest.raises(CoincidentTestPointError):
            OuMseFactors(pts, 0.5, np.array([pts[2]]))
        with pytest.raises(CoincidentTestPointError):
            DenseMseFactors(Design(points=pts[:, None]), 0.5, 0.5, pts[2:3, None])
