"""Desk-scale reproduction gates.

Each criterion prints a pass/fail line (echoed in the terminal summary).
Criteria 1-4 and 6 run the full seeded simulation protocol and take a few
minutes on four cores; criterion 5 is the fast property suite.
"""

import numpy as np
import pytest

from conftest import record_criterion
from fixedgp.diagnostics import w2_distance
from fixedgp.experiments import (
    ExperimentConfig,
    aggregate,
    lambda_check_sweep,
    run_table1,
    run_table2,
    run_table3,
)
from fixedgp.gp import Design, GpDataset, OuEngine, build_correlation_matrix
from fixedgp.kernels import MaternSpec
from fixedgp.kriging import mse_breakdown, sym_kl_finite, sym_kl_limit

pytestmark = pytest.mark.slow


def _cell(rows, n, key):
    for row in rows:
        if row["n"] == n:
            return row[key]
    raise KeyError(n)


@pytest.fixture(scope="module")
def table1_full(tmp_path_factory):
    """100 replications at n in {50, 100, 400} plus 20 at {25, 200}; the
    per-replication seeds depend only on (master_seed, d, n, rep), so the
    split is equivalent to one full run."""
    out = tmp_path_factory.mktemp("accept_t1")
    cfg_a = ExperimentConfig(n_values=(50, 100, 400), n_replications=100,
                             output_dir=str(out / "a"))
    res_a, _ = run_table1(cfg_a)
    cfg_b = ExperimentConfig(n_values=(25, 200), n_replications=20,
                             output_dir=str(out / "b"))
    res_b, _ = run_table1(cfg_b)
    return res_a + res_b


class TestCriterion1TableOneReproduction:
    def test_theta_mean_and_w2_cells(self, table1_full):
        rows = aggregate([r for r in table1_full if r.n in (100, 400)])
        e100 = _cell(rows, 100, "e_theta")
        e400 = _cell(rows, 400, "e_theta")
        w100 = _cell(rows, 100, "w2_theta")
        w400 = _cell(rows, 400, "w2_theta")
        ok = (abs(e100 - 0.5390) <= 0.025 and abs(e400 - 0.4993) <= 0.012
              and abs(w100 - 0.0382) <= 0.008 and abs(w400 - 0.0085) <= 0.003)
        record_criterion(
            "criterion 1 (Table 1, d=1, 100 reps)", ok,
            f"E(theta)@100={e100:.4f} (target 0.5390+/-0.025), "
            f"E(theta)@400={e400:.4f} (0.4993+/-0.012), "
            f"W2(theta)@100={w100:.4f} (0.0382+/-0.008), "
            f"W2(theta)@400={w400:.4f} (0.0085+/-0.003)")
        assert abs(e100 - 0.5390) <= 0.025
        assert abs(e400 - 0.4993) <= 0.012
        assert abs(w100 - 0.0382) <= 0.008
        assert abs(w400 - 0.0085) <= 0.003


@pytest.fixture(scope="module")
def table2_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_t2")
    cfg = ExperimentConfig(d=2, likelihood="dense", m_values=(10,),
                           n_replications=100, output_dir=str(out))
    _, rows = run_table2(cfg)
    return rows


class TestCriterion2TableTwoSpotCheck:
    def test_d2_theta_mean(self, table2_rows):
        e = _cell(table2_rows, 100, "e_theta")
        ok = abs(e - 0.5271) <= 0.055
        record_criterion("criterion 2 (Table 2 E(theta), d=2, n=100)", ok,
                         f"E(theta)={e:.4f} (target 0.5271+/-0.055)")
        assert ok

    def test_d2_w2_theta(self, table2_rows):
        # Known-red reproduction gap: the exact d=2 posterior (2-d quadrature,
        # MCMC-free) gives mean W2(theta) = 0.0465 over 100 replications of
        # this protocol, so the 0.0291 +/- 0.01 target is not attainable by a
        # correct sampler; see the reviewer notes for the full analysis.
        w = _cell(table2_rows, 100, "w2_theta")
        ok = abs(w - 0.0291) <= 0.01
        record_criterion("criterion 2 (Table 2 W2(theta), d=2, n=100)", ok,
                         f"W2(theta)={w:.4f} (target 0.0291+/-0.01; exact-posterior "
                         f"value of this statistic is 0.0465)")
        assert ok


class TestCriterion3TableThreeSpotCheck:
    def test_max_ratio_cells(self, tmp_path):
        cfg = ExperimentConfig(n_values=(50, 100, 200), n_replications=40,
                               output_dir=str(tmp_path))
        _, rows = run_table3(cfg)
        targets = {50: 0.3195, 100: 0.1956, 200: 0.1337}
        vals = {n: _cell(rows, n, "max_r1") for n in targets}
        ok = all(abs(vals[n] - t) <= 0.03 for n, t in targets.items())
        ok = ok and vals[50] > vals[100] > vals[200]
        record_criterion(
            "criterion 3 (Table 3 spot-check, d=1)", ok,
            ", ".join(f"E[max r1]@{n}={vals[n]:.4f} (target {t}+/-0.03)"
                      for n, t in targets.items()))
        for n, t in targets.items():
            assert abs(vals[n] - t) <= 0.03
        assert vals[50] > vals[100] > vals[200]


class TestCriterion4AlphaNonconvergence:
    def test_alpha_spread_persists_theta_tightens(self, table1_full):
        rows = aggregate(table1_full)
        alpha_sds = {n: _cell(rows, n, "e_alpha_sd") for n in (50, 100, 200, 400)}
        th50 = _cell(rows, 50, "e_theta_sd")
        th400 = _cell(rows, 400, "e_theta_sd")
        ok = all(sd >= 0.5 for sd in alpha_sds.values()) and th50 >= 2.0 * th400
        record_criterion(
            "criterion 4 (alpha non-convergence)", ok,
            f"sd(E(alpha)) over n: " +
            ", ".join(f"{n}:{alpha_sds[n]:.2f}" for n in sorted(alpha_sds)) +
            f"; sd(E(theta)) 50->400: {th50:.4f}->{th400:.4f} "
            f"(shrink x{th50 / th400:.2f} >= 2)")
        for n, sd in alpha_sds.items():
            assert sd >= 0.5, f"cross-rep sd of E(alpha) at n={n} is {sd}"
        assert th50 >= 2.0 * th400


class TestCriterion5PropertySuite:
    def test_5a_theta_tilde_monotone(self):
        rng = np.random.default_rng(55)
        alphas = np.logspace(-3, 3, 50)
        truth = MaternSpec(1.0, 0.5, 0.5)
        worst = 0.0
        for k in range(20):
            n = int(rng.integers(20, 80))
            pts = np.sort(rng.uniform(0, 1, n))
            r = np.exp(-truth.alpha * np.abs(pts[:, None] - pts[None, :]))
            x = np.linalg.cholesky(r) @ rng.standard_normal(n)
            data = GpDataset(design=Design(points=pts[:, None]), x=x)
            engine = OuEngine(data)
            tt = np.array([engine.profile(a).theta_tilde for a in alphas])
            rel = np.diff(tt) / tt[1:]
            worst = min(worst, rel.min()) if rel.size else worst
            assert np.all(np.diff(tt) >= -1e-10 * tt[1:])
        record_criterion("criterion 5a (theta_tilde monotone in alpha)", True,
                         f"20 datasets x 50-point grids, worst relative dip {worst:.1e}")

    def test_5b_ou_closed_forms(self):
        worst_inv, worst_det = 0.0, 0.0
        for n in range(2, 11):
            for alpha in (0.3, 0.9, 2.7):
                pts = np.arange(1, n + 1) / n
                r = build_correlation_matrix(Design(points=pts[:, None]), alpha, 0.5)
                e1, e2 = np.exp(-alpha / n), np.exp(-2 * alpha / n)
                inv = np.zeros((n, n))
                for i in range(n):
                    inv[i, i] = 1 / (1 - e2) if i in (0, n - 1) else (1 + e2) / (1 - e2)
                for i in range(n - 1):
                    inv[i, i + 1] = inv[i + 1, i] = -e1 / (1 - e2)
                worst_inv = max(worst_inv, np.max(np.abs(np.linalg.inv(r) - inv)))
                worst_det = max(worst_det, abs(np.linalg.slogdet(r)[1]
                                               - (n - 1) * np.log(1 - e2)))
        ok = worst_inv <= 1e-10 and worst_det <= 1e-10
        record_criterion("criterion 5b (OU closed-form inverse/determinant)", ok,
                         f"max inverse err {worst_inv:.1e}, max logdet err {worst_det:.1e}")
        assert ok

    def test_5c_lambda_bounds(self):
        rows = lambda_check_sweep(50, seed=505, n=30, d=1)
        ok = all(r["ok"] for r in rows)
        record_criterion("criterion 5c (generalized spectrum inside bounds)", ok,
                         f"{sum(r['ok'] for r in rows)}/{len(rows)} instances")
        assert ok

    def test_5d_sym_kl_behavior(self):
        d60 = Design(points=(np.arange(1, 61) / 60)[:, None])
        exact_zero = sym_kl_finite(d60, 0.8, 0.8)
        ns = np.array([100, 200, 400, 800])
        rns = np.array([sym_kl_finite(Design(points=(np.arange(1, n + 1) / n)[:, None]),
                                      1.0, 0.5) for n in ns])
        gaps = sym_kl_limit(1.0, 0.5) - rns
        slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
        ok = (abs(exact_zero) < 1e-10 and np.all(np.diff(rns) > 0)
              and -1.3 <= slope <= -0.7)
        record_criterion("criterion 5d (symmetrized KL)", ok,
                         f"r_n(alpha0)={exact_zero:.1e}, increasing in n, "
                         f"gap log-log slope {slope:.3f} in [-1.3, -0.7]")
        assert ok

    def test_5e_w2_properties(self):
        rng = np.random.default_rng(77)
        tri_ok = True
        for _ in range(1000):
            a, b, c = (rng.standard_normal(25) for _ in range(3))
            dab, dac, dcb = w2_distance(a, b), w2_distance(a, c), w2_distance(c, b)
            tri_ok &= dab == w2_distance(b, a)
            tri_ok &= dab <= dac + dcb + 1e-12
        m = 10**5
        shift = abs(w2_distance(rng.normal(0, 1, m), rng.normal(0.7, 1, m)) - 0.7)
        ok = bool(tri_ok and shift < 0.02)
        record_criterion("criterion 5e (W2 metric + normal shift identity)", ok,
                         f"triangle/symmetry on 1000 triples, |W2 - mu| = {shift:.4f} < 0.02")
        assert ok

    def test_5f_mse_monte_carlo(self):
        rng = np.random.default_rng(99)
        design = Design(points=np.sort(rng.uniform(0, 1, 5))[:, None])
        truth = MaternSpec(1.0, 0.5, 0.5)
        assumed = MaternSpec.from_theta(truth.theta, 1.4, 0.5)
        s = np.array([0.43])
        (mse_under_truth,) = mse_breakdown(design, assumed, truth, s[None, :]).mse_under_truth
        pts = np.vstack([design.points, s[None, :]])
        dist = np.abs(pts[:, None, 0] - pts[None, :, 0])
        chol = np.linalg.cholesky(truth.sigma2 * np.exp(-truth.alpha * dist))
        w = np.linalg.solve(np.exp(-assumed.alpha * dist[:5, :5]),
                            np.exp(-assumed.alpha * dist[:5, 5]))
        z = np.random.default_rng(100).standard_normal((10**6, 6))
        paths = z @ chol.T
        e2 = (paths[:, :5] @ w - paths[:, 5]) ** 2
        mc, se = e2.mean(), e2.std(ddof=1) / 1e3
        ok = abs(mse_under_truth - mc) < 3 * se
        record_criterion("criterion 5f (MSE vs 1e6-draw Monte Carlo)", ok,
                         f"closed form {mse_under_truth:.6f}, MC {mc:.6f} "
                         f"(3 MC SE = {3 * se:.6f})")
        assert ok

    def test_5g_bessel_half_integer(self):
        from test_kernels import bessel_k_quadrature
        from fixedgp.kernels import bessel_k
        worst = 0.0
        for nu in (0.5, 1.5, 2.5):
            for x in (0.01, 0.3, 1.0, 5.0, 30.0):
                q = bessel_k_quadrature(nu, x)
                worst = max(worst, abs(bessel_k(nu, x) - q) / q)
        ok = worst <= 1e-10
        record_criterion("criterion 5g (Bessel closed forms vs quadrature)", ok,
                         f"worst relative error {worst:.1e} <= 1e-10")
        assert ok


class TestCriterion6BvmTrend:
    def test_w2_theta_decreasing(self, table1_full):
        # first 20 replications at each n (seed-identical to a 20-rep run)
        sub = [r for r in table1_full if r.rep_index < 20]
        rows = aggregate(sub)
        ns = (25, 50, 100, 200, 400)
        w2s = [_cell(rows, n, "w2_theta") for n in ns]
        diffs = np.diff(w2s)
        inversions = int(np.sum(diffs > 0))
        ok = inversions <= 1
        record_criterion(
            "criterion 6 (BvM W2 trend over n)", ok,
            "W2(theta): " + ", ".join(f"{n}:{w:.4f}" for n, w in zip(ns, w2s))
            + f"; adjacent inversions = {inversions} (allowed <= 1)")
        assert ok
