import json
import logging
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg as sp_linalg, stats as sp_stats

from fixedgp import experiments
from fixedgp.experiments import (
    ExperimentConfig,
    FailureBudgetExceededError,
    emit_contour_grid,
    gen_lhs_testpoints,
    gen_perturbed_grid,
    kl_check_sweep,
    lambda_check_sweep,
    run_table1,
    run_table3,
    sample_gp_path,
    _chain_init,
    _seed_seq,
)
from fixedgp.gp import (Design, NotPositiveDefiniteError, build_correlation_matrix, cholesky,
                        likelihood_engine, ou_profile_stats, profile_stats)
from fixedgp.kernels import MaternSpec, matern_correlation
from fixedgp.posterior import joint_target, log_joint_posterior, rwm_chains
from conftest import per_draw_mean_max_ratios, sample_ou_path_markov


TINY = dict(n_samples=300, n_burnin=100, n_replications=2, n_workers=1,
            n_test_points=20)


class TestPerturbedGrid:
    def test_zero_noise_midpoints(self):
        d = gen_perturbed_grid(1, 2, seed=0, zero_noise=True)
        assert np.allclose(d.coords_1d, [0.25, 0.75])

    def test_gap_lower_bound(self):
        for n in (25, 100, 400):
            d = gen_perturbed_grid(1, n, seed=3)
            gaps = np.diff(d.coords_1d)
            assert gaps.min() >= 1.0 / n - 2 * 2e-4 - 1e-12

    def test_deterministic(self):
        a = gen_perturbed_grid(1, 50, seed=7)
        b = gen_perturbed_grid(1, 50, seed=7)
        assert np.array_equal(a.points, b.points)
        c = gen_perturbed_grid(1, 50, seed=8)
        assert not np.array_equal(a.points, c.points)

    def test_2d_grid_shape_and_noise(self):
        d = gen_perturbed_grid(2, 10, seed=1)
        assert d.points.shape == (100, 2)
        base = (2 * np.arange(1, 11) - 1) / 20.0
        gx, gy = np.meshgrid(base, base, indexing="ij")
        centers = np.column_stack([gx.ravel(), gy.ravel()])
        assert np.max(np.abs(d.points - centers)) <= 1e-3
        assert np.all((d.points >= 0) & (d.points <= 1))


class TestLhsTestpoints:
    def test_stratification_1d(self):
        pts = gen_lhs_testpoints(1, 4, seed=5)
        vals = np.sort([q.s_star[0] for q in pts])
        for k, v in enumerate(vals):
            assert k / 4.0 <= v < (k + 1) / 4.0

    def test_marginal_uniformity_2d(self):
        pts = gen_lhs_testpoints(2, 100, seed=9)
        arr = np.array([q.s_star for q in pts])
        for axis in range(2):
            hist, _ = np.histogram(arr[:, axis], bins=10, range=(0, 1))
            assert np.all(hist == 10)

    def test_deterministic_and_collision_free(self):
        design = gen_perturbed_grid(1, 30, seed=2)
        a = gen_lhs_testpoints(1, 50, seed=4, design=design)
        b = gen_lhs_testpoints(1, 50, seed=4, design=design)
        assert np.array_equal([q.s_star for q in a], [q.s_star for q in b])
        for q in a:
            assert np.min(np.abs(design.coords_1d - q.s_star[0])) > 0


class TestGpPathSampling:
    def test_marginal_variance_and_correlation(self):
        design = Design(points=np.array([[0.1], [0.3], [0.8], [0.9]]))
        truth = MaternSpec(1.0, 0.5, 0.5)
        draws = np.array([sample_gp_path(design, truth, seed).x for seed in range(10_000)])
        v = draws[:, 0].var()
        assert abs(v - truth.sigma2) < 0.05 * truth.sigma2
        got = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        expected = matern_correlation(0.5, 0.5, 0.2)
        assert abs(got - expected) < 0.02

    def test_markov_sampler_same_distribution(self):
        design = gen_perturbed_grid(1, 20, seed=6)
        truth = MaternSpec(1.0, 0.5, 0.5)
        last_chol = np.array([sample_gp_path(design, truth, s).x[-1] for s in range(10_000)])
        last_markov = np.array([sample_ou_path_markov(design, truth, 10_000 + s).x[-1]
                                for s in range(10_000)])
        p = sp_stats.ks_2samp(last_chol, last_markov).pvalue
        assert p > 0.01

    @pytest.mark.parametrize("d, n, nu", [(1, 40, 0.5), (2, 6, 1.5)])
    def test_path_bits_match_scipy_cholesky(self, d, n, nu):
        # the table hashes rest on these bits: the factor must reach the
        # matvec Fortran-ordered, as scipy's is (a C-ordered copy moves them)
        design = gen_perturbed_grid(d, n, seed=5)
        truth = MaternSpec(1.7, 0.9, nu)
        r = build_correlation_matrix(design, truth.alpha, truth.nu)
        z = np.random.default_rng(8).standard_normal(design.n)
        expected = (np.sqrt(truth.sigma2) * sp_linalg.cholesky(r, lower=True)) @ z
        assert np.array_equal(sample_gp_path(design, truth, 8).x, expected)

    def test_replication_streams_uncorrelated(self):
        # whitened innovations across replications: mean pairwise correlation
        # near zero and no duplicated streams
        design = gen_perturbed_grid(1, 100, seed=11)
        truth = MaternSpec(1.0, 0.5, 0.5)
        chol = cholesky(build_correlation_matrix(design, truth.alpha, truth.nu))
        innov = []
        for rep in range(100):
            x = sample_gp_path(design, truth, _seed_seq(12345, 1, 100, rep, 0, 2)).x
            innov.append(sp_linalg.solve_triangular(chol, x, lower=True))
        innov = np.array(innov)
        corr = np.corrcoef(innov)
        off = corr[np.triu_indices(100, k=1)]
        assert abs(off.mean()) < 0.05
        assert np.max(np.abs(off)) < 0.9


class TestTableRuns:
    def test_table1_tiny_and_deterministic(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        cfg1 = ExperimentConfig(n_values=(25,), output_dir=str(out1), **TINY)
        cfg2 = ExperimentConfig(n_values=(25,), output_dir=str(out2), **TINY)
        run_table1(cfg1)
        run_table1(cfg2)
        for name in ("table1.csv", "table1_replications.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        manifest = json.loads((out1 / "table1_manifest.json").read_text())
        assert manifest["table"] == "table1"
        assert manifest["replications"] == 2
        assert "config_hash" in manifest
        assert manifest["numpy"] == np.__version__
        for key in ("python", "scipy", "git_revision"):
            assert key in manifest
        rev = manifest["git_revision"]
        assert rev is None or re.fullmatch(r"[0-9a-f]{40}(-dirty)?", rev), rev

    def test_table1_different_seed_changes_output(self, tmp_path):
        cfg1 = ExperimentConfig(n_values=(25,), output_dir=str(tmp_path / "a"), **TINY)
        cfg2 = ExperimentConfig(n_values=(25,), output_dir=str(tmp_path / "b"),
                                master_seed=999, **TINY)
        _, rows1 = run_table1(cfg1)
        _, rows2 = run_table1(cfg2)
        assert rows1[0]["e_theta"] != rows2[0]["e_theta"]

    def test_table3_tiny_d1(self, tmp_path):
        # the OU and the dense MSE factors at d=1, and the dense ones at d=2
        # on thinned draws
        for label, sizes in (("ou", dict(n_values=(25,))),
                             ("dense", dict(n_values=(25,), likelihood="dense")),
                             ("d2", dict(d=2, m_values=(4,), mse_draw_thin=3))):
            out = tmp_path / label
            cfg = ExperimentConfig(output_dir=str(out), **sizes, **TINY)
            results, rows = run_table3(cfg)
            assert rows[0]["max_r1"] > 0, label
            assert rows[0]["max_r2"] > 0, label
            assert np.isfinite(rows[0]["max_r1_sd"]), label
            assert (out / "table3.csv").exists(), label

    def test_table3_nonpositive_dense_mse_factor_is_a_counted_failure(self, tmp_path, caplog):
        # the smooth kernel's 1 - r' R^{-1} r rounds to zero or below at some
        # test points of this config; those ratios used to become NaN table
        # cells in silence, and now every attempt is retried until the
        # replication exhausts its budget
        cfg = ExperimentConfig(nu=2.5, likelihood="dense", n_values=(60,), n_samples=600,
                               n_burnin=200, n_replications=3, n_test_points=100,
                               n_workers=1, output_dir=str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="fixedgp.experiments"):
            with pytest.raises(FailureBudgetExceededError, match="MSE factor") as exc:
                run_table3(cfg)
        assert not (tmp_path / "table3.csv").exists()
        assert "n=60, nu=2.5" in str(exc.value)
        assert "DegenerateDataError" in str(exc.value)
        # the last attempt of the failing replication says it gives up
        messages = [r.getMessage() for r in caplog.records]
        last = [m for m in messages if "last attempt 4" in m]
        assert len(last) == 1 and last[0].endswith("giving up"), messages
        assert not any("attempt 5" in m for m in messages), messages

    def test_exhausted_setup_names_n_nu_and_the_error(self, monkeypatch, caplog):
        # a replication whose data never factorizes: four retries, then the
        # budget error names the size, the smoothness and the pivot
        def npd(cfg, d, n_or_m, rep, attempt):
            raise NotPositiveDefiniteError(7)
        monkeypatch.setattr(experiments, "_setup_once", npd)
        cfg = ExperimentConfig(nu=1.5, **TINY)
        with caplog.at_level(logging.WARNING, logger="fixedgp.experiments"):
            with pytest.raises(FailureBudgetExceededError) as exc:
                experiments._setup(cfg, 1, 30, 2, 0)
        assert str(exc.value) == (
            "replication 2 at n=30, nu=1.5 failed 5 times; last error "
            "NotPositiveDefiniteError: matrix not positive definite at pivot 7")
        messages = [r.getMessage() for r in caplog.records]
        assert [m.endswith(f"retrying with attempt {a} seed")
                for a, m in enumerate(messages, start=1)] == [True] * 4 + [False]
        assert messages[-1].endswith("on its last attempt 4; giving up")

    def test_parallel_matches_serial(self, tmp_path):
        # serial: one block of 3 replications per size; 2 workers: blocks of
        # 2 and 1; 3 workers: blocks of one replication
        outs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            cfg = ExperimentConfig(n_values=(25, 40), output_dir=str(out),
                                   **dict(TINY, n_replications=3, n_workers=workers))
            run_table1(cfg)
            outs.append(out)
        for name in ("table1.csv", "table1_replications.csv"):
            for out in outs[1:]:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), (out, name)

    def test_only_ou_replications_share_a_block(self, monkeypatch):
        # serial OU: one lockstep block per size; dense: one replication per task
        seen = []
        monkeypatch.setattr(experiments, "_run_block",
                            lambda cfg, d, n_or_m, reps, ratios: seen.append(reps) or [])
        for likelihood, blocks in (("ou", [[0, 1, 2]]), ("dense", [[0], [1], [2]])):
            seen.clear()
            cfg = ExperimentConfig(likelihood=likelihood,
                                   **dict(TINY, n_replications=3, n_workers=1))
            experiments._run_replications(cfg, 1, (25,), False)
            assert seen == blocks, likelihood

    def test_retry_after_the_chains_reruns_the_replication_alone(self, tmp_path, monkeypatch):
        # a post-chain failure of replication 1 at attempt 0: the block run
        # writes the row a run of that replication alone writes, at attempt 1
        real = experiments._replication_result

        def patch():
            failed = []

            def flaky(cfg, d, setup, *args):
                if setup.rep == 1 and setup.attempt == 0 and not failed:
                    failed.append(setup.rep)
                    raise NotPositiveDefiniteError(3)
                return real(cfg, d, setup, *args)
            monkeypatch.setattr(experiments, "_replication_result", flaky)

        cfg = ExperimentConfig(n_values=(25,), output_dir=str(tmp_path / "block"),
                               **dict(TINY, n_replications=3))
        patch()
        results, _ = run_table1(cfg)
        assert [r.retries for r in results] == [0, 1, 0]
        patch()
        alone = experiments._run_block(cfg, 1, 25, [1], False)
        assert [r.retries for r in alone] == [1]
        experiments._write_replications(tmp_path / "alone.csv", alone)
        block_rows = (tmp_path / "block" / "table1_replications.csv").read_text().splitlines()
        alone_rows = (tmp_path / "alone.csv").read_text().splitlines()
        assert block_rows[2] == alone_rows[1]
        monkeypatch.setattr(experiments, "_replication_result", real)
        first_try = experiments._run_block(cfg, 1, 25, [1], False)
        assert first_try[0].retries == 0
        assert first_try[0].posterior_mean_theta != alone[0].posterior_mean_theta


def _joint_chain(cfg, d, n_or_m):
    """Replication 0's engine, joint chain and Table 3 test points."""
    setup = experiments._setup(cfg, d, n_or_m, 0, 0)
    chain, = rwm_chains(joint_target([setup.engine], cfg.prior), [setup.joint_cfg],
                        [setup.init])
    queries = gen_lhs_testpoints(d, cfg.test_point_count(d), 6, setup.design)
    return setup.engine, chain, queries


def _runs_chain(rng, n_runs, thin=1):
    """A chain of ``n_runs`` runs of identical draws (lengths 1 to 4, times
    ``thin``); consecutive runs differ in theta, in alpha or in both."""
    theta, alpha = [0.5], [1.0]
    for _ in range(n_runs - 1):
        change = rng.integers(3)
        theta.append(theta[-1] * np.exp(rng.normal(0, 0.2)) if change != 1 else theta[-1])
        alpha.append(alpha[-1] * np.exp(rng.normal(0, 0.5)) if change != 0 else alpha[-1])
    lengths = rng.integers(1, 5, n_runs) * thin
    return SimpleNamespace(theta=np.repeat(theta, lengths), alpha=np.repeat(alpha, lengths))


class TestMseSweep:
    """The Table 3 sweep evaluates each run of identical draws once, in
    chunks, and must equal the per-draw oracle bit for bit."""

    CHUNK = experiments.MSE_CHUNK

    @pytest.mark.parametrize("label, d, n_or_m, kw", [
        ("ou", 1, 50, {}),
        ("dense", 1, 30, dict(likelihood="dense", nu=1.5)),
        ("d2", 2, 4, {}),
    ])
    def test_real_chains_match_the_per_draw_oracle(self, label, d, n_or_m, kw):
        cfg = ExperimentConfig(d=d, n_samples=700, n_burnin=100, n_test_points=200, **kw)
        engine, chain, queries = _joint_chain(cfg, d, n_or_m)
        assert 0.0 < chain.acceptance_rate < 1.0, label
        assert (experiments._posterior_mean_max_ratios(cfg, engine, chain, queries)
                == per_draw_mean_max_ratios(cfg, engine, chain, queries)), label

    def _synthetic_chains(self, rng):
        def one(theta, alpha):
            return SimpleNamespace(theta=np.array(theta), alpha=np.array(alpha))

        yield "all equal", 1, one([0.7] * 40, [1.3] * 40)
        yield "all distinct", 1, one(np.linspace(0.2, 2.0, 40), np.linspace(3.0, 0.1, 40))
        yield "single draw", 1, one([0.7], [1.3])
        for n_runs in (self.CHUNK - 1, self.CHUNK, self.CHUNK + 1, 3 * self.CHUNK + 5):
            yield f"{n_runs} runs", 1, _runs_chain(rng, n_runs)
        yield "thin 3", 3, _runs_chain(rng, 2 * self.CHUNK + 3, thin=3)
        yield "thin 3 off phase", 3, _runs_chain(rng, 2 * self.CHUNK + 3, thin=2)

    @pytest.mark.parametrize("likelihood", ["ou", "dense"])
    def test_synthetic_chains_match_the_per_draw_oracle(self, likelihood, rng):
        data = sample_gp_path(gen_perturbed_grid(1, 30, seed=5), ExperimentConfig().truth, 6)
        engine = likelihood_engine(data, 0.5, likelihood)
        queries = gen_lhs_testpoints(1, 150, 7, data.design)
        for label, thin, chain in self._synthetic_chains(rng):
            cfg = ExperimentConfig(mse_draw_thin=thin)
            assert (experiments._posterior_mean_max_ratios(cfg, engine, chain, queries)
                    == per_draw_mean_max_ratios(cfg, engine, chain, queries)), label

    def test_factors_see_each_run_once_in_draw_order(self, rng):
        data = sample_gp_path(gen_perturbed_grid(1, 30, seed=5), ExperimentConfig().truth, 6)
        engine = likelihood_engine(data, 0.5, "ou")
        queries = gen_lhs_testpoints(1, 50, 7, data.design)
        calls = []

        class Spy:
            def __init__(self, factors):
                self.factors, self.m0 = factors, factors.m0

            def __call__(self, alpha):
                calls.append(alpha.copy())
                return self.factors(alpha)

        spied = SimpleNamespace(mse_factors=lambda a0, pts: Spy(engine.mse_factors(a0, pts)))
        n_runs = 3 * self.CHUNK + 2
        chain = _runs_chain(rng, n_runs)
        experiments._posterior_mean_max_ratios(ExperimentConfig(), spied, chain, queries)
        new = np.r_[True, (chain.theta[1:] != chain.theta[:-1])
                    | (chain.alpha[1:] != chain.alpha[:-1])]
        assert new.sum() == n_runs
        assert [c.shape[0] for c in calls] == [self.CHUNK] * 3 + [2]
        assert np.array_equal(np.concatenate(calls), chain.alpha[new])


class TestContourGrid:
    def setup_method(self):
        self.cfg = ExperimentConfig()

    def _surfaces(self, n, seed=0, theta_hi=1.5):
        design = gen_perturbed_grid(1, n, seed=seed)
        data = sample_gp_path(design, self.cfg.truth, seed + 1)
        theta_grid = np.linspace(0.1, theta_hi, 40)
        alpha_grid = np.linspace(0.1, 5.0, 30)
        return data, emit_contour_grid(data, self.cfg, theta_grid, alpha_grid)

    def test_ridge_nondecreasing(self):
        _, s = self._surfaces(50)
        assert np.all(np.diff(s["ridge"]) >= -1e-10 * np.abs(s["ridge"][1:]))

    def test_ridge_flattens_with_n(self):
        _, s50 = self._surfaces(50)
        _, s400 = self._surfaces(400)
        assert np.ptp(s400["ridge"]) < np.ptp(s50["ridge"])

    def test_grid_argmax_matches_fine_search(self):
        from fixedgp.gp import OuEngine
        from fixedgp.posterior import log_joint_posterior
        data, s = self._surfaces(50)
        theta_grid = s["theta_grid"]
        cell = theta_grid[1] - theta_grid[0]
        for j in (5, 15, 25):
            a = s["alpha_grid"][j]
            coarse_best = theta_grid[np.argmax(s["log_posterior"][:, j])]
            fine = np.linspace(theta_grid[0], theta_grid[-1], 400)
            vals = [log_joint_posterior(OuEngine(data), self.cfg.prior, t, a)
                    for t in fine]
            fine_best = fine[np.argmax(vals)]
            assert abs(coarse_best - fine_best) <= cell

    @pytest.mark.parametrize("kw", [{}, dict(likelihood="dense"),
                                    dict(likelihood="dense", nu=1.5)])
    def test_log_posterior_is_the_pointwise_posterior(self, kw):
        # each alpha column is one block call; every cell must be the scalar
        # posterior of that (theta, alpha) bit for bit
        cfg = ExperimentConfig(**kw)
        data = sample_gp_path(gen_perturbed_grid(1, 30, seed=3), cfg.truth, 4)
        theta_grid, alpha_grid = np.linspace(0.05, 2.0, 7), np.linspace(0.1, 6.0, 5)
        s = emit_contour_grid(data, cfg, theta_grid, alpha_grid)
        engine = likelihood_engine(data, cfg.nu, cfg.likelihood)
        want = [[log_joint_posterior(engine, cfg.prior, t, a) for a in alpha_grid]
                for t in theta_grid]
        assert np.array_equal(s["log_posterior"], np.array(want))

    def test_csv_emission(self, tmp_path):
        design = gen_perturbed_grid(1, 30, seed=3)
        data = sample_gp_path(design, self.cfg.truth, 4)
        emit_contour_grid(data, self.cfg, np.linspace(0.2, 1.0, 5),
                          np.linspace(0.2, 2.0, 4), out_dir=str(tmp_path))
        lines = (tmp_path / "contour_grid.csv").read_text().strip().splitlines()
        assert lines[0] == "theta,alpha,log_posterior,log_profile_limit,log_tilted_limit"
        assert len(lines) == 1 + 5 * 4
        ridge = (tmp_path / "contour_ridge.csv").read_text().strip().splitlines()
        assert ridge[0] == "alpha,theta_tilde"
        assert len(ridge) == 1 + 4

    def test_tilted_surface_nan_off_the_ou_model(self, tmp_path):
        cfg = ExperimentConfig(nu=1.5)
        design = gen_perturbed_grid(1, 30, seed=3)
        data = sample_gp_path(design, cfg.truth, 4)
        s = emit_contour_grid(data, cfg, np.linspace(0.2, 1.0, 5),
                              np.linspace(0.5, 3.0, 4), out_dir=str(tmp_path))
        assert np.all(np.isnan(s["log_tilted_limit"]))
        assert np.all(np.isfinite(s["log_posterior"]))
        assert np.all(np.isfinite(s["log_profile_limit"]))
        lines = (tmp_path / "contour_grid.csv").read_text().strip().splitlines()
        assert lines[0] == "theta,alpha,log_posterior,log_profile_limit,log_tilted_limit"
        assert all(line.split(",")[4] == "nan" for line in lines[1:])


class TestChainInit:
    def test_fallback_uses_the_resolved_backend(self):
        # nu = 3/2 with the default likelihood = "ou": the replication runs
        # the dense model, so the fallback start must be its profile value
        cfg = ExperimentConfig(nu=1.5)
        design = gen_perturbed_grid(1, 40, seed=2)
        data = sample_gp_path(design, cfg.truth, 3)
        engine = likelihood_engine(data, cfg.nu, cfg.likelihood)
        init = _chain_init(engine, cfg.prior, lambda p: -np.inf)
        assert init[0] == profile_stats(data, 1.0, 1.5).theta_tilde
        assert init[0] != ou_profile_stats(data, 1.0).theta_tilde
        assert init[1] == 1.0


class TestSweeps:
    def test_kl_check_rows(self, tmp_path):
        path = tmp_path / "kl.csv"
        rows = kl_check_sweep((50, 100), (1.0,), 0.5, out_path=path)
        assert len(rows) == 2
        for row in rows:
            assert row["r_limit"] == pytest.approx(0.4375, rel=1e-12)
            assert 0 <= row["gap"] <= 0.05
        assert rows[1]["r_n"] >= rows[0]["r_n"]
        assert path.exists()

    def test_lambda_check_rows(self, tmp_path):
        rows = lambda_check_sweep(10, seed=3, n=20, d=1,
                                  out_path=tmp_path / "lam.csv")
        assert len(rows) == 10
        assert all(r["ok"] for r in rows)
        spot = rows[0]
        assert spot["lambda_min"] >= spot["bound_lo"] - 1e-8
        assert spot["lambda_max"] <= spot["bound_hi"] + 1e-8
