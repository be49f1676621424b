import numpy as np
import pytest
from scipy import stats as sp_stats

from fixedgp.gp import (DenseEngine, Design, GpDataset, LikelihoodBlock, NotPositiveDefiniteError,
                        OuEngine, ou_stats, profile_stats)
from fixedgp.kernels import MaternSpec
from fixedgp.posterior import (
    ChainSamples,
    GammaPrior,
    InitializationError,
    McmcConfig,
    PriorSpec,
    TiltedParams,
    conditional_bvm_logdensity,
    joint_limit_sampler,
    joint_target,
    limit_setup,
    log_joint_posterior,
    rwm_chain,
    rwm_chains,
    sample_limits,
    tilted_logdensity,
    tilted_params,
)
from fixedgp.gp import log_likelihood
from conftest import profile_posterior_logdensity


def ou_data(n, rng, alpha0=0.5):
    pts = np.sort(rng.uniform(0, 1, n))
    r = np.exp(-alpha0 * np.abs(pts[:, None] - pts[None, :]))
    x = np.linalg.cholesky(r) @ rng.standard_normal(n)
    return GpDataset(design=Design(points=pts[:, None]), x=x)


class TestGammaPrior:
    def test_logpdf_matches_scipy(self, rng):
        g = GammaPrior(1.1, 0.1)
        for x in (0.01, 0.5, 3.0, 40.0):
            assert g.logpdf(x) == pytest.approx(
                sp_stats.gamma.logpdf(x, a=1.1, scale=10.0), rel=1e-12)
        assert g.logpdf(-1.0) == -np.inf
        assert g.mean == pytest.approx(11.0)

    def test_scalar_path_matches_array_path_bitwise(self, rng):
        g = GammaPrior(1.1, 0.1)
        xs = np.concatenate([rng.gamma(1.1, 10.0, 500), [1e-300, 0.0, -2.0, np.inf, np.nan]])
        with np.errstate(invalid="ignore"):     # inf - inf at x = inf
            from_array = g.logpdf(xs)
            for x, want in zip(xs, from_array):
                for scalar in (x, float(x)):
                    got = g.logpdf(scalar)
                    assert isinstance(got, float)
                    assert got == want or (np.isnan(got) and np.isnan(want))
                assert g.logpdf(np.asarray(x)) == got or np.isnan(got)

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaPrior(0.0, 1.0)


class TestLogJointPosterior:
    def test_ratio_matches_direct_density(self, rng):
        data = ou_data(12, rng)
        prior = PriorSpec()
        t1, t2, a = 0.6, 0.9, 1.3
        engine = DenseEngine(data, 0.5)
        diff = (log_joint_posterior(engine, prior, t1, a)
                - log_joint_posterior(engine, prior, t2, a))
        direct = (
            log_likelihood(data, MaternSpec(t1 / a, a, 0.5))
            - log_likelihood(data, MaternSpec(t2 / a, a, 0.5))
            + prior.theta_prior.logpdf(t1) - prior.theta_prior.logpdf(t2)
        )
        assert diff == pytest.approx(direct, abs=1e-10)

    def test_flat_prior_argmax_is_theta_tilde(self, rng):
        # golden-section maximization of the likelihood over theta at fixed
        # alpha, with the prior terms removed
        data = ou_data(15, rng)
        alpha = 0.8
        def ll(theta):
            return log_likelihood(data, MaternSpec(theta / alpha, alpha, 0.5))
        lo, hi = 1e-3, 30.0
        gr = (np.sqrt(5) - 1) / 2
        for _ in range(200):
            m1 = hi - gr * (hi - lo)
            m2 = lo + gr * (hi - lo)
            if ll(m1) < ll(m2):
                lo = m1
            else:
                hi = m2
        expected = profile_stats(data, alpha, 0.5).theta_tilde
        assert (lo + hi) / 2 == pytest.approx(expected, rel=1e-6)

    def test_invalid_parameters_give_minus_inf(self, rng):
        data = ou_data(5, rng)
        prior = PriorSpec()
        engine = DenseEngine(data, 0.5)
        assert log_joint_posterior(engine, prior, -1.0, 1.0) == -np.inf
        assert log_joint_posterior(engine, prior, 1.0, 0.0) == -np.inf
        assert log_joint_posterior(engine, prior, np.inf, 1.0) == -np.inf

    def test_ou_matches_dense(self, rng):
        data = ou_data(30, rng)
        prior = PriorSpec()
        for theta, alpha in [(0.5, 0.5), (1.2, 3.0)]:
            assert log_joint_posterior(OuEngine(data), prior, theta, alpha) == pytest.approx(
                log_joint_posterior(DenseEngine(data, 0.5), prior, theta, alpha), abs=1e-8)


class TestRwmChain:
    def test_prior_only_target_recovers_gamma_moments(self):
        prior = PriorSpec()
        def target(p):
            return prior.theta_prior.logpdf(p[0]) + prior.alpha_prior.logpdf(p[1])
        cfg = McmcConfig(n_samples=30000, n_burnin=2000, step_sizes=(1.2, 1.2), seed=11)
        ch = rwm_chain(target, cfg, np.array([5.0, 5.0]))
        # mean 11, var 110; MC standard error from the effective sample size
        for draws in (ch.theta, ch.alpha):
            ess = _ess(draws)
            mcse = np.sqrt(110.0 / ess)
            assert abs(np.mean(draws) - 11.0) < 3.0 * mcse

    def test_deterministic_given_seed(self, rng):
        data = ou_data(20, rng)
        prior = PriorSpec()
        def target(p):
            return log_joint_posterior(OuEngine(data), prior, p[0], p[1])
        cfg = McmcConfig(n_samples=500, n_burnin=100, step_sizes=(0.4, 1.0), seed=99)
        a = rwm_chain(target, cfg, np.array([11.0, 11.0]))
        b = rwm_chain(target, cfg, np.array([11.0, 11.0]))
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.acceptance_rate == b.acceptance_rate

    def test_acceptance_in_tuning_window(self, rng):
        data = ou_data(50, rng)
        prior = PriorSpec()
        def target(p):
            return log_joint_posterior(OuEngine(data), prior, p[0], p[1])
        cfg = McmcConfig(n_samples=4000, n_burnin=1000,
                         step_sizes=(1.7 * np.sqrt(2 / 50), 1.5), seed=5)
        ch = rwm_chain(target, cfg, np.array([11.0, 11.0]))
        assert 0.1 < ch.acceptance_rate < 0.6

    def test_initialization_error(self):
        def target(p):
            return -np.inf
        cfg = McmcConfig(n_samples=10, n_burnin=0, step_sizes=(0.5,), seed=0)
        with pytest.raises(InitializationError):
            rwm_chain(target, cfg, np.array([1.0]))
        with pytest.raises(InitializationError):
            rwm_chain(lambda p: 0.0, cfg, np.array([-1.0]))

    def test_sample_covariance_on_gaussian_log_target(self):
        # target whose log-coordinates are exactly N(mu, Sigma)
        mu = np.array([0.3, -0.5])
        cov = np.array([[1.0, 0.6], [0.6, 1.5]])
        prec = np.linalg.inv(cov)
        def target(p):
            u = np.log(p)
            return -0.5 * (u - mu) @ prec @ (u - mu) - np.sum(u)
        cfg = McmcConfig(n_samples=50000, n_burnin=3000, step_sizes=(1.0, 1.2), seed=17)
        ch = rwm_chain(target, cfg, np.exp(mu))
        u = np.log(np.column_stack([ch.theta, ch.alpha]))
        got = np.cov(u.T)
        assert np.linalg.norm(got - cov) / np.linalg.norm(cov) < 0.15

    def test_positivity_structural(self, rng):
        data = ou_data(10, rng)
        prior = PriorSpec()
        def target(p):
            return log_joint_posterior(OuEngine(data), prior, p[0], p[1])
        cfg = McmcConfig(n_samples=2000, n_burnin=200, step_sizes=(2.0, 2.0), seed=1)
        ch = rwm_chain(target, cfg, np.array([11.0, 11.0]))
        assert np.all(ch.theta > 0) and np.all(ch.alpha > 0)


def _ess(x):
    """Effective sample size from the initial positive autocorrelation sum."""
    x = np.asarray(x) - np.mean(x)
    n = x.shape[0]
    acov = np.correlate(x, x, mode="full")[n - 1:] / n
    rho = acov / acov[0]
    s = 1.0
    for k in range(1, min(n, 2000)):
        if rho[k] <= 0:
            break
        s += 2.0 * rho[k]
    return n / s


class TestConditionalBvm:
    def test_mode_value(self):
        val = conditional_bvm_logdensity(2.0, 2.0, 0.5, 100)
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi * 2 * 0.25 / 100), rel=1e-14)

    def test_integrates_to_one(self):
        theta0, n = 0.5, 50
        sd = np.sqrt(2 * theta0**2 / n)
        grid = np.linspace(1.0 - 10 * sd, 1.0 + 10 * sd, 20001)
        dens = np.exp(conditional_bvm_logdensity(grid, 1.0, theta0, n))
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_sd_halves_when_n_quadruples(self):
        # peak height doubles exactly when the variance quarters
        h1 = conditional_bvm_logdensity(1.0, 1.0, 0.5, 100)
        h2 = conditional_bvm_logdensity(1.0, 1.0, 0.5, 400)
        assert h2 - h1 == pytest.approx(np.log(2.0), rel=1e-12)


class TestProfilePosterior:
    def test_difference_identity(self, rng):
        data = ou_data(18, rng)
        prior = PriorSpec()
        a1, a2 = 0.7, 2.2
        engine = DenseEngine(data, 0.5)
        diff = (profile_posterior_logdensity(engine, prior, a1)
                - profile_posterior_logdensity(engine, prior, a2))
        direct = (profile_stats(data, a1, 0.5).profile_loglik
                  - profile_stats(data, a2, 0.5).profile_loglik
                  + prior.alpha_prior.logpdf(a1) - prior.alpha_prior.logpdf(a2))
        assert diff == pytest.approx(direct, abs=1e-10)

    def test_prior_factorizes_out(self, rng):
        # with independent priors the density minus the alpha prior depends
        # only on the data, across different prior settings
        data = ou_data(15, rng)
        p1 = PriorSpec(alpha_prior=GammaPrior(1.1, 0.1))
        p2 = PriorSpec(alpha_prior=GammaPrior(3.0, 1.5))
        engine = DenseEngine(data, 0.5)
        for a in (0.3, 1.0, 4.0):
            v1 = profile_posterior_logdensity(engine, p1, a) - p1.alpha_prior.logpdf(a)
            v2 = profile_posterior_logdensity(engine, p2, a) - p2.alpha_prior.logpdf(a)
            assert v1 == pytest.approx(v2, abs=1e-10)

    def test_proper_and_vanishing_left_tail(self, rng):
        data = ou_data(20, rng)
        prior = PriorSpec()
        grid = np.logspace(-8, 2, 400)
        logd = np.array([profile_posterior_logdensity(OuEngine(data), prior, a)
                         for a in grid])
        dens = np.exp(logd - logd.max())
        total = np.trapezoid(dens, grid)
        assert np.isfinite(total) and total > 0
        # left tail decays like alpha^(nu + prior shape - 1), slowly but surely
        assert dens[0] < 1e-4 * dens.max()
        assert np.all(np.diff(dens[:40]) > 0)

    def test_matches_ou_closed_form_up_to_constant(self, rng):
        from conftest import ou_profile_loglik
        n = 25
        pts = np.arange(1, n + 1) / n
        r = np.exp(-0.5 * np.abs(pts[:, None] - pts[None, :]))
        x = np.linalg.cholesky(r) @ rng.standard_normal(n)
        data = GpDataset(design=Design(points=pts[:, None]), x=x)
        stats = ou_stats(data)
        prior = PriorSpec()
        diffs = []
        for a in (0.4, 1.1, 3.0):
            closed = ou_profile_loglik(stats, n, a) + prior.alpha_prior.logpdf(a)
            full = profile_posterior_logdensity(DenseEngine(data, 0.5), prior, a)
            diffs.append(full - closed)
        assert np.ptp(diffs) < 1e-8


class TestTilted:
    def test_params_trivial_example(self):
        d = Design(points=np.array([[0.1], [0.2], [0.3]]))
        stats = ou_stats(GpDataset(design=d, x=np.array([0.0, 1.0, 0.0])))
        tp = tilted_params(stats, 3)
        assert tp.u_star == pytest.approx(3.0)
        assert tp.v_star == pytest.approx(6.0)

    def test_params_match_naive_formula(self, rng):
        x = rng.standard_normal(30)
        d = Design(points=np.sort(rng.uniform(0, 1, 30))[:, None])
        stats = ou_stats(GpDataset(design=d, x=x))
        tp = tilted_params(stats, 30)
        assert tp.u_star == pytest.approx(30 * (stats.a1 - stats.a2) / stats.a1, rel=1e-14)
        assert tp.v_star == pytest.approx(
            30 * (stats.a1 - 2 * stats.a2 + stats.a3) / stats.a1, rel=1e-14)

    def test_v_star_order_one_across_seeds(self):
        # scale parameter is order one for OU paths at theta0 = 0.5; the
        # ratio has a heavy right tail (the denominator is an integrated
        # squared path), so a hard [0.1, 10] bracket fails for a few seeds
        # and the check is on the bulk
        n = 400
        pts = (2 * np.arange(1, n + 1) - 1) / (2 * n)
        r = np.exp(-0.5 * np.abs(pts[:, None] - pts[None, :]))
        chol = np.linalg.cholesky(r)
        design = Design(points=pts[:, None])
        vs = []
        for seed in range(100):
            z = np.random.default_rng(seed).standard_normal(n)
            stats = ou_stats(GpDataset(design=design, x=chol @ z))
            vs.append(tilted_params(stats, n).v_star)
        vs = np.asarray(vs)
        assert np.all((vs > 0.05) & (vs < 50.0))
        assert np.mean((vs >= 0.1) & (vs <= 10.0)) >= 0.9
        assert 0.5 <= np.median(vs) <= 5.0

    def test_logdensity_argmax(self, rng):
        # with an effectively flat prior the mode solves
        # alpha^2 - u* alpha - v*/2 = 0
        tp = TiltedParams(u_star=2.0, v_star=5.0)
        flat = PriorSpec(alpha_prior=GammaPrior(1.0, 1e-12))
        grid = np.linspace(1e-4, 12.0, 400001)
        vals = tilted_logdensity(tp, flat, grid)
        root = (tp.u_star + np.sqrt(tp.u_star**2 + 2 * tp.v_star)) / 2.0
        assert grid[np.argmax(vals)] == pytest.approx(root, abs=1e-3)

    def test_logdensity_ratio_hand_computed(self):
        tp = TiltedParams(u_star=1.0, v_star=2.0)
        prior = PriorSpec()
        a = 0.8
        got = tilted_logdensity(tp, prior, 2 * a) - tilted_logdensity(tp, prior, a)
        expected = (0.5 * np.log(2.0)
                    - ((2 * a - 1.0) ** 2 - (a - 1.0) ** 2) / 4.0
                    + prior.alpha_prior.logpdf(2 * a) - prior.alpha_prior.logpdf(a))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_density_vanishes_at_zero(self):
        tp = TiltedParams(u_star=1.0, v_star=2.0)
        prior = PriorSpec()
        assert tilted_logdensity(tp, prior, 1e-300) < -300
        with pytest.raises(ValueError):
            tilted_logdensity(tp, prior, 0.0)

    def test_degenerate_data_rejected(self):
        with pytest.raises(Exception):
            TiltedParams(u_star=0.0, v_star=-1.0)


class TestJointLimitSampler:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.data = ou_data(100, rng)
        self.prior = PriorSpec()
        self.cfg = McmcConfig(n_samples=5000, n_burnin=1000, step_sizes=(0.2, 2.0), seed=3)

    def test_theta_marginal_moments(self):
        ch = joint_limit_sampler("joint-profile", OuEngine(self.data), self.prior, 0.5, 0.5,
                                 self.cfg)
        center = profile_stats(self.data, 0.5, 0.5).theta_tilde
        var = 2 * 0.25 / 100
        assert abs(np.mean(ch.theta) - center) < 3 * np.sqrt(var / 5000)
        assert np.var(ch.theta) == pytest.approx(var, rel=0.10)

    def test_theta_alpha_independent(self):
        ch = joint_limit_sampler("joint-profile", OuEngine(self.data), self.prior, 0.5, 0.5,
                                 self.cfg)
        corr = np.corrcoef(ch.theta, ch.alpha)[0, 1]
        assert abs(corr) < 0.05

    def test_tilted_vs_profile_w2_shrinks_with_n(self):
        from fixedgp.diagnostics import w2_distance
        rng = np.random.default_rng(12)
        w2 = {}
        for n in (100, 400):
            pts = (2 * np.arange(1, n + 1) - 1) / (2 * n)
            r = np.exp(-0.5 * np.abs(pts[:, None] - pts[None, :]))
            x = np.linalg.cholesky(r) @ rng.standard_normal(n)
            data = GpDataset(design=Design(points=pts[:, None]), x=x)
            engine = OuEngine(data)
            prof = joint_limit_sampler("joint-profile", engine, self.prior, 0.5, 0.5, self.cfg)
            tilt = joint_limit_sampler("ou-tilted", engine, self.prior, 0.5, 0.5, self.cfg)
            w2[n] = w2_distance(prof.alpha, tilt.alpha)
        assert w2[400] < w2[100]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            joint_limit_sampler("bogus", OuEngine(self.data), self.prior, 0.5, 0.5, self.cfg)


class _CountingDenseEngine(DenseEngine):
    """A dense engine that counts its Cholesky failures."""

    failures = 0

    def _terms(self, alpha):
        try:
            return super()._terms(alpha)
        except NotPositiveDefiniteError:
            type(self).failures += 1
            raise


class TestLikelihoodBlock:
    """Each row of a block equals the one-row call on its engine bit for bit,
    -inf rows included, on both backends."""

    prior = PriorSpec()
    # valid points, theta <= 0, alpha = inf and alpha = 0.1, where the nu = 5/2
    # correlation of the dense design below fails to factorize
    points = np.array([[0.8, 1.3], [0.3, 0.1], [2.0, 7.5], [0.0, 1.0], [-1.0, 0.5],
                       [1.0, np.inf], [np.inf, 1.0], [0.5, 0.1]])

    def _check(self, engines):
        block = LikelihoodBlock(engines)
        for p in self.points:
            rows = np.tile(p, (len(engines), 1))
            joint = block.log_posterior(rows, self.prior)
            profile = block.log_profile_posterior(rows[:, 1], self.prior)
            for r, e in enumerate(engines):
                assert joint[r] == log_joint_posterior(e, self.prior, p[0], p[1]), (p, r)
                assert profile[r] == profile_posterior_logdensity(e, self.prior, p[1]), (p, r)
            if not (0 < p[0] < np.inf and p[1] < np.inf):
                assert np.all(joint == -np.inf), p
            if p[1] == np.inf:
                assert np.all(profile == -np.inf), p
        return block

    def test_ou_rows(self, rng):
        engines = [OuEngine(ou_data(60, rng)) for _ in range(2)]
        zero = OuEngine(GpDataset(design=engines[0].data.design, x=np.zeros(60)))
        block = self._check(engines + [zero])
        # an all-zero path is degenerate in the profile only
        assert block.log_profile_posterior(np.array([1.0, 1.0, 1.0]), self.prior)[2] == -np.inf
        assert np.isfinite(block.log_posterior(np.array([[1.0, 1.0]] * 3), self.prior)[2])

    def test_dense_rows_through_failed_factorizations(self, rng):
        from fixedgp.experiments import gen_perturbed_grid
        design = gen_perturbed_grid(1, 100, seed=0)
        with pytest.raises(NotPositiveDefiniteError) as err:
            DenseEngine(GpDataset(design=design, x=np.ones(100)), 2.5).loglik(1.0, 0.1)
        assert err.value.pivot == 5
        paths = [rng.standard_normal(100).cumsum() / 10.0, np.linspace(-1, 1, 100), np.zeros(100)]
        block = self._check([DenseEngine(GpDataset(design=design, x=x), 2.5) for x in paths])
        assert np.all(block.log_posterior(np.array([[0.5, 0.1]] * 3), self.prior) == -np.inf)
        profile = block.log_profile_posterior(np.array([1.0] * 3), self.prior)
        assert profile[2] == -np.inf and np.all(np.isfinite(profile[:2]))
        smooth = self._check([DenseEngine(ou_data(40, rng), 0.5)])
        assert np.isfinite(smooth.log_posterior(np.array([[0.5, 0.1]]), self.prior)[0])
        assert np.isfinite(smooth.log_profile_posterior(np.array([1.0]), self.prior)[0])

    def test_one_size_and_one_nu_per_block(self, rng):
        data = ou_data(30, rng)
        mixed = ([OuEngine(data), OuEngine(ou_data(31, rng))],
                 [DenseEngine(data, 0.5), DenseEngine(ou_data(31, rng), 0.5)],
                 [DenseEngine(data, 0.5), DenseEngine(data, 1.5)],
                 [OuEngine(data), DenseEngine(data, 2.5)])
        for engines in mixed:
            with pytest.raises(ValueError, match="one size and one nu"):
                LikelihoodBlock(engines)


class TestLockstep:
    """R chains run in lockstep are bit for bit the chains run one by one."""

    prior = PriorSpec()

    def _configs(self, count, seed0):
        return [McmcConfig(n_samples=250, n_burnin=300, step_sizes=(0.3, 1.5), seed=seed0 + i)
                for i in range(count)]

    def _assert_same(self, a, b):
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.acceptance_rate == b.acceptance_rate
        assert a.target_label == b.target_label

    def _check(self, engines, kinds):
        inits = [np.array([11.0, 11.0]), np.array([0.4, 2.0]), np.array([3.0, 0.7])]
        inits = inits[:len(engines)]
        configs = self._configs(len(engines), 40)
        block = rwm_chains(joint_target(engines, self.prior), configs, inits, "joint")
        for e, cfg, init, chain in zip(engines, configs, inits, block):
            self._assert_same(chain, rwm_chains(joint_target([e], self.prior), [cfg], [init],
                                                "joint")[0])

            def target(p, e=e):
                return log_joint_posterior(e, self.prior, p[0], p[1])
            self._assert_same(chain, rwm_chain(target, cfg, init, "joint"))
        for kind in kinds:
            configs = self._configs(len(engines), 70)
            setups = [limit_setup(kind, e, self.prior, 0.5, 0.5, cfg)
                      for e, cfg in zip(engines, configs)]
            block = sample_limits(setups, self.prior)
            for e, cfg, chain in zip(engines, configs, block):
                self._assert_same(chain, joint_limit_sampler(kind, e, self.prior, 0.5, 0.5, cfg))

    def test_ou_block_equals_single_chains(self):
        rng = np.random.default_rng(21)
        engines = [OuEngine(ou_data(60, rng)) for _ in range(3)]
        self._check(engines, ("joint-profile", "ou-tilted"))

    def test_dense_block_equals_single_chains_through_cholesky_failures(self):
        # the d=1, n=100 perturbed grid of seed 0 at nu = 5/2: its correlation
        # matrix fails to factorize at alpha = 0.1 (pivot 5), and with a flat
        # path the chains propose such alphas
        from fixedgp.experiments import gen_perturbed_grid
        design = gen_perturbed_grid(1, 100, seed=0)
        rng = np.random.default_rng(5)
        paths = [np.ones(100), rng.standard_normal(100).cumsum() / 10.0, np.linspace(-1, 1, 100)]
        engines = [_CountingDenseEngine(GpDataset(design=design, x=x), 2.5) for x in paths]
        _CountingDenseEngine.failures = 0
        self._check(engines, ("joint-profile",))
        assert _CountingDenseEngine.failures > 0

    def test_chain_length_must_agree(self):
        rng = np.random.default_rng(3)
        engines = [OuEngine(ou_data(20, rng)) for _ in range(2)]
        configs = [McmcConfig(n_samples=50, n_burnin=10, seed=1),
                   McmcConfig(n_samples=60, n_burnin=10, seed=2)]
        with pytest.raises(ValueError):
            rwm_chains(joint_target(engines, self.prior), configs, [[11.0, 11.0]] * 2)


class TestChainSamplesIo:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainSamples(theta=np.array([1.0, -2.0]), alpha=np.array([0.5, 0.7]),
                         acceptance_rate=0.4, target_label="x")
        with pytest.raises(ValueError):
            ChainSamples(theta=np.array([1.0]), alpha=np.array([0.5, 0.7]),
                         acceptance_rate=0.4, target_label="x")
