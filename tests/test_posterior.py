import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sp_stats

from fixedgp.gp import (DegenerateDataError, DenseEngine, Design, GpDataset, LikelihoodBlock,
                        NotPositiveDefiniteError, OuEngine)
from fixedgp import posterior
from fixedgp.kernels import MaternSpec
from fixedgp.posterior import (
    GammaPrior,
    InitializationError,
    conditional_bvm_logdensity,
    lockstep_target,
    rwm_chains,
    theta_limit_draws,
)
from fixedgp.gp import log_likelihood
from conftest import (DEFAULT_PRIOR, joint_posterior_logdensity, ou_profile_loglik, ou_stats,
                      profile_posterior_logdensity, tilted_center_scale, tilted_logdensity)


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
        from_array = g.logpdf(xs)
        for x, want in zip(xs, from_array):
            for scalar in (x, float(x)):
                got = g.logpdf(scalar)
                assert isinstance(got, float)
                assert got == want
            assert g.logpdf(np.asarray(x)) == got

    def test_minus_inf_off_the_positive_finite_reals(self, rng):
        # the density vanishes at +inf as at 0; finite positive values keep
        # the bits of the closed form
        xs = rng.gamma(1.1, 10.0, 200)
        for g in (GammaPrior(1.1, 0.1), GammaPrior(1.0, 2.0), GammaPrior(0.5, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert g.logpdf(np.inf) == -np.inf
                got = g.logpdf(np.array([np.inf, 2.0, -np.inf, np.nan, 0.0]))
            assert np.array_equal(got[[0, 2, 3, 4]], np.full(4, -np.inf))
            assert got[1] == g.logpdf(2.0)
            closed = g._log_norm + (g.shape - 1.0) * np.log(xs) - g.rate * xs
            assert np.array_equal(g.logpdf(xs), closed)

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaPrior(0.0, 1.0)
        # a rate of inf gave a NaN log density, with a RuntimeWarning
        for shape, rate in ((1.1, np.inf), (np.inf, 0.1), (1.1, np.nan)):
            with pytest.raises(ValueError, match="positive and finite"):
                GammaPrior(shape, rate)


class TestLogJointPosterior:
    def test_ratio_matches_direct_density(self, rng):
        data = ou_data(12, rng)
        prior = DEFAULT_PRIOR
        t1, t2, a = 0.6, 0.9, 1.3
        engine = DenseEngine(data, 0.5)
        diff = (joint_posterior_logdensity(engine, prior, t1, a)
                - joint_posterior_logdensity(engine, prior, t2, a))
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
        expected = DenseEngine(data, 0.5).profile(alpha).theta_tilde
        assert (lo + hi) / 2 == pytest.approx(expected, rel=1e-6)

    def test_invalid_parameters_give_minus_inf(self, rng):
        data = ou_data(5, rng)
        prior = DEFAULT_PRIOR
        engine = DenseEngine(data, 0.5)
        assert joint_posterior_logdensity(engine, prior, -1.0, 1.0) == -np.inf
        assert joint_posterior_logdensity(engine, prior, 1.0, 0.0) == -np.inf
        assert joint_posterior_logdensity(engine, prior, np.inf, 1.0) == -np.inf

    def test_ou_matches_dense(self, rng):
        data = ou_data(30, rng)
        prior = DEFAULT_PRIOR
        for theta, alpha in [(0.5, 0.5), (1.2, 3.0)]:
            ou = joint_posterior_logdensity(OuEngine(data), prior, theta, alpha)
            dense = joint_posterior_logdensity(DenseEngine(data, 0.5), prior, theta, alpha)
            assert ou == pytest.approx(dense, abs=1e-8)


class TestRwmChain:
    def test_prior_only_target_recovers_gamma_moments(self):
        prior = DEFAULT_PRIOR
        def target(p):
            return prior.theta_prior.logpdf(p[:, 0]) + prior.alpha_prior.logpdf(p[:, 1])
        (ch,), _ = rwm_chains(target, [np.array([5.0, 5.0])], [11], [(1.2, 1.2)], 30000, 2000)
        # mean 11, var 110; MC standard error from the effective sample size
        for draws in ch.T:
            ess = _ess(draws)
            mcse = np.sqrt(110.0 / ess)
            assert abs(np.mean(draws) - 11.0) < 3.0 * mcse

    def test_deterministic_given_seed(self, rng):
        data = ou_data(20, rng)
        prior = DEFAULT_PRIOR
        target = lockstep_target(prior, joint=[OuEngine(data)])
        a, acc_a = rwm_chains(target, [np.array([11.0, 11.0])], [99], [(0.4, 1.0)], 500, 100)
        b, acc_b = rwm_chains(target, [np.array([11.0, 11.0])], [99], [(0.4, 1.0)], 500, 100)
        assert np.array_equal(a, b)
        assert acc_a[0] == acc_b[0]

    def test_acceptance_in_tuning_window(self, rng):
        data = ou_data(50, rng)
        prior = DEFAULT_PRIOR
        target = lockstep_target(prior, joint=[OuEngine(data)])
        _, (acc,) = rwm_chains(target, [np.array([11.0, 11.0])], [5],
                               [(1.7 * np.sqrt(2 / 50), 1.5)], 4000, 1000)
        assert 0.1 < acc < 0.6

    def test_initialization_error(self):
        def target(p):
            return np.full(p.shape[0], -np.inf)
        run = dict(seeds=[0], steps=[(0.5, 0.5)], n_samples=10, n_burnin=0)
        with pytest.raises(InitializationError):
            rwm_chains(target, [np.array([1.0, 1.0])], **run)
        with pytest.raises(InitializationError):
            rwm_chains(lambda p: np.zeros(p.shape[0]), [np.array([-1.0, 1.0])], **run)

    def test_start_of_one_variable_raises_before_any_evaluation(self):
        calls = []
        def target(p):
            calls.append(p.shape)
            return np.zeros(p.shape[0])
        with pytest.raises(ValueError, match="got 1 variables"):
            rwm_chains(target, [np.array([1.0])], [0], [(0.5, 0.5)], 50, 10)
        assert calls == []

    def test_alpha_start_of_two_variables_raises_before_any_evaluation(self):
        calls = []
        def target(a):
            calls.append(a.shape)
            return np.zeros(a.shape[0])
        with pytest.raises(ValueError, match="got 2 variables"):
            rwm_chains(target, [np.array([1.0, 1.0])], [0], [(0.5,)], 50, 10)
        assert calls == []

    def test_step_sizes_of_another_width_raise_before_any_evaluation(self):
        # a joint chain's (theta, alpha) steps are not an alpha chain's step
        calls = []
        def target(a):
            calls.append(a.shape)
            return np.zeros(a.shape[0])
        with pytest.raises(ValueError):
            rwm_chains(target, [np.array([1.0])], [0], [(0.2, 2.0)], 50, 10)
        assert calls == []

    @pytest.mark.parametrize("starts, seeds, steps, n_samples, n_burnin, message", [
        ([[1.0, 1.0]], [0], [(0.5, 0.0)], 50, 10, "step sizes must be positive"),
        ([[1.0, 1.0]], [0], [(-0.5, 0.5)], 50, 10, "step sizes must be positive"),
        ([[1.0]], [0], [(np.nan,)], 50, 10, "step sizes must be positive"),
        ([[1.0]], [0], [(0.5,)], 0, 10, "n_samples must be positive"),
        ([[1.0]], [0], [(0.5,)], 50, -1, "n_burnin nonnegative"),
        ([], [], [], 50, 10, "at least one start"),
        ([[1.0], [2.0]], [0], [(0.5,), (0.5,)], 50, 10, "one seed per start"),
        ([[1.0], [2.0]], [0, 1], [(0.5,)], 50, 10, "one step tuple per start"),
        ([[1.0], [2.0]], [0, 1], [(0.5,), ()], 50, 10, "step sizes must be positive"),
        ([[1.0, 1.0], [2.0, 1.0]], [0, 1], [(0.5, 0.5), (0.5,)], 50, 10,
         "expected starts of 1 variables, got 2"),
        ([[1.0], [2.0]], [0, 1], [(0.5,), (0.5, 0.5)], 50, 10,
         "expected starts of 2 variables, got 1"),
    ], ids=["zero step", "negative step", "nan step", "no samples", "negative burn-in",
            "no starts", "one seed for two starts", "one step tuple for two starts",
            "no steps", "second start wider than its steps",
            "second start narrower than its steps"])
    def test_invalid_run_raises_before_any_evaluation(self, starts, seeds, steps, n_samples,
                                                      n_burnin, message):
        calls = []
        def target(p):
            calls.append(p.shape)
            return np.zeros(p.shape[0])
        with pytest.raises(ValueError, match=message):
            rwm_chains(target, starts, seeds, steps, n_samples, n_burnin)
        assert calls == []

    def test_seed_sequence_seed_equals_its_int(self, rng):
        # default_rng(s) and default_rng(SeedSequence(s)) are one stream
        target = lockstep_target(DEFAULT_PRIOR, joint=[OuEngine(ou_data(20, rng))])
        chains = [rwm_chains(target, [[11.0, 11.0]], [seed], [(0.5, 0.5)], 200, 50)[0][0]
                  for seed in (12, np.random.SeedSequence(12))]
        assert np.array_equal(chains[0], chains[1])

    def test_sample_covariance_on_gaussian_log_target(self):
        # target whose log-coordinates are exactly N(mu, Sigma)
        mu = np.array([0.3, -0.5])
        cov = np.array([[1.0, 0.6], [0.6, 1.5]])
        prec = np.linalg.inv(cov)
        def target(p):
            u = np.log(p)
            z = u - mu
            return -0.5 * np.einsum("ri,ij,rj->r", z, prec, z) - np.sum(u, axis=1)
        (ch,), _ = rwm_chains(target, [np.exp(mu)], [17], [(1.0, 1.2)], 50000, 3000)
        u = np.log(ch)
        got = np.cov(u.T)
        assert np.linalg.norm(got - cov) / np.linalg.norm(cov) < 0.15

    def test_positivity_structural(self, rng):
        data = ou_data(10, rng)
        prior = DEFAULT_PRIOR
        target = lockstep_target(prior, joint=[OuEngine(data)])
        (ch,), _ = rwm_chains(target, [np.array([11.0, 11.0])], [1], [(2.0, 2.0)], 2000, 200)
        assert np.all(ch > 0)


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
        prior = DEFAULT_PRIOR
        a1, a2 = 0.7, 2.2
        engine = DenseEngine(data, 0.5)
        diff = (profile_posterior_logdensity(engine, prior, a1)
                - profile_posterior_logdensity(engine, prior, a2))
        direct = (engine.profile(a1).profile_loglik
                  - engine.profile(a2).profile_loglik
                  + prior.alpha_prior.logpdf(a1) - prior.alpha_prior.logpdf(a2))
        assert diff == pytest.approx(direct, abs=1e-10)

    def test_prior_factorizes_out(self, rng):
        # with independent priors the density minus the alpha prior depends
        # only on the data, across different prior settings
        data = ou_data(15, rng)
        p1 = replace(DEFAULT_PRIOR, alpha_prior=GammaPrior(1.1, 0.1))
        p2 = replace(DEFAULT_PRIOR, alpha_prior=GammaPrior(3.0, 1.5))
        engine = DenseEngine(data, 0.5)
        for a in (0.3, 1.0, 4.0):
            v1 = profile_posterior_logdensity(engine, p1, a) - p1.alpha_prior.logpdf(a)
            v2 = profile_posterior_logdensity(engine, p2, a) - p2.alpha_prior.logpdf(a)
            assert v1 == pytest.approx(v2, abs=1e-10)

    def test_proper_and_vanishing_left_tail(self, rng):
        data = ou_data(20, rng)
        prior = DEFAULT_PRIOR
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
        n = 25
        pts = np.arange(1, n + 1) / n
        r = np.exp(-0.5 * np.abs(pts[:, None] - pts[None, :]))
        x = np.linalg.cholesky(r) @ rng.standard_normal(n)
        data = GpDataset(design=Design(points=pts[:, None]), x=x)
        stats = ou_stats(data)
        prior = DEFAULT_PRIOR
        diffs = []
        for a in (0.4, 1.1, 3.0):
            closed = ou_profile_loglik(stats, n, a) + prior.alpha_prior.logpdf(a)
            full = profile_posterior_logdensity(DenseEngine(data, 0.5), prior, a)
            diffs.append(full - closed)
        assert np.ptp(diffs) < 1e-8


def tilted_values(data, alphas, prior=DEFAULT_PRIOR):
    """The tilted target of one OU dataset at the 1-d ``alphas``."""
    alphas = np.asarray(alphas, dtype=float)[:, None]
    return lockstep_target(prior, tilted=[OuEngine(data)])(alphas)


class TestTilted:
    """The tilted target against the oracle's u* and v* (conftest)."""

    # u* = 3 and v* = 6
    bump = GpDataset(design=Design(points=np.array([[0.1], [0.2], [0.3]])),
                     x=np.array([0.0, 1.0, 0.0]))
    alphas = np.array([0.05, 0.5, 1.0, 3.0, 12.0])

    def test_params_trivial_example(self):
        u_star, v_star = tilted_center_scale(self.bump)
        assert u_star == pytest.approx(3.0)
        assert v_star == pytest.approx(6.0)
        assert tilted_values(self.bump, self.alphas) == pytest.approx(
            tilted_logdensity(3.0, 6.0, DEFAULT_PRIOR, self.alphas), rel=1e-14)

    def test_params_match_naive_formula(self, rng):
        x = rng.standard_normal(30)
        d = Design(points=np.sort(rng.uniform(0, 1, 30))[:, None])
        data = GpDataset(design=d, x=x)
        stats = ou_stats(data)
        u_star = 30 * (stats.a1 - stats.a2) / stats.a1
        v_star = 30 * (stats.a1 - 2 * stats.a2 + stats.a3) / stats.a1
        assert tilted_values(data, self.alphas) == pytest.approx(
            tilted_logdensity(u_star, v_star, DEFAULT_PRIOR, self.alphas), rel=1e-14)

    def test_v_star_order_one_across_seeds(self):
        # scale parameter is order one for OU paths at theta0 = 0.5; the
        # ratio has a heavy right tail (the denominator is an integrated
        # squared path), so a hard [0.1, 10] bracket fails for a few seeds
        # and the check is on the bulk.  v* is read back from the target:
        # without the sqrt(alpha) and prior factors its second difference
        # over alpha = 1, 2, 3 is -1 / v*.
        n = 400
        pts = (2 * np.arange(1, n + 1) - 1) / (2 * n)
        r = np.exp(-0.5 * np.abs(pts[:, None] - pts[None, :]))
        chol = np.linalg.cholesky(r)
        design = Design(points=pts[:, None])
        prior, a = DEFAULT_PRIOR, np.array([1.0, 2.0, 3.0])
        vs = []
        for seed in range(100):
            z = np.random.default_rng(seed).standard_normal(n)
            data = GpDataset(design=design, x=chol @ z)
            g = tilted_values(data, a) - 0.5 * np.log(a) - prior.alpha_prior.logpdf(a)
            vs.append(-1.0 / (g[2] - 2.0 * g[1] + g[0]))
            assert vs[-1] == pytest.approx(tilted_center_scale(data)[1], rel=1e-8)
        vs = np.asarray(vs)
        assert np.all((vs > 0.05) & (vs < 50.0))
        assert np.mean((vs >= 0.1) & (vs <= 10.0)) >= 0.9
        assert 0.5 <= np.median(vs) <= 5.0

    def test_logdensity_argmax(self, rng):
        # with an effectively flat prior the mode solves
        # alpha^2 - u* alpha - v*/2 = 0
        u_star, v_star = tilted_center_scale(self.bump)
        flat = replace(DEFAULT_PRIOR, alpha_prior=GammaPrior(1.0, 1e-12))
        grid = np.linspace(1e-4, 12.0, 400001)
        vals = tilted_values(self.bump, grid, flat)
        root = (u_star + np.sqrt(u_star**2 + 2 * v_star)) / 2.0
        assert grid[np.argmax(vals)] == pytest.approx(root, abs=1e-3)

    def test_logdensity_ratio_hand_computed(self):
        prior = DEFAULT_PRIOR
        a = 0.8
        low, high = tilted_values(self.bump, [a, 2 * a])
        expected = (0.5 * np.log(2.0)
                    - ((2 * a - 3.0) ** 2 - (a - 3.0) ** 2) / 12.0
                    + prior.alpha_prior.logpdf(2 * a) - prior.alpha_prior.logpdf(a))
        assert high - low == pytest.approx(expected, rel=1e-12)

    def test_density_vanishes_at_zero(self):
        tiny, zero = tilted_values(self.bump, [1e-300, 0.0])
        assert tiny < -300
        assert zero == -np.inf

    def test_degenerate_data_rejected(self):
        # a constant path: A1 = 0 at zero, v* = 0 otherwise; behind a sound
        # row, the message names the one failing value
        d = Design(points=np.linspace(0.1, 0.9, 5)[:, None])
        sound = OuEngine(GpDataset(design=d, x=np.array([1.0, -1.0, 2.0, 0.0, 1.0])))
        for level, message in ((0.0, "A1 must be positive, got 0.0$"),
                               (3.0, "v_star must be positive, got 0.0$")):
            engine = OuEngine(GpDataset(design=d, x=np.full(5, level)))
            with pytest.raises(DegenerateDataError, match=message):
                lockstep_target(DEFAULT_PRIOR, tilted=[sound, engine])


class TestJointLimitSampler:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.data = ou_data(100, rng)
        self.prior = DEFAULT_PRIOR
        # theta and both alpha chains take the two streams spawned from seed 3
        self.theta_seed, self.alpha_seed = np.random.SeedSequence(3).spawn(2)

    def _limits(self, kinds, engine):
        """The theta draws of the limits of ``engine``'s dataset, and the
        alpha draws of the limit of each of ``kinds``."""
        thetas = theta_limit_draws(engine, 0.5, 0.5, 5000, self.theta_seed)
        return thetas, [rwm_chains(lockstep_target(self.prior, **{kind: [engine]}), [[11.0]],
                                   [self.alpha_seed], [(2.0,)], 5000, 1000)[0][0][:, 0]
                        for kind in kinds]

    def test_theta_marginal_moments(self):
        thetas, _ = self._limits(["profile"], OuEngine(self.data))
        center = DenseEngine(self.data, 0.5).profile(0.5).theta_tilde
        var = 2 * 0.25 / 100
        assert abs(np.mean(thetas) - center) < 3 * np.sqrt(var / 5000)
        assert np.var(thetas) == pytest.approx(var, rel=0.10)

    def test_theta_alpha_independent(self):
        thetas, (alphas,) = self._limits(["profile"], OuEngine(self.data))
        corr = np.corrcoef(thetas, alphas)[0, 1]
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
            _, (prof, tilt) = self._limits(["profile", "tilted"], OuEngine(data))
            w2[n] = w2_distance(prof, tilt)
        assert w2[400] < w2[100]

    def test_tilted_target_rejects_a_non_ou_engine(self):
        ou = OuEngine(self.data)
        for engines in ([DenseEngine(self.data, 1.5)], [ou, DenseEngine(self.data, 1.5)]):
            with pytest.raises(ValueError, match="OU model"):
                lockstep_target(self.prior, tilted=engines)
        # the OU model on the dense backend has the tilted limit too
        dense = lockstep_target(self.prior, tilted=[DenseEngine(self.data, 0.5)])(np.array([[0.7]]))
        assert dense[0] == lockstep_target(self.prior, tilted=[ou])(np.array([[0.7]]))[0]


class _CountingDenseEngine(DenseEngine):
    """A dense engine that counts its Cholesky failures."""

    failures = 0

    def _terms(self, alpha):
        try:
            return super()._terms(alpha)
        except NotPositiveDefiniteError:
            type(self).failures += 1
            raise


class TestEmptyBlock:
    """A block of no engines raises ValueError, not an index error."""

    # the ids name each kind's target as before
    @pytest.mark.parametrize("make", [
        LikelihoodBlock,
        *(lambda engines, kind=kind: lockstep_target(DEFAULT_PRIOR, **{kind: engines})
          for kind in ("joint", "profile", "tilted")),
    ], ids=["LikelihoodBlock"] + [f"{kind}_target" for kind in ("joint", "profile", "tilted")])
    def test_needs_an_engine(self, make):
        with pytest.raises(ValueError, match="needs at least one engine"):
            make([])


class TestLikelihoodBlock:
    """Each row of a block's targets equals the one-row call on its engine
    bit for bit, -inf rows included, on both backends."""

    prior = DEFAULT_PRIOR
    # valid points, theta <= 0, alpha = inf and alpha = 0.1, where the nu = 5/2
    # correlation of the dense design below fails to factorize
    points = np.array([[0.8, 1.3], [0.3, 0.1], [2.0, 7.5], [0.0, 1.0], [-1.0, 0.5],
                       [1.0, np.inf], [np.inf, 1.0], [0.5, 0.1]])

    def _check(self, engines):
        """The joint and profile targets of ``engines``, checked row by row."""
        joint_of = lockstep_target(self.prior, joint=engines)
        profile_of = lockstep_target(self.prior, profile=engines)
        for p in self.points:
            rows = np.tile(p, (len(engines), 1))
            joint = joint_of(rows)
            profile = profile_of(rows[:, 1:])
            for r, e in enumerate(engines):
                assert joint[r] == joint_posterior_logdensity(e, self.prior, p[0], p[1]), (p, r)
                assert profile[r] == profile_posterior_logdensity(e, self.prior, p[1]), (p, r)
            if not (0 < p[0] < np.inf and p[1] < np.inf):
                assert np.all(joint == -np.inf), p
            if p[1] == np.inf:
                assert np.all(profile == -np.inf), p
        return joint_of, profile_of

    def test_ou_rows(self, rng):
        engines = [OuEngine(ou_data(60, rng)) for _ in range(2)]
        zero = OuEngine(GpDataset(design=engines[0].data.design, x=np.zeros(60)))
        joint_of, profile_of = self._check(engines + [zero])
        # an all-zero path is degenerate in the profile only
        assert profile_of(np.array([[1.0]] * 3))[2] == -np.inf
        assert np.isfinite(joint_of(np.array([[1.0, 1.0]] * 3))[2])

    def test_dense_rows_through_failed_factorizations(self, rng):
        from fixedgp.experiments import gen_perturbed_grid
        design = gen_perturbed_grid(1, 100, seed=0)
        with pytest.raises(NotPositiveDefiniteError) as err:
            DenseEngine(GpDataset(design=design, x=np.ones(100)), 2.5).loglik(1.0, 0.1)
        assert err.value.pivot == 5
        paths = [rng.standard_normal(100).cumsum() / 10.0, np.linspace(-1, 1, 100), np.zeros(100)]
        joint_of, profile_of = self._check([DenseEngine(GpDataset(design=design, x=x), 2.5)
                                            for x in paths])
        assert np.all(joint_of(np.array([[0.5, 0.1]] * 3)) == -np.inf)
        profile = profile_of(np.array([[1.0]] * 3))
        assert profile[2] == -np.inf and np.all(np.isfinite(profile[:2]))
        joint_of, profile_of = self._check([DenseEngine(ou_data(40, rng), 0.5)])
        assert np.isfinite(joint_of(np.array([[0.5, 0.1]]))[0])
        assert np.isfinite(profile_of(np.array([[1.0]]))[0])

    def test_one_nu_per_block_of_any_sizes(self, rng):
        data = ou_data(30, rng)
        for engines in ([DenseEngine(data, 0.5), DenseEngine(data, 1.5)],
                        [OuEngine(data), DenseEngine(data, 2.5)]):
            with pytest.raises(ValueError, match="one nu"):
                LikelihoodBlock(engines)
        # sizes may mix: each row's terms are its engine's alone
        alpha = np.array([0.7, 2.0, 0.3, 5.0])
        for mixed in ([OuEngine(data), OuEngine(ou_data(31, rng)), OuEngine(data),
                       OuEngine(ou_data(12, rng))],
                      [DenseEngine(data, 0.5), DenseEngine(ou_data(31, rng), 0.5),
                       DenseEngine(ou_data(12, rng), 0.5), DenseEngine(data, 0.5)]):
            block = LikelihoodBlock(mixed)
            assert list(block.n) == [e.n for e in mixed]
            qf, log_det = block.terms(alpha)
            for r, (e, a) in enumerate(zip(mixed, alpha)):
                assert (qf[r], log_det[r]) == e._terms(a), r


class TestInvalidRows:
    """Every target gives exactly -inf in a row with a parameter in
    {0, -1, inf, nan}, raises nothing and warns nothing, and gives every
    other row its value alone."""

    prior = DEFAULT_PRIOR

    # the ids name each kind's target as before
    @pytest.mark.parametrize("kind", ["joint", "profile", "tilted"], ids=lambda k: f"{k}_target")
    def test_invalid_rows_are_minus_inf(self, kind):
        first, last = [0.6, 1.3], [0.4, 2.5]
        k = 2 if kind == "joint" else 1
        first, last = first[-k:], last[-k:]
        rows = [first]
        for col in range(k):
            for bad in (0.0, -1.0, np.inf, np.nan):
                row = list(first)
                row[col] = bad
                rows.append(row)
        rows = np.array(rows + [last])
        valid = np.all((rows > 0) & (rows < np.inf), axis=1)
        rng = np.random.default_rng(17)
        engines = [OuEngine(ou_data(40, rng)) for _ in rows]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lockstep_target(self.prior, **{kind: engines})(rows)
            alone = np.array([lockstep_target(self.prior, **{kind: [e]})(row[None])[0]
                              for e, row in zip(engines, rows)])
        assert np.array_equal(got[~valid], np.full((~valid).sum(), -np.inf))
        assert np.all(np.isfinite(got[valid]))
        assert np.array_equal(got, alone)

    def test_lockstep_rows_are_their_one_kind_values(self):
        # one call over the joint, profile and tilted rows of two sizes,
        # invalid rows included, gives each row its one-kind target's value
        rng = np.random.default_rng(18)
        engines = [OuEngine(ou_data(n, rng)) for n in (25, 40, 40)]
        joint_rows = np.array([[0.6, 1.3], [0.0, 2.0], [0.4, np.nan]])
        alpha_rows = np.array([[1.3, 1.0], [np.inf, 1.0], [2.5, 1.0]])
        rows = np.vstack([joint_rows, alpha_rows, alpha_rows[::-1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lockstep_target(self.prior, joint=engines, profile=engines,
                                  tilted=engines)(rows)
            want = np.concatenate([
                lockstep_target(self.prior, joint=engines)(joint_rows),
                lockstep_target(self.prior, profile=engines)(alpha_rows[:, :1]),
                lockstep_target(self.prior, tilted=engines)(alpha_rows[::-1, :1])])
        assert np.array_equal(got, want)
        assert np.isfinite(got).sum() == 5


class TestLockstep:
    """R chains run in lockstep are bit for bit the chains run one by one,
    whatever the widths, sizes and kinds of the other rows."""

    prior = DEFAULT_PRIOR
    kinds = ("joint", "profile", "tilted")

    def _run(self, runs):
        """One lockstep run of ``runs``, (kind, engine, start, seed, steps)
        tuples in the row order of :func:`lockstep_target`."""
        kinds = [kind for kind, *_ in runs]
        assert kinds == sorted(kinds, key=self.kinds.index)
        target = lockstep_target(self.prior, **{kind: [e for k, e, *_ in runs if k == kind]
                                                for kind in self.kinds})
        return rwm_chains(target, *[list(column) for column in zip(*runs)][2:], 250, 300)

    def _assert_rows_run_alone(self, runs):
        draws, acc = self._run(runs)
        for r, (kind, engine, init, seed, steps) in enumerate(runs):
            alone, alone_acc = rwm_chains(lockstep_target(self.prior, **{kind: [engine]}),
                                          [init], [seed], [steps], 250, 300)
            assert draws[r].shape == (250, len(steps)), (r, kind)
            assert np.array_equal(draws[r], alone[0]), (r, kind)
            assert acc[r] == alone_acc[0], (r, kind)
        return draws

    def _runs(self, engines, alpha_kinds):
        """A joint chain of each engine, then an alpha chain of each engine
        for each of ``alpha_kinds``, seeded as the harness seeds them."""
        starts = [np.array([11.0, 11.0]), np.array([0.4, 2.0]), np.array([3.0, 0.7])]
        runs = [("joint", e, starts[i % 3], 40 + i, (1.7 * np.sqrt(2.0 / e.n), 1.5))
                for i, e in enumerate(engines)]
        for kind in alpha_kinds:
            # the second stream spawned from each seed
            runs += [(kind, e, [[11.0], [1.0], [2.0]][i % 3],
                      np.random.SeedSequence(70 + i).spawn(2)[1], (2.0,))
                     for i, e in enumerate(engines)]
        return runs

    def _check(self, engines, alpha_kinds):
        runs = self._runs(engines, alpha_kinds)
        for kind in ("joint",) + alpha_kinds:
            self._assert_rows_run_alone([run for run in runs if run[0] == kind])
        self._assert_rows_run_alone(runs)

    def test_ou_block_equals_single_chains(self):
        rng = np.random.default_rng(21)
        engines = [OuEngine(ou_data(60, rng)) for _ in range(3)]
        self._check(engines, ("profile", "tilted"))

    def test_ou_sizes_and_kinds_in_one_run_equal_single_chains(self):
        # n = 25 and 40 in one run: joint rows of width 2 with their own
        # steps, then the profile and tilted rows of width 1
        rng = np.random.default_rng(22)
        engines = [OuEngine(ou_data(n, rng)) for n in (25, 40, 25, 40)]
        self._check(engines, ("profile", "tilted"))

    def test_dense_block_equals_single_chains_through_cholesky_failures(self):
        # the d=1, n=100 perturbed grid of seed 0 at nu = 5/2: its correlation
        # matrix fails to factorize at alpha = 0.1 (pivot 5), and with a flat
        # path the chains propose such alphas; an n = 60 dataset rides along
        from fixedgp.experiments import gen_perturbed_grid
        design = gen_perturbed_grid(1, 100, seed=0)
        rng = np.random.default_rng(5)
        paths = [np.ones(100), rng.standard_normal(100).cumsum() / 10.0, np.linspace(-1, 1, 100)]
        engines = [_CountingDenseEngine(GpDataset(design=design, x=x), 2.5) for x in paths]
        engines.append(_CountingDenseEngine(GpDataset(design=gen_perturbed_grid(1, 60, seed=1),
                                                      x=np.linspace(1, -1, 60)), 2.5))
        _CountingDenseEngine.failures = 0
        self._check(engines, ("profile",))
        assert _CountingDenseEngine.failures > 0

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_noise_chunk_does_not_change_the_draws(self, chunk, monkeypatch):
        # 7 does not divide the 550 steps, so the last chunk is partial
        rng = np.random.default_rng(23)
        runs = self._runs([OuEngine(ou_data(n, rng)) for n in (25, 40)], ("profile", "tilted"))
        default = self._run(runs)
        monkeypatch.setattr(posterior, "NOISE_CHUNK", chunk)
        chunked = self._run(runs)
        assert len(chunked[0]) == len(default[0])
        assert all(np.array_equal(a, b) for a, b in zip(chunked[0], default[0]))
        assert np.array_equal(chunked[1], default[1])
