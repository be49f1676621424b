import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular

from fixedgp.gp import (
    DegenerateDataError,
    DenseEngine,
    Design,
    GpDataset,
    NotPositiveDefiniteError,
    OuEngine,
    build_correlation_matrix,
    cholesky,
    likelihood_engine,
    load_dataset,
    log_likelihood,
    ou_loglik_fast,
    save_dataset,
)
from fixedgp.kernels import MaternSpec, matern_correlation
from fixedgp.posterior import PriorSpec, lockstep_target

from conftest import (joint_posterior_logdensity, ou_profile_loglik, ou_stats,
                      profile_posterior_logdensity, tilted_logdensity)


def equispaced_design(n):
    return Design(points=(np.arange(1, n + 1) / n)[:, None])


def ou_dataset(n, rng, alpha0=0.5, sigma2_0=1.0, perturb=True):
    pts = (2 * np.arange(1, n + 1) - 1) / (2 * n)
    if perturb:
        pts = pts + rng.uniform(-2e-4, 2e-4, n)
    design = Design(points=pts[:, None])
    r = np.exp(-alpha0 * np.abs(pts[:, None] - pts[None, :]))
    x = np.linalg.cholesky(sigma2_0 * r) @ rng.standard_normal(n)
    return GpDataset(design=design, x=x)


def ou_tridiagonal_inverse(n, alpha):
    """Closed-form inverse correlation matrix on the grid s_i = i/n."""
    e1 = np.exp(-alpha / n)
    e2 = np.exp(-2.0 * alpha / n)
    inv = np.zeros((n, n))
    for i in range(n):
        inv[i, i] = 1.0 / (1.0 - e2) if i in (0, n - 1) else (1.0 + e2) / (1.0 - e2)
    for i in range(n - 1):
        inv[i, i + 1] = inv[i + 1, i] = -e1 / (1.0 - e2)
    return inv


class TestDesign:
    def test_order_and_dimensions(self):
        # the points keep their given order, so each stays paired with its
        # observation
        d = Design(points=np.array([[0.9], [0.1], [0.5]]))
        assert d.coords_1d.tolist() == [0.9, 0.1, 0.5]
        assert (d.n, d.d) == (3, 1)
        data = GpDataset(design=d, x=np.array([9.0, 1.0, 5.0]))
        assert dict(zip(data.design.coords_1d, data.x)) == {0.9: 9.0, 0.1: 1.0, 0.5: 5.0}

    def test_likelihood_does_not_depend_on_point_order(self, rng):
        pts, x = rng.uniform(0, 1, 10), rng.standard_normal(10)
        order = np.argsort(pts)
        shuffled = DenseEngine(GpDataset(design=Design(points=pts[:, None]), x=x), 0.5)
        ordered = DenseEngine(GpDataset(design=Design(points=pts[order, None]), x=x[order]), 0.5)
        assert np.any(np.diff(pts) < 0)
        for alpha in (0.3, 2.0, 9.0):
            assert shuffled.loglik(1.7, alpha) == pytest.approx(ordered.loglik(1.7, alpha),
                                                                rel=1e-12)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Design(points=np.array([[0.1], [0.1]]))
        with pytest.raises(ValueError):
            Design(points=np.array([[0.1, 0.2], [0.1, 0.2]]))

    def test_rejects_an_empty_point_set(self):
        from fixedgp.experiments import gen_perturbed_grid
        for points in (np.empty(0), np.empty((0, 2))):
            with pytest.raises(ValueError, match="at least one point"):
                Design(points=points)
        with pytest.raises(ValueError, match="at least one point"):
            gen_perturbed_grid(1, 0, seed=0)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            Design(points=np.array([[1.5]]))
        with pytest.raises(ValueError):
            Design(points=np.array([[-0.1]]))
        # the domain is [0, 1]^d: NaN fails both bounds, and the message names
        # the first bad point
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"1 of 3 points do not, the first \[0.4, "):
                Design(points=np.array([[0.1, 0.2], [0.4, bad], [0.9, 0.9]]))

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(1, 3), data=st.data())
    def test_distinct_exactly_when_no_two_rows_are_equal(self, d, data):
        # few coordinate values, signed zeros and injected copies of drawn
        # rows, so that equal rows are common
        coord = st.sampled_from([0.0, -0.0, 0.25, 1.0]) | st.floats(0.0, 1.0)
        rows = data.draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8))
        copies = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
        rows = data.draw(st.permutations(rows + [rows[i] for i in copies]))
        # the brute-force pairwise oracle: float ==, so -0.0 equals 0.0
        distinct = not any(rows[i] == rows[j]
                           for i in range(len(rows)) for j in range(i + 1, len(rows)))
        if distinct:
            assert Design(points=np.array(rows)).n == len(rows)
        else:
            with pytest.raises(ValueError, match="pairwise distinct"):
                Design(points=np.array(rows))

    def test_dataset_length_check(self):
        d = Design(points=np.array([[0.1], [0.2]]))
        with pytest.raises(ValueError):
            GpDataset(design=d, x=np.array([1.0]))


class TestCorrelationMatrix:
    def test_single_point(self):
        r = build_correlation_matrix(Design(points=np.array([[0.3]])), 1.0, 0.5)
        assert r.shape == (1, 1) and r[0, 0] == 1.0

    def test_two_point_exponential(self):
        d = Design(points=np.array([[0.0], [1.0]]))
        r = build_correlation_matrix(d, 0.5, 0.5)
        assert r[0, 1] == pytest.approx(np.exp(-0.5), rel=1e-14)
        assert r[1, 0] == r[0, 1] and r[0, 0] == 1.0

    def test_entrywise_against_kernel(self, rng):
        pts = rng.uniform(0, 1, (4, 2))
        d = Design(points=pts)
        r = build_correlation_matrix(d, 1.3, 1.5)
        for i in range(4):
            for j in range(4):
                h = np.linalg.norm(pts[i] - pts[j])
                expected = 1.0 if i == j else matern_correlation(1.3, 1.5, h)
                assert r[i, j] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 0.8, 3.7])
    def test_unit_diagonal_with_no_reset(self, nu, rng):
        # the diagonal distances are exactly 0, and every kernel is exactly 1
        # there, so the correlation needs no diagonal patch
        for d in (1, 2):
            design = Design(points=rng.uniform(0, 1, (12, d)))
            assert np.all(np.diag(design.distance_matrix()) == 0.0)
            for alpha in (1e-8, 1.0, 1e3):
                assert np.all(np.diag(build_correlation_matrix(design, alpha, nu)) == 1.0)


def chol_log_det(chol):
    return 2.0 * np.sum(np.log(np.diag(chol)))


class TestFactorize:
    def test_identity(self):
        assert chol_log_det(cholesky(np.eye(5))) == pytest.approx(0.0, abs=1e-14)

    def test_two_by_two_closed_form(self):
        rho = 0.37
        chol = cholesky(np.array([[1.0, rho], [rho, 1.0]]))
        assert chol_log_det(chol) == pytest.approx(np.log(1 - rho**2), rel=1e-14)

    def test_ou_grid_determinant(self):
        n, alpha = 6, 0.8
        r = build_correlation_matrix(equispaced_design(n), alpha, 0.5)
        assert chol_log_det(cholesky(r)) == pytest.approx(
            (n - 1) * np.log(1 - np.exp(-2 * alpha / n)), rel=1e-12)

    def test_not_positive_definite_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot == 2

    def test_scale_in_log_det_and_solves(self, rng):
        r = build_correlation_matrix(Design(points=rng.uniform(0, 1, (6, 1))), 1.0, 0.5)
        chol = cholesky(3.0 * r)
        assert chol_log_det(chol) == pytest.approx(np.linalg.slogdet(3.0 * r)[1], rel=1e-12)
        v = rng.standard_normal(6)
        y = solve_triangular(chol, v, lower=True)
        assert y @ y == pytest.approx(v @ np.linalg.solve(3.0 * r, v), rel=1e-10)

    def test_reconstruction_roundtrip(self, rng):
        for n in (5, 20, 50):
            d = Design(points=rng.uniform(0, 1, (n, 2)))
            r = build_correlation_matrix(d, 0.8, 1.5)
            low = np.tril(cholesky(2.5 * r))
            assert np.max(np.abs(low @ low.T - 2.5 * r)) <= 1e-8 * 2.5

    def test_factorizes_in_place(self, rng):
        # the contract callers rely on: a C-ordered input is overwritten by
        # its Fortran-ordered factor, whose strict upper triangle keeps r
        r = build_correlation_matrix(Design(points=rng.uniform(0, 1, (7, 2))), 1.2, 1.5)
        before = r.copy()
        chol = cholesky(r)
        assert np.shares_memory(chol, r) and chol.flags.f_contiguous
        upper = np.triu_indices(7, 1)
        assert np.array_equal(chol[upper], before[upper])


class TestLogLikelihood:
    def test_single_point(self):
        data = GpDataset(design=Design(points=np.array([[0.5]])), x=np.array([2.0]))
        assert log_likelihood(data, MaternSpec(1.0, 1.0, 0.5)) == pytest.approx(-2.0, abs=1e-14)

    def test_matches_explicit_two_by_two(self, rng):
        pts = np.array([0.2, 0.7])
        data = GpDataset(design=Design(points=pts[:, None]), x=rng.standard_normal(2))
        for alpha in (0.3, 1.0, 4.0):
            sigma2 = 1.7
            rho = np.exp(-alpha * 0.5)
            cov = sigma2 * np.array([[1.0, rho], [rho, 1.0]])
            expected = (-0.5 * np.linalg.slogdet(cov)[1]
                        - 0.5 * data.x @ np.linalg.inv(cov) @ data.x)
            got = log_likelihood(data, MaternSpec(sigma2, alpha, 0.5))
            assert got == pytest.approx(expected, abs=1e-10)

    def test_dense_matches_ou_fast(self, rng):
        for n in (2, 50, 200, 500):
            data = ou_dataset(n, rng)
            for sigma2, alpha in [(1.0, 0.5), (0.4, 2.0), (2.3, 0.9)]:
                dense = log_likelihood(data, MaternSpec(sigma2, alpha, 0.5))
                fast = ou_loglik_fast(data, sigma2, alpha)
                assert fast == pytest.approx(dense, abs=1e-8)

    def test_scale_equivariance(self, rng):
        data = ou_dataset(40, rng)
        c = 2.7
        scaled = GpDataset(design=data.design, x=c * data.x)
        base = log_likelihood(data, MaternSpec(1.3, 0.8, 0.5))
        moved = log_likelihood(scaled, MaternSpec(c**2 * 1.3, 0.8, 0.5))
        assert moved == pytest.approx(base - 40 * np.log(c), abs=1e-10)


class TestProfileStats:
    def test_single_point(self):
        data = GpDataset(design=Design(points=np.array([[0.5]])), x=np.array([3.0]))
        ps = DenseEngine(data, 0.5).profile(2.0)
        assert ps.sigma2_tilde == pytest.approx(9.0, rel=1e-14)
        assert ps.theta_tilde == pytest.approx(18.0, rel=1e-14)

    def test_theta_monotone_in_alpha(self, rng):
        alphas = np.logspace(-3, 3, 50)
        for _ in range(8):
            data = ou_dataset(40, rng)
            engine = OuEngine(data)
            tt = np.array([engine.profile(a).theta_tilde for a in alphas])
            assert np.all(np.diff(tt) >= -1e-10 * tt[1:])

    def test_theta_monotone_dense_designs(self, rng):
        # dense path: near alpha -> 0 the correlation matrix approaches
        # rank one, so the achievable slack is set by conditioning, not by
        # the exact-arithmetic monotonicity
        alphas = np.logspace(-3, 3, 50)
        for d, nu in [(1, 0.5), (2, 1.5)]:
            pts = rng.uniform(0, 1, (8, d))
            x = rng.standard_normal(8)
            data = GpDataset(design=Design(points=pts), x=x)
            engine = DenseEngine(data, nu)
            tt = np.array([engine.profile(a).theta_tilde for a in alphas])
            assert np.all(np.diff(tt) >= -1e-4 * tt[1:])
            well_posed = alphas >= 0.05
            twp = tt[well_posed]
            assert np.all(np.diff(twp) >= -1e-10 * twp[1:])

    def test_substitution_into_log_likelihood(self, rng):
        # plugging the profiled variance back into the likelihood recovers
        # the profile value minus n/2
        data = ou_dataset(25, rng)
        for alpha in (0.4, 1.7):
            ps = DenseEngine(data, 0.5).profile(alpha)
            full = log_likelihood(data, MaternSpec(ps.sigma2_tilde, alpha, 0.5))
            assert full == pytest.approx(ps.profile_loglik - 25 / 2.0, abs=1e-9)

    def test_fast_matches_dense(self, rng):
        data = ou_dataset(60, rng)
        for alpha in (0.2, 1.0, 5.0):
            dense = DenseEngine(data, 0.5).profile(alpha)
            fast = OuEngine(data).profile(alpha)
            assert fast.theta_tilde == pytest.approx(dense.theta_tilde, rel=1e-10)
            assert fast.profile_loglik == pytest.approx(dense.profile_loglik, abs=1e-8)


class TestOuStats:
    """The statistics of the oracle, and the tilted target written in them."""

    alphas = np.array([0.05, 0.5, 1.0, 3.0, 12.0])

    def _tilted(self, data):
        return lockstep_target(PriorSpec(), tilted=[OuEngine(data)])(self.alphas[:, None])

    def test_examples(self):
        d3 = Design(points=np.array([[0.1], [0.2], [0.3]]))
        data = GpDataset(design=d3, x=np.array([0.0, 1.0, 0.0]))
        s = ou_stats(data)
        assert (s.a1, s.a2, s.a3) == (1.0, 0.0, 1.0)
        # u* = 3 (1 - 0) / 1 and v* = 3 (1 - 0 + 1) / 1
        assert self._tilted(data) == pytest.approx(
            tilted_logdensity(3.0, 6.0, PriorSpec(), self.alphas), rel=1e-14)
        d4 = Design(points=np.array([[0.1], [0.2], [0.3], [0.4]]))
        data = GpDataset(design=d4, x=np.ones(4))
        s = ou_stats(data)
        assert (s.a1, s.a2, s.a3) == (2.0, 3.0, 4.0)
        # v* = 4 (2 - 6 + 4) / 2 = 0
        with pytest.raises(DegenerateDataError):
            self._tilted(data)

    def test_matches_naive_summation(self, rng):
        x = rng.standard_normal(50)
        d = Design(points=np.sort(rng.uniform(0, 1, 50))[:, None])
        data = GpDataset(design=d, x=x)
        s = ou_stats(data)
        a1 = sum(x[i] ** 2 for i in range(1, 49))
        a2 = sum(x[i] * x[i + 1] for i in range(49))
        a3 = sum(v**2 for v in x)
        assert s.a1 == pytest.approx(a1, rel=1e-14)
        assert s.a2 == pytest.approx(a2, rel=1e-14)
        assert s.a3 == pytest.approx(a3, rel=1e-14)
        u_star, v_star = 50 * (a1 - a2) / a1, 50 * (a1 - 2 * a2 + a3) / a1
        assert self._tilted(data) == pytest.approx(
            tilted_logdensity(u_star, v_star, PriorSpec(), self.alphas), rel=1e-12)

    def test_requires_1d(self, rng):
        d = Design(points=rng.uniform(0, 1, (5, 2)))
        engine = DenseEngine(GpDataset(design=d, x=np.zeros(5)), 0.5)
        with pytest.raises(ValueError):
            lockstep_target(PriorSpec(), tilted=[engine])


class TestOuProfileLoglik:
    def test_equals_dense_profile_up_to_known_constant(self, rng):
        for n in (5, 20, 100):
            design = equispaced_design(n)
            r = np.exp(-0.5 * np.abs(design.coords_1d[:, None] - design.coords_1d[None, :]))
            x = np.linalg.cholesky(r) @ rng.standard_normal(n)
            data = GpDataset(design=design, x=x)
            stats = ou_stats(data)
            for alpha in (0.3, 1.0, 2.5):
                closed = ou_profile_loglik(stats, n, alpha)
                dense = DenseEngine(data, 0.5).profile(alpha).profile_loglik
                assert closed == pytest.approx(dense - 0.5 * n * np.log(n), abs=1e-8)

    def test_diverges_as_alpha_vanishes(self, rng):
        # the log(1 - e^{-2 alpha/n}) term sinks logarithmically
        data = ou_dataset(20, rng, perturb=False)
        stats = ou_stats(data)
        vals = [ou_profile_loglik(stats, 20, a) for a in (1.0, 1e-2, 1e-4, 1e-6, 1e-8)]
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < vals[0] - 8.0

    def test_constant_path_argument_positive(self):
        n = 12
        d = equispaced_design(n)
        stats = ou_stats(GpDataset(design=d, x=np.full(n, 3.0)))
        q = lambda a: stats.a1 * np.exp(-2 * a / n) - 2 * stats.a2 * np.exp(-a / n) + stats.a3
        for alpha in np.logspace(-6, 3, 40):
            assert q(alpha) > 0

    def test_alpha_domain(self):
        stats = ou_stats(GpDataset(design=equispaced_design(3), x=np.array([0.0, 1.0, 0.0])))
        with pytest.raises(ValueError):
            ou_profile_loglik(stats, 3, -1.0)


class TestOuFastPath:
    def test_closed_form_inverse_and_determinant(self):
        # the tridiagonal closed form against dense linear algebra
        for n in (2, 5, 10):
            for alpha in (0.3, 1.0, 4.0):
                r = build_correlation_matrix(equispaced_design(n), alpha, 0.5)
                inv_closed = ou_tridiagonal_inverse(n, alpha)
                assert np.max(np.abs(np.linalg.inv(r) - inv_closed)) < 1e-10
                det_closed = (n - 1) * np.log(1 - np.exp(-2 * alpha / n))
                assert np.linalg.slogdet(r)[1] == pytest.approx(det_closed, abs=1e-10)

    def test_equispaced_log_determinant_identity(self, rng):
        n, alpha = 30, 1.2
        design = equispaced_design(n)
        x = rng.standard_normal(n)
        data = GpDataset(design=design, x=x)
        qf = n * OuEngine(data).profile(alpha).sigma2_tilde
        log_det = -2.0 * ou_loglik_fast(data, 1.0, alpha) - qf
        assert log_det == pytest.approx((n - 1) * np.log(1 - np.exp(-2 * alpha / n)), abs=1e-9)

    def test_single_point(self):
        data = GpDataset(design=Design(points=np.array([[0.5]])), x=np.array([1.3]))
        expected = -0.5 * np.log(2.0) - 1.3**2 / 4.0
        assert ou_loglik_fast(data, 2.0, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_parameter_validation(self):
        data = GpDataset(design=Design(points=np.array([[0.1], [0.2]])), x=np.zeros(2))
        with pytest.raises(ValueError):
            ou_loglik_fast(data, -1.0, 1.0)
        with pytest.raises(ValueError):
            ou_loglik_fast(data, 1.0, 0.0)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path, rng):
        data = ou_dataset(12, rng)
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        back = load_dataset(path)
        assert np.allclose(back.design.points, data.design.points)
        assert np.allclose(back.x, data.x)

    def test_round_trip_2d(self, tmp_path, rng):
        d = Design(points=rng.uniform(0, 1, (9, 2)))
        data = GpDataset(design=d, x=rng.standard_normal(9))
        path = tmp_path / "data2.csv"
        save_dataset(data, path)
        back = load_dataset(path)
        assert np.allclose(back.design.points, d.points)

    def test_header_validation(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n0.1,0.2\n")
        with pytest.raises(ValueError):
            load_dataset(p)

    def test_bounds_validation(self, tmp_path):
        p = tmp_path / "oob.csv"
        p.write_text("s1,x\n1.5,0.2\n")
        with pytest.raises(ValueError):
            load_dataset(p)

    def test_duplicate_validation(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("s1,x\n0.5,0.2\n0.5,0.3\n")
        with pytest.raises(ValueError):
            load_dataset(p)


def _matern_oracle(nu, t):
    """Closed-form Matern correlations of the scaled distance t, written out
    independently of fixedgp.kernels."""
    if nu == 0.5:
        return np.exp(-t)
    if nu == 1.5:
        return (1.0 + t) * np.exp(-t)
    raise ValueError(nu)


def _dense_oracle(data, nu, sigma2, alpha):
    """(log-likelihood, profile log-likelihood, theta_tilde) from slogdet and
    solve on the explicitly built covariance."""
    pts = data.design.points
    h = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    r = _matern_oracle(nu, alpha * h)
    n = data.n
    _, logdet = np.linalg.slogdet(r)
    qf = data.x @ np.linalg.solve(r, data.x)
    loglik = -0.5 * n * np.log(sigma2) - 0.5 * logdet - 0.5 * qf / sigma2
    profile = -0.5 * n * np.log(qf / n) - 0.5 * logdet
    return loglik, profile, qf / n * alpha ** (2 * nu)


class TestLikelihoodEngines:
    @pytest.mark.parametrize("d, nu", [(2, 0.5), (1, 1.5)])
    def test_dense_engine_against_slogdet_oracle(self, rng, d, nu):
        from fixedgp.experiments import gen_perturbed_grid, sample_gp_path

        design = gen_perturbed_grid(d, 10 if d == 2 else 60, seed=4)
        data = sample_gp_path(design, MaternSpec(1.0, 0.5, nu), seed=5)
        engine = DenseEngine(data, nu)
        # alphas where R is well enough conditioned for the oracle's own error
        # to stay below the tolerance
        for sigma2, alpha in ((1.0, 2.0), (0.3, 5.0), (4.0, 20.0)):
            ll, prof, theta = _dense_oracle(data, nu, sigma2, alpha)
            assert engine.loglik(sigma2, alpha) == pytest.approx(ll, rel=1e-10)
            ps = engine.profile(alpha)
            assert ps.profile_loglik == pytest.approx(prof, rel=1e-10)
            assert ps.theta_tilde == pytest.approx(theta, rel=1e-10)

    def test_ou_engine_against_dense_engine(self, rng):
        data = ou_dataset(80, rng)
        ou, dense = OuEngine(data), DenseEngine(data, 0.5)
        for sigma2, alpha in ((1.0, 0.5), (0.3, 2.0), (4.0, 30.0)):
            assert ou.loglik(sigma2, alpha) == pytest.approx(dense.loglik(sigma2, alpha), rel=1e-9)
            a, b = ou.profile(alpha), dense.profile(alpha)
            assert a.profile_loglik == pytest.approx(b.profile_loglik, rel=1e-9)
            assert a.theta_tilde == pytest.approx(b.theta_tilde, rel=1e-9)

    def test_backend_choice(self, rng):
        data = ou_dataset(10, rng)
        assert isinstance(likelihood_engine(data, 0.5, "ou"), OuEngine)
        assert isinstance(likelihood_engine(data, 0.5, "dense"), DenseEngine)
        # OU was requested but the model is not OU
        assert isinstance(likelihood_engine(data, 1.5, "ou"), DenseEngine)
        with pytest.raises(ValueError):
            likelihood_engine(data, 0.5, "banana")

    @pytest.mark.parametrize("likelihood", ["ou", "dense"])
    def test_non_finite_observation_raises_on_both_backends(self, likelihood):
        # the dataset is checked once, for every backend
        design = Design(points=np.array([[0.1], [0.2], [0.3]]))
        with pytest.raises(ValueError, match="observations must be finite; 1 of 3 are not, "
                                             "the first nan"):
            likelihood_engine(GpDataset(design=design, x=np.array([0.5, np.nan, 1.0])), 0.5,
                              likelihood)

    @pytest.mark.parametrize("likelihood", ["ou", "dense"])
    def test_infinite_alpha_raises_on_both_backends(self, likelihood, rng):
        # both backends once returned the white-noise likelihood at alpha = inf
        engine = likelihood_engine(ou_dataset(20, rng), 0.5, likelihood)
        for call in (lambda: engine.loglik(1.0, np.inf), lambda: engine.profile(np.inf)):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                call()

    def test_geometry_checked_at_construction(self):
        design_2d = Design(points=np.array([[0.1, 0.2], [0.4, 0.9]]))
        with pytest.raises(ValueError):
            OuEngine(GpDataset(design=design_2d, x=np.zeros(2)))
        design = Design(points=np.array([[0.1], [0.2]]))
        with pytest.raises(ValueError):
            DenseEngine(GpDataset(design=design, x=np.array([0.0, np.nan])), 0.5)

    def test_cholesky_failure_surfaces_with_pivot(self):
        from fixedgp.experiments import gen_perturbed_grid
        from fixedgp.posterior import PriorSpec

        data = GpDataset(design=gen_perturbed_grid(1, 100, seed=0), x=np.ones(100))
        engine = DenseEngine(data, 2.5)
        with pytest.raises(NotPositiveDefiniteError) as dense_err:
            cholesky(build_correlation_matrix(data.design, 0.1, 2.5))
        for call in (lambda: engine.profile(0.1), lambda: engine.loglik(1.0, 0.1)):
            with pytest.raises(NotPositiveDefiniteError) as err:
                call()
            assert err.value.pivot == dense_err.value.pivot > 0
        prior = PriorSpec()
        assert joint_posterior_logdensity(engine, prior, 1e-5 * 0.1**5, 0.1) == -np.inf
        assert profile_posterior_logdensity(engine, prior, 0.1) == -np.inf
        assert np.isfinite(profile_posterior_logdensity(engine, prior, 0.5))
