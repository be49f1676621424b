"""Sampling designs, Gaussian log-likelihoods, per-alpha profile statistics,
and the O(n) Ornstein-Uhlenbeck fast path (nu = 1/2, d = 1).

The likelihood of a dataset is evaluated by one engine, built once per
dataset: :class:`DenseEngine` (dense Cholesky) or :class:`OuEngine` (O(n)
Markov factorization), chosen by :func:`likelihood_engine`; the backend is
picked nowhere else.  The posteriors of R datasets of one size are evaluated
together by a :class:`LikelihoodBlock` of their engines.  The module-level
functions are thin wrappers that build a throwaway engine.

The log-likelihood convention throughout drops the -(n/2) log(2 pi) constant:

    L_n(sigma2, alpha) = -(n/2) log sigma2 - (1/2) log|R_alpha|
                         - (1/(2 sigma2)) x' R_alpha^{-1} x

The OU engine subtracts the same constant so cross-checks against the
dense path are exact rather than up to a constant.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .kernels import MaternSpec, matern_correlation, matern_kernel

__all__ = [
    "Design",
    "GpDataset",
    "ProfileStats",
    "OuStats",
    "NotPositiveDefiniteError",
    "DegenerateDataError",
    "DenseEngine",
    "OuEngine",
    "LikelihoodBlock",
    "likelihood_engine",
    "is_ou_model",
    "build_correlation_matrix",
    "cholesky",
    "log_likelihood",
    "profile_stats",
    "ou_stats",
    "ou_loglik_fast",
    "ou_profile_stats",
    "load_dataset",
    "save_dataset",
]


class NotPositiveDefiniteError(Exception):
    """Cholesky failure; ``pivot`` is the 1-based index of the failing minor."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix not positive definite at pivot {pivot}")


class DegenerateDataError(Exception):
    """Quadratic form of the data collapsed to a non-positive value."""


@dataclass(frozen=True)
class Design:
    """Distinct sampling points in [0, T]^d, d in {1, 2, 3}.

    Points are stored as an (n, d) array.  For d = 1 they are sorted
    ascending, which the OU fast path requires.
    """

    points: np.ndarray
    T: float = 1.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] not in (1, 2, 3):
            raise ValueError(f"points must be (n, d) with d in {{1,2,3}}, got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("a design needs at least one point, got none")
        if not self.T > 0:
            raise ValueError(f"domain size T must be positive, got {self.T}")
        if np.any(pts < 0) or np.any(pts > self.T):
            raise ValueError("all coordinates must lie in [0, T]")
        if pts.shape[1] == 1:
            pts = pts[np.argsort(pts[:, 0])]
            if np.any(np.diff(pts[:, 0]) <= 0):
                raise ValueError("design points must be pairwise distinct")
        else:
            diff = pts[:, None, :] - pts[None, :, :]
            dist2 = np.einsum("ijk,ijk->ij", diff, diff)
            np.fill_diagonal(dist2, np.inf)
            if dist2.min() <= 0.0:
                raise ValueError("design points must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def coords_1d(self) -> np.ndarray:
        """Sorted coordinate vector; only defined for d = 1."""
        if self.d != 1:
            raise ValueError(f"coords_1d requires d = 1, design has d = {self.d}")
        return self.points[:, 0]

    def distance_matrix(self) -> np.ndarray:
        diff = self.points[:, None, :] - self.points[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


@dataclass(frozen=True)
class GpDataset:
    """A design together with the observed vector on it."""

    design: Design
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.design.n:
            raise ValueError(
                f"x must be a length-{self.design.n} vector, got shape {x.shape}"
            )
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.design.n


@dataclass(frozen=True)
class ProfileStats:
    """Per-alpha profile quantities: the variance and microergodic maximizers
    and the profiled log-likelihood."""

    alpha: float
    nu: float
    sigma2_tilde: float
    theta_tilde: float
    profile_loglik: float


@dataclass(frozen=True)
class OuStats:
    """Quadratic statistics of a 1-d observation vector.

    a1 sums interior squares, a2 the lag-1 cross products, a3 all squares;
    a1 + a3 - 2 a2 is a sum of squared increments and hence nonnegative.
    """

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        if self.a1 + self.a3 - 2.0 * self.a2 < -1e-12 * max(self.a3, 1.0):
            raise ValueError("invalid OU statistics: a1 + a3 - 2 a2 < 0")


def build_correlation_matrix(design: Design, alpha: float, nu: float) -> np.ndarray:
    """Matern correlation matrix of a design; unit diagonal, symmetric."""
    dist = design.distance_matrix()
    r = matern_correlation(alpha, nu, dist)
    np.fill_diagonal(r, 1.0)
    return r


def cholesky(r: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the symmetric positive-definite ``r`` by LAPACK
    ``dpotrf``, with no jitter: a failure raises :class:`NotPositiveDefiniteError`
    with its 1-based pivot.

    A C-ordered ``r`` is overwritten: its Fortran-ordered transpose is
    factorized in place and returned.  Only the lower triangle is the factor;
    the strict upper triangle still holds entries of ``r``.
    """
    chol, info = lapack.dpotrf(r.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(int(info))
    if info < 0:
        raise ValueError(f"invalid argument {-info} to dpotrf")
    return chol


class _Engine:
    """Likelihood of one dataset with its geometry validated once.

    Subclasses provide ``_terms(alpha) -> (x' R^{-1} x, log|R|)``; the
    log-likelihood and the profile are shared.
    """

    data: GpDataset
    nu: float

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def is_ou(self) -> bool:
        """True when the model is the OU process (d = 1, nu = 1/2), whichever
        backend evaluates it."""
        return is_ou_model(self.data.design.d, self.nu)

    def loglik(self, sigma2: float, alpha: float) -> float:
        """-(1/2) log|sigma2 R| - (1/2) x' (sigma2 R)^{-1} x."""
        if not sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {sigma2}")
        return _loglik(self.n, sigma2, *self._terms(alpha))

    def profile(self, alpha: float) -> ProfileStats:
        """Profile out the variance at fixed alpha.

        sigma2_tilde = x' R^{-1} x / n,  theta_tilde = sigma2_tilde alpha^{2 nu},
        profile_loglik = -(n/2) log(x' R^{-1} x / n) - (1/2) log|R|.
        """
        qf, log_det = self._terms(alpha)
        if qf <= 0.0:
            raise DegenerateDataError(f"x' R^{{-1}} x = {qf} is not positive")
        sigma2_tilde = qf / self.n
        return ProfileStats(
            alpha=float(alpha),
            nu=self.nu,
            sigma2_tilde=sigma2_tilde,
            theta_tilde=sigma2_tilde * alpha ** (2.0 * self.nu),
            profile_loglik=_profile_loglik(self.n, qf, log_det),
        )


def _loglik(n, sigma2, qf, log_det):
    """The log-likelihood from an engine's terms, for one dataset or row-wise;
    every engine and block evaluates it here."""
    return -0.5 * n * np.log(sigma2) - 0.5 * log_det - qf / (2.0 * sigma2)


def _profile_loglik(n, qf, log_det):
    """The profile log-likelihood from an engine's terms, as :func:`_loglik`."""
    return -0.5 * n * np.log(qf / n) - 0.5 * log_det


class DenseEngine(_Engine):
    """Dense Cholesky likelihood under Matern smoothness ``nu``.

    The distance matrix is built once; distances are nonnegative by
    construction, so the per-call checks of :func:`matern_correlation` are
    not needed.  Each evaluation builds the correlation from the cached
    distances, factorizes it in place with :func:`cholesky` and whitens the
    data with LAPACK ``dtrtrs``.
    """

    def __init__(self, data: GpDataset, nu: float):
        if not np.all(np.isfinite(data.x)):
            raise ValueError("observations must be finite")
        self.data = data
        self.nu = float(nu)
        self.dist = data.design.distance_matrix()
        self._corr = matern_kernel(self.nu)

    def _terms(self, alpha):
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        r = self._corr(alpha * self.dist)
        np.fill_diagonal(r, 1.0)
        chol = cholesky(r)
        # a successful dpotrf leaves a positive diagonal, so dtrtrs cannot fail
        y, _ = lapack.dtrtrs(chol, self.data.x, lower=1)
        return float(y @ y), 2.0 * np.sum(np.log(np.diag(chol)))

    def mse_factors(self, alpha0: float, points: np.ndarray):
        """:class:`fixedgp.kriging.DenseMseFactors` at the (K, d) ``points``."""
        from .kriging import DenseMseFactors
        return DenseMseFactors(self.data.design, self.nu, alpha0, points)


class OuEngine(_Engine):
    """Exact O(n) OU (nu = 1/2, d = 1) likelihood.

    Uses the Markov factorization with per-gap correlations
    rho_i = exp(-alpha (s_{i+1} - s_i)), valid for any strictly increasing
    1-d design; the gaps are computed and checked once.
    """

    nu = 0.5

    def __init__(self, data: GpDataset):
        if data.design.d != 1:
            raise ValueError(f"the OU engine requires d = 1, design has d = {data.design.d}")
        self.data = data
        self.gaps = np.diff(data.design.coords_1d)
        if np.any(self.gaps <= 0):
            raise ValueError("OU fast path requires strictly increasing points")
        x = data.x
        self._x0_sq, self._head, self._tail = x[0] ** 2, x[:-1], x[1:]

    def _terms(self, alpha):
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        qf, log_det = _ou_terms(self.gaps, self._x0_sq, self._head, self._tail, alpha)
        return float(qf), float(log_det)

    def mse_factors(self, alpha0: float, points: np.ndarray):
        """:class:`fixedgp.kriging.OuMseFactors` at the (K, 1) ``points``."""
        from .kriging import OuMseFactors
        return OuMseFactors(self.data.design.coords_1d, alpha0, points[:, 0])


def _ou_terms(gaps, x0_sq, head, tail, alpha):
    """x' R^{-1} x and log|R| of the OU model from the per-gap correlations
    rho_i = exp(-alpha g_i) and the Markov residuals x_{i+1} - rho_i x_i.

    Every reduction runs along the last axis, so one dataset (1-d arrays,
    scalar alpha) and a stack of R datasets ((R, n-1) arrays, an (R, 1)
    column of alphas) give each dataset the same numbers.
    """
    rho = np.exp(-alpha * gaps)
    one_minus_rho2 = -np.expm1(-2.0 * alpha * gaps)
    resid = tail - rho * head
    # np.add.reduce is the reduction np.sum runs, minus its Python wrapper
    qf = x0_sq + np.add.reduce(resid**2 / one_minus_rho2, axis=-1)
    return qf, np.add.reduce(np.log(one_minus_rho2), axis=-1)


class LikelihoodBlock:
    """The engines of R datasets of one size and one smoothness, evaluated
    together.  Each method maps R rows to R values, -inf in a row whose
    parameters are invalid, whose correlation fails to factorize, or whose
    profile is degenerate (x' R^{-1} x <= 0).

    The backends differ only in :meth:`terms`: the arrays of OU engines are
    stacked so that one :func:`_ou_terms` call evaluates every row, and
    other engines are evaluated one row at a time.
    """

    def __init__(self, engines):
        engines = list(engines)
        self.n, self.nu = engines[0].n, engines[0].nu
        if any(e.n != self.n or e.nu != self.nu for e in engines):
            raise ValueError("a likelihood block holds datasets of one size and one nu")
        self.engines = engines
        self._stacked = None
        if all(isinstance(e, OuEngine) for e in engines):
            self._stacked = (np.stack([e.gaps for e in engines]),
                             np.array([e._x0_sq for e in engines]),
                             np.stack([e._head for e in engines]),
                             np.stack([e._tail for e in engines]))

    def terms(self, alpha):
        """Row-wise x' R^{-1} x and log|R| at the (R,) positive ``alpha``;
        (inf, 0) in a row whose correlation fails to factorize, which the
        methods below turn into -inf."""
        if self._stacked is not None:
            return _ou_terms(*self._stacked, alpha[:, None])
        qf, log_det = np.empty(alpha.shape[0]), np.empty(alpha.shape[0])
        for r, (engine, a) in enumerate(zip(self.engines, alpha)):
            try:
                qf[r], log_det[r] = engine._terms(a)
            except NotPositiveDefiniteError:
                qf[r], log_det[r] = np.inf, 0.0
        return qf, log_det

    def log_posterior(self, p, prior):
        """Joint log posterior at the (R, 2) rows (theta, alpha)."""
        theta, alpha = p[:, 0], p[:, 1]
        ok = np.all((p > 0) & (p < np.inf), axis=1)
        if not ok.all():
            theta, alpha = np.where(ok, theta, 1.0), np.where(ok, alpha, 1.0)
        sigma2 = theta / alpha ** (2.0 * self.nu)
        ok &= (sigma2 > 0) & (sigma2 < np.inf)
        if not ok.all():
            sigma2 = np.where(ok, sigma2, 1.0)
        out = (_loglik(self.n, sigma2, *self.terms(alpha))
               + prior.theta_prior.logpdf(theta) + prior.alpha_prior.logpdf(alpha))
        return np.where(ok, out, -np.inf)

    def log_profile_posterior(self, alpha, prior):
        """Profile log-likelihood plus log alpha prior at the (R,) ``alpha``."""
        ok = (alpha > 0) & (alpha < np.inf)
        if not ok.all():
            alpha = np.where(ok, alpha, 1.0)
        qf, log_det = self.terms(alpha)
        ok &= qf > 0.0
        if not ok.all():
            qf = np.where(ok, qf, 1.0)
        out = _profile_loglik(self.n, qf, log_det) + prior.alpha_prior.logpdf(alpha)
        return np.where(ok, out, -np.inf)


def is_ou_model(d: int, nu: float) -> bool:
    """The Ornstein-Uhlenbeck model: d = 1 and nu = 1/2."""
    return d == 1 and abs(nu - 0.5) < 1e-14


def likelihood_engine(data: GpDataset, nu: float, likelihood: str = "dense") -> _Engine:
    """The engine of a dataset: :class:`OuEngine` when ``likelihood == "ou"``
    and the model is OU, :class:`DenseEngine` otherwise."""
    if likelihood not in ("ou", "dense"):
        raise ValueError(f"likelihood must be 'ou' or 'dense', got {likelihood!r}")
    if likelihood == "ou" and is_ou_model(data.design.d, nu):
        return OuEngine(data)
    return DenseEngine(data, nu)


def log_likelihood(data: GpDataset, spec: MaternSpec) -> float:
    """Exact Gaussian log-likelihood (2 pi constant dropped), dense path."""
    return DenseEngine(data, spec.nu).loglik(spec.sigma2, spec.alpha)


def profile_stats(data: GpDataset, alpha: float, nu: float) -> ProfileStats:
    """Dense profile statistics at fixed alpha; see :meth:`DenseEngine.profile`."""
    return DenseEngine(data, nu).profile(alpha)


def ou_stats(data: GpDataset) -> OuStats:
    """Interior, cross, and total quadratic statistics of a 1-d dataset."""
    if data.design.d != 1:
        raise ValueError(f"ou_stats requires d = 1, design has d = {data.design.d}")
    x = data.x
    return OuStats(
        a1=float(x[1:-1] @ x[1:-1]),
        a2=float(x[:-1] @ x[1:]),
        a3=float(x @ x),
    )


def ou_loglik_fast(data: GpDataset, sigma2: float, alpha: float) -> float:
    """Exact OU (nu = 1/2, d = 1) log-likelihood in O(n); see :class:`OuEngine`."""
    return OuEngine(data).loglik(sigma2, alpha)


def ou_profile_stats(data: GpDataset, alpha: float) -> ProfileStats:
    """O(n) version of :func:`profile_stats` for nu = 1/2, d = 1 designs."""
    return OuEngine(data).profile(alpha)


def load_dataset(path, T: float = 1.0) -> GpDataset:
    """Read a dataset CSV with header ``s1[,s2[,s3]],x``.

    Validates coordinate bounds and pairwise distinctness through
    :class:`Design`; 1-d rows are sorted jointly with their observations.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [[float(v) for v in row] for row in reader if row]
    expected = [f"s{i + 1}" for i in range(len(header) - 1)] + ["x"]
    if [h.strip() for h in header] != expected:
        raise ValueError(f"bad dataset header {header}, expected {expected}")
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(header):
        raise ValueError("malformed dataset rows")
    pts, x = arr[:, :-1], arr[:, -1]
    if pts.shape[1] == 1:
        order = np.argsort(pts[:, 0])
        pts, x = pts[order], x[order]
    return GpDataset(design=Design(points=pts, T=T), x=x)


def save_dataset(data: GpDataset, path) -> None:
    """Write the ``s1[,s2[,s3]],x`` CSV for :func:`load_dataset`."""
    d = data.design.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"s{i + 1}" for i in range(d)] + ["x"])
        for row, xi in zip(data.design.points, data.x):
            writer.writerow([f"{v:.17g}" for v in row] + [f"{xi:.17g}"])
