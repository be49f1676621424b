"""Sampling designs, Gaussian log-likelihoods, per-alpha profile statistics,
and the O(n) Ornstein-Uhlenbeck fast path (nu = 1/2, d = 1).

The likelihood of a dataset is evaluated by one engine, built once per
dataset: :class:`DenseEngine` (dense Cholesky) or :class:`OuEngine` (O(n)
Markov factorization), chosen by :func:`likelihood_engine`; the backend is
picked nowhere else.  The likelihood terms of R datasets of one smoothness
are evaluated together by a :class:`LikelihoodBlock` of their engines.
:func:`log_likelihood` and :func:`ou_loglik_fast` evaluate one dataset at one
point through a throwaway engine, for checks that compare the two backends.

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
    "ou_loglik_fast",
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
    """Distinct sampling points in the fixed domain [0, 1]^d, d in {1, 2, 3}.

    Points are stored as an (n, d) array in the order given, so the i-th
    point stays paired with the i-th observation of a dataset.  The OU fast
    path requires d = 1 points in ascending order.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] not in (1, 2, 3):
            raise ValueError(f"points must be (n, d) with d in {{1,2,3}}, got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("a design needs at least one point, got none")
        # NaN fails both comparisons
        outside = ~np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
        if outside.any():
            raise ValueError(f"coordinates must be finite and lie in [0, 1]; {outside.sum()} of "
                             f"{pts.shape[0]} points do not, the first {pts[outside][0].tolist()}")
        # equal rows are adjacent once the rows are sorted lexicographically
        srt = pts[np.lexsort(pts.T)]
        if np.any(np.all(srt[1:] == srt[:-1], axis=1)):
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
        """Coordinate vector, in the design's order; only defined for d = 1."""
        if self.d != 1:
            raise ValueError(f"coords_1d requires d = 1, design has d = {self.d}")
        return self.points[:, 0]

    def distance_matrix(self) -> np.ndarray:
        diff = self.points[:, None, :] - self.points[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


@dataclass(frozen=True)
class GpDataset:
    """A design together with the finite observed vector on it: with
    :class:`Design`, the one check of a dataset for every backend."""

    design: Design
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.design.n:
            raise ValueError(
                f"x must be a length-{self.design.n} vector, got shape {x.shape}"
            )
        bad = ~np.isfinite(x)
        if bad.any():
            raise ValueError(f"observations must be finite; {bad.sum()} of {x.shape[0]} are not, "
                             f"the first {x[bad][0]}")
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.design.n


@dataclass(frozen=True)
class ProfileStats:
    """Per-alpha profile quantities: the variance and microergodic maximizers
    and the profiled log-likelihood."""

    sigma2_tilde: float
    theta_tilde: float
    profile_loglik: float


def build_correlation_matrix(design: Design, alpha: float, nu: float) -> np.ndarray:
    """Matern correlation matrix of a design; unit diagonal, symmetric."""
    return matern_correlation(alpha, nu, design.distance_matrix())


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

    Subclasses provide ``_terms(alpha) -> (x' R^{-1} x, log|R|)`` for a
    positive finite alpha; the log-likelihood and the profile, which check
    alpha, are shared.
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
        return _loglik(self.n, sigma2, *self._checked_terms(alpha))

    def profile(self, alpha: float) -> ProfileStats:
        """Profile out the variance at fixed alpha.

        sigma2_tilde = x' R^{-1} x / n,  theta_tilde = sigma2_tilde alpha^{2 nu},
        profile_loglik = -(n/2) log(x' R^{-1} x / n) - (1/2) log|R|.
        """
        qf, log_det = self._checked_terms(alpha)
        if qf <= 0.0:
            raise DegenerateDataError(f"x' R^{{-1}} x = {qf} is not positive")
        sigma2_tilde = qf / self.n
        return ProfileStats(
            sigma2_tilde=sigma2_tilde,
            theta_tilde=sigma2_tilde * alpha ** (2.0 * self.nu),
            profile_loglik=_profile_loglik(self.n, qf, log_det),
        )

    def _checked_terms(self, alpha):
        if not 0 < alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        return self._terms(alpha)


def _loglik(n, sigma2, qf, log_det):
    """The log-likelihood from an engine's terms, for one dataset or row-wise;
    every engine and posterior target evaluates it here."""
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
        self.data = data
        self.nu = float(nu)
        self.dist = data.design.distance_matrix()
        self._corr = matern_kernel(self.nu)

    def _terms(self, alpha):
        chol = cholesky(self._corr(alpha * self.dist))
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
        qf, log_det = _ou_terms(self.gaps, self._x0_sq, self._head, self._tail, alpha)
        return float(qf), float(log_det)

    def mse_factors(self, alpha0: float, points: np.ndarray):
        """:class:`fixedgp.kriging.OuMseFactors` at the (K, 1) ``points``."""
        from .kriging import OuMseFactors
        return OuMseFactors(self.data.design, alpha0, points)


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
    """The engines of R datasets of one smoothness, evaluated together; the
    sizes may differ, and ``n`` holds each row's.

    The backends differ only in :meth:`terms`: the arrays of OU engines are
    stacked by size so that one :func:`_ou_terms` call evaluates every row
    of a size, and other engines are evaluated one row at a time.
    """

    def __init__(self, engines):
        engines = list(engines)
        if not engines:
            raise ValueError("a likelihood block needs at least one engine")
        self.nu = engines[0].nu
        if any(e.nu != self.nu for e in engines):
            raise ValueError("a likelihood block holds datasets of one nu")
        self.engines = engines
        self.n = np.array([e.n for e in engines])
        self._stacks = None
        if all(isinstance(e, OuEngine) for e in engines):
            self._stacks = []
            for size in np.unique(self.n):
                rows = np.flatnonzero(self.n == size)
                stack = [engines[r] for r in rows]
                self._stacks.append((rows, (np.stack([e.gaps for e in stack]),
                                            np.array([e._x0_sq for e in stack]),
                                            np.stack([e._head for e in stack]),
                                            np.stack([e._tail for e in stack]))))

    def terms(self, alpha):
        """Row-wise x' R^{-1} x and log|R| at the (R,) positive ``alpha``;
        (inf, 0) in a row whose correlation fails to factorize, which the
        posterior targets turn into -inf."""
        qf, log_det = np.empty(alpha.shape[0]), np.empty(alpha.shape[0])
        if self._stacks is not None:
            for rows, stacked in self._stacks:
                qf[rows], log_det[rows] = _ou_terms(*stacked, alpha[rows, None])
            return qf, log_det
        for r, (engine, a) in enumerate(zip(self.engines, alpha)):
            try:
                qf[r], log_det[r] = engine._terms(a)
            except NotPositiveDefiniteError:
                qf[r], log_det[r] = np.inf, 0.0
        return qf, log_det


def is_ou_model(d: int, nu: float) -> bool:
    """The Ornstein-Uhlenbeck model: d = 1 and nu = 1/2."""
    return d == 1 and abs(nu - 0.5) < 1e-14


def likelihood_engine(data: GpDataset, nu: float, likelihood: str) -> _Engine:
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


def ou_loglik_fast(data: GpDataset, sigma2: float, alpha: float) -> float:
    """Exact OU (nu = 1/2, d = 1) log-likelihood in O(n); see :class:`OuEngine`."""
    return OuEngine(data).loglik(sigma2, alpha)


def load_dataset(path) -> GpDataset:
    """Read a dataset CSV with header ``s1[,s2[,s3]],x``.

    Validated by :class:`Design` and :class:`GpDataset`; 1-d rows are
    sorted jointly with their observations, so the OU engine accepts a file
    in any row order.
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
    return GpDataset(design=Design(points=pts), x=x)


def save_dataset(data: GpDataset, path) -> None:
    """Write the ``s1[,s2[,s3]],x`` CSV for :func:`load_dataset`."""
    d = data.design.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"s{i + 1}" for i in range(d)] + ["x"])
        for row, xi in zip(data.design.points, data.x):
            writer.writerow([f"{v:.17g}" for v in row] + [f"{xi:.17g}"])
