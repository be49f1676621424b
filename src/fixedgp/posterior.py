"""Priors, random-walk Metropolis on log coordinates, and its targets.

Every chain follows one pattern: a target maps (R, k) rows to R log
densities, and R chains started from checked points run on it in lockstep.
The targets are the joint (theta, alpha) posterior (:func:`joint_target`)
and the alpha parts of the two limiting posteriors (:func:`profile_target`
and, for the OU model, :func:`tilted_target`).  The theta part the limits
share is an i.i.d. normal, drawn directly by :func:`theta_limit_draws`.

The limiting posteriors are theory objects: they are centered with the
simulation truth (theta0, alpha0), which the experiment harness supplies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .gp import DegenerateDataError, LikelihoodBlock

__all__ = [
    "GammaPrior",
    "PriorSpec",
    "InitializationError",
    "joint_target",
    "profile_target",
    "tilted_target",
    "rwm_chains",
    "theta_limit_draws",
    "conditional_bvm_logdensity",
]


class InitializationError(Exception):
    """Chain started at a point with -inf target value."""


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(shape, rate) density on (0, inf)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise ValueError(f"gamma parameters must be positive, got {self}")
        object.__setattr__(
            self, "_log_norm", self.shape * np.log(self.rate) - special.gammaln(self.shape)
        )

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    def logpdf(self, x) -> float:
        """Log density at ``x``; -inf where ``x`` is not positive and finite."""
        x = np.asarray(x, dtype=float)
        ok = (x > 0) & (x < np.inf)
        all_ok = ok.all()
        if not all_ok:
            x = np.where(ok, x, 1.0)
        out = self._log_norm + (self.shape - 1.0) * np.log(x) - self.rate * x
        if not all_ok:
            out = np.where(ok, out, -np.inf)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PriorSpec:
    """Independent gamma priors on theta and alpha.

    Independence makes the conditional prior of alpha given any theta value
    equal to the marginal alpha prior, which is what the limiting posteriors
    condition on.
    """

    theta_prior: GammaPrior = GammaPrior(1.1, 0.1)
    alpha_prior: GammaPrior = GammaPrior(1.1, 0.1)


def chain_start(log_target, init):
    """Start points of RWM chains on log coordinates, and their target values
    with the Jacobian included, as :func:`rwm_chains` starts from them.

    ``log_target`` maps an (R, k) array of positive points to R values; a
    1-d ``init`` is one chain.  Raises :class:`InitializationError` unless
    every start is positive with a finite value.
    """
    init = np.atleast_2d(np.asarray(init, dtype=float))
    if np.any(init <= 0):
        raise InitializationError(f"initial point must be positive, got {init}")
    u = np.log(init)
    fu = log_target(np.exp(u)) + np.add.reduce(u, axis=1)
    if not np.all(np.isfinite(fu)):
        raise InitializationError(f"initial point {init} has non-finite target value")
    return u, fu


def rwm_chains(log_target, inits, seeds, steps, n_samples, n_burnin):
    """Random-walk Metropolis on log coordinates with the change-of-variables
    Jacobian, for R independent chains of k = ``len(steps)`` positive
    variables advanced in lockstep.

    ``log_target`` maps an (R, k) array of points on the original scale to R
    values; chain r starts at ``inits[r]`` with step sizes ``steps`` and
    draws from ``default_rng(seeds[r])``.  Invalid arguments raise
    ``ValueError`` before the target is evaluated.

    During burn-in, a global scale is driven by Robbins-Monro towards 30%
    acceptance while the per-coordinate steps are recalibrated to the
    running marginal standard deviations of the chain; both are frozen at
    the end of burn-in, so the retained chain is a valid Metropolis chain.

    Each chain's noise is drawn before the loop in the order one chain
    alone draws it, ``standard_normal(k)`` then a uniform per step, and
    every update is row-wise, so chain r is bit for bit the chain run alone
    (R = 1) from the same start and seed, whatever the other rows.
    Returns (draws on the original scale, shape (R, n_samples, k), and
    post-burn-in acceptance, shape (R,)).
    """
    if n_samples < 1 or n_burnin < 0:
        raise ValueError("n_samples must be positive and n_burnin nonnegative")
    k = len(steps)
    if not all(s > 0 for s in steps):
        raise ValueError(f"step sizes must be positive, got {steps}")
    if len(inits) == 0:
        raise ValueError("a lockstep run needs at least one start")
    if len(seeds) != len(inits):
        raise ValueError(f"expected one seed per start, got {len(seeds)} for {len(inits)}")
    width = np.atleast_2d(np.asarray(inits, dtype=float)).shape[1]
    if width != k:
        raise ValueError(f"expected starts of {k} variables, got {width} variables")
    u, fu = chain_start(log_target, inits)
    n_chains = u.shape[0]
    steps = np.tile(np.asarray(steps, dtype=float), (n_chains, 1))
    total = n_burnin + n_samples
    noise = np.empty((total, n_chains, k))
    log_uniform = np.empty((total, n_chains))
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for t in range(total):
            rng.standard_normal(out=noise[t, r])
            log_uniform[t, r] = rng.random()
    np.log(log_uniform, out=log_uniform)

    out = np.empty((n_chains, n_samples, k))
    accepted = np.empty((n_samples, n_chains), dtype=bool)
    log_scale = np.zeros(n_chains)
    # Welford accumulators over the second half of warm-up
    w_count, w_mean, w_m2 = 0, np.zeros((n_chains, k)), np.zeros((n_chains, k))
    for t in range(total):
        if t <= n_burnin:   # the scales are frozen after burn-in
            jump = np.exp(log_scale)[:, None] * steps
        prop = u + jump * noise[t]
        fp = log_target(np.exp(prop)) + np.add.reduce(prop, axis=1)
        accept = log_uniform[t] < fp - fu
        np.copyto(u, prop, where=accept[:, None])
        np.copyto(fu, fp, where=accept)
        if t < n_burnin:
            log_scale += (t + 1) ** -0.6 * (accept - 0.3)
            np.minimum(np.maximum(log_scale, -8.0, out=log_scale), 8.0, out=log_scale)
            if t >= n_burnin // 4:
                w_count += 1
                delta = u - w_mean
                w_mean += delta / w_count
                w_m2 += delta * (u - w_mean)
                if w_count >= 100 and w_count % 50 == 0:
                    sd = np.sqrt(w_m2 / (w_count - 1))
                    ok = sd > 0
                    # near-optimal diagonal scaling, folded into the
                    # existing global factor
                    tuned = 2.38 / np.sqrt(k) * sd / np.exp(log_scale)[:, None]
                    steps[ok] = np.clip(tuned[ok], steps[ok] * 1e-3, steps[ok] * 1e3)
        else:
            accepted[t - n_burnin] = accept
            out[:, t - n_burnin] = u
    return np.exp(out, out=out), np.count_nonzero(accepted, axis=0) / n_samples


def joint_target(engines, prior: PriorSpec):
    """The unnormalized joint log posterior of the engines' R datasets as one
    function of an (R, 2) array of (theta, alpha) rows: -inf (a rejectable
    value) in a row of invalid parameters or a failed factorization."""
    block = LikelihoodBlock(engines)
    return lambda p: block.log_posterior(p, prior)


def profile_target(engines, prior: PriorSpec):
    """The alpha log density of the engines' R profile limits (profile
    log-likelihood plus log alpha prior) as one function of an (R, 1) array
    of alphas, -inf where :func:`joint_target` is and in a degenerate
    profile."""
    block = LikelihoodBlock(engines)
    return lambda a: block.log_profile_posterior(a[:, 0], prior)


def tilted_target(engines, prior: PriorSpec):
    """The alpha log density of the engines' R polynomially tilted normal
    limits as one function of an (R, 1) array of alphas:

        (1/2) log alpha - (alpha - u*)^2 / (2 v*) + log prior(alpha),

    with u* = n (A1 - A2) / A1 and v* = n (A1 - 2 A2 + A3) / A1, where A1
    sums the interior squares of a dataset, A2 its lag-1 products and A3 all
    its squares; -inf in a row whose alpha is not positive and finite.  Only
    the OU model has this limit: other engines raise ``ValueError``, and a
    dataset whose A1 or v* is not positive raises ``DegenerateDataError``.
    """
    engines = list(engines)
    if not engines:
        raise ValueError("a likelihood block needs at least one engine")
    if not all(e.is_ou for e in engines):
        raise ValueError("the tilted limit requires the OU model (d = 1, nu = 1/2)")
    a1, a2, a3 = np.array([(x[1:-1] @ x[1:-1], x[:-1] @ x[1:], x @ x)
                           for x in (e.data.x for e in engines)]).T
    if not np.all(a1 > 0):
        raise DegenerateDataError(f"A1 must be positive, got {a1}")
    n = np.array([e.n for e in engines])
    u_star = n * (a1 - a2) / a1
    v_star = n * (a1 - 2.0 * a2 + a3) / a1
    if not np.all(v_star > 0):
        raise DegenerateDataError(f"v_star must be positive, got {v_star}")
    two_v_star = 2.0 * v_star

    def log_density(a):
        alpha = a[:, 0]
        ok = (alpha > 0) & (alpha < np.inf)
        all_ok = ok.all()
        if not all_ok:
            alpha = np.where(ok, alpha, 1.0)
        out = (0.5 * np.log(alpha) - (alpha - u_star) ** 2 / two_v_star
               + prior.alpha_prior.logpdf(alpha))
        return out if all_ok else np.where(ok, out, -np.inf)

    return log_density


def conditional_bvm_logdensity(theta, theta_tilde_alpha: float, theta0: float, n: int) -> float:
    """Log density of the conditional limit N(theta_tilde_alpha, 2 theta0^2 / n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    var = 2.0 * theta0**2 / n
    theta = np.asarray(theta, dtype=float)
    out = -0.5 * np.log(2.0 * np.pi * var) - (theta - theta_tilde_alpha) ** 2 / (2.0 * var)
    return float(out) if out.ndim == 0 else out


def theta_limit_draws(engine, theta0: float, alpha0: float, size: int, seed) -> np.ndarray:
    """``size`` i.i.d. draws of the theta part of both limiting posteriors of
    the dataset of ``engine``: N(theta_tilde(alpha0), 2 theta0^2 / n).

    The limiting object is an unrestricted normal, but theta lives on the
    positive half-line, so non-positive draws are rejection-resampled; at the
    sample sizes used the truncation probability is below 1e-3 even for
    n = 25, so the distributional effect is nil.
    """
    rng = np.random.default_rng(seed)
    center = engine.profile(alpha0).theta_tilde
    sd = np.sqrt(2.0 * theta0**2 / engine.n)
    draws = rng.normal(center, sd, size)
    bad = draws <= 0
    while np.any(bad):
        draws[bad] = rng.normal(center, sd, int(bad.sum()))
        bad = draws <= 0
    return draws
