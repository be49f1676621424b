"""Priors, random-walk Metropolis on log coordinates, and its targets.

Every chain follows one pattern: a target maps (R, K) rows to R log
densities, and R chains started from checked points run on it in lockstep.
Every target is built by :func:`lockstep_target`, from rows of three kinds:
the joint (theta, alpha) posterior and the alpha parts of the two limiting
posteriors, the profile limit and, for the OU model, the tilted limit.  The
theta part the limits share is an i.i.d. normal, drawn directly by
:func:`theta_limit_draws`.

The limiting posteriors are theory objects: they are centered with the
simulation truth (theta0, alpha0), which the experiment harness supplies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .gp import DegenerateDataError, LikelihoodBlock, _loglik, _profile_loglik

__all__ = [
    "GammaPrior",
    "PriorSpec",
    "InitializationError",
    "lockstep_target",
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
        if not (0 < self.shape < np.inf and 0 < self.rate < np.inf):
            raise ValueError(f"gamma parameters must be positive and finite, got {self}")
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


# noise draws per chunk of steps: the pre-drawn noise of a lockstep run is
# held for one chunk at a time, not for the whole run
NOISE_CHUNK = 500


def rwm_chains(log_target, inits, seeds, steps, n_samples, n_burnin):
    """Random-walk Metropolis on log coordinates with the change-of-variables
    Jacobian, for R independent chains of positive variables advanced in
    lockstep.

    Chain r has k_r = ``len(steps[r])`` variables: it starts at
    ``inits[r]`` with step sizes ``steps[r]`` and draws from
    ``default_rng(seeds[r])``.  ``log_target`` maps an (R, K) array of
    points on the original scale to R values, K = max k_r; the columns past
    a chain's width hold 1.0 and never move.  Invalid arguments raise
    ``ValueError`` before the target is evaluated.

    During burn-in, a global scale is driven by Robbins-Monro towards 30%
    acceptance while the per-coordinate steps are recalibrated to the
    running marginal standard deviations of the chain; both are frozen at
    the end of burn-in, so the retained chain is a valid Metropolis chain.

    Each chain's noise is drawn ``NOISE_CHUNK`` steps at a time in the order
    one chain alone draws it, ``standard_normal(k_r)`` then a uniform per
    step, and every update is row-wise, so chain r is bit for bit the chain
    run alone (R = 1) from the same start and seed, whatever the other rows.
    Returns (a list of R draw arrays on the original scale, chain r's of
    shape (n_samples, k_r), and post-burn-in acceptance, shape (R,)).
    """
    if n_samples < 1 or n_burnin < 0:
        raise ValueError("n_samples must be positive and n_burnin nonnegative")
    if len(inits) == 0:
        raise ValueError("a lockstep run needs at least one start")
    if len(seeds) != len(inits):
        raise ValueError(f"expected one seed per start, got {len(seeds)} for {len(inits)}")
    if len(steps) != len(inits):
        raise ValueError(f"expected one step tuple per start, got {len(steps)} for {len(inits)}")
    widths = [len(s) for s in steps]
    n_chains, width = len(inits), max(widths)
    start, step = np.ones((n_chains, width)), np.zeros((n_chains, width))
    for r, (init, s) in enumerate(zip(inits, steps)):
        if not (len(s) > 0 and all(x > 0 for x in s)):
            raise ValueError(f"step sizes must be positive, got {s}")
        init = np.asarray(init, dtype=float)
        if init.shape != (len(s),):
            raise ValueError(f"expected starts of {len(s)} variables, got {init.size} variables")
        start[r, :len(s)], step[r, :len(s)] = init, s
    u, fu = chain_start(log_target, start)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    total = n_burnin + n_samples
    noise = np.zeros((NOISE_CHUNK, n_chains, width))
    log_uniform = np.empty((NOISE_CHUNK, n_chains))

    live = step > 0     # the columns the chains move, stored chain by chain
    out = np.empty((sum(widths), n_samples))
    accepted = np.empty((n_samples, n_chains), dtype=bool)
    log_scale = np.zeros(n_chains)
    tuning = (2.38 / np.sqrt(widths))[:, None]
    # Welford accumulators over the second half of warm-up
    w_count, w_mean, w_m2 = 0, np.zeros((n_chains, width)), np.zeros((n_chains, width))
    for t in range(total):
        c = t % NOISE_CHUNK
        if c == 0:
            m = min(NOISE_CHUNK, total - t)
            for r, (rng, k) in enumerate(zip(rngs, widths)):
                for i in range(m):
                    rng.standard_normal(out=noise[i, r, :k])
                    log_uniform[i, r] = rng.random()
            np.log(log_uniform[:m], out=log_uniform[:m])
        if t <= n_burnin:   # the scales are frozen after burn-in
            jump = np.exp(log_scale)[:, None] * step
        prop = u + jump * noise[c]
        fp = log_target(np.exp(prop)) + np.add.reduce(prop, axis=1)
        accept = log_uniform[c] < fp - fu
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
                    # existing global factor; a padding column has sd 0
                    tuned = tuning * sd / np.exp(log_scale)[:, None]
                    step[ok] = np.clip(tuned[ok], step[ok] * 1e-3, step[ok] * 1e3)
        else:
            accepted[t - n_burnin] = accept
            out[:, t - n_burnin] = u[live]
    np.exp(out, out=out)
    ends = np.cumsum(widths)
    return ([out[end - k:end].T for end, k in zip(ends, widths)],
            np.count_nonzero(accepted, axis=0) / n_samples)


def lockstep_target(prior: PriorSpec, joint=(), profile=(), tilted=()):
    """The log densities of one lockstep run's rows as one function of an
    (R, K) array: one row per engine of ``joint``, (theta, alpha) in its
    first two columns, then one per engine of ``profile`` and of ``tilted``,
    alpha in its first column.  A row gives -inf where its parameters are
    not positive and finite, its correlation fails to factorize or its
    profile is degenerate.

    * joint: the unnormalized joint log posterior of (theta, alpha);
    * profile: the profile log-likelihood plus log alpha prior, the alpha
      part of the profile limit;
    * tilted: the alpha part of the polynomially tilted normal limit,

        (1/2) log alpha - (alpha - u*)^2 / (2 v*) + log prior(alpha),

      with u* = n (A1 - A2) / A1 and v* = n (A1 - 2 A2 + A3) / A1, where A1
      sums the interior squares of a dataset, A2 its lag-1 products and A3
      all its squares.  Only the OU model has this limit: other engines
      raise ``ValueError``, and a dataset whose A1 or v* is not positive
      raises ``DegenerateDataError``.

    The joint and profile rows share one likelihood block, and each prior is
    evaluated once per call.
    """
    joint, profile, tilted = list(joint), list(profile), list(tilted)
    if not (joint or profile or tilted):
        raise ValueError("a likelihood block needs at least one engine")
    n_joint, n_block = len(joint), len(joint) + len(profile)
    block = LikelihoodBlock(joint + profile) if n_block else None
    if not all(e.is_ou for e in tilted):
        raise ValueError("the tilted limit requires the OU model (d = 1, nu = 1/2)")
    a1, a2, a3 = np.array([(x[1:-1] @ x[1:-1], x[:-1] @ x[1:], x @ x)
                           for x in (e.data.x for e in tilted)]).reshape(-1, 3).T
    if not np.all(a1 > 0):
        raise DegenerateDataError(f"A1 must be positive, got {a1}")
    n = np.array([e.n for e in tilted])
    u_star = n * (a1 - a2) / a1
    v_star = n * (a1 - 2.0 * a2 + a3) / a1
    if not np.all(v_star > 0):
        raise DegenerateDataError(f"v_star must be positive, got {v_star}")
    two_v_star = 2.0 * v_star

    def log_density(p):
        alpha = np.concatenate((p[:n_joint, 1], p[n_joint:, 0])) if n_joint else p[:, 0]
        theta, ok = p[:n_joint, 0], (alpha > 0) & (alpha < np.inf)
        ok[:n_joint] &= (theta > 0) & (theta < np.inf)
        if not ok.all():
            theta, alpha = np.where(ok[:n_joint], theta, 1.0), np.where(ok, alpha, 1.0)
        log_prior = prior.alpha_prior.logpdf(alpha)
        out = np.empty(alpha.shape[0])
        if n_block:
            qf, log_det = block.terms(alpha[:n_block])
        if n_joint:
            sigma2 = theta / alpha[:n_joint] ** (2.0 * block.nu)
            ok[:n_joint] &= (sigma2 > 0) & (sigma2 < np.inf)
            if not ok[:n_joint].all():
                sigma2 = np.where(ok[:n_joint], sigma2, 1.0)
            out[:n_joint] = (_loglik(block.n[:n_joint], sigma2, qf[:n_joint], log_det[:n_joint])
                             + prior.theta_prior.logpdf(theta) + log_prior[:n_joint])
        if profile:
            ok[n_joint:n_block] &= qf[n_joint:] > 0.0
            if not ok[n_joint:n_block].all():
                qf[n_joint:] = np.where(ok[n_joint:n_block], qf[n_joint:], 1.0)
            out[n_joint:n_block] = (_profile_loglik(block.n[n_joint:], qf[n_joint:],
                                                    log_det[n_joint:])
                                    + log_prior[n_joint:n_block])
        if tilted:
            a = alpha[n_block:]
            out[n_block:] = 0.5 * np.log(a) - (a - u_star) ** 2 / two_v_star + log_prior[n_block:]
        return out if ok.all() else np.where(ok, out, -np.inf)

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
