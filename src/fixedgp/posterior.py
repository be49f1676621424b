"""Priors, the joint (theta, alpha) log-posterior, random-walk Metropolis on
log coordinates, and samplers for the three limiting posteriors.

The limiting targets are theory objects: they are centered with the
simulation truth (theta0, alpha0), which the experiment harness supplies.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .gp import DegenerateDataError, NotPositiveDefiniteError, OuStats, ou_stats

__all__ = [
    "GammaPrior",
    "PriorSpec",
    "McmcConfig",
    "ChainSamples",
    "TiltedParams",
    "InitializationError",
    "log_joint_posterior",
    "rwm_chain",
    "conditional_bvm_logdensity",
    "profile_posterior_logdensity",
    "tilted_params",
    "tilted_logdensity",
    "joint_limit_sampler",
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

    @property
    def variance(self) -> float:
        return self.shape / self.rate**2

    def logpdf(self, x) -> float:
        # same left-to-right evaluation on both paths, so a scalar gives the
        # bits of the corresponding array element
        if isinstance(x, float):
            if not x > 0:
                return -np.inf
            return float(self._log_norm + (self.shape - 1.0) * np.log(x) - self.rate * x)
        x = np.asarray(x, dtype=float)
        out = np.where(
            x > 0,
            self._log_norm
            + (self.shape - 1.0) * np.log(np.where(x > 0, x, 1.0))
            - self.rate * x,
            -np.inf,
        )
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


@dataclass(frozen=True)
class McmcConfig:
    n_samples: int = 5000
    n_burnin: int = 1000
    step_sizes: tuple = (0.5, 0.5)
    seed: int = 0

    def __post_init__(self):
        if self.n_samples <= 0 or self.n_burnin < 0:
            raise ValueError("n_samples must be positive and n_burnin nonnegative")
        if any(s <= 0 for s in np.atleast_1d(self.step_sizes)):
            raise ValueError("step sizes must be positive")


@dataclass
class ChainSamples:
    """Posterior draws of (theta, alpha) with acceptance bookkeeping."""

    alpha: np.ndarray
    theta: np.ndarray
    acceptance_rate: float
    target_label: str

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if np.any(self.alpha <= 0):
            raise ValueError("alpha draws must be strictly positive")
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != self.alpha.shape:
            raise ValueError("theta and alpha streams must have equal length")
        if np.any(self.theta <= 0):
            raise ValueError("theta draws must be strictly positive")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError(f"acceptance rate {self.acceptance_rate} outside [0, 1]")

    def write_csv(self, path, sidecar_path=None, extra: dict | None = None) -> None:
        """Write ``iter,theta,alpha`` rows plus a JSON sidecar."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "theta", "alpha"])
            for i, (t, a) in enumerate(zip(self.theta, self.alpha)):
                writer.writerow([i, f"{t:.17g}", f"{a:.17g}"])
        if sidecar_path is not None:
            meta = {
                "target_label": self.target_label,
                "acceptance_rate": self.acceptance_rate,
                "n_samples": int(self.alpha.shape[0]),
            }
            if extra:
                meta.update(extra)
            with open(sidecar_path, "w") as fh:
                json.dump(meta, fh, indent=2, sort_keys=True)


@dataclass(frozen=True)
class TiltedParams:
    """Center and scale of the polynomially tilted normal limit for alpha."""

    u_star: float
    v_star: float

    def __post_init__(self):
        if not self.v_star > 0:
            raise DegenerateDataError(f"v_star must be positive, got {self.v_star}")


def log_joint_posterior(engine, prior: PriorSpec, theta: float, alpha: float) -> float:
    """Unnormalized log posterior of (theta, alpha) for the dataset and
    smoothness of ``engine`` (see :func:`fixedgp.gp.likelihood_engine`).

    Returns -inf (a rejectable value) for non-positive or non-finite
    parameters or a covariance that fails to factorize.
    """
    if not (theta > 0 and alpha > 0) or not math.isfinite(theta) or not math.isfinite(alpha):
        return -np.inf
    sigma2 = theta / alpha ** (2.0 * engine.nu)
    if not math.isfinite(sigma2) or sigma2 <= 0:
        return -np.inf
    try:
        ll = engine.loglik(sigma2, alpha)
    except NotPositiveDefiniteError:
        return -np.inf
    return ll + prior.theta_prior.logpdf(theta) + prior.alpha_prior.logpdf(alpha)


def _rwm_core(log_target_pos, config: McmcConfig, init, rng):
    """Metropolis on log coordinates with the change-of-variables Jacobian.

    During burn-in, a global scale is driven by Robbins-Monro towards 30%
    acceptance while the per-coordinate steps are recalibrated to the
    running marginal standard deviations of the chain; both are frozen at
    the end of burn-in, so the retained chain is a valid Metropolis chain.
    Returns (samples on the original scale, post-burn-in acceptance).
    """
    init = np.atleast_1d(np.asarray(init, dtype=float))
    if np.any(init <= 0):
        raise InitializationError(f"initial point must be positive, got {init}")
    k = init.shape[0]
    steps = np.broadcast_to(np.atleast_1d(np.asarray(config.step_sizes, float))[:k], (k,)).copy()

    def target_u(u):
        return log_target_pos(np.exp(u)) + float(np.sum(u))

    u = np.log(init)
    fu = target_u(u)
    if not np.isfinite(fu):
        raise InitializationError(f"initial point {init} has non-finite target value")

    total = config.n_burnin + config.n_samples
    out = np.empty((config.n_samples, k))
    log_scale = 0.0
    accepted_main = 0
    # Welford accumulators over the second half of warm-up
    w_count, w_mean, w_m2 = 0, np.zeros(k), np.zeros(k)
    for t in range(total):
        prop = u + np.exp(log_scale) * steps * rng.standard_normal(k)
        fp = target_u(prop)
        accept = np.log(rng.uniform()) < fp - fu
        if accept:
            u, fu = prop, fp
        if t < config.n_burnin:
            log_scale += (t + 1) ** -0.6 * ((1.0 if accept else 0.0) - 0.3)
            log_scale = min(max(log_scale, -8.0), 8.0)
            if t >= config.n_burnin // 4:
                w_count += 1
                delta = u - w_mean
                w_mean += delta / w_count
                w_m2 += delta * (u - w_mean)
                if w_count >= 100 and w_count % 50 == 0:
                    sd = np.sqrt(w_m2 / (w_count - 1))
                    ok = sd > 0
                    if np.any(ok):
                        # near-optimal diagonal scaling, folded into the
                        # existing global factor
                        steps[ok] = np.clip(
                            2.38 / np.sqrt(k) * sd[ok] / np.exp(log_scale),
                            steps[ok] * 1e-3, steps[ok] * 1e3,
                        )
        else:
            if accept:
                accepted_main += 1
            out[t - config.n_burnin] = u
    return np.exp(out), accepted_main / config.n_samples


def rwm_chain(log_target, config: McmcConfig, init, target_label: str = "custom") -> ChainSamples:
    """Random-walk Metropolis over the positive pair (theta, alpha).

    ``log_target`` takes the parameter vector on the original (positive)
    scale; proposals are Gaussian on the log scale, so positivity holds
    structurally.  Deterministic given ``config.seed``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    samples, acc = _rwm_core(log_target, config, init, rng)
    if samples.shape[1] != 2:
        raise ValueError(f"rwm_chain samples (theta, alpha), got {samples.shape[1]} variables")
    return ChainSamples(
        theta=samples[:, 0], alpha=samples[:, 1],
        acceptance_rate=acc, target_label=target_label,
    )


def conditional_bvm_logdensity(theta, theta_tilde_alpha: float, theta0: float, n: int) -> float:
    """Log density of the conditional limit N(theta_tilde_alpha, 2 theta0^2 / n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    var = 2.0 * theta0**2 / n
    theta = np.asarray(theta, dtype=float)
    out = -0.5 * np.log(2.0 * np.pi * var) - (theta - theta_tilde_alpha) ** 2 / (2.0 * var)
    return float(out) if out.ndim == 0 else out


def profile_posterior_logdensity(engine, prior: PriorSpec, alpha: float) -> float:
    """Unnormalized log density of the profile posterior for alpha: the
    profile log-likelihood plus the log prior of alpha (independent of
    theta, see :class:`PriorSpec`)."""
    if not alpha > 0 or not math.isfinite(alpha):
        return -np.inf
    try:
        ps = engine.profile(alpha)
    except (NotPositiveDefiniteError, DegenerateDataError):
        return -np.inf
    return ps.profile_loglik + prior.alpha_prior.logpdf(alpha)


def tilted_params(stats: OuStats, n: int) -> TiltedParams:
    """Center u* = n(A1 - A2)/A1 and scale v* = n(A1 - 2 A2 + A3)/A1."""
    if stats.a1 <= 0:
        raise DegenerateDataError(f"A1 must be positive, got {stats.a1}")
    u = n * (stats.a1 - stats.a2) / stats.a1
    v = n * (stats.a1 - 2.0 * stats.a2 + stats.a3) / stats.a1
    return TiltedParams(u_star=float(u), v_star=float(v))


def tilted_logdensity(params: TiltedParams, prior: PriorSpec, alpha) -> float:
    """Polynomially tilted normal limit for alpha (unnormalized log density):
    (1/2) log alpha - (alpha - u*)^2 / (2 v*) + log prior(alpha)."""
    a = np.asarray(alpha, dtype=float)
    if np.any(a <= 0):
        raise ValueError("tilted_logdensity requires alpha > 0")
    out = (
        0.5 * np.log(a)
        - (a - params.u_star) ** 2 / (2.0 * params.v_star)
        + prior.alpha_prior.logpdf(alpha)
    )
    return float(out) if out.ndim == 0 else out


def joint_limit_sampler(
    kind: str,
    engine,
    prior: PriorSpec,
    theta0: float,
    alpha0: float,
    config: McmcConfig,
    fixed_alpha: float | None = None,
) -> ChainSamples:
    """Draw from one of the limiting posteriors of the dataset and smoothness
    of ``engine`` (see :func:`fixedgp.gp.likelihood_engine`).

    kind:
      * ``"conditional"``   theta ~ N(theta_tilde at ``fixed_alpha``,
        2 theta0^2/n) i.i.d., alpha held at ``fixed_alpha``.
      * ``"joint-profile"`` theta ~ N(theta_tilde at alpha0, .) i.i.d.,
        alpha from the profile posterior by 1-d RWM.
      * ``"ou-tilted"``     same theta stream, alpha from the tilted normal
        limit (requires the OU model: d = 1, nu = 1/2).

    The theta and alpha streams use independent RNG streams derived from
    ``config.seed``, so they are independent draws.
    """
    n = engine.n
    ss = np.random.SeedSequence(config.seed)
    theta_ss, alpha_ss = ss.spawn(2)
    theta_rng = np.random.default_rng(theta_ss)
    sd = np.sqrt(2.0 * theta0**2 / n)

    if kind == "conditional":
        if fixed_alpha is None:
            raise ValueError("conditional kind requires fixed_alpha")
        center = engine.profile(fixed_alpha).theta_tilde
        theta = _positive_normal_draws(theta_rng, center, sd, config.n_samples)
        alpha = np.full(config.n_samples, float(fixed_alpha))
        return ChainSamples(theta=theta, alpha=alpha, acceptance_rate=1.0,
                            target_label="conditional-bvm")

    center = engine.profile(alpha0).theta_tilde
    theta = _positive_normal_draws(theta_rng, center, sd, config.n_samples)
    alpha_rng = np.random.default_rng(alpha_ss)
    alpha_config = McmcConfig(
        n_samples=config.n_samples,
        n_burnin=config.n_burnin,
        step_sizes=(np.atleast_1d(config.step_sizes)[-1],),
        seed=config.seed,
    )

    if kind == "joint-profile":
        def logd(a):
            return profile_posterior_logdensity(engine, prior, a[0])
        label = "joint-profile-limit"
    elif kind == "ou-tilted":
        if not engine.is_ou:
            raise ValueError("ou-tilted requires a 1-d dataset with nu = 1/2")
        tp = tilted_params(ou_stats(engine.data), n)

        def logd(a):
            return tilted_logdensity(tp, prior, a[0])
        label = "ou-tilted-limit"
    else:
        raise ValueError(f"unknown limit sampler kind {kind!r}")

    init = np.array([prior.alpha_prior.mean])
    if not np.isfinite(logd(init)):
        init = np.array([1.0])
    samples, acc = _rwm_core(logd, alpha_config, init, alpha_rng)
    return ChainSamples(theta=theta, alpha=samples[:, 0], acceptance_rate=acc,
                        target_label=label)


def _positive_normal_draws(rng, center, sd, size):
    """Normal draws with non-positive values rejection-resampled.

    The limiting object is an unrestricted normal, but theta lives on the
    positive half-line; at the sample sizes used the truncation probability
    is below 1e-3 even for n = 25, so the distributional effect is nil.
    """
    draws = rng.normal(center, sd, size)
    bad = draws <= 0
    while np.any(bad):
        draws[bad] = rng.normal(center, sd, int(bad.sum()))
        bad = draws <= 0
    return draws
