"""Priors, the joint (theta, alpha) log-posterior, random-walk Metropolis on
log coordinates, and samplers for the three limiting posteriors.

The limiting targets are theory objects: they are centered with the
simulation truth (theta0, alpha0), which the experiment harness supplies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .gp import DegenerateDataError, LikelihoodBlock, OuStats, ou_stats

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

    def logpdf(self, x) -> float:
        x = np.asarray(x, dtype=float)
        positive = x > 0
        if positive.all():
            out = self._log_norm + (self.shape - 1.0) * np.log(x) - self.rate * x
        else:
            out = np.where(
                positive,
                self._log_norm
                + (self.shape - 1.0) * np.log(np.where(positive, x, 1.0))
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


@dataclass(frozen=True)
class TiltedParams:
    """Center and scale of the polynomially tilted normal limit for alpha
    (scalars, or arrays that hold one limit per row)."""

    u_star: float
    v_star: float

    def __post_init__(self):
        if not np.all(np.asarray(self.v_star) > 0):
            raise DegenerateDataError(f"v_star must be positive, got {self.v_star}")


def log_joint_posterior(engine, prior: PriorSpec, theta: float, alpha: float) -> float:
    """Unnormalized log posterior of (theta, alpha) for the dataset and
    smoothness of ``engine`` (see :func:`fixedgp.gp.likelihood_engine`): one
    row of its :class:`fixedgp.gp.LikelihoodBlock`, so -inf (a rejectable
    value) for invalid parameters or a covariance that fails to factorize."""
    point = np.array([[theta, alpha]], dtype=float)
    return float(LikelihoodBlock([engine]).log_posterior(point, prior)[0])


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


def _rwm_core(log_target, configs, init, rngs):
    """Metropolis on log coordinates with the change-of-variables Jacobian,
    for R independent chains advanced in lockstep.

    ``log_target`` maps an (R, k) array of positive points to R values; chain
    r starts at ``init[r]``, takes its step sizes from ``configs[r]`` and its
    randomness from ``rngs[r]``, and the configs share the chain length.
    During burn-in, a global scale is driven by Robbins-Monro towards 30%
    acceptance while the per-coordinate steps are recalibrated to the
    running marginal standard deviations of the chain; both are frozen at
    the end of burn-in, so the retained chain is a valid Metropolis chain.

    Each chain's noise is drawn before the loop in the order one chain
    alone draws it, ``standard_normal(k)`` then a uniform per step, and
    every update is row-wise, so chain r does not depend on the other rows.
    Returns (samples on the original scale, shape (R, n_samples, k), and
    post-burn-in acceptance, shape (R,)).
    """
    if len({(c.n_samples, c.n_burnin) for c in configs}) != 1:
        raise ValueError("chains run in lockstep must share n_samples and n_burnin")
    n_samples, n_burnin = configs[0].n_samples, configs[0].n_burnin
    u, fu = chain_start(log_target, init)
    n_chains, k = u.shape
    steps = np.array([
        np.broadcast_to(np.atleast_1d(np.asarray(c.step_sizes, float))[:k], (k,)) for c in configs
    ])
    total = n_burnin + n_samples
    noise = np.empty((total, n_chains, k))
    log_uniform = np.empty((total, n_chains))
    for r, rng in enumerate(rngs):
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


def rwm_chains(log_target, configs, inits, target_label: str = "custom") -> list:
    """Random-walk Metropolis over R positive pairs (theta, alpha) at once.

    ``log_target`` maps an (R, 2) array of points on the original
    (positive) scale to their R log densities; chain r starts at
    ``inits[r]`` and is deterministic given ``configs[r].seed``.  Chain r is
    bit for bit the chain :func:`rwm_chain` draws alone from the same config
    and start, whatever R and the other rows.
    """
    rngs = [np.random.default_rng(np.random.SeedSequence(c.seed)) for c in configs]
    samples, acc = _rwm_core(log_target, configs, inits, rngs)
    if samples.shape[2] != 2:
        raise ValueError(f"rwm_chains samples (theta, alpha), got {samples.shape[2]} variables")
    return [
        ChainSamples(theta=s[:, 0], alpha=s[:, 1], acceptance_rate=float(a),
                     target_label=target_label)
        for s, a in zip(samples, acc)
    ]


def rwm_chain(log_target, config: McmcConfig, init, target_label: str = "custom") -> ChainSamples:
    """Random-walk Metropolis over the positive pair (theta, alpha).

    ``log_target`` takes the parameter vector on the original (positive)
    scale; proposals are Gaussian on the log scale, so positivity holds
    structurally.  Deterministic given ``config.seed``.  One chain of
    :func:`rwm_chains`.
    """
    def block_target(p):
        return np.array([log_target(p[0])], dtype=float)

    return rwm_chains(block_target, [config], [init], target_label)[0]


def joint_target(engines, prior: PriorSpec):
    """The joint log posterior of R datasets as one function of an (R, 2)
    array of (theta, alpha) rows: row r is :func:`log_joint_posterior` of
    ``engines[r]`` bit for bit."""
    block = LikelihoodBlock(engines)
    return lambda p: block.log_posterior(p, prior)


def conditional_bvm_logdensity(theta, theta_tilde_alpha: float, theta0: float, n: int) -> float:
    """Log density of the conditional limit N(theta_tilde_alpha, 2 theta0^2 / n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    var = 2.0 * theta0**2 / n
    theta = np.asarray(theta, dtype=float)
    out = -0.5 * np.log(2.0 * np.pi * var) - (theta - theta_tilde_alpha) ** 2 / (2.0 * var)
    return float(out) if out.ndim == 0 else out


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


_LIMIT_LABELS = {"joint-profile": "joint-profile-limit", "ou-tilted": "ou-tilted-limit"}


@dataclass(frozen=True)
class LimitSetup:
    """A limiting posterior of one dataset with everything fixed and checked
    before its alpha chain runs (see :func:`limit_setup`)."""

    kind: str
    engine: object
    theta: np.ndarray
    tilted: TiltedParams | None
    alpha_init: np.ndarray
    alpha_config: McmcConfig
    alpha_seed: np.random.SeedSequence


def _limit_target(kind, engines, tilted, prior: PriorSpec):
    """The alpha log density of R limits of one kind as one function of an
    (R, 1) array, row r equal to the one-dataset density bit for bit."""
    if kind == "ou-tilted":
        stacked = TiltedParams(u_star=np.array([tp.u_star for tp in tilted]),
                               v_star=np.array([tp.v_star for tp in tilted]))
        return lambda a: tilted_logdensity(stacked, prior, a[:, 0])
    block = LikelihoodBlock(engines)
    return lambda a: block.log_profile_posterior(a[:, 0], prior)


def limit_setup(kind: str, engine, prior: PriorSpec, theta0: float, alpha0: float,
                config: McmcConfig) -> LimitSetup:
    """The part of :func:`joint_limit_sampler` that depends on the data alone:
    the i.i.d. theta draws, the tilted parameters and the alpha chain's
    checked start.  Raises what the data can make it raise
    (``NotPositiveDefiniteError``, ``DegenerateDataError``,
    ``InitializationError``) before any alpha draw."""
    if kind not in _LIMIT_LABELS:
        raise ValueError(f"unknown limit sampler kind {kind!r}")
    n = engine.n
    theta_ss, alpha_ss = np.random.SeedSequence(config.seed).spawn(2)
    center = engine.profile(alpha0).theta_tilde
    theta = _positive_normal_draws(np.random.default_rng(theta_ss), center,
                                   np.sqrt(2.0 * theta0**2 / n), config.n_samples)
    tilted = None
    if kind == "ou-tilted":
        if not engine.is_ou:
            raise ValueError("ou-tilted requires a 1-d dataset with nu = 1/2")
        tilted = tilted_params(ou_stats(engine.data), n)
    target = _limit_target(kind, [engine], [tilted], prior)
    init = np.array([prior.alpha_prior.mean])
    if not np.isfinite(target(init[None])[0]):
        init = np.array([1.0])
    chain_start(target, init)
    alpha_config = McmcConfig(
        n_samples=config.n_samples,
        n_burnin=config.n_burnin,
        step_sizes=(np.atleast_1d(config.step_sizes)[-1],),
        seed=config.seed,
    )
    return LimitSetup(kind, engine, theta, tilted, init, alpha_config, alpha_ss)


def sample_limits(setups, prior: PriorSpec) -> list:
    """Run the alpha chains of limit setups in lockstep, whatever their kinds.
    Chain r is bit for bit what :func:`joint_limit_sampler` draws for setup r
    alone."""
    parts = []
    for kind in _LIMIT_LABELS:
        rows = [i for i, s in enumerate(setups) if s.kind == kind]
        if rows:
            picked = [setups[i] for i in rows]
            parts.append((np.array(rows), _limit_target(
                kind, [s.engine for s in picked], [s.tilted for s in picked], prior)))

    if len(parts) == 1:     # all of one kind: no row scatter needed
        target = parts[0][1]
    else:
        def target(a):
            out = np.empty(a.shape[0])
            for rows, part in parts:
                out[rows] = part(a[rows])
            return out

    rngs = [np.random.default_rng(s.alpha_seed) for s in setups]
    samples, acc = _rwm_core(target, [s.alpha_config for s in setups],
                             [s.alpha_init for s in setups], rngs)
    return [
        ChainSamples(theta=s.theta, alpha=x[:, 0], acceptance_rate=float(a),
                     target_label=_LIMIT_LABELS[s.kind])
        for s, x, a in zip(setups, samples, acc)
    ]


def joint_limit_sampler(
    kind: str,
    engine,
    prior: PriorSpec,
    theta0: float,
    alpha0: float,
    config: McmcConfig,
) -> ChainSamples:
    """Draw from one of the limiting posteriors of the dataset and smoothness
    of ``engine`` (see :func:`fixedgp.gp.likelihood_engine`).

    kind:
      * ``"joint-profile"`` theta ~ N(theta_tilde at alpha0, 2 theta0^2/n)
        i.i.d., alpha from the profile posterior by 1-d RWM.
      * ``"ou-tilted"``     same theta stream, alpha from the tilted normal
        limit (requires the OU model: d = 1, nu = 1/2).

    The theta and alpha streams use independent RNG streams derived from
    ``config.seed``, so they are independent draws.  It is
    :func:`limit_setup` followed by :func:`sample_limits` of one setup.
    """
    return sample_limits([limit_setup(kind, engine, prior, theta0, alpha0, config)], prior)[0]


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
