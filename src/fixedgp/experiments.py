"""Seeded end-to-end simulation harness: perturbed-grid designs, GP path
simulation, replication loops over the posterior samplers, and CSV/JSON
emission of the summary tables and contour grids.

Replication r of size n uses RNG streams derived from
(master_seed, d, n, r, attempt, purpose), so results are byte-identical
across runs and independent of scheduling order, of the worker count and of
how the replications are grouped into lockstep tasks.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import os
import platform
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy

logger = logging.getLogger(__name__)

from . import __version__
from .diagnostics import generalized_lambdas, w2_distance
from .gp import (
    Design,
    GpDataset,
    LikelihoodBlock,
    NotPositiveDefiniteError,
    DegenerateDataError,
    build_correlation_matrix,
    cholesky,
    is_ou_model,
    likelihood_engine,
)
from .kernels import MaternSpec
from .kriging import efficiency_ratios, sym_kl_finite, sym_kl_limit
from .posterior import (
    GammaPrior,
    InitializationError,
    PriorSpec,
    chain_start,
    conditional_bvm_logdensity,
    lockstep_target,
    rwm_chains,
    theta_limit_draws,
)

__all__ = [
    "ExperimentConfig",
    "ReplicationResult",
    "FailureBudgetExceededError",
    "gen_perturbed_grid",
    "gen_lhs_testpoints",
    "sample_gp_path",
    "run_table1",
    "run_table2",
    "run_table3",
    "emit_contour_grid",
    "kl_check_sweep",
    "lambda_check_sweep",
]

GRID_NOISE_1D = 2e-4
GRID_NOISE_2D = 1e-3
MAX_RETRIES = 5
# distinct posterior draws per MSE-factor call in the Table 3 sweep: larger
# chunks buy little speed and hold (chunk, test points) arrays in memory
MSE_CHUNK = 16
# draws per task at most, summed over its pairs: a task's lockstep run holds
# 32 bytes per OU pair and draw, so the reference 5,000 draws give tasks of
# 100 pairs, one size of a default table, in about 16 MB
TASK_DRAWS = 500_000


class FailureBudgetExceededError(Exception):
    """A replication kept failing numerically after the retry budget."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol constants; the defaults reproduce the reference simulation
    study (truth sigma2=1, alpha=0.5, nu=1/2; gamma(1.1, 0.1) priors; 5000
    posterior draws after 1000 burn-in; 100 replications)."""

    d: int = 1
    n_values: tuple = (25, 50, 100, 200, 400)
    m_values: tuple = (10, 20, 30)
    sigma2_0: float = 1.0
    alpha_0: float = 0.5
    nu: float = 0.5
    theta_shape: float = 1.1
    theta_rate: float = 0.1
    alpha_shape: float = 1.1
    alpha_rate: float = 0.1
    n_samples: int = 5000
    n_burnin: int = 1000
    n_replications: int = 100
    n_test_points: int = 0          # 0 means the d-dependent default
    master_seed: int = 12345
    output_dir: str = "out"
    n_workers: int = 0              # 0 means min(4, cpu_count)
    likelihood: str = "ou"          # "ou" (d=1, nu=1/2 only) or "dense"
    mse_draw_thin: int = 1          # Table 3 sweep keeps every k-th draw (for dense factors)

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"experiments support d in {{1,2}}, got {self.d}")
        if self.likelihood not in ("ou", "dense"):
            raise ValueError(f"likelihood must be 'ou' or 'dense', got {self.likelihood!r}")
        # 0 test points or workers means the default
        for name, low in (("n_samples", 1), ("n_burnin", 0), ("n_replications", 1),
                          ("mse_draw_thin", 1), ("n_test_points", 0), ("n_workers", 0),
                          ("master_seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        for name in ("sigma2_0", "alpha_0", "nu", "theta_shape", "theta_rate",
                     "alpha_shape", "alpha_rate"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("n_values", "m_values"):
            sizes = getattr(self, name)
            if len(sizes) == 0 or min(sizes) < 1:
                raise ValueError(f"{name} must be a non-empty list of positive sizes, got {sizes}")
        if is_ou_model(1, self.nu) and min(self.n_values) < 3:
            raise ValueError(f"n_values must be at least 3 when nu = 1/2: the tilted limit "
                             f"needs an interior point of the path, got {self.n_values}")

    @property
    def truth(self) -> MaternSpec:
        return MaternSpec(sigma2=self.sigma2_0, alpha=self.alpha_0, nu=self.nu)

    @property
    def theta_0(self) -> float:
        return self.truth.theta

    @property
    def prior(self) -> PriorSpec:
        return PriorSpec(
            theta_prior=GammaPrior(self.theta_shape, self.theta_rate),
            alpha_prior=GammaPrior(self.alpha_shape, self.alpha_rate),
        )

    @property
    def sizes(self) -> tuple:
        """The sizes of a table: n for d = 1, the grid side m for d = 2."""
        return self.n_values if self.d == 1 else self.m_values

    @property
    def test_point_count(self) -> int:
        if self.n_test_points > 0:
            return self.n_test_points
        return 1000 if self.d == 1 else 2500

    def workers(self) -> int:
        if self.n_workers > 0:
            return self.n_workers
        return min(4, os.cpu_count() or 1)


@dataclass
class ReplicationResult:
    rep_index: int
    n: int
    posterior_mean_theta: float
    posterior_mean_alpha: float
    limit_mean_theta: float
    limit_mean_alpha: float
    tilted_mean_alpha: float
    w2_theta: float
    w2_alpha_profile: float
    w2_alpha_tilted: float
    mean_max_r1: float
    mean_max_r2: float
    acceptance_joint: float
    retries: int


def _seed_seq(master: int, *key) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(master)] + [int(k) for k in key])


def _seed_int(master: int, *key) -> int:
    return int(_seed_seq(master, *key).generate_state(1, dtype=np.uint64)[0])


def gen_perturbed_grid(d: int, n_or_m: int, seed, zero_noise: bool = False) -> Design:
    """Midpoint grid on [0,1]^d with small uniform jitter.

    d=1: s_i = (2i-1)/(2n) + U[-2e-4, 2e-4];
    d=2: the m x m grid ((2i-1)/(2m), (2j-1)/(2m)) + U[-1e-3, 1e-3]^2.
    Points are clamped to [0,1] and regenerated in the (measure-zero) event
    of a duplicate.
    """
    if n_or_m < 1:
        raise ValueError(f"a perturbed grid needs at least one point per axis, got {n_or_m}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        if d == 1:
            n = n_or_m
            base = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
            pts = base if zero_noise else base + rng.uniform(-GRID_NOISE_1D, GRID_NOISE_1D, n)
            # sorted for the OU engine: past n = 2,500 the jitter can swap
            # neighbours
            pts = np.sort(np.clip(pts, 0.0, 1.0))[:, None]
        elif d == 2:
            m = n_or_m
            base = (2.0 * np.arange(1, m + 1) - 1.0) / (2.0 * m)
            gx, gy = np.meshgrid(base, base, indexing="ij")
            pts = np.column_stack([gx.ravel(), gy.ravel()])
            if not zero_noise:
                pts = pts + rng.uniform(-GRID_NOISE_2D, GRID_NOISE_2D, pts.shape)
            pts = np.clip(pts, 0.0, 1.0)
        else:
            raise ValueError(f"gen_perturbed_grid supports d in {{1,2}}, got {d}")
        try:
            return Design(points=pts)
        except ValueError:
            continue
    raise FailureBudgetExceededError("could not generate a distinct perturbed grid")


def gen_lhs_testpoints(design: Design, count: int, seed) -> np.ndarray:
    """Latin hypercube test points for ``design`` as a (count, design.d)
    array: one point per stratum per axis, with in-stratum jitter and
    independent stratum permutations across axes.  Points colliding with
    design points are re-jittered, in index order."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(design.d):
        perm = rng.permutation(count)
        cols.append((perm + rng.uniform(0.0, 1.0, count)) / count)
    pts = np.column_stack(cols)
    hits = (pts[:, None, :] == design.points[None, :, :]).all(axis=2).any(axis=1)
    for i in np.flatnonzero(hits):
        guard = 0
        while np.any(np.all(design.points == pts[i][None, :], axis=1)):
            stratum = np.floor(pts[i] * count) / count
            pts[i] = stratum + rng.uniform(0.0, 1.0, design.d) / count
            guard += 1
            if guard > 50:
                raise FailureBudgetExceededError("LHS collision resampling failed")
    return pts


def sample_gp_path(design: Design, truth: MaternSpec, seed) -> GpDataset:
    """Draw one path of the mean-zero process on the design via the dense
    Cholesky factor of the true covariance."""
    rng = np.random.default_rng(seed)
    chol = cholesky(build_correlation_matrix(design, truth.alpha, truth.nu))
    chol[np.triu_indices(design.n, 1)] = 0.0   # in place: np.tril would copy to C order
    z = rng.standard_normal(design.n)
    return GpDataset(design=design, x=(np.sqrt(truth.sigma2) * chol) @ z)


# ---------------------------------------------------------------------------
# replication engine

def _chain_init(target, mean, fallback) -> np.ndarray:
    """The start of a chain on ``target``: the prior ``mean``, or ``fallback()``
    if the target rejects it.  Each candidate is evaluated once here (the
    lockstep run evaluates the start again on its block), and a rejected
    fallback raises :class:`InitializationError`."""
    try:
        chain_start(target, mean)
        return np.asarray(mean, dtype=float)
    except InitializationError:
        init = np.asarray(fallback(), dtype=float)
        chain_start(target, init)
        return init


def _default_steps(n: int) -> tuple:
    # near-optimal RWM scales for the (log theta, log alpha) target: the
    # theta marginal tightens like sqrt(2/n) while alpha stays order-one
    return (1.7 * np.sqrt(2.0 / n), 1.5)


_RETRIED = (NotPositiveDefiniteError, DegenerateDataError, InitializationError)


@dataclass
class _Setup:
    """One replication at one attempt, with everything that depends on its
    data alone built and checked: what is left is to run its chains.  Each
    chain is a (start, seed) pair; ``tilted`` is None off the OU model."""

    rep: int
    attempt: int
    engine: object
    theta_limit: np.ndarray     # the theta draws both limits share
    joint: tuple
    profile: tuple
    tilted: tuple | None


def _setup(cfg, n_or_m, rep, attempt) -> _Setup:
    d, n, master = cfg.d, n_or_m ** cfg.d, cfg.master_seed
    design = gen_perturbed_grid(d, n_or_m, _seed_seq(master, d, n, rep, attempt, 1))
    data = sample_gp_path(design, cfg.truth, _seed_seq(master, d, n, rep, attempt, 2))
    engine = likelihood_engine(data, cfg.nu, cfg.likelihood)
    prior = cfg.prior
    alpha_mean = prior.alpha_prior.mean

    def spawned(purpose):
        return np.random.SeedSequence(_seed_int(master, d, n, rep, attempt, purpose)).spawn(2)

    def chain(kind, mean, fallback, seed):
        return _chain_init(lockstep_target(prior, **{kind: [engine]}), mean, fallback), seed

    joint = chain("joint", [prior.theta_prior.mean, alpha_mean],
                  lambda: [engine.profile(1.0).theta_tilde, 1.0],
                  _seed_int(master, d, n, rep, attempt, 3))
    # the theta limit and the profile alpha chain split purpose 4's stream
    theta_ss, profile_ss = spawned(4)
    theta_limit = theta_limit_draws(engine, cfg.theta_0, cfg.alpha_0, cfg.n_samples, theta_ss)
    profile = chain("profile", [alpha_mean], lambda: [1.0], profile_ss)
    tilted = (chain("tilted", [alpha_mean], lambda: [1.0], spawned(5)[1])
              if engine.is_ou else None)
    return _Setup(rep, attempt, engine, theta_limit, joint, profile, tilted)


def _retried(cfg, pair, attempt, err):
    """Log the retried failure of the (size, replication) ``pair`` and return
    the pair for the next attempt, or raise if that was its last."""
    n, rep = pair[0] ** cfg.d, pair[1]
    if attempt + 1 < MAX_RETRIES:
        logger.warning("replication %d at n=%d failed (%s); retrying with "
                       "attempt %d seed", rep, n, err, attempt + 1)
        return pair
    logger.warning("replication %d at n=%d failed (%s) on its last attempt %d; "
                   "giving up", rep, n, err, attempt)
    raise FailureBudgetExceededError(
        f"replication {rep} at n={n}, nu={cfg.nu} failed {MAX_RETRIES} times; "
        f"last error {type(err).__name__}: {err}"
    )


def _run_block(cfg, pairs, compute_ratios, attempt=0):
    """The (size, replication) ``pairs`` of a task at one attempt: each is set
    up on its own, then the joint, profile and (OU model only) tilted chains
    of all of them run as one lockstep run on one target.

    A replication's numbers depend on its own (rep, attempt) streams only, so
    they do not depend on the task.  Those that fail, in their set-up or
    after their chains, run again together at the next attempt.
    """
    ready, setups, failed, results = [], [], [], []
    for pair in pairs:
        try:
            setups.append(_setup(cfg, *pair, attempt))
            ready.append(pair)
        except _RETRIED as err:
            failed.append(_retried(cfg, pair, attempt, err))
    if setups:
        engines, r = [s.engine for s in setups], len(setups)
        tilted = setups[0].tilted is not None
        chains = ([s.joint for s in setups] + [s.profile for s in setups]
                  + [s.tilted for s in setups if tilted])
        steps = [_default_steps(e.n) for e in engines] + [(2.0,)] * (len(chains) - r)
        draws, accept = rwm_chains(
            lockstep_target(cfg.prior, joint=engines, profile=engines,
                            tilted=engines if tilted else ()),
            *zip(*chains), steps, cfg.n_samples, cfg.n_burnin)
        for i, (pair, setup) in enumerate(zip(ready, setups)):
            try:
                results.append(_replication_result(
                    cfg, setup, draws[i][:, 0], draws[i][:, 1], float(accept[i]),
                    draws[r + i][:, 0], draws[2 * r + i][:, 0] if tilted else None,
                    compute_ratios))
            except _RETRIED as err:
                failed.append(_retried(cfg, pair, attempt, err))
    if failed:
        results += _run_block(cfg, failed, compute_ratios, attempt + 1)
    return results


def _replication_result(cfg, setup, theta, alpha, acceptance, limit_alpha, tilted_alpha,
                        compute_ratios):
    """The table row of one replication from its joint draws ``theta``,
    ``alpha``, the alpha draws of its limits (``tilted_alpha`` is None off
    the OU model) and ``setup.theta_limit``."""
    n = setup.engine.n
    if tilted_alpha is not None:
        tilted_mean_alpha = float(np.mean(tilted_alpha))
        w2_alpha_tilted = w2_distance(alpha, tilted_alpha)
    else:
        tilted_mean_alpha = np.nan
        w2_alpha_tilted = np.nan

    if compute_ratios:
        points = gen_lhs_testpoints(
            setup.engine.data.design, cfg.test_point_count,
            _seed_seq(cfg.master_seed, cfg.d, n, setup.rep, setup.attempt, 6))
        r1, r2 = _posterior_mean_max_ratios(cfg, setup.engine, theta, alpha, points)
    else:
        r1 = r2 = np.nan

    return ReplicationResult(
        rep_index=setup.rep,
        n=n,
        posterior_mean_theta=float(np.mean(theta)),
        posterior_mean_alpha=float(np.mean(alpha)),
        limit_mean_theta=float(np.mean(setup.theta_limit)),
        limit_mean_alpha=float(np.mean(limit_alpha)),
        tilted_mean_alpha=tilted_mean_alpha,
        w2_theta=w2_distance(theta, setup.theta_limit),
        w2_alpha_profile=w2_distance(alpha, limit_alpha),
        w2_alpha_tilted=w2_alpha_tilted,
        mean_max_r1=r1,
        mean_max_r2=r2,
        acceptance_joint=acceptance,
        retries=setup.attempt,
    )


def _posterior_mean_max_ratios(cfg, engine, theta, alpha, points):
    """Average over posterior draws of the max MSE ratios over the (K, d) ``points``.

    A rejected RWM proposal repeats the previous draw, so the ratios are
    evaluated once per run of identical consecutive draws, MSE_CHUNK runs per
    factor call, and spread back over the draws in order: the mean adds the
    same values in the same order as one evaluation per draw.
    """
    truth = cfg.truth
    factors = engine.mse_factors(truth.alpha, points)
    mse_oracle = truth.sigma2 * factors.m0
    thetas = theta[:: cfg.mse_draw_thin]
    alphas = alpha[:: cfg.mse_draw_thin]
    new = np.ones(thetas.shape[0], dtype=bool)
    new[1:] = (thetas[1:] != thetas[:-1]) | (alphas[1:] != alphas[:-1])
    thetas, alphas = thetas[new], alphas[new]
    max_r1 = np.empty(thetas.shape[0])
    max_r2 = np.empty(thetas.shape[0])
    for start in range(0, thetas.shape[0], MSE_CHUNK):
        block = slice(start, start + MSE_CHUNK)
        m, q = factors(alphas[block])
        # th / al ** (2 nu) stays a scalar pow: array power can differ in the
        # last bit
        scale = [th / al ** (2.0 * cfg.nu) for th, al in zip(thetas[block], alphas[block])]
        r1, r2 = efficiency_ratios(np.array(scale)[:, None] * m, truth.sigma2 * q, mse_oracle)
        max_r1[block] = r1.max(axis=1)
        max_r2[block] = r2.max(axis=1)
    run = np.cumsum(new) - 1
    return float(np.mean(max_r1[run])), float(np.mean(max_r2[run]))


# ---------------------------------------------------------------------------
# table drivers

def _run_replications(cfg: ExperimentConfig, compute_ratios: bool):
    """One task per contiguous run of (size, replication) pairs, sizes in
    order: at most ``TASK_DRAWS // n_samples`` pairs per task and at least
    one task per worker.  Each task runs in lockstep (:func:`_run_block`).
    """
    workers = cfg.workers()
    pairs = [(n_or_m, rep) for n_or_m in cfg.sizes for rep in range(cfg.n_replications)]
    per_task = max(1, TASK_DRAWS // cfg.n_samples)
    n_tasks = min(len(pairs), max(workers, -(-len(pairs) // per_task)))
    tasks = [[pairs[i] for i in task] for task in np.array_split(np.arange(len(pairs)), n_tasks)]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_block, [cfg] * len(tasks), tasks,
                                 [compute_ratios] * len(tasks), chunksize=1))
    else:
        done = [_run_block(cfg, task, compute_ratios) for task in tasks]
    results = [r for task in done for r in task]
    results.sort(key=lambda r: (r.n, r.rep_index))
    return results


_TABLE_COLUMNS = [
    ("e_theta", "posterior_mean_theta"),
    ("e_theta_limit", "limit_mean_theta"),
    ("e_alpha", "posterior_mean_alpha"),
    ("e_alpha_limit", "limit_mean_alpha"),
    ("e_alpha_tilted", "tilted_mean_alpha"),
    ("w2_theta", "w2_theta"),
    ("w2_alpha_profile", "w2_alpha_profile"),
    ("w2_alpha_tilted", "w2_alpha_tilted"),
]


def aggregate(results, columns=_TABLE_COLUMNS):
    """Per-n mean and cross-replication standard deviation of each column."""
    by_n = {}
    for r in results:
        by_n.setdefault(r.n, []).append(r)
    rows = []
    for n in sorted(by_n):
        row = {"n": n, "replications": len(by_n[n])}
        for label, attr in columns:
            vals = np.asarray([getattr(r, attr) for r in by_n[n]], dtype=float)
            if np.all(np.isnan(vals)):
                row[label], row[label + "_sd"] = np.nan, np.nan
            else:
                row[label] = float(np.mean(vals))
                row[label + "_sd"] = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        rows.append(row)
    return rows


def _write_rows(path, rows):
    if not rows:
        return
    keys = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in keys])


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    return v


def _write_replications(path, results):
    rows = [dataclasses.asdict(r) for r in results]
    _write_rows(path, rows)


def _git_revision():
    """HEAD of the git checkout that tracks this file, suffixed ``-dirty``
    when tracked files have uncommitted changes, or None."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        tracked = subprocess.run(["git", "-C", here, "ls-files", "--error-unmatch", __file__],
                                 capture_output=True, timeout=10)
        # --exclude=* leaves tags out, so the name is the full commit hash
        head = subprocess.run(["git", "-C", here, "describe", "--always", "--dirty",
                               "--abbrev=40", "--exclude=*"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() if tracked.returncode == head.returncode == 0 else None


def _write_manifest(path, cfg: ExperimentConfig, table: str, results, elapsed: float):
    config = dataclasses.asdict(cfg)
    payload = {
        "table": table,
        "package_version": __version__,
        "config": config,
        "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:12],
        "master_seed": cfg.master_seed,
        "total_retries": int(sum(r.retries for r in results)),
        "replications": len(results),
        "elapsed_seconds": round(elapsed, 3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _run_table(cfg: ExperimentConfig, compute_ratios: bool, table: str, columns):
    start = time.time()
    results = _run_replications(cfg, compute_ratios)
    rows = aggregate(results, columns)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    _write_replications(os.path.join(out, f"{table}_replications.csv"), results)
    _write_rows(os.path.join(out, f"{table}.csv"), rows)
    _write_manifest(os.path.join(out, f"{table}_manifest.json"), cfg, table,
                    results, time.time() - start)
    return results, rows


def run_table1(cfg: ExperimentConfig):
    """d=1 protocol over cfg.n_values: posterior means and the three W2
    columns, aggregated over replications; runs at d=1 whatever cfg.d."""
    return _run_table(dataclasses.replace(cfg, d=1), False, "table1", _TABLE_COLUMNS)


def run_table2(cfg: ExperimentConfig):
    """d=2 protocol over cfg.m_values (n = m^2), whatever cfg.d; no
    tilted-normal column."""
    cols = [c for c in _TABLE_COLUMNS if "tilted" not in c[0]]
    return _run_table(dataclasses.replace(cfg, d=2), False, "table2", cols)


def run_table3(cfg: ExperimentConfig):
    """Posterior means of the max-over-test-set MSE ratios at cfg.d."""
    cols = [("max_r1", "mean_max_r1"), ("max_r2", "mean_max_r2")]
    return _run_table(cfg, True, "table3", cols)


# ---------------------------------------------------------------------------
# contour grids and spot-check sweeps

def emit_contour_grid(data: GpDataset, cfg: ExperimentConfig, theta_grid,
                      alpha_grid, out_dir=None):
    """Unnormalized log densities of the true joint posterior and the two
    limiting posteriors on a (theta, alpha) grid, plus the profile ridge.

    Returns a dict with the three (len(theta), len(alpha)) surfaces and the
    ridge; optionally writes ``contour_grid.csv`` and ``contour_ridge.csv``.
    The tilted limit exists only for the OU model (nu = 1/2); for any other
    smoothness its surface is NaN.  The ridge is NaN at an alpha whose
    correlation fails to factorize, where the surfaces are -inf.
    """
    if data.design.d != 1:
        raise ValueError("contour grids are defined for d = 1 datasets")
    theta_grid = np.asarray(theta_grid, dtype=float)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if not np.all(alpha_grid > 0):
        raise ValueError(f"alpha grid values must be positive, got {alpha_grid}")
    engine = likelihood_engine(data, cfg.nu, cfg.likelihood)
    prior = cfg.prior
    n = data.n
    theta_tilde_alpha0 = engine.profile(cfg.alpha_0).theta_tilde
    qf, _ = LikelihoodBlock([engine] * alpha_grid.shape[0]).terms(alpha_grid)
    ridge = np.where(np.isfinite(qf), qf / n * alpha_grid ** (2.0 * cfg.nu), np.nan)
    # one target row per theta, so each alpha column is one call
    joint = lockstep_target(prior, joint=[engine] * theta_grid.shape[0])
    log_true = np.column_stack([
        joint(np.column_stack([theta_grid, np.full_like(theta_grid, a)])) for a in alpha_grid
    ])
    # one target row per alpha
    alphas, alpha_engines = alpha_grid[:, None], [engine] * alpha_grid.shape[0]
    norm = conditional_bvm_logdensity(theta_grid, theta_tilde_alpha0, cfg.theta_0, n)[:, None]
    tilted = (lockstep_target(prior, tilted=alpha_engines)(alphas)
              if engine.is_ou else np.full(alpha_grid.shape, np.nan))
    surfaces = {
        "theta_grid": theta_grid,
        "alpha_grid": alpha_grid,
        "log_posterior": log_true,
        "log_profile_limit": norm + lockstep_target(prior, profile=alpha_engines)(alphas),
        "log_tilted_limit": norm + tilted,
        "ridge": ridge,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        theta, alpha = np.meshgrid(theta_grid, alpha_grid, indexing="ij")
        cells = {"theta": theta, "alpha": alpha,
                 **{k: surfaces[k] for k in ("log_posterior", "log_profile_limit",
                                             "log_tilted_limit")}}
        _write_rows(os.path.join(out_dir, "contour_grid.csv"),
                    [dict(zip(cells, row)) for row in zip(*(v.ravel() for v in cells.values()))])
        _write_rows(os.path.join(out_dir, "contour_ridge.csv"),
                    [{"alpha": a, "theta_tilde": t} for a, t in zip(alpha_grid, ridge)])
    return surfaces


def kl_check_sweep(n_values, alphas, alpha0: float, out_path=None):
    """Finite-n symmetrized KL against its closed-form limit on the
    equispaced unit-interval grid s_i = i/n."""
    rows = []
    for n in n_values:
        design = Design(points=(np.arange(1, n + 1) / n)[:, None])
        for a in alphas:
            rn = sym_kl_finite(design, a, alpha0)
            rl = sym_kl_limit(a, alpha0)
            rows.append({"n": n, "alpha": float(a), "alpha0": alpha0,
                         "r_n": rn, "r_limit": rl, "gap": rl - rn})
    if out_path is not None:
        _write_rows(out_path, rows)
    return rows


def lambda_check_sweep(count: int, seed, n: int, d: int, out_path=None):
    """Random matched-theta instances with the generalized spectrum checked
    against its min/max power bounds; the spectrum does not depend on the
    shared microergodic value, here 0.5."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        alpha = float(10 ** rng.uniform(-0.7, 0.7))
        alpha0 = float(10 ** rng.uniform(-0.7, 0.7))
        nu = 0.5
        pts = rng.uniform(0.0, 1.0, (n, d))
        if d == 1:
            pts.sort(axis=0)
        lambdas = generalized_lambdas(Design(points=pts), nu, alpha, alpha0, 0.5)
        ratio = (alpha0 / alpha) ** (2.0 * nu + d)
        lo, hi = min(ratio, 1.0), max(ratio, 1.0)
        ok = (lambdas.min() >= lo - 1e-8) and (lambdas.max() <= hi + 1e-8)
        rows.append({
            "instance": i, "n": n, "d": d, "alpha": alpha, "alpha0": alpha0,
            "lambda_min": float(lambdas.min()),
            "lambda_max": float(lambdas.max()),
            "bound_lo": lo, "bound_hi": hi, "ok": bool(ok),
        })
    if out_path is not None:
        _write_rows(out_path, rows)
    return rows
