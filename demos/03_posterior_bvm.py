"""Posterior MCMC and its limiting shape.

One replication of the simulation protocol: draw a path, sample the joint
posterior of (theta, alpha) by random-walk Metropolis, sample the limiting
posteriors, and measure the Wasserstein-2 distances between the marginals.
As n grows, the theta marginal collapses onto the normal limit while the
alpha marginal stays diffuse: only the microergodic combination is
learnable on a fixed domain.

Run with:  python demos/03_posterior_bvm.py   (about half a minute)
"""

import numpy as np

from fixedgp import (
    ExperimentConfig,
    gen_perturbed_grid,
    likelihood_engine,
    lockstep_target,
    rwm_chains,
    sample_gp_path,
    theta_limit_draws,
    w2_distance,
)

cfg = ExperimentConfig()
prior = cfg.prior

for n in (50, 200, 400):
    design = gen_perturbed_grid(1, n, seed=21)
    data = sample_gp_path(design, cfg.truth, seed=n)
    engine = likelihood_engine(data, cfg.nu, "ou")   # O(n) OU backend

    # the joint target maps (R, 2) rows of (theta, alpha) to R values; here
    # R = 1: one start, one seed, and one tuple of steps, for (theta, alpha)
    (draws,), (acc,) = rwm_chains(lockstep_target(prior, joint=[engine]), [[11.0, 11.0]],
                                  [n + 1], [(1.7 * np.sqrt(2 / n), 1.5)], 5000, 1000)
    theta, alpha = draws[:, 0], draws[:, 1]

    # both limits of this dataset share one i.i.d. normal theta part; their
    # alpha chains run on (R, 1) targets, here R = 1, from the same stream
    theta_ss, alpha_ss = np.random.SeedSequence(n + 1).spawn(2)
    thetas = theta_limit_draws(engine, cfg.theta_0, cfg.alpha_0, 5000, theta_ss)
    (profile,), _ = rwm_chains(lockstep_target(prior, profile=[engine]), [[11.0]], [alpha_ss],
                               [(2.0,)], 5000, 1000)
    (tilted,), _ = rwm_chains(lockstep_target(prior, tilted=[engine]), [[11.0]], [alpha_ss],
                              [(2.0,)], 5000, 1000)

    print(f"n={n:>3}  E(theta)={theta.mean():.4f}  E(alpha)={alpha.mean():.3f}"
          f"  sd(alpha)={alpha.std():.3f}  acc={acc:.2f}")
    print(f"       W2(theta vs normal limit) = {w2_distance(theta, thetas):.4f}")
    print(f"       W2(alpha vs profile)      = {w2_distance(alpha, profile[:, 0]):.4f}")
    print(f"       W2(alpha vs tilted)       = {w2_distance(alpha, tilted[:, 0]):.4f}")

print("\ntheta tightens at the sqrt(n) rate; alpha never concentrates.")
