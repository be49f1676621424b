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
    McmcConfig,
    gen_perturbed_grid,
    joint_limit_sampler,
    likelihood_engine,
    log_joint_posterior,
    rwm_chain,
    sample_gp_path,
    w2_distance,
)

cfg = ExperimentConfig()
prior = cfg.prior

for n in (50, 200, 400):
    design = gen_perturbed_grid(1, n, seed=21)
    data = sample_gp_path(design, cfg.truth, seed=n)
    engine = likelihood_engine(data, cfg.nu, "ou")   # O(n) OU backend

    def target(p):
        return log_joint_posterior(engine, prior, p[0], p[1])

    mcmc = McmcConfig(n_samples=5000, n_burnin=1000,
                      step_sizes=(1.7 * np.sqrt(2 / n), 1.5), seed=n + 1)
    chain = rwm_chain(target, mcmc, np.array([11.0, 11.0]), "joint-posterior")

    limit = joint_limit_sampler("joint-profile", engine, prior,
                                cfg.theta_0, cfg.alpha_0, mcmc)
    tilted = joint_limit_sampler("ou-tilted", engine, prior,
                                 cfg.theta_0, cfg.alpha_0, mcmc)

    print(f"n={n:>3}  E(theta)={chain.theta.mean():.4f}  E(alpha)={chain.alpha.mean():.3f}"
          f"  sd(alpha)={chain.alpha.std():.3f}  acc={chain.acceptance_rate:.2f}")
    print(f"       W2(theta vs normal limit) = {w2_distance(chain.theta, limit.theta):.4f}")
    print(f"       W2(alpha vs profile)      = {w2_distance(chain.alpha, limit.alpha):.4f}")
    print(f"       W2(alpha vs tilted)       = {w2_distance(chain.alpha, tilted.alpha):.4f}")

print("\ntheta tightens at the sqrt(n) rate; alpha never concentrates.")
