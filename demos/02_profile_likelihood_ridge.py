"""The profile likelihood of the range parameter and the microergodic ridge.

For each fixed inverse range alpha, the variance profiles out in closed
form, giving theta_tilde(alpha) = alpha^{2 nu} x' R^{-1} x / n.  Two facts
drive everything downstream:

  * theta_tilde is nondecreasing in alpha for ANY data vector, and
  * the ridge flattens toward the true theta0 as the design fills in.

Run with:  python demos/02_profile_likelihood_ridge.py
"""

import numpy as np

from fixedgp import (
    MaternSpec,
    gen_perturbed_grid,
    likelihood_engine,
    log_likelihood,
    ou_loglik_fast,
    sample_gp_path,
)

truth = MaternSpec(sigma2=1.0, alpha=0.5, nu=0.5)
alphas = np.array([0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])

for n in (50, 400):
    design = gen_perturbed_grid(1, n, seed=11)
    data = sample_gp_path(design, truth, seed=n)
    engine = likelihood_engine(data, truth.nu, "ou")   # O(n) OU backend
    ridge = np.array([engine.profile(a).theta_tilde for a in alphas])
    print(f"n={n:>3}: theta_tilde over alpha grid = {np.round(ridge, 4)}")
    assert np.all(np.diff(ridge) >= 0)
print("ridge is monotone; its spread shrinks with n (infill concentration).")

# The O(n) Markov fast path is exact, not approximate: compare against the
# dense Cholesky likelihood on a perturbed (non-equispaced) grid.
design = gen_perturbed_grid(1, 200, seed=4)
data = sample_gp_path(design, truth, seed=99)
dense = log_likelihood(data, MaternSpec(0.8, 1.3, 0.5))
fast = ou_loglik_fast(data, 0.8, 1.3)
print(f"\ndense log-likelihood : {dense:.10f}")
print(f"fast  log-likelihood : {fast:.10f}   (diff {abs(dense - fast):.2e})")

ps_dense = likelihood_engine(data, 0.5, "dense").profile(1.3)
ps_fast = likelihood_engine(data, 0.5, "ou").profile(1.3)
print(f"profiled theta, dense vs fast: {ps_dense.theta_tilde:.8f} vs "
      f"{ps_fast.theta_tilde:.8f}")
