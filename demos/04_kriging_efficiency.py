"""Kriging with a wrong range parameter is asymptotically harmless.

A misspecified inverse range alpha with the matched microergodic value
theta0 gives prediction MSEs that approach the oracle MSE as the design
fills in.  The symmetrized KL divergence between the two model laws
explains the rate: it increases to a finite limit, and the remaining gap
bounds the MSE ratio deviation.

Run with:  python demos/04_kriging_efficiency.py
"""

import numpy as np

from fixedgp import (
    Design,
    MaternSpec,
    blup,
    efficiency_ratios,
    gen_perturbed_grid,
    mse_breakdown,
    sample_gp_path,
    sym_kl_finite,
    sym_kl_limit,
)

truth = MaternSpec(sigma2=1.0, alpha=0.5, nu=0.5)
alpha_wrong = 1.5
assumed = MaternSpec.from_theta(truth.theta, alpha_wrong, truth.nu)
print(f"truth: alpha={truth.alpha}, sigma2={truth.sigma2}; "
      f"assumed: alpha={assumed.alpha}, sigma2={assumed.sigma2:.4f} (same theta)")

# the kriging predictor interpolates and ignores the variance scale; test
# points are always a (K, d) array, here K = 1 and d = 1
design = gen_perturbed_grid(1, 30, seed=2)
data = sample_gp_path(design, truth, seed=7)
pred, = blup(data, alpha_wrong, 0.5, np.array([[0.512]]))
print(f"\nBLUP at s*=0.512: {pred:.4f} "
      f"(nearest obs {data.x[np.argmin(np.abs(design.coords_1d - 0.512))]:.4f})")

print("\nMSE ratio deviations shrink with n:")
for n in (25, 100, 400):
    d = Design(points=(np.arange(1, n + 1) / n)[:, None])
    br = mse_breakdown(d, 0.5, assumed, truth, np.array([[0.5 + 0.37 / n]]))
    (r1,), (r2,) = efficiency_ratios(br.mse_assumed, br.mse_under_truth, br.mse_oracle)
    print(f"  n={n:>3}: mse_assumed={br.mse_assumed[0]:.5f} "
          f"mse_truth={br.mse_under_truth[0]:.5f} oracle={br.mse_oracle[0]:.5f} "
          f"r1={r1:.4f} r2={r2:.4f}")

print("\nsymmetrized KL increases to its closed-form limit:")
r_lim = sym_kl_limit(alpha_wrong, truth.alpha)
for n in (50, 100, 200, 400):
    d = Design(points=(np.arange(1, n + 1) / n)[:, None])
    r_n = sym_kl_finite(d, 0.5, alpha_wrong, truth.alpha)
    print(f"  n={n:>3}: r_n={r_n:.5f}  gap to limit {r_lim:.5f}: {r_lim - r_n:.5f}"
          f"  (n * gap = {n * (r_lim - r_n):.3f})")
print("the gap decays like 1/n, which is exactly the efficiency rate.")
