"""Diagnostics: 1-d Wasserstein-2 distance and the whitened spectrum.

Run with:  python demos/05_w2_and_spectrum_diagnostics.py
"""

import numpy as np

from fixedgp import Design, generalized_lambdas, w2_distance

rng = np.random.default_rng(0)

# On equal-size samples the 1-d W2 distance is just the RMS of sorted
# differences.  Between equal-variance normals it recovers the mean shift.
m = 100_000
a = rng.normal(0.0, 1.0, m)
b = rng.normal(0.8, 1.0, m)
print(f"W2 between N(0,1) and N(0.8,1) samples: {w2_distance(a, b):.4f} (exact 0.8)")
print(f"translation check, W2(x, x+2.5) = {w2_distance(a, a + 2.5):.4f}")

print(f"summary of the shifted sample: mean={np.mean(b):.4f}, sd={np.std(b, ddof=1):.4f}")

# Whitening one matched-theta covariance by the other exposes the
# generalized eigenvalues lambda_k; they live inside power bounds set by
# the spectral-density ratio, which is the finite-sample face of the
# equivalence of the two Gaussian measures.
design = Design(points=np.sort(rng.uniform(0, 1, 40))[:, None])
theta0, alpha0, nu = 0.5, 0.5, 0.5
for alpha in (0.25, 0.5, 1.0, 2.0):
    lambdas = generalized_lambdas(design, nu, alpha, alpha0, theta0)
    power = (alpha0 / alpha) ** (2 * nu + 1)
    lo, hi = min(power, 1.0), max(power, 1.0)
    print(f"alpha={alpha:>4}: lambda in [{lambdas.min():.4f}, "
          f"{lambdas.max():.4f}]  bounds [{lo:.4f}, {hi:.4f}]")
print("at alpha = alpha0 the spectrum is identically 1 (same measure).")
