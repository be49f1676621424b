"""Matern correlations, the Bessel-K connection, and spectral densities.

Run with:  python demos/01_kernels_and_spectra.py
"""

import numpy as np
from scipy import special

from fixedgp import MaternSpec, matern_correlation, spectral_density

# The isotropic Matern correlation at smoothness nu is
# (2^{1-nu}/Gamma(nu)) (alpha h)^nu K_nu(alpha h); at half-integer nu it
# collapses to a polynomial times an exponential.
print("correlation at h=1, alpha=1 across smoothness values:")
for nu in (0.5, 1.5, 2.5, 0.8, 3.7):
    print(f"  nu={nu:>3}: {matern_correlation(1.0, nu, 1.0):.6f}")

# nu = 1/2 is the exponential kernel: corr = exp(-alpha h)
h = np.linspace(0.0, 3.0, 7)
print("\nnu=1/2 matches exp(-alpha h):")
print("  kernel :", np.round(matern_correlation(0.7, 0.5, h), 5))
print("  exp    :", np.round(np.exp(-0.7 * h), 5))

# The Bessel function behind it, read back from the correlation k_nu(x) at
# alpha = 1 as K_nu(x) = Gamma(nu) 2^{nu-1} x^{-nu} k_nu(x), including the
# large-argument regime where naive evaluation would underflow before the
# power factor.
def K(nu, x):
    return special.gamma(nu) * 2.0 ** (nu - 1.0) * x**-nu * matern_correlation(1.0, nu, x)


print("\nK_nu values:")
print(f"  K_0.5(1)  = {K(0.5, 1.0):.10f}  (= sqrt(pi/2)/e)")
print(f"  K_1.5(2)  = {K(1.5, 2.0):.10f}")
print(f"  K_0.5(50) = {K(0.5, 50.0):.3e}  (finite, no overflow)")

# Spectral densities of a matched-theta pair: same microergodic parameter
# theta = sigma2 * alpha^{2 nu}, different ranges.  Their ratio stays inside
# the power bounds [min((a0/a)^{2nu+d}, 1), max(...)], which is what makes
# the two Gaussian measures equivalent on a fixed domain.
theta0, alpha0, alpha, nu, d = 0.5, 0.5, 1.5, 0.5, 1
f0 = MaternSpec.from_theta(theta0, alpha0, nu)
f1 = MaternSpec.from_theta(theta0, alpha, nu)
w = np.logspace(-2, 2, 9)
ratio = spectral_density(f1, d, w) / spectral_density(f0, d, w)
power = (alpha0 / alpha) ** (2 * nu + d)
print(f"\nmatched-theta spectral ratio over omega (bounds [{power:.4f}, 1]):")
print(" ", np.round(ratio, 4))
assert np.all((ratio >= power - 1e-12) & (ratio <= 1 + 1e-12))
print("ratio bounds hold.")
