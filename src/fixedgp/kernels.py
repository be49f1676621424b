"""Isotropic Matern correlation, the underlying Bessel K function, and the
Matern spectral density.

The covariance family is parameterized by a variance ``sigma2``, an inverse
range ``alpha``, and a smoothness ``nu``.  Under infill sampling in dimension
d <= 3 only the product ``theta = sigma2 * alpha**(2 nu)`` is consistently
estimable, so :class:`MaternSpec` carries both parameterizations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "MaternSpec",
    "bessel_k",
    "matern_correlation",
    "matern_kernel",
    "spectral_density",
]

# Half-integer smoothness values with polynomial-times-exponential closed
# forms; these are the only values the reference experiments use.
_HALF_INTEGER_NU = (0.5, 1.5, 2.5)


def _is_half_integer(nu: float) -> bool:
    return any(abs(nu - v) < 1e-14 for v in _HALF_INTEGER_NU)


@dataclass(frozen=True)
class MaternSpec:
    """Matern kernel parameters.

    Attributes
    ----------
    sigma2 : float
        Variance (value of the covariance at lag zero).
    alpha : float
        Inverse range; larger alpha means faster correlation decay.
    nu : float
        Smoothness.
    """

    sigma2: float
    alpha: float
    nu: float

    def __post_init__(self):
        if not (self.sigma2 > 0 and self.alpha > 0 and self.nu > 0):
            raise ValueError(
                f"MaternSpec requires positive parameters, got "
                f"sigma2={self.sigma2}, alpha={self.alpha}, nu={self.nu}"
            )

    @property
    def theta(self) -> float:
        """Microergodic parameter sigma2 * alpha**(2 nu)."""
        return self.sigma2 * self.alpha ** (2.0 * self.nu)

    @classmethod
    def from_theta(cls, theta: float, alpha: float, nu: float) -> "MaternSpec":
        """Build a spec from the (theta, alpha) parameterization."""
        if theta <= 0:
            raise ValueError(f"theta must be positive, got {theta}")
        return cls(sigma2=theta / alpha ** (2.0 * nu), alpha=alpha, nu=nu)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind, K_nu(x).

    Half-integer orders (1/2, 3/2, 5/2) use exact closed forms; other orders
    dispatch to the exponentially scaled routine ``scipy.special.kve`` so the
    e^{-x} factor is applied last.

    Parameters
    ----------
    nu : float
        Order, must be positive.
    x : float
        Argument, must be positive.

    Returns
    -------
    float

    Raises
    ------
    ValueError
        If ``x <= 0`` or ``nu <= 0``.
    OverflowError
        If K_nu(x) exceeds the double range (x below the small-argument
        overflow guard for the given order).
    """
    if not x > 0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    if not nu > 0:
        raise ValueError(f"bessel_k requires nu > 0, got {nu}")
    if _is_half_integer(nu):
        base = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
        if abs(nu - 0.5) < 1e-14:
            poly = 1.0
        elif abs(nu - 1.5) < 1e-14:
            poly = 1.0 + 1.0 / x
        else:
            poly = 1.0 + 3.0 / x + 3.0 / x**2
        val = base * poly
    else:
        val = special.kve(nu, x) * np.exp(-x)
    if np.isinf(val):
        raise OverflowError(f"bessel_k overflow at nu={nu}, x={x}")
    return float(val)


def matern_kernel(nu: float):
    """The Matern correlation as a function of the scaled distance t = alpha h.

    The smoothness dispatch happens here, once; the returned callable maps a
    nonnegative array ``t`` to correlations and does no checking.  Its value
    at t = 0 is exactly 1 for every smoothness.
    """
    if not nu > 0:
        raise ValueError(f"matern_kernel requires nu > 0, got {nu}")
    if abs(nu - 0.5) < 1e-14:
        return lambda t: np.exp(-t)
    if abs(nu - 1.5) < 1e-14:
        return lambda t: (1.0 + t) * np.exp(-t)
    if abs(nu - 2.5) < 1e-14:
        return lambda t: (1.0 + t + t**2 / 3.0) * np.exp(-t)
    coef = 2.0 ** (1.0 - nu) / special.gamma(nu)

    def general(t):
        with np.errstate(invalid="ignore", over="ignore"):
            out = coef * t**nu * special.kve(nu, t) * np.exp(-t)
        # 0 * inf at the extremes of the double range (t = 0 included): the
        # true value is 1 (resp. 0) to machine precision there.
        bad = ~np.isfinite(out)
        if np.any(bad):
            out = np.where(bad & (t < 1.0), 1.0, out)
            out = np.where(bad & (t >= 1.0), 0.0, out)
        return out

    return general


def matern_correlation(alpha: float, nu: float, h) -> np.ndarray | float:
    """Matern correlation (2^{1-nu}/Gamma(nu)) (alpha h)^nu K_nu(alpha h).

    Vectorized over the distance ``h``.  The value at ``h = 0`` is 1 by
    definition (the kernel's only removable singularity is never evaluated
    through K_nu).

    Parameters
    ----------
    alpha, nu : float
        Inverse range and smoothness, both positive.
    h : float or ndarray
        Nonnegative distances.

    Returns
    -------
    float or ndarray
        Correlations in (0, 1], same shape as ``h``.
    """
    if not (alpha > 0 and nu > 0):
        raise ValueError(f"matern_correlation requires alpha, nu > 0, got {alpha}, {nu}")
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < 0):
        raise ValueError("matern_correlation requires h >= 0")
    out = matern_kernel(nu)(alpha * h_arr)
    if np.ndim(h) == 0:
        return float(out)
    return out


def spectral_density(spec: MaternSpec, d: int, omega_norm) -> np.ndarray | float:
    """Isotropic spectral density of the Matern covariance in dimension d.

    f(omega) = Gamma(nu + d/2)/Gamma(nu) * sigma2 alpha^{2 nu}
               / (pi^{d/2} (alpha^2 + |omega|^2)^{nu + d/2})

    Parameters
    ----------
    spec : MaternSpec
    d : int
        Dimension, one of {1, 2, 3}.
    omega_norm : float or ndarray
        Euclidean norm of the frequency.

    Returns
    -------
    float or ndarray
    """
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2, or 3, got {d}")
    w = np.asarray(omega_norm, dtype=float)
    if np.any(w < 0):
        raise ValueError("omega_norm must be nonnegative")
    nu = spec.nu
    coef = special.gamma(nu + d / 2.0) / special.gamma(nu)
    out = coef * spec.theta / (np.pi ** (d / 2.0) * (spec.alpha**2 + w**2) ** (nu + d / 2.0))
    if np.ndim(omega_norm) == 0:
        return float(out)
    return out
