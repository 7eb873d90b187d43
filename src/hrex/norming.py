"""Gumbel norming constants and the limiting max-stable laws.

The running maximum of n standard normal variables concentrates around
b_n with spread 1/a_n, where

    a_n = sqrt(2 log n),
    b_n = a_n - (log log n + log 4*pi) / (2 a_n),

so thresholds are parametrised as u_n(x) = x / a_n + b_n.  Under these
norming constants a dependent Gaussian array can only produce limits of
the form

    G(x_1, ..., x_d) = exp(-sum_i theta_i * exp(-x_i)),

with dependence coefficients theta_i in [0, 1]; theta_i = 1 recovers the
independent product of Gumbel margins.  The bivariate one-parameter
family H_lambda below interpolates between full dependence (lambda = 0)
and independence (lambda = infinity); lag0_max_cdf is the exact finite-n
law of serially independent bivariate rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr, owens_t

__all__ = [
    "NormingConstants",
    "norming_constants",
    "threshold",
    "std_normal_cdf",
    "hr_bivariate_cdf",
    "limit_cdf",
    "upper_orthant",
    "lag0_max_cdf",
]

_LOG_4PI = math.log(4.0 * math.pi)


@dataclass(frozen=True)
class NormingConstants:
    n: int
    a_n: float
    b_n: float


def norming_constants(n: int) -> NormingConstants:
    """Norming constants a_n, b_n of the standard normal maximum.

    Requires an integer sample size n >= 2 (log log n must be defined).
    Every such n gives 0 < b_n < a_n: b_n < a_n reduces to
    log log n > -log 4*pi, and b_n > 0 to 4 log n > log log n + log 4*pi.
    """
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise ValueError("need an integer sample size n")
    if n < 2:
        raise ValueError("need n >= 2 so that log log n is defined")
    a_n = math.sqrt(2.0 * math.log(n))
    b_n = a_n - (math.log(math.log(n)) + _LOG_4PI) / (2.0 * a_n)
    return NormingConstants(n=n, a_n=a_n, b_n=b_n)


def threshold(constants: NormingConstants, x: float) -> float:
    """Threshold u_n(x) = x / a_n + b_n for a finite real level x."""
    if math.isnan(x):
        raise ValueError("need a non-NaN level x")
    return x / constants.a_n + constants.b_n


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF Phi, evaluated through the complementary
    error function: Phi(x) = erfc(-x / sqrt(2)) / 2.

    Absolute error is below 1e-12 on the whole real line.  Accepts
    +-inf (returning 1 and 0); NaN is rejected.
    """
    if math.isnan(x):
        raise ValueError("need a non-NaN argument")
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    return float(ndtr(x))


def hr_bivariate_cdf(lam: float, x: float, y: float) -> float:
    """Bivariate max-stable CDF H_lambda with Gumbel margins.

    For 0 < lambda < infinity,

        H(x, y) = exp(- Phi(sqrt(lam) + (x-y)/(2 sqrt(lam))) * e^-y
                      - Phi(sqrt(lam) + (y-x)/(2 sqrt(lam))) * e^-x).

    The boundary cases are taken on separate branches rather than by
    substituting a large finite lambda:

        lambda = 0        complete dependence,  exp(-e^-min(x, y)),
        lambda = infinity independence,         exp(-e^-x - e^-y).

    x and y may be +-infinite; NaN anywhere is rejected.
    """
    if math.isnan(lam) or math.isnan(x) or math.isnan(y):
        raise ValueError("need non-NaN arguments")
    if lam < 0:
        raise ValueError("need lambda >= 0")
    if lam == 0.0:
        return math.exp(-math.exp(-min(x, y)))
    if math.isinf(lam):
        return math.exp(-math.exp(-x) - math.exp(-y))
    root = math.sqrt(lam)
    half = (x - y) / (2.0 * root) if x != y else 0.0
    term_y = std_normal_cdf(root + half) * math.exp(-y)
    term_x = std_normal_cdf(root - half) * math.exp(-x)
    return math.exp(-(term_y + term_x))


def limit_cdf(thetas: Sequence[float], x: Sequence[float]) -> float:
    """Multivariate limit CDF exp(-sum_i theta_i e^-x_i).

    Each theta_i must lie in [0, 1]; the two sequences must have equal,
    positive length.  Coordinates of x may be +-infinite.
    """
    if len(thetas) != len(x) or len(x) == 0:
        raise ValueError("need matching non-empty theta and x sequences")
    total = 0.0
    for th, xi in zip(thetas, x):
        if math.isnan(th) or not 0.0 <= th <= 1.0:
            raise ValueError("need theta in [0, 1]")
        if math.isnan(xi):
            raise ValueError("need non-NaN levels x")
        total += th * math.exp(-xi)
    return math.exp(-total)


def upper_orthant(h, k, rho: float) -> np.ndarray:
    """P(X1 > h, X2 > k) elementwise for standard normals with correlation rho,
    by Owen's T (Owen 1956): Q(h)/2 + Q(k)/2 - T(h, (k - rho h) / (h s)) -
    T(k, (h - rho k) / (k s)) - beta, with Q(x) = Phi(-x), s = sqrt(1 - rho^2)
    and beta = 1/2 when h, k differ in sign; rho = +-1 (X2 = +-X1) are closed forms."""
    if rho == 1.0:
        return ndtr(-np.maximum(h, k))
    if rho == -1.0:
        return np.maximum(ndtr(-k) - ndtr(h), 0.0)
    # the terms divide by h and k; the orthant is continuous, so an exact 0 moves to 1e-200
    h, k = np.where(h == 0.0, 1e-200, h), np.where(k == 0.0, 1e-200, k)
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    t = owens_t(h, (k - rho * h) / (h * s)) + owens_t(k, (h - rho * k) / (k * s))
    return 0.5 * (ndtr(-h) + ndtr(-k)) - t - 0.5 * ((h < 0) != (k < 0))


def lag0_max_cdf(n: int, u, rho: float) -> np.ndarray:
    """Exact P(M_n <= u), u = (..., 2), for n independent rows of a bivariate
    normal with correlation rho: exp(n log1p(-p)), p the union exceedance."""
    u = np.asarray(u, dtype=float)
    p = ndtr(-u[..., 0]) + ndtr(-u[..., 1]) - upper_orthant(u[..., 0], u[..., 1], rho)
    with np.errstate(divide="ignore"):  # p = 1: the CDF is 0
        return np.exp(n * np.log1p(-p))
