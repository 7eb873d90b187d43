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
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr, owens_t

from .errors import check_integer

_LOG_4PI = math.log(4.0 * math.pi)
_LOG_MAX = math.log(sys.float_info.max)  # math.exp overflows exactly above it


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
    check_integer(n, "sample size n")
    if n < 2:
        raise ValueError("need n >= 2 so that log log n is defined")
    a_n = math.sqrt(2.0 * math.log(n))
    b_n = a_n - (math.log(math.log(n)) + _LOG_4PI) / (2.0 * a_n)
    return NormingConstants(n=int(n), a_n=a_n, b_n=b_n)


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


def theta_bivariate_closed_form(lam: float, x: float, y: float) -> tuple[float, float]:
    """Coefficient pair of H_lambda(x, y) = exp(-theta_1 e^-x - theta_2 e^-y):

        theta_1 = Phi(sqrt(lam) + (y - x) / (2 sqrt(lam))),  theta_2 the same with x, y swapped.

    The boundaries are separate branches, not a large or small finite lambda:
    (1, 1) at lambda = infinity (independence), and at lambda = 0 (complete
    dependence) all weight on the lower level, split evenly when x == y.
    x and y may be +-infinite; NaN anywhere is rejected.
    """
    if math.isnan(lam) or math.isnan(x) or math.isnan(y):
        raise ValueError("need non-NaN arguments")
    if lam < 0:
        raise ValueError("need lambda >= 0")
    if math.isinf(lam):
        return (1.0, 1.0)
    if lam == 0.0:
        return (0.5, 0.5) if x == y else (1.0, 0.0) if x < y else (0.0, 1.0)
    root = math.sqrt(lam)
    half = (y - x) / (2.0 * root) if x != y else 0.0  # inf - inf at equal infinite levels
    return (std_normal_cdf(root + half), std_normal_cdf(root - half))


def hr_bivariate_cdf(lam: float, x: float, y: float) -> float:
    """Bivariate max-stable CDF H_lambda with Gumbel margins, the limit law
    of theta_bivariate_closed_form's pair: it interpolates between complete
    dependence exp(-e^-min(x, y)) at lambda = 0 and independence
    exp(-e^-x - e^-y) at lambda = infinity."""
    return limit_cdf(theta_bivariate_closed_form(lam, x, y), (x, y))


def limit_cdf(thetas: Sequence[float], x: Sequence[float]) -> float:
    """Multivariate limit CDF exp(-sum_i theta_i e^-x_i).

    Each theta_i must lie in [0, 1]; the two sequences must have equal,
    positive length.  Coordinates of x may be +-infinite.  A zero theta_i
    adds nothing, also where e^-x_i is infinite; a term whose e^-x_i
    overflows is taken as exp(log theta_i - x_i), infinite only when the
    product itself overflows.
    """
    if len(thetas) != len(x) or len(x) == 0:
        raise ValueError("need matching non-empty theta and x sequences")
    total = 0.0
    for th, xi in zip(thetas, x):
        if math.isnan(th) or not 0.0 <= th <= 1.0:
            raise ValueError("need theta in [0, 1]")
        if math.isnan(xi):
            raise ValueError("need non-NaN levels x")
        if th > 0.0:
            try:
                total += th * math.exp(-xi)
            except OverflowError:
                log_term = math.log(th) - xi
                total += math.exp(log_term) if log_term <= _LOG_MAX else math.inf
    return math.exp(-total)


def upper_orthant(h, k, rho: float) -> np.ndarray:
    """P(X1 > h, X2 > k) elementwise for standard normals with correlation rho,
    by Owen's T (Owen 1956): Q(h)/2 + Q(k)/2 - T(h, (k - rho h) / (h s)) -
    T(k, (h - rho k) / (k s)) - beta, with Q(x) = Phi(-x), s = sqrt(1 - rho^2)
    and beta = 1/2 when h, k differ in sign; rho = +-1 (X2 = +-X1) are closed forms.
    rho must be a number in [-1, 1]."""
    if not -1.0 <= rho <= 1.0:  # also false for NaN
        raise ValueError("need a correlation rho in [-1, 1], got %r" % (rho,))
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
    """Exact P(M_n <= u), u = (..., 2), for n >= 1 independent rows of a bivariate
    normal with correlation rho: exp(n log1p(-p)), p the union exceedance."""
    check_integer(n, "row count n")
    if n < 1:
        raise ValueError("need n >= 1 rows, got %d" % n)
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (2,):
        raise ValueError("need levels u whose last axis has length 2, got shape %s" % (u.shape,))
    p = ndtr(-u[..., 0]) + ndtr(-u[..., 1]) - upper_orthant(u[..., 0], u[..., 1], rho)
    with np.errstate(divide="ignore"):  # p = 1: the CDF is 0
        return np.exp(n * np.log1p(-p))
