"""Reference computations that do not import hrex.

Every value the benchmark checks hrex against comes from here: exact
finite-n maximum probabilities, extremal coefficients by quadrature or
closed form, a random-walk Monte Carlo for the Brownian-lag coefficient,
and standard errors of lag covariances.  ``self_check`` compares each
reference against a case with a known answer.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import log_ndtr, ndtr


def gumbel_threshold(n: int, x: float) -> float:
    """u_n(x) = x / a_n + b_n for the standard normal maximum."""
    a_n = math.sqrt(2.0 * math.log(n))
    b_n = a_n - (math.log(math.log(n)) + math.log(4.0 * math.pi)) / (2.0 * a_n)
    return x / a_n + b_n


def upper_orthant(u1: float, u2: float, rho: float) -> float:
    """P(X1 > u1, X2 > u2) for a standard bivariate normal with
    correlation rho, as the 1-D integral of phi(t) Q((u2 - rho t) / s)."""
    if rho == 0.0:
        return float(ndtr(-u1) * ndtr(-u2))
    s = math.sqrt(1.0 - rho * rho)

    def f(t):
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * float(ndtr((rho * t - u2) / s))

    value, _ = integrate.quad(f, u1, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return value


def lag0_max_probability(n: int, u1: float, u2: float, rho: float) -> float:
    """Exact P(M_n <= (u1, u2)) for n independent rows of a bivariate
    normal with correlation rho: exp(n log1p(-p)), p the union exceedance."""
    p = float(ndtr(-u1) + ndtr(-u2)) - upper_orthant(u1, u2, rho)
    return math.exp(n * math.log1p(-p))


def hlambda_coefficients(lam: float, x1: float, x2: float) -> tuple[float, float]:
    """Closed-form coefficient pair of H_lambda:
    exponent = c1 e^-x1 + c2 e^-x2 with c1 = Phi(r + (x2-x1)/(2r)),
    c2 = Phi(r + (x1-x2)/(2r)), r = sqrt(lambda)."""
    r = math.sqrt(lam)
    return (float(ndtr(r + (x2 - x1) / (2.0 * r))), float(ndtr(r + (x1 - x2) / (2.0 * r))))


def hlambda_cdf(lam: float, x1: float, x2: float) -> float:
    c1, c2 = hlambda_coefficients(lam, x1, x2)
    return math.exp(-c1 * math.exp(-x1) - c2 * math.exp(-x2))


def second_coefficient(lam: float, x1: float, x2: float) -> float:
    """theta_2 when component 1 carries coefficient 1 (no constraint) and
    the lag-0 pair carries the whole dependence: the H_lambda exponent
    minus e^-x1, rescaled by e^x2."""
    c1, c2 = hlambda_coefficients(lam, x1, x2)
    return (c1 * math.exp(-x1) + c2 * math.exp(-x2) - math.exp(-x1)) * math.exp(x2)


def single_constraint_theta(delta: float, shift: float) -> float:
    """integral_0^inf e^-a Phi((delta + shift - a/2) / sqrt(delta)) da."""
    b, s = delta + shift, math.sqrt(delta)
    value, _ = integrate.quad(
        lambda a: math.exp(-a) * float(ndtr((b - 0.5 * a) / s)),
        0.0, math.inf, epsabs=1e-13, epsrel=1e-12, limit=200,
    )
    return value


def bivariate_normal_cdf(h: float, k: float, r: float) -> float:
    """Phi_2(h, k; r) as the 1-D integral of phi(t) Phi((k - r t) / s)."""
    if h == -math.inf or k == -math.inf:
        return 0.0
    s = math.sqrt(1.0 - r * r)

    def f(t):
        return math.exp(-0.5 * t * t + float(log_ndtr((k - r * t) / s))) / math.sqrt(2.0 * math.pi)

    value, _ = integrate.quad(f, -math.inf, h, epsabs=1e-13, epsrel=1e-11, limit=200)
    return value


def two_constraint_theta(
    s1: float, b1: float, s2: float, b2: float, r: float
) -> float:
    """P(A/2 + s1 W1 <= b1, A/2 + s2 W2 <= b2), A ~ Exp(1) independent of
    (W1, W2) standard normal with correlation r:
    integral_0^inf e^-a Phi_2((b1 - a/2)/s1, (b2 - a/2)/s2; r) da."""
    value, _ = integrate.quad(
        lambda a: math.exp(-a)
        * bivariate_normal_cdf((b1 - 0.5 * a) / s1, (b2 - 0.5 * a) / s2, r),
        0.0, math.inf, epsabs=1e-12, epsrel=1e-10, limit=200,
    )
    return value


def random_walk_theta(
    scale: float, lags: int, samples: int, seed: int, batch: int = 1 << 16
) -> tuple[float, float]:
    """Monte Carlo of P(A/2 + sqrt(scale) S_k <= scale k for k = 1..lags),
    S a standard Gaussian random walk, A ~ Exp(1).  With delta(k) =
    scale * k the constraint vector sqrt(delta(k)) W_k has covariance
    scale * min(k, l), which is scale times a random walk.  Returns the
    estimate and its binomial standard error."""
    gen = np.random.Generator(np.random.PCG64(seed))
    k = np.arange(1, lags + 1) * scale
    root = math.sqrt(scale)
    hits = 0
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        a_half = 0.5 * gen.standard_exponential(b)
        walk = np.cumsum(gen.standard_normal((b, lags)), axis=1)
        hits += int((a_half[:, None] + root * walk <= k).all(axis=1).sum())
        done += b
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def lag_covariance_se(gamma, k: int, i: int, j: int, points: int) -> float:
    """Standard error of the sample covariance of components (i, j) at lag
    k over `points` time points of a stationary Gaussian vector series with
    autocovariance gamma(m) -> d x d matrix (Bartlett's formula):

        var = (1/N) sum_m [g_ii(m) g_jj(m) + g_ij(m + k) g_ji(m - k)].

    gamma must vanish (or be negligible) beyond its own support."""
    total = 0.0
    m = 0
    while True:
        terms = []
        for mm in ((m,) if m == 0 else (m, -m)):
            a = gamma(mm)
            b = gamma(mm + k)
            c = gamma(mm - k)
            terms.append(a[i, i] * a[j, j] + b[i, j] * c[j, i])
        total += sum(terms)
        if m > k + 2 and max(abs(np.asarray(gamma(m))).max(), abs(np.asarray(gamma(m - k))).max()) < 1e-12:
            break
        m += 1
        if m > 100_000:
            raise ArithmeticError("autocovariance does not decay")
    return math.sqrt(total / points)


def sample_lag_covariance(paths: np.ndarray, k: int) -> np.ndarray:
    """d x d sample covariance E[X_t X_{t+k}^T] of zero-mean paths
    shaped (replicates, length, d), pooled over replicates."""
    head = paths[:, : paths.shape[1] - k, :]
    tail = paths[:, k:, :]
    return np.einsum("rti,rtj->ij", head, tail) / (head.shape[0] * head.shape[1])


def self_check() -> list[str]:
    """Known cases for every reference; returns a list of failures."""
    failures = []

    def expect(name, got, want, tol):
        if not abs(got - want) <= tol:
            failures.append("%s: got %.12g, want %.12g" % (name, got, want))

    # rho = 0: the exact law factorises into Phi(u1)^n Phi(u2)^n
    n, u1, u2 = 10**5, gumbel_threshold(10**5, 0.3), gumbel_threshold(10**5, -0.4)
    expect("finite-n rho=0", lag0_max_probability(n, u1, u2, 0.0),
           float(ndtr(u1)) ** n * float(ndtr(u2)) ** n, 1e-12)
    # the quadrature route at rho = 0 must agree with the product form
    expect("orthant quadrature rho=0", upper_orthant(u1, u2, 1e-300),
           float(ndtr(-u1) * ndtr(-u2)), 1e-15)
    # Sheppard: P(X1 > 0, X2 > 0) = 1/4 + arcsin(rho) / (2 pi)
    expect("orthant at 0", upper_orthant(0.0, 0.0, 0.5), 0.25 + math.asin(0.5) / (2 * math.pi), 1e-12)
    expect("Phi2 at 0", bivariate_normal_cdf(0.0, 0.0, -0.3), 0.25 + math.asin(-0.3) / (2 * math.pi), 1e-11)
    # single-constraint quadrature against the H_lambda closed form
    for x1, x2 in ((0.0, 0.0), (1.0, -1.0), (-0.5, 0.7)):
        expect("theta_2 closed form (%g,%g)" % (x1, x2),
               single_constraint_theta(1.0, (x1 - x2) / 2.0), second_coefficient(1.0, x1, x2), 1e-10)
    # a second constraint that can never bind leaves the first alone
    expect("two-constraint limit", two_constraint_theta(1.0, 1.0, 1.0, 60.0, 0.4),
           single_constraint_theta(1.0, 0.0), 1e-9)
    # two identical constraints with r -> 1 collapse to one
    expect("two-constraint duplicate", two_constraint_theta(0.8, 0.9, 0.8, 0.9, 0.999999),
           single_constraint_theta(0.64, 0.9 - 0.64), 2e-4)
    # random walk with one step is the single-constraint coefficient
    p, se = random_walk_theta(0.5, 1, 200_000, 11)
    exact = single_constraint_theta(0.5, 0.0)
    if abs(p - exact) > 5.0 * se:
        failures.append("random walk K=1: %.6f vs %.6f (se %.2g)" % (p, exact, se))
    # white noise: var of the lag-1 sample covariance is 1/N
    expect("bartlett white noise", lag_covariance_se(lambda m: np.eye(1) * (m == 0), 1, 0, 0, 400), 0.05, 1e-15)
    return failures
