"""Norming constants, the bivariate limit CDF, and the d-dimensional
limit law.

Reference values were recomputed with mpmath at 40 digits and frozen
here; tolerances are 1e-12 unless the quantity is exact in floats.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from hrex.norming import (
    hr_bivariate_cdf,
    lag0_max_cdf,
    limit_cdf,
    norming_constants,
    std_normal_cdf,
    threshold,
    upper_orthant,
)

# mpmath 40-digit evaluations of a_3 = sqrt(2 ln 3),
# b_3 = a_3 - (ln ln 3 + ln 4 pi)/(2 a_3), and u_3(1) = 1/a_3 + b_3.
A3 = 1.4823038073675111
B3 = 0.59683348018540275
U3_AT_1 = 1.2714590158075127

PHI_1 = 0.84134474606854295
PHI_975 = 0.9750000009035576  # Phi(1.959964), mpmath ncdf


def test_constants_at_n3():
    c = norming_constants(3)
    assert c.n == 3
    assert abs(c.a_n - A3) <= 1e-12
    assert abs(c.b_n - B3) <= 1e-12


def test_a_n_closed_form():
    for n in (2, 3, 10, 1000, 10**6):
        assert norming_constants(n).a_n == pytest.approx(
            math.sqrt(2 * math.log(n)), abs=1e-15
        )


def test_b_below_a():
    # 0 < b_n < a_n holds for every n >= 2
    for n in [*range(2, 10**5 + 1), *(10**e for e in range(5, 300))]:
        c = norming_constants(n)
        assert 0.0 < c.b_n < c.a_n, n


def test_a_monotone_in_n():
    assert norming_constants(10**5).a_n > norming_constants(10**4).a_n


def test_rejects_bad_n():
    with pytest.raises(ValueError):
        norming_constants(1)
    with pytest.raises(ValueError):
        norming_constants(0)
    with pytest.raises((ValueError, TypeError)):
        norming_constants(2.5)


def test_threshold_zero_is_b():
    c = norming_constants(7)
    assert threshold(c, 0.0) == c.b_n


def test_threshold_at_a_squared():
    c = norming_constants(7)
    assert threshold(c, c.a_n**2) == pytest.approx(c.a_n + c.b_n, abs=1e-12)


def test_threshold_frozen_value():
    assert threshold(norming_constants(3), 1.0) == pytest.approx(U3_AT_1, abs=1e-12)


def test_threshold_rejects_nan():
    with pytest.raises(ValueError):
        threshold(norming_constants(3), math.nan)


def test_std_normal_cdf_pins():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(math.inf) == 1.0
    assert std_normal_cdf(-math.inf) == 0.0
    assert abs(std_normal_cdf(1.959964) - PHI_975) <= 1e-12
    assert abs(std_normal_cdf(1.0) - PHI_1) <= 1e-12


def test_std_normal_cdf_rejects_nan():
    with pytest.raises(ValueError):
        std_normal_cdf(math.nan)


# --- bivariate limit CDF ---------------------------------------------------


def test_hr_cdf_independent_branch():
    for x, y in [(0.0, 0.0), (1.0, -1.0), (2.5, 0.3)]:
        expect = math.exp(-math.exp(-x) - math.exp(-y))
        assert hr_bivariate_cdf(math.inf, x, y) == pytest.approx(expect, abs=1e-12)


def test_hr_cdf_comonotone_branch():
    assert hr_bivariate_cdf(0.0, 1.0, 2.0) == pytest.approx(
        math.exp(-math.exp(-1.0)), abs=1e-12
    )
    # on the diagonal both half-weights are 1/2, same value either way
    assert hr_bivariate_cdf(0.0, 0.7, 0.7) == pytest.approx(
        math.exp(-math.exp(-0.7)), abs=1e-12
    )


def test_hr_cdf_diagonal_lambda_one():
    for x in (-1.0, 0.0, 2.0):
        expect = math.exp(-2.0 * PHI_1 * math.exp(-x))
        assert hr_bivariate_cdf(1.0, x, x) == pytest.approx(expect, abs=1e-12)


def test_hr_cdf_frozen_offdiagonal():
    # regression pins, mpmath
    assert hr_bivariate_cdf(1.0, 0.5, -0.5) == pytest.approx(
        0.14114493627069404, abs=1e-12
    )
    assert hr_bivariate_cdf(2.0, 1.0, 2.0) == pytest.approx(
        0.62532261496618062, abs=1e-12
    )


def test_hr_cdf_rejects_bad_args():
    with pytest.raises(ValueError):
        hr_bivariate_cdf(-0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        hr_bivariate_cdf(1.0, math.nan, 0.0)
    with pytest.raises(ValueError):
        hr_bivariate_cdf(math.nan, 0.0, 0.0)


def test_hr_cdf_limits_in_x():
    y = 0.3
    assert hr_bivariate_cdf(1.0, math.inf, y) == pytest.approx(
        math.exp(-math.exp(-y)), abs=1e-12
    )
    assert hr_bivariate_cdf(1.0, -math.inf, y) == 0.0


finite_levels = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
lambdas = st.one_of(
    st.just(0.0), st.just(math.inf), st.floats(min_value=1e-6, max_value=50.0)
)


@given(lambdas, finite_levels, finite_levels)
def test_hr_cdf_swap_symmetry(lam, x, y):
    assert hr_bivariate_cdf(lam, x, y) == hr_bivariate_cdf(lam, y, x)


@given(lambdas, finite_levels, finite_levels, st.floats(min_value=0.01, max_value=5.0))
def test_hr_cdf_monotone_in_x(lam, x, y, step):
    lo = hr_bivariate_cdf(lam, x, y)
    hi = hr_bivariate_cdf(lam, x + step, y)
    assert hi >= lo - 1e-12


@given(st.floats(min_value=1e-3, max_value=20.0), finite_levels, finite_levels)
def test_hr_cdf_between_frechet_bounds(lam, x, y):
    # any dependence structure sits between full dependence and independence
    value = hr_bivariate_cdf(lam, x, y)
    assert value >= hr_bivariate_cdf(math.inf, x, y) - 1e-12
    assert value <= hr_bivariate_cdf(0.0, x, y) + 1e-12


@settings(max_examples=50)
@given(
    st.floats(min_value=0.0, max_value=30.0),
    st.floats(min_value=0.01, max_value=10.0),
    finite_levels,
)
def test_hr_cdf_dependence_ordering_on_diagonal(lam, bump, x):
    stronger = hr_bivariate_cdf(lam, x, x)
    weaker = hr_bivariate_cdf(lam + bump, x, x)
    assert weaker <= stronger + 1e-12


def test_hr_cdf_max_stability():
    for lam in (0.0, 0.5, 1.0, 2.0, math.inf):
        for m in (2, 3, 10):
            for x, y in [(0.0, 0.0), (1.0, -0.5), (-1.0, 2.0)]:
                lifted = hr_bivariate_cdf(lam, x + math.log(m), y + math.log(m)) ** m
                assert lifted == pytest.approx(
                    hr_bivariate_cdf(lam, x, y), abs=1e-12
                )


# --- d-dimensional limit law -----------------------------------------------


def test_limit_cdf_gumbel_point():
    assert limit_cdf([1.0], [0.0]) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_limit_cdf_zero_thetas():
    assert limit_cdf([0.0, 0.0, 0.0], [1.0, -2.0, 0.4]) == 1.0


def test_limit_cdf_comonotone_reduction():
    # theta = [1, 1 - e^{-(x1-x2)}] with x1 > x2 collapses to the
    # one-dimensional Gumbel law at the smaller level
    x1, x2 = 1.3, 0.2
    thetas = [1.0, 1.0 - math.exp(-(x1 - x2))]
    assert limit_cdf(thetas, [x1, x2]) == pytest.approx(
        math.exp(-math.exp(-x2)), abs=1e-12
    )


def test_limit_cdf_all_ones_is_product():
    xs = [0.3, -1.2, 2.0]
    product = math.exp(-sum(math.exp(-v) for v in xs))
    assert limit_cdf([1.0] * 3, xs) == pytest.approx(product, abs=1e-12)


def test_limit_cdf_validates():
    with pytest.raises(ValueError):
        limit_cdf([1.2], [0.0])
    with pytest.raises(ValueError):
        limit_cdf([-0.1], [0.0])
    with pytest.raises(ValueError):
        limit_cdf([0.5, 0.5], [0.0])


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5),
    st.data(),
)
def test_limit_cdf_is_probability(thetas, data):
    xs = data.draw(
        st.lists(
            finite_levels, min_size=len(thetas), max_size=len(thetas)
        )
    )
    value = limit_cdf(thetas, xs)
    assert 0.0 <= value <= 1.0


# --- exact finite-n law of lag-0 rows ------------------------------------------------

# (n, u1, u2, rho): thresholds near u_n of the criterion-6 grid, signs and
# zeros of both thresholds, and correlations of both signs up to 0.99
LAG0_POINTS = [
    (10**3, 2.80, 3.35, 0.8552),
    (10**4, 3.72, 3.36, 0.8914),
    (10**5, 4.21, 4.52, 0.9131),
    (50, 0.0, 1.50, -0.40),
    (7, -0.30, 0.0, 0.30),
    (1, 0.0, 0.0, 0.99),
    (200, 2.50, -1.00, -0.95),
]


def quad_union_exceedance(u1, u2, rho):
    # P(X1 > u1 or X2 > u2) with the joint tail as the 1-D integral
    # int_u1^inf phi(t) Phi((rho t - u2) / s) dt, independent of Owen's T
    s = math.sqrt(1.0 - rho * rho)

    def f(t):
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * float(ndtr((rho * t - u2) / s))

    tail, _ = integrate.quad(f, u1, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return float(ndtr(-u1) + ndtr(-u2)) - tail


@pytest.mark.parametrize("n, u1, u2, rho", LAG0_POINTS)
def test_lag0_max_cdf_matches_orthant_quadrature(n, u1, u2, rho):
    exact = math.exp(n * math.log1p(-quad_union_exceedance(u1, u2, rho)))
    assert abs(float(lag0_max_cdf(n, (u1, u2), rho)) - exact) <= 1e-12


@pytest.mark.parametrize("n, u1, u2, rho", LAG0_POINTS)
def test_lag0_max_cdf_matches_multivariate_normal(n, u1, u2, rho):
    # the joint tail P(X1 > u1, X2 > u2) = Phi_2(-u1, -u2; rho) keeps its
    # digits, where Phi_2(u1, u2) ** n would lose them to rounding near 1
    cov = [[1.0, rho], [rho, 1.0]]
    tail = multivariate_normal(mean=[0.0, 0.0], cov=cov).cdf([-u1, -u2])
    exact = math.exp(n * math.log1p(-(float(ndtr(-u1) + ndtr(-u2)) - tail)))
    assert abs(float(lag0_max_cdf(n, (u1, u2), rho)) - exact) <= 1e-12


def test_lag0_max_cdf_closed_form_branches():
    u = np.array([[2.0, 3.0], [3.0, 2.0], [-0.5, 0.5], [1.0, -1.5], [0.0, 0.0]])
    n = 40
    phi = ndtr(u)
    # rho = 0: independent margins; rho = 1: X2 = X1; rho = -1: X2 = -X1,
    # so both stay below (u1, u2) exactly when -u2 <= X1 <= u1
    independent = (phi[:, 0] * phi[:, 1]) ** n
    comonotone = ndtr(u.min(axis=1)) ** n
    countermonotone = np.maximum(phi[:, 0] - ndtr(-u[:, 1]), 0.0) ** n
    assert np.allclose(lag0_max_cdf(n, u, 0.0), independent, rtol=0.0, atol=1e-15)
    assert np.allclose(lag0_max_cdf(n, u, 1.0), comonotone, rtol=0.0, atol=1e-15)
    assert np.allclose(lag0_max_cdf(n, u, -1.0), countermonotone, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_lag0_max_cdf_approaches_the_limit_at_the_log_rate(lam):
    # exact finite-n law against H_lambda, with no Monte Carlo noise: rows with
    # correlation 1 - lambda / ln n, on criterion 6's grid.  The sup deviation
    # shrinks at every step, out to n = 10^300, and scaled by ln n / ln ln n
    # it stays within [0.11, 0.20].
    grid = [(x1, x2) for x1 in (-1.0, 0.0, 1.0) for x2 in (-1.0, 0.0, 1.0)]
    sups = []
    for n in [10**e for e in (2, 3, 5, 10, 20, 50, 100, 300)]:
        c = norming_constants(n)
        exact = lag0_max_cdf(n, [(threshold(c, x1), threshold(c, x2)) for x1, x2 in grid], 1.0 - lam / math.log(n))
        sup = max(abs(float(p) - hr_bivariate_cdf(lam, x1, x2)) for p, (x1, x2) in zip(exact, grid))
        assert 0.11 <= sup * math.log(n) / math.log(math.log(n)) <= 0.20
        sups.append(sup)
    assert all(b < a for a, b in zip(sups, sups[1:]))


def test_upper_orthant_at_zero_thresholds():
    # P(X1 > 0, X2 > 0) = 1/4 + arcsin(rho) / (2 pi) (Sheppard), and with one
    # threshold at 0 the orthant is continuous in the other
    for rho in (-0.9, -0.3, 0.0, 0.5, 0.99):
        assert abs(float(upper_orthant(0.0, 0.0, rho)) - (0.25 + math.asin(rho) / (2 * math.pi))) <= 1e-15
        for k in (-1.0, 2.0):
            near = upper_orthant(np.array([-1e-9, 0.0, 1e-9]), k, rho)
            assert abs(near[1] - near[0]) <= 1e-9 and abs(near[2] - near[1]) <= 1e-9
