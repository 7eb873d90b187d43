"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; without -s pytest shows them for failing tests only.  Every
criterion states its tolerance and a runtime budget; the budgets are
asserted, so a regression in the fast paths fails loudly rather than
quietly getting slower.
"""

import math
import time

import numpy as np
import pytest

from hrex.correlation import (
    BlockParameters,
    DeltaSpec,
    check_long_range,
    check_short_range,
    check_simplified,
    constant_model,
    geometric_model,
    hr_family,
    iid_model,
)
from hrex.errors import NotPositiveSemidefinite
from hrex.experiments import (
    build_report,
    compare_to_limit,
    empirical_cdf,
    lemma1_check,
    maxima_matrix,
    random_matrix_distribution,
    weakly_decreasing,
)
from hrex.norming import hr_bivariate_cdf, limit_cdf
from hrex.rng import RngKey
from hrex.sampler import assemble_covariance, iter_path_blocks
from hrex.theta import (
    build_constraints,
    estimate_theta,
    theta_bivariate_closed_form,
    theta_for_spec,
    theta_oracle_single,
    theta_oracle_single_trapezoid,
)


def verdict(num, ok, detail, elapsed, budget):
    print(
        "[criterion %d] %s - %s (%.1fs, budget %ds)"
        % (num, "PASS" if ok else "FAIL", detail, elapsed, budget)
    )


def bivariate_spec(lam):
    return DeltaSpec.from_entries(2, {(1, 2, 0): lam})


def test_criterion_1_exceedance_decomposition_identity():
    budget, started = 10, time.monotonic()
    gen = np.random.Generator(np.random.PCG64(11))
    worst = 0.0
    for _ in range(20):
        n = int(gen.integers(1, 5))
        d = int(gen.integers(1, 4))
        dist = random_matrix_distribution(gen, n, d, max_atoms=3)
        u = gen.uniform(-2.2, 2.2, size=d)
        report = lemma1_check(dist, u)
        worst = max(worst, report.difference)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-12 and elapsed < budget
    verdict(1, ok, "20 random instances, max |lhs-rhs| = %.2e" % worst, elapsed, budget)
    assert worst <= 1e-12
    assert elapsed < budget


def test_criterion_2_all_infinite_coefficients_default():
    budget, started = 1, time.monotonic()
    spec = DeltaSpec.from_entries(3, {})
    gen = np.random.Generator(np.random.PCG64(22))
    points = gen.uniform(-2.0, 3.0, size=(10, 3))
    exact = True
    worst = 0.0
    for x in points:
        for i in (1, 2, 3):
            est, gap = theta_for_spec(spec, x, i, 100, RngKey(0).child(0))
            exact = exact and est.value == 1.0 and est.std_error == 0.0 and gap is None
        product = math.exp(-math.fsum(math.exp(-v) for v in x))
        worst = max(worst, abs(limit_cdf([1.0, 1.0, 1.0], x) - product))
    elapsed = time.monotonic() - started
    ok = exact and worst <= 1e-12 and elapsed < budget
    verdict(
        2,
        ok,
        "theta exactly 1, product-Gumbel gap %.2e over 10 points" % worst,
        elapsed,
        budget,
    )
    assert exact
    assert worst <= 1e-12
    assert elapsed < budget


def test_criterion_3_single_constraint_oracle_equivalence():
    budget, started = 60, time.monotonic()
    key = RngKey(101)
    worst_mc, worst_quad = 0.0, 0.0
    for a, delta in enumerate((0.25, 1.0, 4.0)):
        spec = bivariate_spec(delta)
        for b, shift in enumerate((-1.0, 0.0, 1.0)):
            cs = build_constraints(spec, [2.0 * shift, 0.0], 2, max_lag=0)
            assert cs.rows[0].bound == pytest.approx(delta + shift, abs=1e-12)
            est = estimate_theta(cs, samples=10**6, key=key.child(a, b))
            oracle = theta_oracle_single(delta, shift)
            gap = abs(est.value - oracle)
            assert gap <= max(3.0 * est.std_error, 5e-3), (delta, shift, gap)
            worst_mc = max(worst_mc, gap)
            quad_gap = abs(oracle - theta_oracle_single_trapezoid(delta, shift))
            assert quad_gap <= 1e-7, (delta, shift, quad_gap)
            worst_quad = max(worst_quad, quad_gap)
    elapsed = time.monotonic() - started
    ok = elapsed < budget
    verdict(
        3,
        ok,
        "9 (delta, shift) pairs, worst MC gap %.2e, worst quadrature gap %.2e"
        % (worst_mc, worst_quad),
        elapsed,
        budget,
    )
    assert elapsed < budget


def test_criterion_4_bivariate_limit_consistency():
    budget, started = 120, time.monotonic()
    key = RngKey(404)
    grid = [(x1, x2) for x1 in (-1.0, 0.0, 1.0) for x2 in (-1.0, 0.0, 1.0)]
    worst_ratio = 0.0
    for a, lam in enumerate((0.5, 1.0, 2.0)):
        spec = bivariate_spec(lam)
        for g, (x1, x2) in enumerate(grid):
            est1, _ = theta_for_spec(spec, [x1, x2], 1, 10**6, key.child(a, g, 1))
            est2, _ = theta_for_spec(spec, [x1, x2], 2, 10**6, key.child(a, g, 2))
            value = limit_cdf([est1.value, est2.value], [x1, x2])
            target = hr_bivariate_cdf(lam, x1, x2)
            se = target * math.hypot(
                math.exp(-x1) * est1.std_error, math.exp(-x2) * est2.std_error
            )
            gap = abs(value - target)
            assert gap <= 4.0 * se, (lam, x1, x2, gap, se)
            worst_ratio = max(worst_ratio, gap / se if se else 0.0)
    elapsed = time.monotonic() - started
    ok = elapsed < budget
    verdict(
        4,
        ok,
        "3 lambdas x 9 grid points, worst |gap|/SE = %.2f of allowed 4" % worst_ratio,
        elapsed,
        budget,
    )
    assert elapsed < budget


def test_criterion_5_closed_form_branches_and_max_stability():
    budget, started = 1, time.monotonic()
    levels = np.linspace(-2.0, 2.0, 5)
    worst_branch = 0.0
    for x in levels:
        for y in levels:
            zero = abs(
                hr_bivariate_cdf(0.0, x, y) - math.exp(-math.exp(-min(x, y)))
            )
            indep = abs(
                hr_bivariate_cdf(math.inf, x, y)
                - math.exp(-math.exp(-x) - math.exp(-y))
            )
            worst_branch = max(worst_branch, zero, indep)
    worst_stab = 0.0
    for lam in (0.0, 0.5, 1.0, 2.0, math.inf):
        for m in (2, 3, 10):
            for x in levels:
                for y in levels:
                    shift = math.log(m)
                    worst_stab = max(
                        worst_stab,
                        abs(
                            hr_bivariate_cdf(lam, x + shift, y + shift) ** m
                            - hr_bivariate_cdf(lam, x, y)
                        ),
                    )
    elapsed = time.monotonic() - started
    ok = worst_branch <= 1e-12 and worst_stab <= 1e-12 and elapsed < budget
    verdict(
        5,
        ok,
        "branch gap %.2e, max-stability gap %.2e" % (worst_branch, worst_stab),
        elapsed,
        budget,
    )
    assert worst_branch <= 1e-12
    assert worst_stab <= 1e-12
    assert elapsed < budget


def test_criterion_6_convergence_sweep_bivariate():
    budget, started = 300, time.monotonic()
    model = hr_family(bivariate_spec(1.0))
    replicates = 2 * 10**4
    grid = [(x1, x2) for x1 in (-1.0, 0.0, 1.0) for x2 in (-1.0, 0.0, 1.0)]
    thetas = [theta_bivariate_closed_form(1.0, x1, x2) for x1, x2 in grid]
    root = RngKey(606)
    entries = []
    for n in (10**3, 10**4, 10**5):
        maxima = maxima_matrix(model, n, root.child(n), replicates, sampler="circulant")
        entries.append(compare_to_limit(empirical_cdf(maxima, grid, n), thetas))
    report = build_report(entries)
    sups = {e.n: e.sup_deviation for e in report.entries}
    elapsed = time.monotonic() - started
    ok = (
        report.verdict == "decreasing"
        and report.entries[-1].sup_deviation <= 0.05
        and elapsed < budget
    )
    verdict(
        6,
        ok,
        "sup deviation %s, final %.4f <= 0.05, trend %s"
        % (
            {n: round(s, 4) for n, s in sups.items()},
            report.entries[-1].sup_deviation,
            report.verdict,
        ),
        elapsed,
        budget,
    )
    assert report.verdict == "decreasing"
    assert report.entries[-1].sup_deviation <= 0.05
    assert elapsed < budget


def test_criterion_7_serial_dependence_sweep():
    budget, started = 600, time.monotonic()
    spec = DeltaSpec.from_entries(1, {(1, 1, 1): 1.0})

    # extremal coefficient first: Monte Carlo against the quadrature oracle
    est, gap = theta_for_spec(spec, [0.0], 1, 10**6, RngKey(707).child(0))
    oracle = theta_oracle_single(1.0, 0.0)
    assert gap is None
    assert abs(est.value - oracle) <= max(3.0 * est.std_error, 5e-3)

    # empirical trend: P(row maximum <= u_n(x)) against exp(-theta e^{-x})
    model = hr_family(spec)
    grid = [(0.0,), (1.0,)]
    thetas = [[oracle], [oracle]]
    root = RngKey(707)
    try:
        entries = []
        for n in (10**3, 10**4, 3 * 10**4):
            maxima = maxima_matrix(model, n, root.child(n), 10**4, sampler="cholesky")
            entries.append(compare_to_limit(empirical_cdf(maxima, grid, n), thetas))
        report = build_report(entries)
        elapsed = time.monotonic() - started
        ok = report.verdict == "decreasing" and elapsed < budget
        verdict(
            7,
            ok,
            "theta gap %.2e, trend %s" % (abs(est.value - oracle), report.verdict),
            elapsed,
            budget,
        )
        assert report.verdict == "decreasing"
        assert elapsed < budget
    except NotPositiveSemidefinite as exc:
        elapsed = time.monotonic() - started
        detail = (
            "theta cross-check passed (gap %.2e) but the path model is not"
            " realisable: a single finite serial coefficient with all others"
            " infinite gives correlation 1 - 1/ln(n) at lag 1 and 0 beyond,"
            " and that tridiagonal covariance is indefinite for every"
            " requested n, so Cholesky sampling raises NotPositiveSemidefinite"
            % abs(est.value - oracle)
        )
        verdict(7, False, detail, elapsed, budget)
        pytest.fail("criterion 7: %s [%s]" % (detail, exc))


def test_criterion_8_sampler_covariance_and_determinism():
    budget, started = 120, time.monotonic()
    model = geometric_model(2, 0.6, 0.4)
    length, replicates = 64, 10**5
    cov = assemble_covariance(model, length)
    dim = cov.shape[0]
    sigma = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / replicates)

    fractions = {}
    for i, method in enumerate(("circulant", "cholesky")):
        gram = np.zeros((dim, dim))
        for _, block in iter_path_blocks(
            model, length, RngKey(808).child(i), replicates, method=method
        ):
            flat = block.reshape(block.shape[0], -1)
            gram += flat.T @ flat
        emp = gram / replicates
        fractions[method] = float(np.mean(np.abs(emp - cov) <= 3.0 * sigma))
        assert fractions[method] >= 0.99, (method, fractions[method])

    def draw():
        return np.concatenate(
            [
                b.reshape(b.shape[0], -1)
                for _, b in iter_path_blocks(
                    model, length, RngKey(808).child(3), 2000, method="circulant"
                )
            ]
        )

    identical = np.array_equal(draw(), draw())
    elapsed = time.monotonic() - started
    ok = identical and elapsed < budget
    verdict(
        8,
        ok,
        "entries within 3-sigma: circulant %.3f, cholesky %.3f, fixed-seed identical %s"
        % (fractions["circulant"], fractions["cholesky"], identical),
        elapsed,
        budget,
    )
    assert identical
    assert elapsed < budget


def test_criterion_9_condition_checkers():
    budget, started = 5, time.monotonic()
    model = iid_model(1)
    long_range = check_long_range(model, BlockParameters(n=10**4, l_n=10, r_n=100))
    worst = 0.0
    for m in (1, 2, 3):
        got = check_short_range(model, 10**4, m, 100)
        expect = (100 - m + 1) / 10**4
        worst = max(worst, abs(got - expect))

    const = constant_model(1, 0.3)
    values = [check_simplified(const, n, max(1, int(n**0.4))) for n in (100, 1000, 10**4)]
    flagged = not weakly_decreasing(values)
    growing = values[0] < values[1] < values[2]

    elapsed = time.monotonic() - started
    ok = long_range == 0.0 and worst <= 1e-12 and flagged and growing and elapsed < budget
    verdict(
        9,
        ok,
        "iid long-range %.1e, short-range gap %.2e, constant-rho flagged %s"
        % (long_range, worst, flagged),
        elapsed,
        budget,
    )
    assert long_range == 0.0
    assert worst <= 1e-12
    assert flagged and growing
    assert elapsed < budget
