"""Constraint construction from coefficient specs, the Gaussian covariance
of the constraint vector, Monte Carlo coefficient estimation, and the
quadrature oracles.

The single-constraint probability has a closed form,

    P(A/2 + sqrt(delta) W <= delta + s/2)
        = Phi(sqrt(delta) + s/(2 sqrt(delta)))
          - e^{-s} Phi(s/(2 sqrt(delta)) - sqrt(delta)),

which was evaluated with mpmath at 40 digits for the frozen table below.
It is a third route, independent of both quadratures in the module.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from hrex.correlation import DeltaSpec
from hrex.errors import DegenerateDelta, InvalidDeltaSpec
from hrex.norming import hr_bivariate_cdf, limit_cdf, std_normal_cdf, upper_orthant
from hrex import theta
from hrex.rng import RngKey, standard_normal
from hrex.theta import (
    ThetaEstimate,
    build_constraints,
    estimate_theta,
    theta_bivariate_closed_form,
    theta_for_spec,
    theta_oracle_single,
    theta_oracle_single_trapezoid,
)

# closed form above at (delta, shift): mpmath, 40 digits
CLOSED_FORM = {
    (0.25, -1.0): 0.020923635821113731,
    (0.25, 0.0): 0.38292492254802621,
    (0.25, 1.0): 0.86749642294357747,
    (1.0, -1.0): 0.33189799877682939,
    (1.0, 0.0): 0.6826894921370859,
    (1.0, 1.0): 0.90958222643351445,
    (4.0, -1.0): 0.8873092332833976,
    (4.0, 0.0): 0.95449973610364159,
    (4.0, 1.0): 0.98474896316825757,
}


def serial_spec(**lags):
    return DeltaSpec.from_entries(1, {(1, 1, int(k)): v for k, v in lags.items()})


def bivariate_spec(lam):
    return DeltaSpec.from_entries(2, {(1, 2, 0): lam})


def power_variogram(alpha, horizon):
    return DeltaSpec.from_function(
        1, lambda i, j, k: 0.0 if k == 0 else float(k) ** alpha, horizon
    )


def parallel_lines(a, b, k):
    # components embedded as parallel lines in the plane, coefficients a
    # fractional power of squared Euclidean distance
    return (k * k + (0.0 if a == b else 0.16)) ** 0.75


# --- W covariance -------------------------------------------------------------


def test_w_cov_single_index_is_unit():
    w = build_constraints(serial_spec(**{"1": 2.0}), [0.0], 1, 1)
    assert w.indices == ((2, 1),)
    assert np.array_equal(w.matrix, np.eye(1))


def test_w_cov_consecutive_lags_frozen():
    # delta(1) = 1, delta(2) = 2: covariance (1 + 2 - 1)/(2 sqrt(2)) = 1/sqrt(2)
    w = build_constraints(serial_spec(**{"1": 1.0, "2": 2.0}), [0.0], 1, 2)
    assert w.matrix.shape == (2, 2)
    assert w.matrix[0, 1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert w.matrix[0, 0] == w.matrix[1, 1] == 1.0


def test_w_cov_symmetric_unit_diagonal():
    # a valid spec with every cross term finite
    spec = DeltaSpec.from_function(2, parallel_lines, 1)
    for i in (1, 2):
        w = build_constraints(spec, [0.0, 0.0], i, 1)
        assert len(w.indices) == 3
        assert np.array_equal(w.matrix, w.matrix.T)
        assert np.array_equal(np.diag(w.matrix), np.ones(len(w.indices)))


def test_w_cov_excludes_infinite_and_zero_entries():
    spec = DeltaSpec.from_entries(2, {(1, 2, 0): 0.0, (1, 1, 1): 1.0})
    w = build_constraints(spec, [0.0, 0.0], 2, 1)
    # the lag-0 cross coefficient is zero (pure-A constraint) and the
    # serial coefficient belongs to component pair (1,1); only (2,1) at
    # lag 1 would involve the target, and it is infinite
    assert w.indices == ()


def test_w_cov_infinite_cross_rejected():
    # two points at finite distance from the target cannot be infinitely
    # far from each other
    spec = DeltaSpec.from_entries(
        3, {(1, 3, 0): 1.0, (2, 3, 0): 1.0}
    )  # delta(1,2,0) stays infinite
    with pytest.raises(InvalidDeltaSpec):
        build_constraints(spec, [0.0, 0.0, 0.0], 3, 0)


def test_w_cov_non_psd_rejected():
    # delta(1,3) huge while both sit at tiny distance from the target:
    # implied correlation far above 1
    spec = DeltaSpec.from_entries(
        3, {(1, 3, 0): 0.01, (2, 3, 0): 0.01, (1, 2, 0): 100.0}
    )
    with pytest.raises(InvalidDeltaSpec):
        build_constraints(spec, [0.0, 0.0, 0.0], 3, 0)


def test_w_cov_singular_factor_and_inconsistent_rejection():
    # sqrt(delta) = 1, 2, 3 at lags 1, 2, 3 puts the slots on a line: one
    # variable, a zero-column factor; at delta(3) = 6 slots 1 and 2 are
    # the same variable with different covariances with slot 3
    line = serial_spec(**{"1": 1.0, "2": 4.0, "3": 9.0})
    cs = build_constraints(line, [0.0], 1, 3)
    assert np.array_equal(cs.factor, [[1.0, 0.0, 0.0]] * 3)
    with pytest.raises(InvalidDeltaSpec, match="slots 3, 2"):
        build_constraints(serial_spec(**{"1": 1.0, "2": 4.0, "3": 6.0}), [0.0], 1, 3)


def test_w_cov_degenerate_guard():
    # the slot rule keeps zero coefficients out of the W vector, but two
    # tiny positive ones underflow the denominator 2 sqrt(d_a d_b) to 0;
    # the fill must refuse rather than divide by zero
    spec = DeltaSpec.from_entries(
        3, {(1, 2, 0): 1e-200, (1, 3, 0): 1e-200, (2, 3, 0): 1e-200}
    )
    with pytest.raises(DegenerateDelta):
        build_constraints(spec, [0.0, 0.0, 0.0], 3, 0)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=2.0), st.integers(2, 6))
def test_w_cov_variogram_family_is_psd(alpha, horizon):
    # power variograms delta(k) = k^alpha give valid covariances for
    # alpha up to 2 (alpha = 2 is the rank-one boundary case)
    w = build_constraints(power_variogram(alpha, horizon), [0.0], 1, horizon)
    assert len(w.indices) == horizon
    assert float(np.linalg.eigvalsh(w.matrix).min()) >= -1e-10 * horizon


@settings(max_examples=40, deadline=None)
@given(
    st.booleans(),
    st.floats(min_value=0.05, max_value=2.0),
    st.integers(1, 2),
    st.integers(0, 5),
)
def test_one_pass_slots_and_rows(lines, alpha, target, lag):
    # slots are exactly the finite positive (lag, component) pairs, in
    # lag-then-component order, and every row reads one of them or is pure A
    if lines:
        spec = DeltaSpec.from_function(2, parallel_lines, math.inf)
    else:
        spec, target = power_variogram(alpha, math.inf), 1
    cs = build_constraints(spec, [0.0] * spec.d, target, lag)
    expect = tuple(
        (ell + 1, t)
        for ell in range(lag + 1)
        for t in range(1, spec.d + 1)
        if 0.0 < spec.delta(t, target, ell) < math.inf
    )
    assert cs.indices == expect
    for row in cs.rows:
        assert 0 <= row.column < len(cs.indices) or (row.column == -1 and row.scale == 0.0)


# --- constraint sets ----------------------------------------------------------


def test_constraints_all_infinite_empty():
    cs = build_constraints(DeltaSpec.from_entries(2, {}), [0.0, 0.0], 2, max_lag=3)
    assert len(cs.rows) == 0


def test_constraints_bivariate_lag0_row():
    lam = 1.7
    x = (0.4, -0.2)
    cs = build_constraints(bivariate_spec(lam), list(x), 2, max_lag=0)
    assert len(cs.rows) == 1
    row = cs.rows[0]
    assert cs.indices[row.column] == (1, 1)
    assert row.scale == pytest.approx(math.sqrt(lam))
    assert row.bound == pytest.approx(lam + (x[0] - x[1]) / 2.0)
    assert row.scale**2 == pytest.approx(lam, abs=1e-12)


def test_constraints_first_component_has_no_lag0_block():
    cs = build_constraints(bivariate_spec(1.0), [0.0, 0.0], 1, max_lag=0)
    assert len(cs.rows) == 0


def test_constraints_zero_lag0_coefficient_is_pure_exponential():
    cs = build_constraints(bivariate_spec(0.0), [1.0, 0.2], 2, max_lag=0)
    assert len(cs.rows) == 1
    assert cs.rows[0].column == -1
    assert cs.rows[0].scale == 0.0
    assert cs.rows[0].bound == pytest.approx((1.0 - 0.2) / 2.0)


def test_constraints_serial_rows():
    # lags 1 and 3 finite with lag 2 infinite: the two finite slots sit
    # at infinite distance from each other, which no Gaussian array
    # realises
    with pytest.raises(InvalidDeltaSpec):
        build_constraints(serial_spec(**{"1": 1.0, "3": 2.0}), [0.0], 1, max_lag=3)
    # two independent Brownian-lag components: the infinite cross
    # coefficients give no row
    spec = DeltaSpec.from_function(
        2, lambda i, j, k: float(k) if i == j else math.inf, math.inf
    )
    for i in (1, 2):
        cs = build_constraints(spec, [0.0, 0.0], i, max_lag=2)
        assert [cs.indices[r.column] for r in cs.rows] == [(2, i), (3, i)]


def test_constraints_validate_inputs():
    spec = bivariate_spec(1.0)
    with pytest.raises(ValueError):
        build_constraints(spec, [0.0], 2, max_lag=0)
    with pytest.raises(ValueError):
        build_constraints(spec, [0.0, math.inf], 2, max_lag=0)
    with pytest.raises(ValueError):
        build_constraints(spec, [0.0, 0.0], 3, max_lag=0)


@pytest.mark.parametrize("max_lag", [2.5, True, 2.0], ids=["float", "bool", "whole_float"])
@pytest.mark.parametrize("call", ["build_constraints", "theta_for_spec"])
def test_non_integer_lag_is_rejected_by_name(call, max_lag):
    # 2.5 was cut to lag 2 and True read as lag 1
    spec = power_variogram(1.0, 4)
    with pytest.raises(ValueError, match="max_lag must be an integer"):
        if call == "build_constraints":
            build_constraints(spec, [0.0], 1, max_lag)
        else:
            theta_for_spec(spec, [0.0], 1, 1000, RngKey(0), max_lag=max_lag)


@pytest.mark.parametrize("samples", [True, 1e4, 1000.0], ids=["bool", "float", "whole_float"])
@pytest.mark.parametrize("call", ["estimate_theta", "theta_for_spec"])
def test_non_integer_samples_are_rejected_by_name(call, samples):
    # True gave a one-sample estimate with std_error 0, and 1e4 a TypeError
    # from range
    spec = bivariate_spec(1.0)
    with pytest.raises(ValueError, match="samples must be an integer"):
        if call == "estimate_theta":
            estimate_theta(build_constraints(spec, [0.0, 0.0], 2, 0), samples=samples, key=RngKey(0))
        else:
            theta_for_spec(spec, [0.0, 0.0], 2, samples, RngKey(0))


def test_numpy_integer_counts_are_integers():
    spec = bivariate_spec(1.0)
    est, _ = theta_for_spec(spec, [0.0, 0.0], 2, np.int64(1000), RngKey(0), max_lag=np.int64(0))
    assert est == theta_for_spec(spec, [0.0, 0.0], 2, 1000, RngKey(0), max_lag=0)[0]


def test_truncation_defaults_to_horizon():
    cs = build_constraints(serial_spec(**{"2": 1.5}), [0.0], 1)
    assert cs.truncation_lag == 2
    with pytest.raises(ValueError):
        build_constraints(
            DeltaSpec.from_function(1, lambda i, j, k: 0.0 if k == 0 else 1.0 * k, math.inf),
            [0.0],
            1,
        )


# --- Monte Carlo estimation ----------------------------------------------------


def test_estimate_empty_is_exactly_one():
    spec = DeltaSpec.from_entries(2, {})
    cs = build_constraints(spec, [0.0, 0.0], 2, max_lag=0)
    est = estimate_theta(cs, samples=1000, key=RngKey(0).child(0))
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_estimate_impossible_bound_is_zero():
    cs = dataclasses.replace(
        build_constraints(DeltaSpec.from_entries(1, {}), [0.0], 1, 0),
        rows=np.rec.fromrecords([(-1, 0.0, 0.0)], names="column,scale,bound"),
    )
    est = estimate_theta(cs, samples=5000, key=RngKey(0).child(0))
    assert est.value == 0.0


def test_estimate_single_constraint_against_oracle():
    spec = bivariate_spec(1.0)
    cs = build_constraints(spec, [0.0, 0.0], 2, max_lag=0)
    est = estimate_theta(cs, samples=10**5, key=RngKey(41).child(0))
    oracle = theta_oracle_single(1.0, 0.0)
    assert abs(est.value - oracle) <= 3.0 * est.std_error


def test_estimate_deterministic():
    spec = bivariate_spec(0.5)
    cs = build_constraints(spec, [0.1, -0.1], 2, max_lag=0)
    a = estimate_theta(cs, samples=30000, key=RngKey(7).child(0))
    b = estimate_theta(cs, samples=30000, key=RngKey(7).child(0))
    assert a.value == b.value and a.std_error == b.std_error


def test_estimate_batch_boundary_consistency():
    # crossing the internal batch size must not change the estimand; check
    # a count just past one batch against the same count re-run
    spec = bivariate_spec(1.0)
    cs = build_constraints(spec, [0.0, 0.0], 2, max_lag=0)
    est = estimate_theta(cs, samples=2**16 + 17, key=RngKey(3).child(0))
    again = estimate_theta(cs, samples=2**16 + 17, key=RngKey(3).child(0))
    assert est.value == again.value
    assert 0.0 < est.value < 1.0


def brownian_spec():
    # delta(k) = k / 2: K = 16 has 16 rows on 16 W slots, doubled 32 on 32
    return DeltaSpec.from_function(1, lambda i, j, k: k / 2.0, math.inf)


# three batches, the last of 5000 samples, of 16 normals each: 2.2e6 normals
SPLIT_SAMPLES = 2 * (1 << 16) + 5000


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_split_batch_draw_gives_the_bits_of_one_fill(cpus, pool_sizes, monkeypatch):
    # the three batches split into one part per CPU, in ranges of
    # ceil(3 / cpus) batches; each part draws and reduces its own batches
    cs = build_constraints(brownian_spec(), [0.0], 1, 16)
    key = RngKey(31)
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    one_fill = estimate_theta(cs, samples=SPLIT_SAMPLES, key=key)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    assert estimate_theta(cs, samples=SPLIT_SAMPLES, key=key) == one_fill
    assert pool_sizes == ([cpus] if cpus > 1 else [])


@pytest.mark.parametrize("threads, pools", [(1, []), (2, [2]), (None, [3])])
def test_threads_bound_the_parts_with_the_same_bits(threads, pools, pool_sizes, monkeypatch):
    # at 3 CPUs: one thread runs inline, two split the batches 2 + 1
    spec = brownian_spec()
    key = RngKey(43).child(2)
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    serial = theta_for_spec(spec, [0.0], 1, SPLIT_SAMPLES, key, max_lag=16)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    assert theta_for_spec(spec, [0.0], 1, SPLIT_SAMPLES, key, max_lag=16, threads=threads) == serial
    assert pool_sizes == pools


@pytest.mark.parametrize("last", [1 << 16, 60000], ids=["whole_tiles", "one_product"])
def test_split_memory_is_bounded_per_part(last, pool_sizes, monkeypatch):
    # each of 2 parts holds its (q, 2^16) draw and its 2^16 probabilities,
    # allocated once for all its batches, and a slack tile of (rows, 2^13),
    # or of (rows, b) in the part whose last batch of b is no whole number of
    # tiles; a (rows, 2^16) slack block per batch would hold 16 MiB per part
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    q = rows = 32
    batch, tile = theta._BATCH, theta._TILE
    bound = (2 * (q * batch + batch) + rows * (tile + max(tile, last % batch))) * 8
    tracemalloc.start()
    try:
        theta_for_spec(brownian_spec(), [0.0], 1, 3 * batch + last, RngKey(47), max_lag=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pool_sizes == [2]
    assert bound <= peak <= bound + (256 << 10)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0), st.floats(min_value=0.0, max_value=2.0))
def test_estimate_pathwise_monotone_in_bound(lam, widen):
    # same substreams, same Gaussian row, loosened bound: the indicator
    # can only gain, so the estimate is monotone with zero MC noise
    spec = bivariate_spec(lam)
    key = RngKey(13).child(0)
    tight = build_constraints(spec, [0.0, 0.0], 2, max_lag=0)
    loose = build_constraints(spec, [widen, 0.0], 2, max_lag=0)
    a = estimate_theta(tight, samples=20000, key=key)
    b = estimate_theta(loose, samples=20000, key=key)
    assert b.value >= a.value


def per_row_estimate(cs, samples, key):
    # reference: the conditional probability 1 - exp(-2 max(m, 0)), with m the
    # least bound - scale * W[column] taken one row at a time, on W drawn as the
    # (q, b) normal block of each batch through the factor
    total, done, batch, q = 0.0, 0, 0, len(cs.indices)
    while done < samples:
        b = min(1 << 16, samples - done)
        w = standard_normal(key.child(batch), (q, b)).T @ cs.factor.T
        m = np.full(b, np.inf)
        for row in cs.rows:
            column, scale, bound = int(row.column), float(row.scale), float(row.bound)
            m = np.minimum(m, bound if column == -1 else bound - scale * w[:, column])
        total += float(np.sum(1.0 - np.exp(-2.0 * np.maximum(m, 0.0))))
        done += b
        batch += 1
    return total / samples


@pytest.mark.parametrize(
    "spec, x, i, lag",
    [
        (bivariate_spec(1.3), [0.3, -0.5], 2, 0),
        (bivariate_spec(0.0), [1.0, 0.2], 2, 0),
        (DeltaSpec.from_entries(3, {(1, 2, 0): 0.5, (1, 3, 0): 1.0, (2, 3, 0): 0.8}),
         [0.3, -0.5, 1.1], 3, 0),
        (DeltaSpec.from_entries(3, {(1, 2, 0): 0.0, (2, 3, 0): 1.0}), [0.4, 0.0, -0.2], 2, 0),
        (DeltaSpec.from_function(1, lambda i, j, k: k / 2.0, math.inf), [0.0], 1, 16),
    ],
    ids=["bivariate", "zero_lag0", "d3_lag0", "pure_a_with_slots", "brownian_K16"],
)
def test_estimate_matches_per_row_reference(spec, x, i, lag):
    cs = build_constraints(spec, x, i, lag)
    samples, key = (1 << 16) + 1000, RngKey(29).child(i)
    value = estimate_theta(cs, samples=samples, key=key).value
    assert value == pytest.approx(per_row_estimate(cs, samples, key), rel=1e-12, abs=0.0)


def one_product_estimate(cs, samples, key):
    # reference: each batch's slack as one (rows, b) product, reduced to its
    # mean and squared deviations, which add up in batch order
    loading = -cs.rows.scale[:, None] * cs.factor[cs.rows.column]
    counts, means, square = [], [], 0.0
    for batch, start in enumerate(range(0, samples, 1 << 16)):
        b = min(1 << 16, samples - start)
        slack = loading @ standard_normal(key.child(batch), (len(cs.indices), b))
        slack += cs.rows.bound[:, None]
        p = -np.expm1(-2.0 * np.maximum(slack.min(axis=0), 0.0))
        counts.append(b)
        means.append(p.mean())
        square += float(np.square(p - means[-1]).sum())
    counts, means = np.array(counts), np.array(means)
    value = float(counts @ means) / samples
    square += float(counts @ np.square(means - value))
    return value, math.sqrt(square) / samples


@pytest.mark.parametrize("samples", [1 << 16, 3 * (1 << 16), (1 << 16) + 12345, 8191])
@pytest.mark.parametrize("lag", [3, 16])
def test_tiled_slack_gives_the_bits_of_one_product(lag, samples):
    # whole batches in 2^13-column tiles, the last batch of 12345 in one product
    cs = build_constraints(brownian_spec(), [0.0], 1, lag)
    est = estimate_theta(cs, samples=samples, key=RngKey(53).child(lag))
    assert (est.value, est.std_error) == one_product_estimate(cs, samples, RngKey(53).child(lag))


@pytest.mark.parametrize(
    "spec, x",
    [
        (bivariate_spec(0.0), [1.0, 0.2]),
        (DeltaSpec.from_entries(3, {(1, 2, 0): 0.0, (2, 3, 0): 1.0}), [0.4, 0.0, -0.2]),
    ],
    ids=["zero_lag0", "pure_a_with_slots"],
)
def test_estimate_is_exact_where_no_row_reads_w(spec, x):
    # delta_12(0) = 0 makes components 1 and 2 comonotone: theta_2 is
    # 1 - e^{-(x1 - x2)}, exactly, whatever W slots sit beside the row
    cs = build_constraints(spec, x, 2, 0)
    assert all(cs.rows.column == -1)
    est = estimate_theta(cs, samples=1000, key=RngKey(0).child(0))
    assert est.value == -math.expm1(-(x[0] - x[1]))
    assert est.std_error == 0.0
    assert abs(limit_cdf([1.0, est.value], x[:2]) - hr_bivariate_cdf(0.0, x[0], x[1])) <= 1e-15


def two_row_quadrature(s1, b1, s2, b2, r):
    # integral_0^inf e^-a Phi_2((b1 - a/2)/s1, (b2 - a/2)/s2; r) da, with
    # Phi_2(h, k; r) = Phi(h) + Phi(k) - 1 + P(X1 > h, X2 > k)
    def f(a):
        h, k = (b1 - 0.5 * a) / s1, (b2 - 0.5 * a) / s2
        return math.exp(-a) * float(ndtr(h) + ndtr(k) - 1.0 + upper_orthant(h, k, r))

    return quad(f, 0.0, math.inf, epsabs=1e-12, epsrel=1e-10, limit=200)[0]


def test_estimate_d3_lag0_against_two_row_quadrature():
    d12, d13, d23, x = 1.0, 1.0, 0.5, [0.5, -0.5, 0.0]
    spec = DeltaSpec.from_entries(3, {(1, 2, 0): d12, (1, 3, 0): d13, (2, 3, 0): d23})
    est = estimate_theta(build_constraints(spec, x, 3, 0), samples=10**6, key=RngKey(1409).child(0))
    r = (d13 + d23 - d12) / (2.0 * math.sqrt(d13 * d23))
    ref = two_row_quadrature(math.sqrt(d13), d13 + (x[0] - x[2]) / 2.0,
                             math.sqrt(d23), d23 + (x[1] - x[2]) / 2.0, r)
    assert abs(est.value - ref) <= 4.0 * est.std_error


def test_estimate_se_below_the_binomial_se():
    # conditioning on W removes the exponential's share of the variance
    samples = 10**5
    est = estimate_theta(build_constraints(bivariate_spec(1.0), [0.0, 0.0], 2, 0),
                         samples=samples, key=RngKey(1411).child(0))
    assert est.std_error < math.sqrt(est.value * (1.0 - est.value) / samples)


def test_estimate_value_range_and_se_bound():
    spec = bivariate_spec(2.0)
    cs = build_constraints(spec, [0.0, 0.0], 2, max_lag=0)
    est = estimate_theta(cs, samples=12345, key=RngKey(1).child(0))
    assert 0.0 <= est.value <= 1.0
    assert est.std_error <= 0.5 / math.sqrt(12345) + 1e-15
    assert est.samples == 12345


def test_theta_estimate_validates():
    with pytest.raises(ValueError):
        ThetaEstimate(value=1.2, std_error=0.0, samples=10, truncation_K=0)
    with pytest.raises(ValueError):
        ThetaEstimate(value=0.5, std_error=0.4, samples=100, truncation_K=0)


def test_theta_estimate_jsonable_keys():
    est = ThetaEstimate(value=0.5, std_error=0.001, samples=100000, truncation_K=2)
    assert dataclasses.asdict(est) == {
        "value": 0.5,
        "std_error": 0.001,
        "samples": 100000,
        "truncation_K": 2,
    }


# --- theta_for_spec -------------------------------------------------------------


def test_for_spec_all_infinite_is_one():
    est, gap = theta_for_spec(
        DeltaSpec.from_entries(3, {}), [0.0, 1.0, -1.0], 2, 1000, RngKey(5).child(0)
    )
    assert est.value == 1.0 and est.std_error == 0.0
    assert gap is None


def test_for_spec_truncation_gap_reported():
    spec = DeltaSpec.from_function(
        1, lambda i, j, k: 0.0 if k == 0 else float(k), math.inf
    )
    est, gap = theta_for_spec(spec, [0.0], 1, 20000, RngKey(6).child(0), max_lag=2)
    assert gap is not None
    assert gap.lag == 2 and gap.lag_doubled == 4
    # more constraints can only shrink the event
    assert gap.value_doubled <= gap.value
    assert gap.gap == pytest.approx(abs(gap.value - gap.value_doubled))


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_for_spec_doubled_lag_reads_the_same_draws(seed):
    # the doubled lag's leading W slots, and their factor block, are the
    # lag-16 ones on the same normals, so each sample's event only shrinks:
    # the gap is the truncation's, not Monte Carlo noise, and never negative
    spec = DeltaSpec.from_function(1, lambda i, j, k: k / 2.0, math.inf)
    _, gap = theta_for_spec(spec, [0.0], 1, 100_000, RngKey(seed).child(1), max_lag=16)
    assert gap.lag_doubled == 32
    assert gap.value_doubled <= gap.value + 1e-12


@pytest.mark.parametrize(
    "spec, x, i, lag",
    [
        (DeltaSpec.from_function(1, lambda i, j, k: k / 2.0, math.inf), [0.0], 1, 4),
        (DeltaSpec.from_function(2, parallel_lines, math.inf), [0.3, -0.2], 2, 2),
    ],
    ids=["brownian", "lines_d2"],
)
def test_for_spec_is_two_estimates_on_one_key(spec, x, i, lag):
    # one shared draw per batch gives each set the bits it gets alone
    samples, key = (1 << 16) + 17, RngKey(37).child(lag)
    estimate, gap = theta_for_spec(spec, x, i, samples, key, max_lag=lag)
    alone = estimate_theta(build_constraints(spec, x, i, lag), samples=samples, key=key)
    doubled = estimate_theta(build_constraints(spec, x, i, 2 * lag), samples=samples, key=key)
    assert estimate == alone
    assert (gap.value, gap.value_doubled) == (alone.value, doubled.value)


def squared_distance_spec():
    # delta(k) = k^2 / 2: every W slot is the same variable, a rank-one
    # covariance that LAPACK's Cholesky rejects
    return DeltaSpec.from_function(1, lambda i, j, k: k * k / 2.0, math.inf)


def test_singular_factor_keeps_the_leading_block():
    short = build_constraints(squared_distance_spec(), [0.0], 1, 16)
    long = build_constraints(squared_distance_spec(), [0.0], 1, 32)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(long.matrix)
    assert np.array_equal(long.factor[:16, :16], short.factor)
    assert np.allclose(long.factor @ long.factor.T, long.matrix, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_for_spec_gap_keeps_its_sign_on_a_singular_covariance(seed):
    _, gap = theta_for_spec(squared_distance_spec(), [0.0], 1, 100_000, RngKey(seed).child(1), max_lag=16)
    assert gap.value >= gap.value_doubled


def test_for_spec_no_gap_at_full_horizon():
    est, gap = theta_for_spec(
        serial_spec(**{"1": 3.0}), [0.0], 1, 5000, RngKey(2).child(0)
    )
    assert gap is None
    assert est.truncation_K == 1


# --- quadrature oracles ----------------------------------------------------------


def test_oracle_matches_closed_form_table():
    for (delta, shift), expect in CLOSED_FORM.items():
        assert theta_oracle_single(delta, shift) == pytest.approx(expect, abs=1e-9)


def test_oracle_dual_quadrature_agreement():
    for delta, shift in CLOSED_FORM:
        a = theta_oracle_single(delta, shift)
        b = theta_oracle_single_trapezoid(delta, shift)
        assert abs(a - b) <= 1e-7


def test_oracle_vacuous_constraint():
    assert theta_oracle_single(10**6, 0.0) == pytest.approx(1.0, abs=1e-3)


def test_oracle_impossible_constraint():
    assert theta_oracle_single(1.0, -10**6) == pytest.approx(0.0, abs=1e-12)


def test_oracle_rejects_bad_args():
    with pytest.raises(ValueError):
        theta_oracle_single(0.0, 0.0)
    with pytest.raises(ValueError):
        theta_oracle_single(math.inf, 0.0)
    with pytest.raises(ValueError):
        theta_oracle_single(1.0, math.nan)


# --- bivariate closed form ---------------------------------------------------------


def test_bivariate_closed_form_independent():
    assert theta_bivariate_closed_form(math.inf, 0.3, -0.7) == (1.0, 1.0)


def test_bivariate_closed_form_diagonal():
    for lam in (0.5, 1.0, 2.0):
        t1, t2 = theta_bivariate_closed_form(lam, 0.0, 0.0)
        expect = std_normal_cdf(math.sqrt(lam))
        assert t1 == pytest.approx(expect, abs=1e-12)
        assert t2 == pytest.approx(expect, abs=1e-12)


def test_bivariate_closed_form_reproduces_cdf():
    for lam in (0.5, 1.0, 2.0):
        for x1 in (-1.0, 0.0, 1.5):
            for x2 in (-0.5, 0.0, 2.0):
                thetas = theta_bivariate_closed_form(lam, x1, x2)
                assert limit_cdf(thetas, [x1, x2]) == pytest.approx(
                    hr_bivariate_cdf(lam, x1, x2), abs=1e-12
                )


def test_bivariate_closed_form_comonotone():
    assert limit_cdf(theta_bivariate_closed_form(0.0, 1.0, 0.0), [1.0, 0.0]) == (
        pytest.approx(hr_bivariate_cdf(0.0, 1.0, 0.0), abs=1e-12)
    )
    assert limit_cdf(theta_bivariate_closed_form(0.0, 0.5, 0.5), [0.5, 0.5]) == (
        pytest.approx(math.exp(-math.exp(-0.5)), abs=1e-12)
    )


def test_mc_structure_matches_cdf_at_sum_level():
    # the sampled decomposition for i=2 (first component unconstrained)
    # differs componentwise from the closed form but must agree through
    # the limit CDF
    lam, x = 1.0, [0.3, -0.4]
    est, _ = theta_for_spec(bivariate_spec(lam), x, 2, 2 * 10**5, RngKey(19).child(0))
    value = limit_cdf([1.0, est.value], x)
    target = hr_bivariate_cdf(lam, x[0], x[1])
    band = 4.0 * target * math.exp(-x[1]) * est.std_error
    assert abs(value - target) <= band


def test_mc_zero_lag0_reduction():
    # complete dependence at lag 0: theta_2 = 1 - e^{-(x1 - x2)} analytically
    x1, x2 = 1.0, 0.2
    est, _ = theta_for_spec(bivariate_spec(0.0), [x1, x2], 2, 2 * 10**5, RngKey(23).child(0))
    analytic = 1.0 - math.exp(-(x1 - x2))
    assert abs(est.value - analytic) <= 3.0 * est.std_error
    assert limit_cdf([1.0, analytic], [x1, x2]) == pytest.approx(
        hr_bivariate_cdf(0.0, x1, x2), abs=1e-12
    )
