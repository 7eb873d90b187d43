"""Covariance assembly, the dense Schur factor, the two exact sampling routes,
maxima extraction, and the binary path dump format.
"""

import io
import logging
import math
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hrex.correlation import (
    DeltaSpec,
    constant_model,
    geometric_model,
    hr_family,
    iid_model,
    lag_table,
    tabulated_model,
)
from hrex.errors import NotPositiveSemidefinite
from hrex.experiments import maxima_matrix
from hrex.rng import RngKey, standard_normal
from hrex.sampler import (
    SamplePath,
    assemble_covariance,
    iter_path_blocks,
    make_plan,
    read_path,
    write_path,
)
from hrex.sampler import (
    _DEFAULT_JITTER,
    _ar1_plan,
    _banded_plan,
    _circulant_plan,
    _dense_plan,
    _lag0_plan,
    _schur_factor,
)


def serial_spec(**lags):
    return DeltaSpec.from_entries(1, {(1, 1, int(k)): v for k, v in lags.items()})


def path_values(model, length, key, count, method="cholesky"):
    """All `count` replicates stacked as values[r, t, i]."""
    return np.concatenate([b for _, b in iter_path_blocks(model, length, key, count, method)])


# --- covariance assembly -----------------------------------------------------


def test_assemble_iid_identity():
    cov = assemble_covariance(iid_model(2), 3)
    assert np.array_equal(cov, np.eye(6))


def test_assemble_length_one_uses_model_n():
    lam = 1.0
    spec = DeltaSpec.from_entries(2, {(1, 2, 0): lam})
    n = math.exp(4.0)
    cov = assemble_covariance(hr_family(spec), 1, n=n)
    off = 1.0 - lam / 4.0
    assert cov == pytest.approx(np.array([[1.0, off], [off, 1.0]]), abs=1e-12)


def test_assemble_block_toeplitz_structure():
    model = geometric_model(2, 0.5, 0.3)
    length = 5
    m = assemble_covariance(model, length)
    assert np.array_equal(m, m.T)
    for t1 in range(length):
        for t2 in range(length):
            for i in range(2):
                for j in range(2):
                    expect = model.rho(np.array([abs(t1 - t2)]), length)[0, i, j]
                    assert m[t1 * 2 + i, t2 * 2 + j] == expect


def test_assemble_respects_size_cap():
    with pytest.raises(ValueError):
        assemble_covariance(iid_model(1), 9000)


def dense_factor(model, length):
    """The dense plan's upper factor R (R^T R = Sigma), read off its
    transform of the identity."""
    plan = _dense_plan(model, length, n=length)
    return plan.transform(np.eye(plan.size)).reshape(plan.size, plan.size)


def test_dense_factor_identity_no_jitter():
    # the plain factor of I is I; a jittered one would have sqrt(1 + jitter)
    assert np.array_equal(dense_factor(iid_model(1), 3), np.eye(3))


def test_dense_factor_rejects_invalid():
    # |rho(1)| = 0.9 > 1/sqrt(2): the first three time points are indefinite
    model = tabulated_model(1, {(1, 1, 1): 0.9})
    with pytest.raises(NotPositiveSemidefinite, match=r"covariance \(size 3\).*time block 2$"):
        dense_factor(model, 3)
    # an indefinite lag-0 block fails before any rotation
    model = tabulated_model(3, {(1, 2, 0): 0.9, (1, 3, 0): 0.9, (2, 3, 0): -0.9})
    with pytest.raises(NotPositiveSemidefinite, match=r"covariance \(size 6\).*time block 0$"):
        dense_factor(model, 2)


def test_dense_factor_rank_deficient_needs_jitter():
    # rho(1) = 1: eigenvalues {2, 0}; the jitter retry must engage
    factor = dense_factor(tabulated_model(1, {(1, 1, 1): 1.0}), 2)
    assert factor[0, 0] == math.sqrt(1.0 + _DEFAULT_JITTER)
    ones = np.ones((2, 2))
    assert np.allclose(factor.T @ factor, ones + _DEFAULT_JITTER * np.eye(2), rtol=0.0, atol=1e-15)


MA1 = tabulated_model(2, {(1, 1, 1): 0.3, (2, 2, 1): 0.2, (1, 2, 0): 0.4, (1, 2, 1): 0.1})


@pytest.mark.parametrize(
    "model, length",
    [(geometric_model(d, 0.5, 0.3), 40) for d in (1, 2, 3, 4)]
    + [(MA1, 50), (geometric_model(2, 0.99, 0.9), 2000)],
    ids=["geometric_d%d" % d for d in (1, 2, 3, 4)] + ["ma1_d2", "geometric_near_unit"],
)
def test_dense_factor_matches_lapack_cholesky(model, length):
    # the Schur factor of the lag table is the Cholesky factor of the
    # assembled block-Toeplitz matrix, to rounding
    cov = assemble_covariance(model, length)
    factor = _schur_factor(lag_table(model, range(length), length))
    assert np.abs(factor - np.linalg.cholesky(cov).T).max() <= 1e-12
    assert np.abs(factor.T @ factor - cov).max() <= 1e-12


@pytest.mark.parametrize(
    "model, length, block",
    [
        (hr_family(serial_spec(**{"1": 1.0})), 1000, 2),
        (tabulated_model(1, {(1, 1, 1): 0.9}), 40, 2),
        (hr_family(DeltaSpec.from_entries(2, {(1, 2, 0): 0.5, (1, 1, 1): 0.5})), 50, 1),
    ],
    ids=["criterion7_n1e3", "ma1_rho09_L40", "serial_d2_L50"],
)
def test_dense_factor_raises_where_cholesky_does(model, length, block):
    # the first two have lag-1 correlation above 1/sqrt(2), so the leading
    # 3 x 3 block (time blocks 0 to 2) is already indefinite; in the d = 2
    # spec rho_12(0) = rho_11(1) = 0.87 with rho_21(1) = 0 make the leading
    # 3 x 3 block indefinite, inside time block 1.  The banded factor, which
    # reports the order of the failing leading minor, names the same block
    cov = assemble_covariance(model, length)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov + _DEFAULT_JITTER * np.eye(len(cov)))
    match = r"covariance \(size %d\).*first fails at time block %d$" % (len(cov), block)
    with pytest.raises(NotPositiveSemidefinite, match=match):
        dense_factor(model, length)
    match = r"^banded covariance \(length %d, .*first fails at time block %d$" % (length, block)
    with pytest.raises(NotPositiveSemidefinite, match=match):
        _banded_plan(model, length, n=length)


def test_banded_failure_names_length_and_bandwidth():
    # |rho(1)| = 0.9 > 1/2 is no MA(1) covariance: both banded attempts fail
    model = tabulated_model(1, {(1, 1, 1): 0.9})
    with pytest.raises(NotPositiveSemidefinite, match=r"length 10, bandwidth 1\)"):
        _banded_plan(model, 10, n=10)


# --- every route: exact covariance of the transform ----------------------------


def equicorrelated_lag0(d):
    return tabulated_model(d, {(i, j, 0): 0.4 for i in range(1, d + 1) for j in range(i + 1, d + 1)})


def ma1_model(d):
    """Lag-1 autocorrelation 0.3, cross correlation 0.2 at lag 0 and 0.1 at
    lag 1: T0 - 2 T1 = 0.4 I, so the spectrum stays positive definite."""
    table = {(i, i, 1): 0.3 for i in range(1, d + 1)}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            table.update({(i, j, 0): 0.2, (i, j, 1): 0.1})
    return tabulated_model(d, table)


ROUTE_PLANS = {
    # route: (plan function, model for dimension d)
    "lag0": (_lag0_plan, equicorrelated_lag0),
    "ar1": (_ar1_plan, lambda d: geometric_model(d, 0.5, 0.3)),
    "dense": (_dense_plan, lambda d: geometric_model(d, 0.5, 0.3)),
    "banded": (_banded_plan, ma1_model),
    "circulant_geometric": (_circulant_plan, lambda d: geometric_model(d, 0.5, 0.3)),
    "circulant_ma1": (_circulant_plan, ma1_model),
}


def transform_gram(plan, length, d, chunk=512):
    """A^T A for the transform A of the identity, whose rows are the paths
    of one unit's standard normal draws, all of its windows side by side;
    built a chunk of the identity's rows at a time, so that it holds no
    (size, size) array."""
    width = plan.paths * length * d
    gram = np.zeros((width, width))
    for first in range(0, plan.size, chunk):
        rows = np.eye(min(chunk, plan.size - first), plan.size, first)
        a = plan.transform(rows).reshape(len(rows), width)
        gram += a.T @ a
    return gram


@pytest.mark.parametrize("length", [2, 37, 65])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("route", sorted(ROUTE_PLANS))
def test_plan_transform_has_exact_covariance(route, d, length):
    # paths are z A for standard normals z, where A is the transform of the
    # identity, so A^T A is the covariance of the route's paths; a paired
    # plan's two windows of one draw are independent paths, block-diag(Sigma,
    # Sigma).  MA(1) tables pair from L = 4, the geometric ones not below
    # 0.5^k's underflow
    plan_of, model_of = ROUTE_PLANS[route]
    model = model_of(d)
    plan = plan_of(model, length, n=length)
    assert plan.paths == (2 if route == "circulant_ma1" and length > 2 else 1)
    sigma = np.kron(np.eye(plan.paths), assemble_covariance(model, length))
    assert np.abs(transform_gram(plan, length, d) - sigma).max() <= 1e-12


@pytest.mark.parametrize(
    "model, length, m",
    [(ma1_model(2), 20, 48), (geometric_model(2, 0.3, 0.4), 700, 2700)],
    ids=["ma1_L20", "geometric_0.3_L700"],
)
def test_paired_plan_gives_two_independent_exact_paths(model, length, m):
    # 0.3^k underflows past k = 618, so at L = 700 a cycle of 2700 holds two
    # windows 650 points apart, against a single window on 1440
    plan = _circulant_plan(model, length, n=length)
    assert (plan.size, plan.paths) == (m * model.d, 2)
    sigma = np.kron(np.eye(2), assemble_covariance(model, length))
    assert np.abs(transform_gram(plan, length, model.d) - sigma).max() <= 1e-12


# --- cholesky route ----------------------------------------------------------


def test_cholesky_mean_near_zero():
    count = 20000
    values = path_values(iid_model(1), 4, RngKey(5).child(4), count)
    mean = values.mean(axis=0)
    assert np.abs(mean).max() <= 4.0 / math.sqrt(count)


def test_cholesky_deterministic():
    model = geometric_model(1, 0.5)
    a = path_values(model, 6, RngKey(9).child(6), 5)
    b = path_values(model, 6, RngKey(9).child(6), 5)
    assert np.array_equal(a, b)


def test_cholesky_pair_correlation_tracks_model():
    # single time point, bivariate, dependence 1 - 1/ln n at row size 1e6
    lam = 1.0
    model = hr_family(DeltaSpec.from_entries(2, {(1, 2, 0): lam}))
    n = 10**6
    count = 10**6
    total = np.zeros(3)  # sums of x1^2, x2^2, x1*x2
    for _, block in iter_path_blocks(model, 1, RngKey(11).child(1), count, n=n):
        x = block[:, 0, :]
        total += [np.dot(x[:, 0], x[:, 0]), np.dot(x[:, 1], x[:, 1]), np.dot(x[:, 0], x[:, 1])]
    corr = total[2] / math.sqrt(total[0] * total[1])
    assert abs(corr - (1.0 - lam / math.log(n))) <= 0.005


def test_cholesky_replicates_independent_of_batching():
    # replicate r reads values r*s ... (r+1)*s - 1 of key's substream
    # regardless of how many replicates are requested in one call
    model = geometric_model(1, 0.3)
    few = path_values(model, 5, RngKey(2).child(5), 2)
    many = path_values(model, 5, RngKey(2).child(5), 7)
    for r in range(2):
        assert np.array_equal(few[r], many[r])


def test_replicates_read_one_substream_by_counter(monkeypatch):
    # replicate r is path r mod p of the transform of unit r // p, values
    # (r // p)*s ... (r // p + 1)*s - 1 of key's substream, and no replicate
    # opens a substream of its own; the MA(1) plan gives p = 2 paths a unit
    def no_child(*args):
        raise AssertionError("a replicate opened a substream of its own")

    for model, length, paths in ((geometric_model(1, 0.5), 16, 1), (ma1_model(2), 37, 2)):
        key = RngKey(12).child(length)
        plan = make_plan(model, length, "circulant")
        assert plan.paths == paths
        with monkeypatch.context() as patch:
            patch.setattr(RngKey, "child", no_child)
            values = path_values(model, length, key, 5, "circulant")
        for r in (0, 3, 4):
            unit, window = divmod(r, paths)
            alone = plan.transform(standard_normal(key, (1, plan.size), start=unit * plan.size))
            assert alone[window : window + 1].tobytes() == values[r : r + 1].tobytes()


def test_fills_in_a_split_batch_do_not_split_again(pool_sizes, monkeypatch):
    # a fill never splits: one pool per split batch, one thread a part, and
    # none for an unsplit batch, however many CPUs there are
    from hrex import rng, sampler

    monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sampler, "_SPLIT_FLOATS", 1)
    model, length = geometric_model(2, 0.5, 0.3), 64
    plan = make_plan(model, length, "circulant")
    # batches of 4 replicates: two parts of 2 at threads=2, one part of 4 at threads=1
    monkeypatch.setattr(sampler, "_BLOCK_VALUES", 4 * plan.footprint)
    key = RngKey(13).child(length)

    def blocks(threads):
        return [b for _, b in iter_path_blocks(model, length, key, 8, "circulant", threads=threads)]

    split = blocks(2)
    assert pool_sizes == [2, 2] and len(split) == 2
    pool_sizes.clear()
    (one, other) = blocks(1)
    assert pool_sizes == []
    assert np.concatenate(split).tobytes() == np.concatenate([one, other]).tobytes()


def test_one_thread_opens_no_pool(pool_sizes, monkeypatch):
    # two batches of 20 MA(1) rows of 100,000 points: 4,000,000 normals a fill,
    # which the draw layer once split per CPU under threads=1
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    ma1 = tabulated_model(2, {(1, 1, 1): 0.3, (2, 2, 1): 0.3, (1, 2, 0): 0.2})
    maxima_matrix(ma1, 100_000, RngKey(1).child(0), 40, sampler="cholesky", threads=1)
    assert pool_sizes == []


# --- circulant route ---------------------------------------------------------


def test_circulant_matches_iid():
    count, length = 4000, 16
    values = path_values(iid_model(1), length, RngKey(3).child(length), count, "circulant")[:, :, 0]
    lag1 = np.mean(values[:, :-1] * values[:, 1:])
    assert abs(lag1) <= 4.0 / math.sqrt(count * (length - 1))
    assert abs(values.var() - 1.0) <= 0.05


def test_circulant_geometric_lag_correlations():
    count, length = 4000, 256
    model = geometric_model(1, 0.5)
    values = path_values(model, length, RngKey(8).child(length), count, "circulant")[:, :, 0]
    for k in range(1, 6):
        lag = np.mean(values[:, :-k] * values[:, k:])
        assert abs(lag - 0.5**k) <= 0.01


def test_circulant_deterministic():
    model = geometric_model(2, 0.4, 0.2)
    a = path_values(model, 12, RngKey(13).child(12), 4, "circulant")
    b = path_values(model, 12, RngKey(13).child(12), 4, "circulant")
    assert np.array_equal(a, b)


def test_circulant_agrees_with_cholesky_distributionally():
    # same model, both routes: empirical covariances match the target
    # within MC bands, so the routes match each other
    model = geometric_model(2, 0.5, 0.3)
    length, count = 8, 20000
    target = assemble_covariance(model, length)
    for method in ("cholesky", "circulant"):
        gram = np.zeros((length * 2, length * 2))
        for _, block in iter_path_blocks(model, length, RngKey(7).child(length), count, method=method):
            flat = block.reshape(block.shape[0], -1)
            gram += flat.T @ flat
        emp = gram / count
        band = 3.0 * np.sqrt((1.0 + target**2) / count)
        assert (np.abs(emp - target) <= band).mean() >= 0.99


def test_circulant_single_point_paths():
    # length-1 paths degenerate to the lag-0 factor; must not crash
    model = geometric_model(2, 0.5, 0.3)
    values = path_values(model, 1, RngKey(1).child(1), 3, "circulant")
    assert values[0].shape == (1, 2)


# Brownian lags delta(k) = k: no finite band and no AR(1) row; at n = 1e4,
# rho(k) = 1 - k / ln n goes negative past lag 9, and no Gaussian path of
# 64 points or more realises it
BROWNIAN = hr_family(DeltaSpec.from_function(1, lambda i, j, k: float(k), math.inf))


def test_circulant_embedding_failure_falls_back_to_dense(caplog):
    # every padded spectrum of the Brownian rows stays negative: the
    # circulant plan gives up, the sampler logs the fallback, and the dense
    # factor throws
    assert _circulant_plan(BROWNIAN, 64, n=10**4) is None
    with pytest.raises(NotPositiveSemidefinite, match=r"^covariance \(size 64\)"):
        list(iter_path_blocks(BROWNIAN, 64, RngKey(0).child(0), 1, method="circulant", n=10**4))
    assert "falling back to the dense route" in caplog.text


def gaussian_correlation(scale):
    # rho(k) = exp(-(k/scale)^2): smooth enough that short embeddings fail
    lags = range(1, 10 * scale)
    return tabulated_model(1, {(1, 1, k): math.exp(-((k / scale) ** 2)) for k in lags})


def circulant_record(caplog, model, length):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hrex.sampler"):
        assert _circulant_plan(model, length, n=length) is not None
    (record,) = [r for r in caplog.records if r.name == "hrex.sampler"]
    assert record.levelno == logging.DEBUG
    found = re.fullmatch(
        r"circulant plan: embedding m=(\d+), windows=(\d), doublings=(\d+), min eigenvalue (\S+),"
        r" clipped (\d+)",
        record.getMessage(),
    )
    assert found is not None, record.getMessage()
    m, windows, doublings, smallest, clipped = found.groups()
    return int(m), int(windows), int(doublings), float(smallest), int(clipped)


def test_circulant_plan_logs_embedding(caplog):
    # minimal embedding of L = 65 is m = 128; the geometric spectrum is
    # bounded away from 0, so nothing is clipped
    m, windows, doublings, smallest, clipped = circulant_record(caplog, geometric_model(2, 0.5, 0.3), 65)
    assert (m, windows, doublings, clipped) == (128, 1, 0, 0)
    assert smallest > 0.1
    # m is twice the least 5-smooth length >= L - 1, not a power of two; at
    # L = 3000, 0.5^k is 0 past K = 1074, so a cycle of 2 * 4096 >= 2(L + K)
    # holds two paths, where one took 6000
    for length, want in ((1000, (2000, 1)), (3000, (8192, 2))):
        assert circulant_record(caplog, geometric_model(2, 0.5, 0.3), length)[:3] == want + (0,)
    # a smooth correlation needs padding: at L = 5, m = 8 is indefinite
    m, windows, doublings, smallest, clipped = circulant_record(caplog, gaussian_correlation(2), 5)
    assert (m, windows, doublings, clipped) == (16, 1, 1, 0)
    # a wider one needs m = 64 at L = 9, where its spectrum is 0 up to
    # rounding at high frequencies: the rounding-level negative eigenvalues
    # are clipped
    m, windows, doublings, smallest, clipped = circulant_record(caplog, gaussian_correlation(6), 9)
    assert (m, windows, doublings) == (64, 1, 2)
    assert -1e-9 < smallest < 0.0 and clipped >= 1


STOCK_MODELS = {
    "geometric_d1": geometric_model(1, 0.6),
    "geometric_d2": geometric_model(2, 0.6, 0.4),
    "constant": constant_model(1, 0.3),
    "ma1": tabulated_model(2, {(1, 1, 1): 0.3, (2, 2, 1): 0.3, (1, 2, 0): 0.2}),
    "hr": hr_family(serial_spec(**{"1": 5.0})),
}


@pytest.mark.parametrize("length", [65, 1000, 3000, 4097, 100_000])
@pytest.mark.parametrize("name", sorted(STOCK_MODELS))
def test_circulant_embedding_needs_no_doubling_on_stock_models(caplog, name, length):
    # the 5-smooth embedding is as positive as the power of two it replaces;
    # the hr spec's rho(1) = 1 - 5 / ln n passes 1/2 at n = 1e5, where the
    # tridiagonal covariance, and so every embedding, is indefinite
    if name == "hr" and length == 100_000:
        assert _circulant_plan(STOCK_MODELS[name], length, n=length) is None
    else:
        assert circulant_record(caplog, STOCK_MODELS[name], length)[2] == 0


def bartlett_se(table, k, i, j, points):
    """Standard error of the lag-k sample covariance of components (i, j)
    over `points` time points, by Bartlett's formula from a lag table that
    has decayed to 0 before its end."""
    def gamma(h):
        return table[h] if h >= 0 else table[-h].T

    span = len(table) - k - 1
    total = sum(gamma(h)[i, i] * gamma(h)[j, j] + gamma(h + k)[i, j] * gamma(h - k)[j, i]
                for h in range(-span, span + 1))
    return math.sqrt(total / points)


@pytest.mark.parametrize("length, count", [(3000, 200), (100_000, 8)])
def test_circulant_lag_covariances_match_the_lag_table(length, count):
    # the 5-smooth embeddings m = 6000 and 200,000: sample covariances at
    # lags 0-3, pooled over replicates, within 5 Bartlett SE of the table
    model = geometric_model(2, 0.6, 0.4)
    table = lag_table(model, range(80), length)  # 0.6^80 is below 1e-17
    paths = path_values(model, length, RngKey(23).child(length), count, "circulant")
    for k in range(4):
        head, tail = paths[:, : length - k], paths[:, k:]
        points = count * (length - k)
        cov = np.einsum("rti,rtj->ij", head, tail) / points
        for i in range(2):
            for j in range(2):
                se = bartlett_se(table, k, i, j, points)
                assert abs(cov[i, j] - table[k, i, j]) <= 5.0 * se, (k, i, j, cov[i, j], se)


def part_holds(plan, d, batch):
    """What a part holds for a batch of `batch` units, in bytes, and what
    the plan declares: the draw, the transform's peak allocation (by
    tracemalloc) and the block it keeps (or its consumer holds) until its
    next batch, against batch * footprint floats."""
    z = standard_normal(RngKey(4).child(d), (batch, plan.size))
    tracemalloc.start()
    try:
        paths = plan.transform(z)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(paths) == batch * plan.paths and kept >= paths.nbytes
    return z.nbytes + peak + kept, batch * plan.footprint * z.itemsize


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("d", [1, 2])
def test_circulant_footprint_counts_what_a_part_holds(d, batch):
    # the footprint, which sizes the batches, counts all a part holds, on a
    # paired plan (geometric) and on a one-window plan (constant)
    for model, paths in ((geometric_model(d, 0.6, 0.4), 2), (constant_model(d, 0.3), 1)):
        plan = make_plan(model, 100_000, "circulant")
        assert (plan.route, plan.paths) == ("circulant", paths)
        held, declared = part_holds(plan, d, batch)
        assert 0.99 * declared <= held <= declared + (64 << 10)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("route", ["lag0", "ar1", "dense", "banded"])
def test_footprint_counts_what_a_part_holds(route, d, batch):
    # the other path routes count the draw, the product or sum and the kept
    # block too (the banded route also one band row's product), not the draw alone
    model, length = {
        "lag0": (equicorrelated_lag0(d), 100_000),
        "ar1": (geometric_model(d, 0.5, 0.3), 100_000),
        "dense": (constant_model(d, 0.3), 2000 // d),
        "banded": (ma1_model(d), 100_000),
    }[route]
    plan = make_plan(model, length, "cholesky")
    assert (plan.route, plan.paths) == (route, 1)
    held, declared = part_holds(plan, d, batch)
    assert 0.99 * declared <= held <= declared + (64 << 10)


# --- paired circulant plans ---------------------------------------------------


@pytest.mark.parametrize(
    "model, length, m",
    [
        (geometric_model(1, 0.5), 1000, 2000),  # 0.5^k is 0 only past k = 1074
        (geometric_model(1, 0.99), 2000, 4000),
        (constant_model(1, 0.3), 182, 384),  # never 0; 2 * next_fast_len(182 + 192) < 2 * 384
        (geometric_model(1, 0.6), 1500, 3000),  # 0 past 1458 < 1500, but 2 * 3000 is not below 2m
    ],
    ids=["geometric_0.5_L1000", "geometric_0.99_L2000", "constant_L182", "geometric_0.6_L1500"],
)
def test_plan_keeps_one_window_where_pairing_would_draw_more(caplog, model, length, m):
    # a table that has not vanished before the first table's last lag, or a
    # paired cycle of 2m or more, keeps today's single window on m
    assert circulant_record(caplog, model, length)[:3] == (m, 1, 0)


def test_paired_plan_checks_the_lags_it_adds(caplog):
    # lag 44 lies past the first table (lags 0-40 at L = 40), but inside the
    # paired cycle of 90: two windows would be 5 lags apart, where c = 0.01,
    # so the plan keeps one window on that cycle, which is exact for one
    model = tabulated_model(1, {(1, 1, 1): 0.3, (1, 1, 44): 0.01})
    assert circulant_record(caplog, model, 40)[:3] == (90, 1, 0)
    plan = _circulant_plan(model, 40, n=40)
    assert np.abs(transform_gram(plan, 40, 1) - assemble_covariance(model, 40)).max() <= 1e-12


def test_paired_plan_reads_each_lag_once(monkeypatch):
    # the paired plan reads the first table, lags 0-3000 at L = 3000, then
    # only the lags its cycle of 8192 adds
    from hrex import sampler

    ranges = []

    def recording(model, lags, n):
        ranges.append(lags)
        return lag_table(model, lags, n)

    monkeypatch.setattr(sampler, "lag_table", recording)
    assert _circulant_plan(geometric_model(2, 0.5, 0.3), 3000, n=3000).paths == 2
    assert ranges == [range(0, 3001), range(3001, 4097)]


PAIRED = (ma1_model(2), 37, "circulant")  # a cycle of 80 holds two paths


def test_paired_plan_odd_counts_keep_every_replicate(caplog):
    # an odd count draws its last unit whole and drops that unit's second
    # path: replicate r has the same bytes at every count, and the debug line
    # counts the values drawn, 4 units of 2 x 80 at count 7
    model, length, method = PAIRED
    key = RngKey(41).child(length)
    with caplog.at_level(logging.DEBUG, logger="hrex.sampler"):
        seven = path_values(model, length, key, 7, method)
    assert caplog.records[-1].getMessage().endswith("count=7 values=%d" % (4 * 80 * 2))
    assert seven.shape == (7, length, 2)
    for count in (1, 2, 3, 8):
        some = path_values(model, length, key, count, method)
        assert len(some) == count
        assert some[:7].tobytes() == seven[:count].tobytes()


@pytest.mark.parametrize("maxima", [False, True])
def test_paired_plan_thread_and_batch_invariant(maxima, monkeypatch):
    # 1 or 3 threads, one batch or batches of one unit: the same bytes, in
    # replicate order, for paths and for their maxima
    from hrex import sampler

    monkeypatch.setattr("os.cpu_count", lambda: 8)
    monkeypatch.setattr(sampler, "_SPLIT_FLOATS", 1)
    model, length, method = PAIRED
    key = RngKey(42).child(length)
    footprint = make_plan(model, length, method).footprint

    def run(count, threads, per_batch):
        monkeypatch.setattr(sampler, "_BLOCK_VALUES", per_batch * footprint)
        blocks = list(iter_path_blocks(model, length, key, count, method, threads=threads, maxima=maxima))
        assert [first for first, _ in blocks] == list(np.cumsum([0] + [len(b) for _, b in blocks[:-1]]))
        return np.concatenate([b for _, b in blocks])

    for count in (1, 7, 8):
        one = run(count, 1, 100)
        assert len(one) == count
        for threads, per_batch in ((3, 100), (1, 1), (3, 1)):
            assert run(count, threads, per_batch).tobytes() == one.tobytes()


SERIAL_HR = hr_family(serial_spec(**{"1": 1.0}))  # rho(1) = 0.89 at n = 1e4: indefinite


@pytest.mark.parametrize(
    "model, length, method, route, error",
    [
        (equicorrelated_lag0(3), 40, "circulant", "lag0", None),
        (geometric_model(2, 0.5, 0.3), 1, "circulant", "lag0", None),
        (geometric_model(2, 0.5, 0.3), 40, "cholesky", "ar1", None),
        (geometric_model(2, 0.5, 0.3), 100_000, "cholesky", "ar1", None),
        (constant_model(2, 0.3), 40, "cholesky", "dense", None),
        (ma1_model(2), 4100, "cholesky", "banded", None),
        (geometric_model(2, 0.5, 0.3), 40, "circulant", "circulant", None),
        (ma1_model(2), 300, "cholesky", "banded", None),
        (hr_family(serial_spec(**{"1": 5.0})), 300, "cholesky", "banded", None),
        (gaussian_correlation(8), 5, "circulant", "banded", None),
        (SERIAL_HR, 300, "circulant", "banded",
         (NotPositiveSemidefinite, r"^banded covariance \(length 300, bandwidth 1\).*time block 2$")),
        (SERIAL_HR, 4100, "circulant", "banded",
         (NotPositiveSemidefinite, r"^banded covariance \(length 4100, bandwidth 1\).*time block 2$")),
        (BROWNIAN, 5, "cholesky", "dense", None),
        (BROWNIAN, 64, "circulant", "dense", (NotPositiveSemidefinite, r"^covariance \(size 64\)")),
        (BROWNIAN, 8200, "cholesky", None, (ValueError, r"exceeds the dense cap.*use the circulant sampler$")),
        (BROWNIAN, 8200, "circulant", None, (ValueError, r"^circulant embedding indefinite.*exceeds the dense cap")),
    ],
    ids=["lag0_max_lag_0", "lag0_length_1", "ar1", "ar1_beyond_dense_cap", "dense", "banded", "circulant",
         "ma1_below_dense_cap", "hr_serial", "smooth_fallback", "ma1_fallback_below_dense_cap",
         "ma1_fallback_beyond_dense_cap", "brownian", "brownian_fallback", "brownian_beyond_dense_cap",
         "brownian_fallback_beyond_dense_cap"],
)
def test_make_plan_names_the_route_it_takes(model, length, method, route, error, caplog):
    # max_lag 0 or a single time point is lag0 whatever the method; asked
    # for, circulant keeps its route; otherwise the model's horizon, not the
    # path length, picks: ar1 for a declared AR(1) row, banded for a finite
    # max_lag, at any length and where the embedding failed (the smooth
    # correlation stays indefinite at L = 5 up to m = 64, the MA(1) row at
    # every m), and dense for the rest, up to the cap.  `route` is the route
    # taken or fallen back to, `error` what it raises there
    if error is None:
        assert make_plan(model, length, method, n=10**4).route == route
    else:
        with pytest.raises(error[0], match=error[1]):
            make_plan(model, length, method, n=10**4)
    fell_back = method == "circulant" and route in ("banded", "dense")
    assert ("falling back to the %s route" % route in caplog.text) == fell_back


# --- ar1 route ----------------------------------------------------------------


@pytest.mark.parametrize("rate", [0.3, 0.6, 0.99])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_ar1_transform_matches_the_dense_factor(d, rate):
    # chol(T (x) C) = chol(T) (x) chol(C): on the same time-major normals the
    # recursion and the Schur factor give the same paths, to rounding
    model, length = geometric_model(d, rate, 0.3), 200
    z = standard_normal(RngKey(61).child(d), (5, length * d))
    ar1 = _ar1_plan(model, length, n=length).transform(z)
    dense = _dense_plan(model, length, n=length).transform(z)
    assert np.abs(ar1 - dense).max() <= 1e-12


def test_ar1_jitter_goes_on_the_lag0_block():
    # cross = 1 makes C singular: the jitter goes on C, so the covariance is
    # T (x) (C + jitter I), not the dense route's Sigma + jitter I
    model, length = geometric_model(2, 0.6, 1.0), 50
    plan = _ar1_plan(model, length, n=length)
    kac = assemble_covariance(geometric_model(1, 0.6), length)
    sigma = assemble_covariance(model, length) + _DEFAULT_JITTER * np.kron(kac, np.eye(2))
    assert np.abs(transform_gram(plan, length, 2) - sigma).max() <= 1e-12


@pytest.mark.parametrize(
    "model",
    [
        replace(geometric_model(2, 0.5, 0.3), ar1_rate=lambda n: 0.4),
        replace(tabulated_model(1, {(1, 1, 1): 0.5}), max_lag=math.inf, ar1_rate=lambda n: 0.5),
        # rho(k) = 1 at lags 0-2 fits rate 1, which no stationary AR(1) row has
        replace(tabulated_model(1, {(1, 1, 1): 1.0, (1, 1, 2): 1.0}), ar1_rate=lambda n: 1.0),
    ],
    ids=["wrong_rate", "wrong_at_lag_2", "unit_rate"],
)
def test_ar1_plan_rejects_a_false_declaration(model):
    # the declaration is checked against the lag table before it is trusted
    with pytest.raises(ValueError, match=r"declares AR\(1\) rate"):
        make_plan(model, 100, "cholesky")


# --- banded route ------------------------------------------------------------


def test_banded_matches_dense_exactly():
    # both routes factor the same matrix and consume the same substreams;
    # only the multiply order differs, so agreement is at rounding level
    model = tabulated_model(1, {(1, 1, 1): 0.3})
    length, count = 60, 5
    key = RngKey(21).child(length)
    z = np.stack([standard_normal(key.child(r), length) for r in range(count)])
    dense = _dense_plan(model, length, n=length)[1](z)
    banded = _banded_plan(model, length, n=length)[1](z)
    assert np.allclose(dense, banded, rtol=0.0, atol=1e-12)


def test_banded_handles_lengths_beyond_dense_cap():
    model = tabulated_model(1, {(1, 1, 1): 0.3})
    length, count = 8200, 30
    values = path_values(model, length, RngKey(17).child(length), count)[:, :, 0]
    lag1 = np.mean(values[:, :-1] * values[:, 1:])
    assert abs(lag1 - 0.3) <= 0.01
    assert abs(values.var() - 1.0) <= 0.01


def test_band_stops_at_the_last_lag_the_path_reads(monkeypatch):
    # a lag-12000 entry never enters Sigma at L = 8300: the band keeps 2 rows,
    # not 12,001, and the paths keep their bits
    shapes = []
    factor = scipy.linalg.lapack.dpbtrf

    def recording(ab, lower):
        shapes.append(ab.shape)
        return factor(ab, lower=lower)

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", recording)
    near = tabulated_model(1, {(1, 1, 1): 0.3})
    far = tabulated_model(1, {(1, 1, 1): 0.3, (1, 1, 12000): 0.01})
    key = RngKey(18).child(8300)
    assert path_values(near, 8300, key, 2).tobytes() == path_values(far, 8300, key, 2).tobytes()
    assert shapes == [(2, 8300)] * 2


def test_dense_cap_without_finite_horizon_rejected():
    with pytest.raises(ValueError):
        path_values(constant_like_model(), 9000, RngKey(0).child(9000), 1)


def constant_like_model():
    from hrex.correlation import constant_model

    return constant_model(1, 0.2)


# --- maxima and dump format ---------------------------------------------------


def test_maxima_single_row():
    key = RngKey(4).child(1)
    values = path_values(iid_model(3), 1, key, 1)
    assert np.array_equal(maxima_matrix(iid_model(3), 1, key, 1)[0], values[0, 0])


@settings(max_examples=40)
@given(st.integers(2, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_maxima_matches_brute_force(length, d, seed):
    # lag-0 rows with d <= 2 take the exact maxima route, so those d use a
    # serial model to keep the path route under test
    model = iid_model(d) if d >= 3 else geometric_model(d, 0.5, 0.3)
    key = RngKey(seed).child(length)
    values = path_values(model, length, key, 2)
    got = maxima_matrix(model, length, key, 2)
    brute = [[max(values[r, t, i] for t in range(length)) for i in range(d)] for r in range(2)]
    assert np.array_equal(got, np.array(brute))


def test_maxima_exchangeable_under_row_permutation():
    key = RngKey(6).child(9)
    values = path_values(iid_model(3), 9, key, 1)[0]
    assert np.array_equal(maxima_matrix(iid_model(3), 9, key, 1)[0], values[::-1].max(axis=0))


def test_path_dump_roundtrip():
    values = path_values(geometric_model(2, 0.5, 0.1), 7, RngKey(10).child(7), 1)[0]
    buf = io.BytesIO()
    write_path(SamplePath(values), buf)
    raw = buf.getvalue()
    assert raw[:8] == b"HREXPATH"
    assert len(raw) == 8 + 8 + 8 + 7 * 2 * 8
    assert struct.unpack("<QQ", raw[8:24]) == (7, 2)
    back = read_path(io.BytesIO(raw))
    assert back.values.shape == (7, 2)
    assert np.array_equal(back.values, values)


def test_path_dump_rejects_bad_magic():
    with pytest.raises(ValueError):
        read_path(io.BytesIO(b"NOTMAGIC" + b"\x00" * 32))


def test_path_dump_rejects_truncated():
    values = path_values(iid_model(1), 3, RngKey(1).child(3), 1)[0]
    buf = io.BytesIO()
    write_path(SamplePath(values), buf)
    for cut in (buf.getvalue()[:-8], buf.getvalue()[:12]):
        with pytest.raises(ValueError, match="truncated path dump"):
            read_path(io.BytesIO(cut))


def test_path_dump_header_larger_than_file(tmp_path):
    # a header may claim more values than any machine holds; reading must
    # stop at the bytes present instead of allocating what the header says
    for n in (2**40, 2**61):
        f = tmp_path / ("claims_%d.bin" % n)
        f.write_bytes(b"HREXPATH" + struct.pack("<QQ", n, 1) + b"\x00" * 16)
        assert f.stat().st_size == 40
        with open(f, "rb") as fh, pytest.raises(ValueError, match="truncated path dump"):
            read_path(fh)
