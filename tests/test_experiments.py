"""Sweep orchestration: maxima simulation, empirical threshold frequencies,
deviation reports, the exhaustive decomposition check on finite-support
matrices, and block self-consistency."""

import csv
import io
import itertools
import logging
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtri
from scipy.stats import kstest, multivariate_normal

from hrex import sampler
from hrex.correlation import (
    CorrelationModel,
    DeltaSpec,
    constant_model,
    geometric_model,
    hr_family,
    iid_model,
    tabulated_model,
)
from hrex.errors import NotPositiveSemidefinite
from hrex.experiments import (
    BlockConsistency,
    ConvergenceEntry,
    DiscreteMatrixDistribution,
    ExperimentConfig,
    block_consistency_check,
    build_report,
    compare_to_limit,
    empirical_cdf,
    lemma1_check,
    maxima_matrix,
    random_matrix_distribution,
    report_jsonable,
    run_maxima_experiment,
    weakly_decreasing,
    write_convergence_csv,
    write_convergence_json,
)
from hrex.experiments import _realisations
from hrex.norming import lag0_max_cdf, limit_cdf, norming_constants, std_normal_cdf, threshold
from hrex.rng import RngKey, uniform_open
from hrex.sampler import iter_path_blocks


def bivariate_hr(lam):
    return hr_family(DeltaSpec.from_entries(2, {(1, 2, 0): lam}))


def _entry(n, sup, se=0.0):
    dev = np.array([sup])
    return ConvergenceEntry(
        n=n,
        x_grid=((0.0,),),
        columns={"empirical": dev.copy(), "limit": np.zeros(1), "deviation": dev, "std_error": np.array([se])},
        sup_deviation=sup,
    )


# --- config --------------------------------------------------------------------


def test_config_validates():
    model = iid_model(1)
    good = dict(
        model=model, n_list=(10, 100), replicates=100, x_grid=((0.0,),), seed=1
    )
    ExperimentConfig(**good)
    for bad in (
        dict(good, n_list=()),
        dict(good, n_list=(100, 10)),
        dict(good, n_list=(100, 100)),
        dict(good, n_list=(1, 10)),
        dict(good, replicates=99),
        dict(good, x_grid=()),
        dict(good, x_grid=((0.0, 1.0),)),
        dict(good, sampler="exact"),
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


def test_config_coerces_types():
    cfg = ExperimentConfig(
        model=iid_model(2),
        n_list=[10, 20],
        replicates=100,
        x_grid=[[0, 1]],
        seed=0,
    )
    assert cfg.n_list == (10, 20)
    assert cfg.x_grid == ((0.0, 1.0),)


# --- maxima --------------------------------------------------------------------


def test_maxima_match_full_paths():
    model = geometric_model(2, 0.5, 0.3)
    key = RngKey(11).child(100)
    maxima = maxima_matrix(model, 12, key, 40, sampler="cholesky")
    stacked = np.concatenate([b for _, b in iter_path_blocks(model, 12, key, 40, method="cholesky")])
    assert np.array_equal(maxima, stacked.max(axis=1))


def test_maxima_thread_count_invariant(pool_sizes, monkeypatch):
    # 101 exact-route replicates hold fewer floats than the split floor: it
    # is lifted, so that threads=4 runs four parts on a pool
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr(sampler, "_SPLIT_FLOATS", 1)
    model = bivariate_hr(1.0)
    key = RngKey(5).child(64)
    one = maxima_matrix(model, 16, key, 101, threads=1)
    assert pool_sizes == []
    four = maxima_matrix(model, 16, key, 101, threads=4)
    assert pool_sizes == [4]
    assert np.array_equal(one, four)


ROUTES = {
    # route: (model, length, replicates, sampler)
    "lag0_exact": (bivariate_hr(1.0), 16, 9, "cholesky"),
    "lag0_path": (iid_model(3), 16, 9, "cholesky"),
    "ar1": (geometric_model(2, 0.5, 0.3), 64, 9, "cholesky"),
    # constant correlation has neither a finite horizon nor an AR(1) row
    "dense": (constant_model(2, 0.3), 64, 9, "cholesky"),
    "banded": (tabulated_model(1, {(1, 1, 1): 0.3}), 8200, 5, "cholesky"),
    "circulant": (geometric_model(2, 0.5, 0.3), 256, 9, "circulant"),
    # MA(1) cross terms: a cycle of 640 holds two paths, and 9 leaves one odd
    "circulant_paired": (tabulated_model(2, {(1, 1, 1): 0.3, (1, 2, 0): 0.2, (1, 2, 1): 0.1}), 300, 9,
                         "circulant"),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_entry_takes_the_route_it_names(route):
    # a banded entry that quietly planned dense would test dense twice
    model, length, _, method = ROUTES[route]
    named = {"lag0_exact": "lag0-exact", "lag0_path": "lag0", "circulant_paired": "circulant"}
    named = named.get(route, route)
    plan = sampler.make_plan(model, length, method, maxima=True)
    assert (plan.route, plan.paths) == (named, 2 if route == "circulant_paired" else 1)


def test_exact_route_keeps_the_lag0_psd_guard():
    # the exact transform clamps rho to [-1, 1], so without the lag-0 plan's
    # check it would return the maxima of rho = 1 rows for an impossible model
    def rho(lags, n):
        return np.where((lags == 0)[:, None, None], [[1.0, 1.2], [1.2, 1.0]], 0.0)

    model = CorrelationModel(d=2, rho=rho, max_lag=0)
    with pytest.raises(NotPositiveSemidefinite, match="^lag-0 correlation matrix is not PSD$"):
        maxima_matrix(model, 100, RngKey(1).child(100), 10)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_maxima_thread_count_invariant_on_every_route(route, monkeypatch):
    # four real worker threads share one plan, switching often; each
    # replicate reads its own values of the one substream, by counter, so
    # the bytes cannot depend on the thread count
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr(sampler, "_SPLIT_FLOATS", 1)  # split however few floats a part holds
    model, length, replicates, method = ROUTES[route]
    key = RngKey(31).child(length)
    one = maxima_matrix(model, length, key, replicates, method, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = maxima_matrix(model, length, key, replicates, method, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert one.tobytes() == four.tobytes()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_path_blocks_batch_invariant_on_every_route(route, monkeypatch):
    # replicate r reads only the values of its draw unit, r // p of a plan
    # that gives p paths per unit, so cutting the replicates into three or
    # more batches gives the bytes
    # of one batch, for the path plans and for the plans whose blocks
    # maxima_matrix reduces
    model, length, replicates, method = ROUTES[route]
    key = RngKey(31).child(length)

    def blocks(maxima, per_batch):
        # a batch holds whole draw units, of plan.paths replicates each
        plan = sampler.make_plan(model, length, method, maxima=maxima)
        monkeypatch.setattr(sampler, "_BLOCK_VALUES", -(-per_batch // plan.paths) * plan.footprint)
        return [b for _, b in iter_path_blocks(model, length, key, replicates, method, maxima=maxima)]

    for maxima in (False, True):
        (whole,) = blocks(maxima, replicates)
        split = blocks(maxima, -(-replicates // 3))
        assert len(split) >= 3
        assert np.concatenate(split).tobytes() == whole.tobytes()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_path_blocks_thread_invariant_on_every_route(route, monkeypatch):
    # each part of a split batch reads its replicates' own values of the
    # substream on its own thread, so blocks from 1, 2 or 7 threads hold the
    # same bytes, in replicate order; the floor is lifted so that parts of a
    # single replicate split too.  On the dense route BLAS picks its kernel
    # by a part's row count, and parts of one or two rows move the last bit
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    monkeypatch.setattr(sampler, "_SPLIT_FLOATS", 1)
    model, length, _, method = ROUTES[route]
    key = RngKey(31).child(length)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for maxima in (False, True):
            plan = sampler.make_plan(model, length, method, maxima=maxima)
            for count in (1, 3, 7, 23):
                got = {}
                for threads in (1, 2, 7):
                    blocks = list(iter_path_blocks(model, length, key, count, method, threads=threads,
                                                   maxima=maxima))
                    firsts = [first for first, _ in blocks]
                    assert firsts == list(np.cumsum([0] + [len(b) for _, b in blocks[:-1]]))
                    got[threads] = np.concatenate([b for _, b in blocks])
                for threads in (2, 7):
                    if plan.route == "dense":
                        assert np.allclose(got[threads], got[1], rtol=0.0, atol=1e-12)
                    else:
                        assert got[threads].tobytes() == got[1].tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_path_blocks_keep_their_layout_and_reduce_to_maxima(route):
    # lag0, dense and banded blocks are time-major, so a dump writes their rows
    # without a copy; the ar1 and circulant blocks are views of component-major
    # arrays, with a contiguous time axis.  block_maxima gives the max over time
    # of either
    model, length, replicates, method = ROUTES[route]
    plan = sampler.make_plan(model, length, method)
    for _, block in iter_path_blocks(model, length, RngKey(31).child(length), replicates, method):
        assert block.shape[1:] == (length, model.d)
        if plan.route in ("ar1", "circulant"):
            assert block.strides[1] == block.itemsize and block.base is not None
        else:
            assert block.flags.c_contiguous
        assert sampler.block_maxima(block).tobytes() == block.max(axis=1).tobytes()


def test_split_batch_reduces_on_each_part_thread(monkeypatch):
    # each part reduces its own block on its own pool thread, so only the
    # (b, d) maxima of the batch's two parts join in the calling thread
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(sampler, "_SPLIT_FLOATS", 1)
    model, length, replicates, method = ROUTES["circulant"]
    key = RngKey(31).child(length)
    seen, block_maxima = [], sampler.block_maxima

    def spy(block):
        seen.append((threading.current_thread().name, len(block)))
        return block_maxima(block)

    monkeypatch.setattr(sampler, "block_maxima", spy)
    got = list(iter_path_blocks(model, length, key, replicates, method, threads=2, maxima=True))
    assert sorted(size for _, size in seen) == [4, 5]
    assert all(name.startswith("hrex-part") for name, _ in seen)
    assert [first for first, _ in got] == [0] and got[0][1].shape == (replicates, model.d)
    whole = np.concatenate([b for _, b in iter_path_blocks(model, length, key, replicates, method)])
    assert got[0][1].tobytes() == whole.max(axis=1).tobytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("method, counted", [("cholesky", "lag_table"), ("circulant", "lag_table")])
def test_maxima_plans_once_per_call(threads, method, counted, monkeypatch):
    # every worker chunk reuses the one plan: the ar1, dense or circulant lag
    # table is built, and factored, once
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(sampler, "_SPLIT_FLOATS", 1)
    calls = []
    original = getattr(sampler, counted)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sampler, counted, counting)
    routes = ["ar1", "dense"] if method == "cholesky" else ["circulant"]
    for route in routes:
        model = ROUTES[route][0]
        assert sampler.make_plan(model, 1000, method).route == route
        calls.clear()
        maxima_matrix(model, 1000, RngKey(3).child(1000), 8, method, threads=threads)
        assert len(calls) == 1


def test_maxima_workers_capped_by_cpus_and_replicates(monkeypatch):
    # a huge thread request must not become one OS thread per replicate;
    # the fake pool, which hrex.rng.run_parts imports when it splits, runs
    # every chunk inline and records its worker count
    from concurrent.futures import Future

    from hrex import rng

    seen = []

    class InlinePool:
        def __init__(self, max_workers, thread_name_prefix):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(sampler, "_SPLIT_FLOATS", 1)  # split however few floats a part holds
    model = bivariate_hr(1.0)
    key = RngKey(5).child(64)
    many = maxima_matrix(model, 16, key, 7, threads=10**6)
    maxima_matrix(model, 16, key, 2, threads=10**6)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: None)
    serial = maxima_matrix(model, 16, key, 7, threads=10**6)
    assert seen == [3, 2]
    assert np.array_equal(many, serial)


def test_batches_split_only_above_the_floor(pool_sizes, monkeypatch):
    # the exact route holds 3 floats per replicate: 500 replicates (750 floats
    # a part at two parts) stay in one part, 20,000 (30,000 a part) split
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    key = RngKey(5).child(1000)
    small = maxima_matrix(bivariate_hr(1.0), 1000, key, 500, threads=2)
    assert pool_sizes == []
    large = maxima_matrix(bivariate_hr(1.0), 1000, key, 20_000, threads=2)
    assert pool_sizes == [2]
    assert small.tobytes() == large[:500].tobytes()


def test_maxima_shape_and_samplers_agree_for_iid():
    model = iid_model(3)
    key = RngKey(2).child(8)
    a = maxima_matrix(model, 8, key, 25, sampler="cholesky")
    b = maxima_matrix(model, 8, key, 25, sampler="circulant")
    assert a.shape == (25, 3)
    assert np.array_equal(a, b)


# --- exact lag-0 route --------------------------------------------------------------

GRID9 = [(x1, x2) for x1 in (-1.0, 0.0, 1.0) for x2 in (-1.0, 0.0, 1.0)]
LAW_CASES = {
    # case: (model, n, lag-0 correlation at n, seed)
    "hr-1e3": (bivariate_hr(1.0), 10**3, 1.0 - 1.0 / math.log(10**3), 9101),
    "hr-1e5": (bivariate_hr(1.0), 10**5, 1.0 - 1.0 / math.log(10**5), 9102),
    "hr-1e8": (bivariate_hr(1.0), 10**8, 1.0 - 1.0 / math.log(10**8), 9103),
    "geometric-rho+1": (geometric_model(2, 0.0, 1.0), 10**3, 1.0, 9104),
    "tabulated-rho-1": (tabulated_model(2, {(1, 2, 0): -1.0}), 10**3, -1.0, 9105),
}


@pytest.mark.parametrize("case", sorted(LAW_CASES))
def test_lag0_exact_route_follows_the_finite_n_law(case):
    # joint frequencies on the 9-point grid within 5 SE of the exact law,
    # and each margin Phi^n by KS; n = 1e8 costs what n = 1e3 does
    model, n, rho, seed = LAW_CASES[case]
    replicates = 20_000
    maxima = maxima_matrix(model, n, RngKey(seed).child(n), replicates)
    emp = empirical_cdf(maxima, GRID9, n)
    c = norming_constants(n)
    u = np.array([[threshold(c, x1), threshold(c, x2)] for x1, x2 in GRID9])
    exact = lag0_max_cdf(n, u, rho)
    se = np.sqrt(exact * (1.0 - exact) / replicates)
    assert np.all(np.abs(emp.counts / replicates - exact) <= 5.0 * se)
    for i in range(2):
        assert kstest(np.exp(n * log_ndtr(maxima[:, i])), "uniform").pvalue >= 1e-3
    if rho == 1.0:
        assert np.array_equal(maxima[:, 0], maxima[:, 1])


@pytest.mark.parametrize("d, n", [(1, 10**3), (1, 10**8), (2, 10**3), (2, 10**4)])
def test_lag0_exact_route_reproduced_by_root_finding(d, n):
    # replicate r from its values r(2d-1) ... (r+1)(2d-1) - 1 of key's
    # substream: M1 solves
    # Phi(x)^n = U1, and the other rows' max of X2 solves
    # (Phi_2(M1, y) / Phi(M1))^(n-1) = U3 on the bivariate normal CDF
    model = iid_model(1) if d == 1 else bivariate_hr(1.0)
    rho = 1.0 - 1.0 / math.log(n)
    mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
    key = RngKey(9201).child(n)
    got = maxima_matrix(model, n, key, 6)
    for r in (0, 2, 5):
        u = uniform_open(key, 2 * d - 1, start=r * (2 * d - 1))
        m1 = brentq(lambda x: n * log_ndtr(x) - math.log(u[0]), -10.0, 12.0, xtol=1e-14)
        assert abs(got[r, 0] - m1) <= 1e-9
        if d == 1:
            continue

        def others(y):
            return (n - 1) * (math.log(mvn.cdf([m1, y])) - log_ndtr(m1)) - math.log(u[2])

        y = brentq(others, -6.0, 12.0, xtol=1e-14)
        m2 = max(rho * m1 + math.sqrt(1.0 - rho * rho) * ndtri(u[1]), y)
        assert abs(got[r, 1] - m2) <= 1e-9


@pytest.mark.parametrize("model", [bivariate_hr(1.0), iid_model(3)], ids=["lag0_exact", "lag0_path"])
def test_maxima_without_replicates(model):
    assert maxima_matrix(model, 50, RngKey(1).child(50), 0).shape == (0, model.d)


def test_maxima_logs_route_once_per_call(caplog):
    caplog.set_level(logging.DEBUG, logger="hrex.sampler")
    maxima_matrix(bivariate_hr(1.0), 10**6, RngKey(1).child(0), 7)
    maxima_matrix(iid_model(3), 10, RngKey(1).child(0), 7, threads=2)
    maxima_matrix(geometric_model(2, 0.5, 0.3), 10_000, RngKey(1).child(0), 7)
    messages = [r.getMessage() for r in caplog.records if r.name == "hrex.sampler"]
    assert messages == [
        "iter_path_blocks route=lag0-exact length=1000000 n=1000000 count=7 values=21",
        "iter_path_blocks route=lag0 length=10 n=10 count=7 values=210",
        "iter_path_blocks route=ar1 length=10000 n=10000 count=7 values=140000",
    ]


def test_block_check_logs_both_routes_at_row_n(caplog):
    caplog.set_level(logging.DEBUG, logger="hrex.sampler")
    block_consistency_check(bivariate_hr(1.0), 1000, 10, [0.0, 0.0], 5, RngKey(2))
    messages = [r.getMessage() for r in caplog.records if r.name == "hrex.sampler"]
    assert messages == [
        "iter_path_blocks route=lag0-exact length=1000 n=1000 count=5 values=15",
        "iter_path_blocks route=lag0-exact length=10 n=1000 count=5 values=15",
    ]


# --- empirical CDF ----------------------------------------------------------------


def test_empirical_cdf_counts():
    maxima = np.array([[0.0], [1.0], [2.0]])
    n = 100
    constants = norming_constants(n)
    # pick grid values whose thresholds straddle the three maxima
    def x_for(u):
        return (u - constants.b_n) * constants.a_n

    emp = empirical_cdf(maxima, [(x_for(-1.0),), (x_for(1.5),), (x_for(3.0),)], n)
    assert emp.counts.tolist() == [0, 2, 3]
    assert emp.replicates == 3


def test_empirical_cdf_monotone_on_ordered_grid():
    model = iid_model(2)
    maxima = maxima_matrix(model, 50, RngKey(3).child(50), 500)
    grid = [(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0), (3.0, 3.0)]
    emp = empirical_cdf(maxima, grid, 50)
    assert all(a <= b for a, b in zip(emp.counts, emp.counts[1:]))


def test_empirical_cdf_rejects_a_grid_point_of_another_arity():
    # a one-level point against two components was broadcast to both of them
    maxima = np.array([[0.0, 5.0], [0.0, 0.0]])
    for point in ([1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="need grid points of 2 levels"):
            empirical_cdf(maxima, [point], 100)


def test_large_coordinate_acts_as_marginal():
    # a very large coordinate never binds, so the joint count collapses to
    # the count for the remaining coordinate
    model = bivariate_hr(1.0)
    n = 200
    maxima = maxima_matrix(model, n, RngKey(9).child(n), 400)
    emp = empirical_cdf(maxima, [(-0.3, 50.0)], n)
    u = threshold(norming_constants(n), -0.3)
    assert emp.counts[0] == int((maxima[:, 0] <= u).sum())
    assert emp.counts[0] >= emp.replicates - 1 or emp.counts[0] == int(
        (maxima[:, 0] <= u).sum()
    )


def test_iid_univariate_frequency_near_limit():
    n, reps = 10**4, 10**4
    model = iid_model(1)
    maxima = maxima_matrix(model, n, RngKey(21).child(n), reps)
    emp = empirical_cdf(maxima, [(0.0,)], n)
    u = threshold(norming_constants(n), 0.0)
    exact = std_normal_cdf(u) ** n
    p_hat = emp.counts[0] / reps
    se = math.sqrt(exact * (1.0 - exact) / reps)
    assert abs(p_hat - exact) <= 4.0 * se
    # and the exact finite-n value is already close to the limit
    assert abs(exact - limit_cdf([1.0], [0.0])) < 0.03


# --- comparison and report ----------------------------------------------------------


def test_compare_to_limit_consistency():
    model = iid_model(1)
    n = 100
    maxima = maxima_matrix(model, n, RngKey(4).child(n), 200)
    emp = empirical_cdf(maxima, [(0.0,), (1.0,)], n)
    entry = compare_to_limit(emp, [[1.0], [1.0]])
    expected_emp = emp.counts / emp.replicates
    assert np.array_equal(entry.columns["empirical"], expected_emp)
    expected_dev = np.abs(expected_emp - np.array([limit_cdf([1.0], [0.0]), limit_cdf([1.0], [1.0])]))
    assert np.array_equal(entry.columns["deviation"], expected_dev)
    assert entry.sup_deviation == expected_dev.max()
    assert np.all(entry.columns["std_error"] <= 0.5 / math.sqrt(200))


def test_compare_to_limit_grid_mismatch():
    model = iid_model(1)
    maxima = maxima_matrix(model, 10, RngKey(4).child(10), 100)
    emp = empirical_cdf(maxima, [(0.0,)], 10)
    with pytest.raises(ValueError):
        compare_to_limit(emp, [[1.0], [1.0]])


def test_weakly_decreasing_plain_and_slacked():
    assert weakly_decreasing([3.0, 2.0, 2.0, 1.0])
    assert not weakly_decreasing([1.0, 2.0])
    assert weakly_decreasing([1.0, 1.5], slacks=[0.5])
    assert not weakly_decreasing([1.0, 1.6], slacks=[0.5])
    with pytest.raises(ValueError):
        weakly_decreasing([1.0, 2.0, 3.0], slacks=[0.1])


def test_build_report_sorts_and_judges():
    up = build_report([_entry(100, 0.05), _entry(10, 0.02)])
    assert [e.n for e in up.entries] == [10, 100]
    assert up.verdict == "not-decreasing" and up.failed_steps == (0,)
    down = build_report([_entry(10, 0.05), _entry(100, 0.02)])
    assert down.verdict == "decreasing" and down.failed_steps == ()
    # a small uptick within two combined standard errors still passes
    noisy = build_report([_entry(10, 0.020, se=0.01), _entry(100, 0.025, se=0.01)])
    assert noisy.step_slacks[0] == pytest.approx(2.0 * math.hypot(0.01, 0.01))
    assert noisy.verdict == "decreasing"


def test_run_maxima_experiment_independent_of_sweep():
    model = bivariate_hr(1.0)
    base = dict(model=model, replicates=150, x_grid=((0.0, 0.0),), seed=77)
    both = run_maxima_experiment(ExperimentConfig(n_list=(8, 32), **base))
    only = run_maxima_experiment(ExperimentConfig(n_list=(32,), **base))
    assert np.array_equal(both[1].counts, only[0].counts)


# --- exhaustive decomposition check ---------------------------------------------------


def test_lemma1_two_point_hand_value():
    # one component, two times, cells uniform on {-1, +1}, threshold 0:
    # P(max > 0) = 3/4 and the decomposition gives 1/4 + 1/2
    dist = DiscreteMatrixDistribution.iid_cells(2, 1, [-1.0, 1.0])
    report = lemma1_check(dist, [0.0])
    assert report.lhs == 0.75
    assert report.rhs == 0.75
    assert report.difference == 0.0
    assert report.support_size == 4


def test_lemma1_uniform_cells():
    dist = DiscreteMatrixDistribution.iid_cells(3, 2, [-1.0, 0.5, 2.0])
    report = lemma1_check(dist, [0.0, 0.0])
    assert report.support_size == 3**6
    assert report.difference <= 1e-12


def test_lemma1_threshold_above_support():
    dist = DiscreteMatrixDistribution.iid_cells(2, 2, [-1.0, 1.0])
    report = lemma1_check(dist, [5.0, 5.0])
    assert report.lhs == 0.0 and report.rhs == 0.0


def test_lemma1_threshold_below_support():
    # every realisation exceeds somewhere; both sides must still agree
    dist = DiscreteMatrixDistribution.iid_cells(2, 2, [1.0, 2.0])
    report = lemma1_check(dist, [0.0, 0.0])
    assert report.lhs == 1.0
    assert report.difference <= 1e-12


def test_lemma1_support_cap():
    # 2^6 realisations of 6 cells hold 384 values: the cap is on those, not on
    # the support, and a one-atom law is refused before its cells are built
    dist = DiscreteMatrixDistribution.iid_cells(3, 2, [-1.0, 1.0])
    with pytest.raises(ValueError):
        lemma1_check(dist, [0.0, 0.0], max_values=383)
    assert lemma1_check(dist, [0.0, 0.0], max_values=384).support_size == 64
    with pytest.raises(ValueError, match="cap of 1000000 cell values"):
        DiscreteMatrixDistribution.iid_cells(10**6 + 1, 1, [0.0])
    with pytest.raises(ValueError, match="cap of 10 cell values"):
        lemma1_check(DiscreteMatrixDistribution.iid_cells(11, 1, [0.0]), [1.0], max_values=10)


def test_lemma1_threshold_arity():
    dist = DiscreteMatrixDistribution.iid_cells(2, 2, [-1.0, 1.0])
    with pytest.raises(ValueError):
        lemma1_check(dist, [0.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_lemma1_random_instances(seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    n = int(gen.integers(1, 5))
    d = int(gen.integers(1, 4))
    dist = random_matrix_distribution(gen, n, d, max_atoms=3)
    u = gen.uniform(-2.2, 2.2, size=d)
    report = lemma1_check(dist, u)
    assert report.difference <= 1e-12


def test_lemma1_rhs_matches_a_loop_over_times_and_components():
    # the reference counts each realisation's terms (k, c) one at a time: X_k^(c)
    # exceeds, components before c are quiet from k on, the others after k
    gen = np.random.Generator(np.random.PCG64(17))
    for _ in range(8):
        n, d = int(gen.integers(1, 4)), int(gen.integers(1, 4))
        dist = random_matrix_distribution(gen, n, d, max_atoms=2)
        u = gen.uniform(-2.2, 2.2, size=d)
        terms = []
        for cells in itertools.product(*(range(len(v)) for v in dist.values)):
            x = np.array([dist.values[c][a] for c, a in enumerate(cells)]).reshape(n, d)
            count = sum(bool(x[k, c] > u[c] and (x[k:, :c] <= u[:c]).all() and (x[k + 1 :, c:] <= u[c:]).all())
                        for k in range(n) for c in range(d))
            terms.append(math.prod(dist.probs[c][a] for c, a in enumerate(cells)) * count)
        assert lemma1_check(dist, u).rhs == pytest.approx(math.fsum(terms), rel=0.0, abs=1e-14)


def test_realisations_match_the_per_cell_loop():
    # the reference builds each cell's digits, atoms and probabilities one
    # cell at a time, last cell first; the gather from the distinct-cell
    # tables gives the same bytes, with cells of mixed and repeated laws
    gen = np.random.Generator(np.random.PCG64(29))
    for _ in range(60):
        n, d = int(gen.integers(1, 5)), int(gen.integers(1, 4))
        dist = random_matrix_distribution(gen, n, d, max_atoms=3)
        if gen.integers(2):  # repeat one cell's law across a run of cells
            first, last = sorted(gen.integers(0, n * d, size=2).tolist())
            values, probs = list(dist.values), list(dist.probs)
            values[first : last + 1] = [values[first]] * (last + 1 - first)
            probs[first : last + 1] = [probs[first]] * (last + 1 - first)
            dist = DiscreteMatrixDistribution(n, d, tuple(values), tuple(probs))
        radices = [len(vals) for vals in dist.values]
        size = math.prod(radices)
        atoms, prob, index, stride = np.empty((size, n * d)), np.ones(size), np.arange(size), 1
        for cell in range(n * d - 1, -1, -1):
            digit = (index // stride) % radices[cell]
            atoms[:, cell] = np.asarray(dist.values[cell])[digit]
            prob *= np.asarray(dist.probs[cell])[digit]
            stride *= radices[cell]
        x, got = _realisations(dist, 10**6)
        assert x.tobytes() == atoms.reshape(size, n, d).tobytes() and got.tobytes() == prob.tobytes()


def test_matrix_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteMatrixDistribution(n=0, d=1, values=(), probs=())
    with pytest.raises(ValueError):
        DiscreteMatrixDistribution(
            n=1, d=1, values=((0.0, 1.0),), probs=((0.7, 0.7),)
        )
    with pytest.raises(ValueError):
        DiscreteMatrixDistribution(n=1, d=1, values=((0.0,),), probs=((0.5, 0.5),))
    with pytest.raises(ValueError):
        DiscreteMatrixDistribution(n=1, d=1, values=((0.0, 1.0),), probs=((1.5, -0.5),))
    with pytest.raises(ValueError):
        DiscreteMatrixDistribution(n=2, d=1, values=((0.0,),), probs=((1.0,),))


def test_random_matrix_distribution_shape():
    gen = np.random.Generator(np.random.PCG64(0))
    dist = random_matrix_distribution(gen, 3, 2, max_atoms=3)
    assert dist.n == 3 and dist.d == 2
    assert len(dist.values) == 6
    assert all(1 <= len(v) <= 3 for v in dist.values)


# --- block consistency -----------------------------------------------------------------


def test_block_consistency_degenerate_block():
    model = iid_model(1)
    out = block_consistency_check(model, 64, 64, [0.0], 500, RngKey(31).child(0))
    assert out.q_n == 1
    assert out.gap == 0.0
    assert out.full_prob == out.block_prob == out.block_prob_power


def test_block_consistency_iid_within_band():
    # for iid rows the product identity is exact in distribution, so the
    # gap is pure Monte Carlo noise (shrunk further by the shared draws)
    model = iid_model(1)
    out = block_consistency_check(model, 100, 25, [0.5], 4000, RngKey(32).child(0))
    assert out.q_n == 4
    assert out.gap <= 4.0 * math.hypot(out.se_full, out.se_power)


def test_block_consistency_validates_block_length():
    model = iid_model(1)
    with pytest.raises(ValueError):
        block_consistency_check(model, 10, 0, [0.0], 500, RngKey(1).child(0))
    with pytest.raises(ValueError):
        block_consistency_check(model, 10, 11, [0.0], 500, RngKey(1).child(0))


def test_block_consistency_rejects_a_level_per_component_mismatch():
    # one level for a bivariate model used to apply to both components
    with pytest.raises(ValueError, match="x needs one level per component"):
        block_consistency_check(bivariate_hr(1.0), 10, 5, [0.5], 500, RngKey(1).child(0))


def test_block_consistency_rejects_no_replicates():
    with pytest.raises(ValueError, match="replicates must be >= 1"):
        block_consistency_check(iid_model(1), 10, 5, [0.5], 0, RngKey(1).child(0))


def test_block_consistency_lag0_rows_follow_the_exact_law():
    # lag-0 bivariate rows take the exact plan at both lengths, so each
    # probability lies within 5 SE of the finite-n law at the row-n correlation
    n, r_n, replicates, x = 10**5, 10**3, 20_000, (0.0, 0.0)
    out = block_consistency_check(bivariate_hr(1.0), n, r_n, x, replicates, RngKey(9301).child(0))
    u = [threshold(norming_constants(n), v) for v in x]
    rho = 1.0 - 1.0 / math.log(n)
    for got, rows in ((out.full_prob, n), (out.block_prob, r_n)):
        exact = float(lag0_max_cdf(rows, u, rho))
        assert abs(got - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / replicates)


def test_block_consistency_dependent_rows():
    model = bivariate_hr(1.0)
    out = block_consistency_check(
        model, 256, 64, [0.3, 0.3], 2000, RngKey(33).child(0), sampler="circulant"
    )
    assert isinstance(out, BlockConsistency)
    assert 0.0 <= out.full_prob <= 1.0
    assert out.gap <= 4.0 * math.hypot(out.se_full, out.se_power) + 0.03


# --- report files -----------------------------------------------------------------------


def _tiny_report():
    model = iid_model(2)
    cfg = ExperimentConfig(
        model=model,
        n_list=(16, 64),
        replicates=120,
        x_grid=((0.0, 0.5), (1.0, 1.0)),
        seed=13,
    )
    cdfs = run_maxima_experiment(cfg)
    thetas = [[1.0, 1.0], [1.0, 1.0]]
    return build_report([compare_to_limit(c, thetas) for c in cdfs])


def test_csv_header_and_roundtrip(tmp_path):
    report = _tiny_report()
    path = tmp_path / "report.csv"
    write_convergence_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "x1", "x2", "empirical", "limit", "deviation", "std_error"]
    assert len(rows) == 1 + 2 * 2
    first = rows[1]
    entry = report.entries[0]
    assert int(first[0]) == entry.n
    assert float(first[1]) == entry.x_grid[0][0]
    # repr round-trips floats exactly
    assert float(first[3]) == entry.columns["empirical"][0]
    assert float(first[5]) == entry.columns["deviation"][0]


def test_json_report_keys(tmp_path):
    report = _tiny_report()
    path = tmp_path / "report.json"
    write_convergence_json(report, path)
    import json

    with open(path) as fh:
        obj = json.load(fh)
    assert obj["verdict"] in ("decreasing", "not-decreasing")
    assert len(obj["entries"]) == 2
    assert set(obj["entries"][0]) == {
        "n",
        "x_grid",
        "empirical",
        "limit",
        "deviation",
        "std_error",
        "sup_deviation",
    }
    assert obj == report_jsonable(report)
