"""Dependence-coefficient specs, the log-scaled correlation family, and
the asymptotic condition checkers.
"""

import ast
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrex.correlation import (
    BlockParameters,
    CorrelationModel,
    DeltaSpec,
    berman_term,
    check_long_range,
    check_short_range,
    check_simplified,
    condition_row,
    constant_model,
    estimate_delta,
    geometric_model,
    hr_family,
    iid_model,
    lag_table,
    tabulated_model,
)
from hrex.errors import InvalidDeltaSpec

# 0.5 * exp(-(2e - 1)/1.5), the checker kernel at rho = 1/2 and n = e^e
# (so that ln n = e and ln ln n = 1); mpmath, 40 digits
BERMAN_HALF_EE = 0.025968882486522786


def serial_spec(**lags):
    entries = {(1, 1, int(k)): v for k, v in lags.items()}
    return DeltaSpec.from_entries(1, entries)


def rho_at(model, i, j, k, n):
    """rho_ij(k, n), read off the model's one-lag table."""
    return model.rho(np.array([k]), n)[0, i - 1, j - 1]


# --- DeltaSpec --------------------------------------------------------------


def test_spec_symmetric_lookup():
    spec = DeltaSpec.from_entries(2, {(2, 1, 3): 0.7})
    assert spec.delta(1, 2, 3) == 0.7
    assert spec.delta(2, 1, 3) == 0.7


def test_spec_diagonal_lag0_is_zero():
    spec = DeltaSpec.from_entries(3, {})
    for i in (1, 2, 3):
        assert spec.delta(i, i, 0) == 0.0


def test_spec_default_is_infinite():
    spec = DeltaSpec.from_entries(2, {(1, 2, 0): 1.0})
    assert math.isinf(spec.delta(1, 1, 5))
    assert math.isinf(spec.delta(1, 2, 1))


def test_spec_cross_lag0_zero_allowed():
    # complete dependence of two components at the same time index
    spec = DeltaSpec.from_entries(2, {(1, 2, 0): 0.0})
    assert spec.delta(2, 1, 0) == 0.0


def test_spec_rejects_zero_at_positive_lag():
    with pytest.raises(InvalidDeltaSpec):
        serial_spec(**{"1": 0.0})


def test_spec_rejects_negative_and_nan():
    with pytest.raises(InvalidDeltaSpec):
        DeltaSpec.from_entries(2, {(1, 2, 0): -0.1})
    with pytest.raises(InvalidDeltaSpec):
        DeltaSpec.from_entries(2, {(1, 2, 0): math.nan})


def test_spec_rejects_conflicting_symmetric_entries():
    with pytest.raises(InvalidDeltaSpec):
        DeltaSpec.from_entries(2, {(1, 2, 1): 1.0, (2, 1, 1): 2.0})


def test_spec_json_rejects_a_conflicting_repeat():
    entry = {"i": 1, "j": 2, "k": 0, "delta": 1.0}
    obj = {"d": 2, "entries": [entry, {**entry, "delta": 2.0}]}
    with pytest.raises(InvalidDeltaSpec, match="'delta': 2.0"):
        DeltaSpec.from_jsonable(obj)
    same = DeltaSpec.from_jsonable({"d": 2, "entries": [entry, dict(entry)]})
    assert same.entries == {(1, 2, 0): 1.0}


def test_spec_rejects_nonzero_diagonal_lag0():
    with pytest.raises(InvalidDeltaSpec):
        DeltaSpec.from_entries(1, {(1, 1, 0): 0.5})


def test_spec_horizon_from_entries():
    spec = DeltaSpec.from_entries(2, {(1, 1, 4): 2.0, (1, 2, 0): 1.0})
    assert spec.finite_horizon == 4


def test_spec_json_roundtrip():
    spec = DeltaSpec.from_entries(2, {(1, 2, 0): 1.5, (1, 1, 2): 3.0})
    obj = spec.to_jsonable()
    assert json.loads(json.dumps(obj)) == obj
    back = DeltaSpec.from_jsonable(obj)
    for key in [(1, 2, 0), (1, 1, 2), (2, 2, 1), (1, 2, 5)]:
        assert back.delta(*key) == spec.delta(*key)


def test_function_spec_has_no_json_form():
    # the entries of a function spec are empty, so a JSON form would read
    # back as a different spec (horizon 0, every coefficient infinite)
    spec = DeltaSpec.from_function(1, lambda i, j, k: float(k), finite_horizon=3)
    with pytest.raises(InvalidDeltaSpec, match="no JSON form"):
        spec.to_jsonable()


def test_spec_json_inf_convention():
    obj = {
        "d": 1,
        "entries": [{"i": 1, "j": 1, "k": 1, "delta": "inf"}],
        "default": "inf",
    }
    spec = DeltaSpec.from_jsonable(obj)
    assert math.isinf(spec.delta(1, 1, 1))


def test_spec_from_function_infinite_horizon():
    spec = DeltaSpec.from_function(
        1, lambda i, j, k: 0.0 if k == 0 else float(k), math.inf
    )
    assert spec.delta(1, 1, 10) == 10.0
    assert math.isinf(spec.finite_horizon)


# --- hr correlation family --------------------------------------------------


def test_hr_rho_arithmetic_pin():
    # delta = 2 at n = e^10 gives 1 - 2/10 exactly
    model = hr_family(serial_spec(**{"1": 2.0}))
    assert rho_at(model, 1, 1, 1, math.exp(10)) == pytest.approx(0.8, abs=1e-12)


def test_hr_infinite_delta_gives_zero():
    model = hr_family(serial_spec(**{"1": 2.0}))
    assert rho_at(model, 1, 1, 2, 1000) == 0.0
    assert rho_at(model, 1, 1, 7, 1000) == 0.0


def test_hr_lag0_diagonal_is_one():
    model = hr_family(serial_spec(**{"1": 2.0}))
    assert rho_at(model, 1, 1, 0, 50) == 1.0


def test_hr_clamps_at_small_n():
    # 1 - delta/ln n dives below -1 for tiny n; the family clamps
    model = hr_family(serial_spec(**{"1": 50.0}))
    r = rho_at(model, 1, 1, 1, 2)
    assert -1.0 < r < 0.0


def test_hr_requires_n_at_least_2():
    model = hr_family(serial_spec(**{"1": 1.0}))
    with pytest.raises(ValueError):
        rho_at(model, 1, 1, 1, 1)


def test_hr_carries_spec_and_horizon():
    spec = DeltaSpec.from_entries(2, {(1, 2, 0): 1.0, (1, 1, 3): 2.0})
    model = hr_family(spec)
    assert model.delta_spec is spec
    assert model.max_lag == 3


# --- estimate_delta ----------------------------------------------------------

GRID = [10.0, 1e2, 1e3, 1e4, 1e5]


def test_estimate_delta_recovers_hr_exactly():
    model = hr_family(DeltaSpec.from_entries(2, {(1, 2, 0): 0.75}))
    est = estimate_delta(model, 1, 2, 0, GRID)
    assert est.value == pytest.approx(0.75, abs=1e-12)
    assert est.max_successive_diff <= 1e-12
    assert not est.diverged


@settings(max_examples=30)
@given(st.floats(min_value=0.01, max_value=4.0))
def test_estimate_delta_hr_roundtrip(delta):
    # identity holds wherever 1 - delta/ln n stays above the clamp; the
    # grid starts at n = 10, so delta <= 4 keeps every point linear
    model = hr_family(serial_spec(**{"1": delta}))
    est = estimate_delta(model, 1, 1, 1, GRID)
    assert est.value == pytest.approx(delta, rel=1e-9)


def test_estimate_delta_clamped_regime_departs():
    # with delta = 24 the family is clamped at every n in the grid, so the
    # probe reports the clamped product, not the nominal coefficient
    model = hr_family(serial_spec(**{"1": 24.0}))
    est = estimate_delta(model, 1, 1, 1, GRID)
    assert est.value < 24.0


def test_estimate_delta_log_divergence_reported_infinite():
    # rho = 1/ln n gives (1 - rho) ln n = ln n - 1, which runs off to
    # infinity; with a threshold inside the grid's reach it is flagged
    model = CorrelationModel(
        d=1,
        rho=lambda lags, n: np.where(lags == 1, 1.0 / math.log(n), lags == 0)[:, None, None],
        max_lag=1,
        name="log-decay",
    )
    est = estimate_delta(
        model, 1, 1, 1, [1e10, 1e20, 1e40, 1e80], divergence_threshold=50.0
    )
    assert math.isinf(est.value)
    assert est.diverged


def test_estimate_delta_constant_rho_reported_infinite():
    model = constant_model(1, 0.5)
    est = estimate_delta(
        model, 1, 1, 1, [1e10, 1e30, 1e100, 1e300], divergence_threshold=100.0
    )
    assert math.isinf(est.value)
    assert est.diverged


def test_estimate_delta_rejects_a_component_outside_the_model():
    # index 0 would wrap to the last component of the lag table
    with pytest.raises(InvalidDeltaSpec, match="component indices"):
        estimate_delta(geometric_model(2, 0.5, 0.3), 0, 1, 1, GRID)


def test_estimate_delta_needs_increasing_grid():
    model = iid_model(1)
    with pytest.raises(ValueError):
        estimate_delta(model, 1, 1, 1, [10.0, 10.0, 100.0])
    with pytest.raises(ValueError):
        estimate_delta(model, 1, 1, 1, [10.0, 100.0])


# --- berman term -------------------------------------------------------------


def test_berman_zero_rho():
    assert berman_term(0.0, 100) == 0.0


def test_berman_frozen_value():
    assert berman_term(0.5, math.exp(math.e)) == pytest.approx(
        BERMAN_HALF_EE, abs=1e-15
    )


def test_berman_rejects_unit_rho():
    with pytest.raises(ValueError):
        berman_term(1.0, 100)
    with pytest.raises(ValueError):
        berman_term(-1.0, 100)


def test_berman_near_one_stays_finite():
    n = 100
    limit = math.exp(-(2 * math.log(n) - math.log(math.log(n))) / 2.0)
    assert berman_term(1.0 - 1e-12, n) == pytest.approx(limit, rel=1e-9)


@given(st.floats(min_value=-0.999, max_value=0.999), st.integers(3, 10**6))
def test_berman_sign_parity(rho, n):
    assert berman_term(rho, n) == berman_term(-rho, n)


# --- block parameters and checkers -------------------------------------------


def test_block_parameters_q():
    p = BlockParameters(n=1000, l_n=10, r_n=64)
    assert p.q_n == 1000 // 64


def test_block_parameters_validate():
    with pytest.raises(ValueError):
        BlockParameters(n=100, l_n=50, r_n=20)
    with pytest.raises(ValueError):
        BlockParameters(n=100, l_n=0, r_n=20)
    with pytest.raises(ValueError):
        BlockParameters(n=100, l_n=5, r_n=101)


def test_long_range_iid_is_exactly_zero():
    value = check_long_range(iid_model(2), BlockParameters(n=1000, l_n=5, r_n=50))
    assert value == 0.0


def test_long_range_zero_beyond_horizon():
    model = hr_family(serial_spec(**{"1": 2.0, "2": 3.0}))
    value = check_long_range(model, BlockParameters(n=10**4, l_n=3, r_n=100))
    assert value == 0.0


def test_long_range_log_decay_flagged_as_failing():
    # rho(s, n) = 1/ln n at every lag: each summand is ~ e^2 / n^2, there
    # are ~n of them, and the n^2/r_n prefactor leaves ~ e^2 n / r_n, which
    # grows for any admissible r_n = o(n).  The checker must report that
    # growth rather than mask it; the simplified criterion agrees, sitting
    # at exactly ln n * (1/ln n) = 1 instead of tending to 0.
    model = CorrelationModel(
        d=1,
        rho=lambda lags, n: np.where(lags >= 1, 1.0 / math.log(n), 1.0)[:, None, None],
        max_lag=math.inf,
        name="log-decay",
    )
    values = []
    for n in (10**3, 10**4, 10**5):
        p = BlockParameters(n=n, l_n=1, r_n=int(math.sqrt(n)))
        values.append(check_long_range(model, p))
        assert check_simplified(model, n, 1) == pytest.approx(1.0, rel=1e-12)
    assert values[0] < values[1] < values[2]


def test_short_range_iid_closed_form():
    # every rho = 0 term contributes exactly 1/n
    value = check_short_range(iid_model(1), 10**4, 1, 100)
    assert value == pytest.approx(100 / 10**4, abs=1e-12)
    value = check_short_range(iid_model(1), 10**4, 3, 100)
    assert value == pytest.approx(98 / 10**4, abs=1e-12)


def test_short_range_empty_start_beyond_bound():
    assert check_short_range(iid_model(1), 100, 11, 10) == 0.0


def test_short_range_serial_hr_term():
    # single nonzero term at s = 1 with rho = 1 - 1/ln n
    n = 10**4
    r = 1.0 - 1.0 / math.log(n)
    expect = (
        n ** (-(1 - r) / (1 + r)) * math.log(n) ** (-r / (1 + r)) / math.sqrt(1 - r * r)
        + 0 / n
    )
    model = hr_family(serial_spec(**{"1": 1.0}))
    got = check_short_range(model, n, 1, 1)
    assert got == pytest.approx(expect, rel=1e-12)


def test_short_range_rejects_unit_rho_in_window():
    model = constant_model(1, 0.0)  # fine
    check_short_range(model, 100, 1, 5)
    bad = CorrelationModel(
        d=1, rho=lambda lags, n: np.ones((len(lags), 1, 1)), max_lag=math.inf, name="unit"
    )
    with pytest.raises(ValueError):
        check_short_range(bad, 100, 1, 5)


def test_simplified_iid_zero():
    assert check_simplified(iid_model(3), 1000, 10) == 0.0


def test_simplified_inverse_log_squared():
    model = CorrelationModel(
        d=1,
        rho=lambda lags, n: np.where(lags >= 1, 1.0 / math.log(n) ** 2, 1.0)[:, None, None],
        max_lag=math.inf,
        name="slow",
    )
    for n in (10**3, 10**4):
        assert check_simplified(model, n, 2) == pytest.approx(
            1.0 / math.log(n), rel=1e-12
        )


def test_simplified_harmonic_decay_sweeps_downward():
    model = CorrelationModel(
        d=1,
        rho=lambda lags, n: 1.0 / np.maximum(lags, 1)[:, None, None],
        max_lag=math.inf,
        name="harmonic",
    )
    values = [
        check_simplified(model, n, int(math.sqrt(n))) for n in (10**3, 10**4, 10**5)
    ]
    assert values[0] > values[1] > values[2]


def test_checkers_nonnegative_and_finite():
    models = [
        iid_model(2),
        hr_family(DeltaSpec.from_entries(2, {(1, 2, 0): 1.0, (1, 1, 1): 4.0})),
        geometric_model(2, 0.4, 0.2),
        constant_model(1, 0.3),
    ]
    p = BlockParameters(n=500, l_n=4, r_n=40)
    for model in models:
        for value in (
            check_long_range(model, p),
            check_short_range(model, 500, 2, 40),
            check_simplified(model, 500, 4),
        ):
            assert value >= 0.0 and math.isfinite(value)


def test_long_range_monotone_in_window():
    # widening the lag window (smaller l_n) can only add nonnegative terms
    model = geometric_model(1, 0.5)
    wide = check_long_range(model, BlockParameters(n=200, l_n=2, r_n=20))
    narrow = check_long_range(model, BlockParameters(n=200, l_n=10, r_n=20))
    assert wide >= narrow


# --- other model constructors -------------------------------------------------


def test_tabulated_model_lookup_and_symmetry():
    model = tabulated_model(2, {(1, 2, 1): 0.25})
    assert rho_at(model, 1, 2, 1, 99) == 0.25
    assert rho_at(model, 2, 1, 1, 99) == 0.25
    assert rho_at(model, 1, 1, 0, 99) == 1.0
    assert rho_at(model, 1, 2, 3, 99) == 0.0


def test_tabulated_model_validates():
    with pytest.raises(ValueError):
        tabulated_model(1, {(1, 1, 1): 1.5})
    with pytest.raises(ValueError):
        tabulated_model(1, {(1, 1, 0): 0.9})


def test_tabulated_model_rejects_conflicting_symmetric_entries():
    # (1, 2, 0) and (2, 1, 0) name one correlation; DeltaSpec rejects the same conflict
    with pytest.raises(ValueError, match=r"0\.2 and 0\.3 for rho\(1,2,0\) = rho\(2,1,0\)"):
        tabulated_model(2, {(1, 2, 0): 0.2, (2, 1, 0): 0.3})
    with pytest.raises(InvalidDeltaSpec, match="conflicting"):
        DeltaSpec.from_entries(2, {(1, 2, 0): 0.2, (2, 1, 0): 0.3})
    model = tabulated_model(2, {(1, 2, 1): 0.25, (2, 1, 1): 0.25})
    assert rho_at(model, 2, 1, 1, 99) == rho_at(model, 1, 2, 1, 99) == 0.25


def test_geometric_model_values():
    model = geometric_model(2, 0.5, 0.3)
    assert rho_at(model, 1, 1, 3, 7) == 0.5**3
    assert rho_at(model, 1, 2, 0, 7) == 0.3
    assert rho_at(model, 1, 2, 2, 7) == pytest.approx(0.3 * 0.25)


def test_geometric_model_validates():
    with pytest.raises(ValueError):
        geometric_model(1, 1.0)
    with pytest.raises(ValueError):
        geometric_model(3, 0.5, -0.6)


@pytest.mark.parametrize("rate", [0.3, 0.6, 0.99])
def test_geometric_model_skips_lags_past_underflow_bit_for_bit(rate):
    # rate**k is evaluated only below its first underflow to 0.0; the table is
    # the bytes of rate**k at every lag, in order or not, cross term negative too
    lags = np.arange(200_000)
    shuffled = np.random.default_rng(5).permutation(lags)
    for d, cross in ((1, 0.0), (2, -0.4)):
        base = np.where(np.eye(d, dtype=bool), 1.0, cross)
        for asked in (lags, shuffled):
            reference = base * np.fromiter((rate**k for k in asked.tolist()), float)[:, None, None]
            assert geometric_model(d, rate, cross).rho(asked, 10.0).tobytes() == reference.tobytes()


def test_constant_model_values_and_validation():
    model = constant_model(2, 0.4)
    assert rho_at(model, 1, 1, 0, 10) == 1.0
    assert rho_at(model, 1, 1, 5, 10) == 0.4
    assert rho_at(model, 1, 2, 0, 10) == 0.4
    with pytest.raises(ValueError):
        constant_model(1, 1.0)
    with pytest.raises(ValueError):
        constant_model(1, -0.2)


def test_iid_model_is_identity_correlation():
    model = iid_model(2)
    assert rho_at(model, 1, 1, 0, 5) == 1.0
    assert rho_at(model, 1, 2, 0, 5) == 0.0
    assert rho_at(model, 1, 1, 1, 5) == 0.0
    assert model.max_lag == 0


# --- one lag table ------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def counting(model):
    """The model with a rho that records the lags of every call."""
    calls = []

    def rho(lags, n):
        calls.append(lags.tolist())
        return model.rho(lags, n)

    return dataclasses.replace(model, rho=rho), calls


def call_sites(attr):
    """(file, dotted enclosing class and function names) of every call to
    .<attr>( in src/hrex."""
    callers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = (where[0], where[1] + (node.name,))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == attr:
            callers.add((where[0], ".".join(where[1]) or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((ROOT / "src" / "hrex").glob("*.py")):
        visit(ast.parse(path.read_text()), (path.name, ()))
    return callers


def test_rho_read_only_through_lag_table():
    # estimate_delta probes one (i, j, k) across n through one-lag tables
    assert call_sites("rho") == {("correlation.py", "lag_table")}


def test_substreams_opened_only_by_the_draw_loops():
    # every draw is key-addressed: the sampler routes (in iter_path_blocks)
    # and theta's Monte Carlo batches hand an RngKey to hrex.rng, whose fill
    # opens the substream once per read
    assert call_sites("generator") == {("rng.py", "_fill")}


def test_delta_read_only_through_delta_table():
    # a function spec's coefficients are read only by DeltaSpec.table, which
    # delta and hr_family's rho (1 - delta / log n) index; cli's main calls
    # argparse's func, not a spec's
    assert call_sites("func") == {("correlation.py", "DeltaSpec.table"), ("cli.py", "main")}
    assert call_sites("delta") == set()


def test_function_spec_table_reads_each_coefficient_once():
    calls = []

    def func(i, j, k):
        calls.append((i, j, k))
        return 0.5 + k + (i != j)

    spec = DeltaSpec.from_function(2, func, math.inf)
    table = spec.table(3)
    assert calls == [(1, 2, 0)] + [(i, j, k) for k in (1, 2, 3) for i, j in ((1, 1), (1, 2), (2, 2))]
    assert table[0].tolist() == [[0.0, 1.5], [1.5, 0.0]]
    assert table[2].tolist() == [[2.5, 3.5], [3.5, 2.5]]
    assert spec.delta(2, 1, 3) == 4.5 and spec.delta(2, 2, 0) == 0.0
    bad = DeltaSpec.from_function(1, lambda i, j, k: -1.0, math.inf)
    with pytest.raises(InvalidDeltaSpec, match=r"delta\(1,1,1\) = -1 is negative"):
        bad.table(2)


def test_lag_table_cuts_beyond_max_lag_without_calling_rho():
    model, calls = counting(tabulated_model(2, {(1, 2, 1): 0.25, (1, 1, 2): -0.5}))
    table = lag_table(model, range(1, 6), 50)
    assert table.shape == (5, 2, 2)
    assert table[0, 0, 1] == table[0, 1, 0] == 0.25 and table[1, 0, 0] == -0.5
    assert not table[2:].any()
    assert calls == [[1, 2]]
    # no lag up to max_lag: no call at all
    assert not lag_table(model, range(3, 9), 50).any()
    assert calls == [[1, 2]]


def test_condition_row_reads_rho_once_per_lag_and_pair():
    n = 10**4
    model, calls = counting(geometric_model(2, 0.5, 0.3))
    row = condition_row(model, n, 0.4, 0.6, [1, 3])
    assert calls == [list(range(1, n + 1))]
    plain = geometric_model(2, 0.5, 0.3)
    params = BlockParameters.from_exponents(n, 0.4, 0.6)
    assert row == {
        "n": n,
        "l_n": params.l_n,
        "r_n": params.r_n,
        "long_range": check_long_range(plain, params),
        "simplified": check_simplified(plain, n, params.l_n),
        "short_range_m1": check_short_range(plain, n, 1, params.r_n),
        "short_range_m3": check_short_range(plain, n, 3, params.r_n),
    }


def loop_reference(model, n, l_n, r_n, m):
    """The three diagnostics as plain loops over (i, j, s) calling rho on one
    lag at a time."""
    d, log_n = model.d, math.log(n)
    long_terms, short_terms, simplified = [], [], 0.0
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            peak = 0.0
            for s in range(l_n, n + 1):
                r = float(model.rho(np.array([s]), n)[0, i - 1, j - 1]) if s <= model.max_lag else 0.0
                if r != 0.0:
                    long_terms.append(berman_term(r, n))
                peak = max(peak, abs(r))
            simplified += peak
            for s in range(m, r_n + 1):
                r = float(model.rho(np.array([s]), n)[0, i - 1, j - 1]) if s <= model.max_lag else 0.0
                short_terms.append(
                    n ** (-(1.0 - r) / (1.0 + r)) * log_n ** (-r / (1.0 + r)) / math.sqrt(1.0 - r * r)
                )
    return (n * n / r_n) * math.fsum(long_terms), math.fsum(short_terms), log_n * simplified


@pytest.mark.parametrize("name", ["geometric", "hr", "tabulated", "log-decay"])
def test_checkers_equal_loop_reference(name):
    model = {
        "geometric": geometric_model(3, 0.7, -0.2),
        "hr": hr_family(DeltaSpec.from_entries(2, {(1, 2, 0): 1.0, (1, 1, 1): 3.0, (1, 2, 2): 4.0})),
        "tabulated": tabulated_model(2, {(1, 1, 1): 0.4, (1, 2, 2): -0.3}),
        "log-decay": CorrelationModel(
            d=1,
            rho=lambda lags, n: np.where(lags >= 1, 1.0 / math.log(n), 1.0)[:, None, None],
            max_lag=math.inf,
        ),
    }[name]
    for n in (100, 3000):
        p = BlockParameters.from_exponents(n, 0.3, 0.6)
        for m in (1, 2):
            expect = loop_reference(model, n, p.l_n, p.r_n, m)
            got = (
                check_long_range(model, p),
                check_short_range(model, n, m, p.r_n),
                check_simplified(model, n, p.l_n),
            )
            assert got == expect


def test_checkers_reject_asymmetric_model():
    # rho_12 != rho_21: no covariance has these correlations
    model = CorrelationModel(
        d=2,
        rho=lambda lags, n: np.where(
            (lags[:, None, None] == 0) & np.eye(2, dtype=bool),
            1.0,
            np.array([[0.2, 0.1], [0.2, 0.2]]) * 0.5 ** lags[:, None, None],
        ),
        max_lag=6,
    )
    p = BlockParameters(n=100, l_n=2, r_n=10)
    for check in (
        lambda: check_long_range(model, p),
        lambda: check_short_range(model, 100, 1, 10),
        lambda: check_simplified(model, 100, 2),
        lambda: condition_row(model, 100, 0.4, 0.6, [1]),
    ):
        with pytest.raises(ValueError, match="not symmetric"):
            check()


def test_checkers_name_a_non_finite_correlation():
    # NaN is unequal to itself, so a symmetry test alone would blame (i, j)
    model = CorrelationModel(
        d=1, rho=lambda lags, n: np.where(lags == 3, math.nan, 0.5**lags)[:, None, None], max_lag=6
    )
    with pytest.raises(ValueError, match=r"non-finite rho at \(i, j, k\) = \(1, 1, 3\)"):
        check_simplified(model, 100, 2)
    with pytest.raises(ValueError, match="non-finite"):
        lag_table(model, range(1, 7), 100)

