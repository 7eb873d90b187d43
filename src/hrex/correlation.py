"""Correlation models for Gaussian triangular arrays and their
asymptotic dependence coefficients.

A row of the array holds n stationary d-dimensional Gaussian vectors
whose correlations may change with n.  The dependence that survives in
the extreme-value limit is captured by

    delta_ij(k) = lim_n (1 - rho_ij(k, n)) * log n,

taking values in (0, inf] for lags k >= 1 and [0, inf] for lag 0.
A DeltaSpec records these limits; hr_family turns one back into the
canonical correlation model rho_ij(k, n) = 1 - delta_ij(k) / log n.

The module owns the lag table: lag_table(model, lags, n) is the only
reader of model.rho, the only place that cuts correlations to
0 beyond model.max_lag, and the only (i, j) symmetry check.  The samplers
and the diagnostics read correlations through it.  Its counterpart for
coefficients is DeltaSpec.table(K), the (K+1, d, d) array of delta_ij(k)
from which the extremal-coefficient constraint sets are built.

The module also evaluates the three summability diagnostics that a model
must satisfy for the limit theorem to apply: a long-range sum built from
Berman's inequality, a short-range sum over small lags, and a simplified
single-line criterion that implies both when it holds.  Each is a
reduction over a window of the lag table; condition_row builds one table
per n and reads all three (for every short-range start m) from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import InvalidDeltaSpec

__all__ = [
    "DeltaSpec",
    "CorrelationModel",
    "BlockParameters",
    "DeltaEstimate",
    "hr_family",
    "iid_model",
    "tabulated_model",
    "geometric_model",
    "constant_model",
    "estimate_delta",
    "berman_term",
    "check_long_range",
    "check_short_range",
    "check_simplified",
    "condition_row",
    "lag_table",
]


def _canonical(i: int, j: int, k: int) -> tuple[int, int, int]:
    return (i, j, k) if i <= j else (j, i, k)


def _validate_index(d: int, i: int, j: int, k: int) -> None:
    if not (1 <= i <= d and 1 <= j <= d):
        raise InvalidDeltaSpec("component indices must lie in 1..%d, got (%d, %d)" % (d, i, j))
    if k < 0:
        raise InvalidDeltaSpec("need lag k >= 0, got %d" % k)


def _validate_value(i: int, j: int, k: int, value: float) -> float:
    value = float(value)
    if math.isnan(value):
        raise InvalidDeltaSpec("delta(%d,%d,%d) is NaN" % (i, j, k))
    if value < 0:
        raise InvalidDeltaSpec("delta(%d,%d,%d) = %g is negative" % (i, j, k, value))
    if i == j and k == 0 and value != 0.0:
        raise InvalidDeltaSpec("delta(i,i,0) must be 0, got %g" % value)
    if k >= 1 and value == 0.0:
        raise InvalidDeltaSpec(
            "delta(%d,%d,%d) = 0 at positive lag is rejected: it would assert a"
            " component pair that stays fully dependent across time" % (i, j, k)
        )
    return value


@dataclass(frozen=True)
class DeltaSpec:
    """Limiting dependence coefficients delta_ij(k) of a triangular array.

    delta(i, j, k) is symmetric in (i, j), equals 0 at (i, i, 0), and is
    infinite wherever nothing else is recorded.  finite_horizon is the
    largest lag carrying any finite coefficient; it is what bounds the
    constraint sets used for extremal-coefficient estimation.
    """

    d: int
    entries: Mapping[tuple[int, int, int], float]
    finite_horizon: float = 0
    func: Callable[[int, int, int], float] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise InvalidDeltaSpec("need dimension d >= 1")
        canon = {}
        for (i, j, k), value in self.entries.items():
            _validate_index(self.d, i, j, k)
            key = _canonical(i, j, k)
            value = _validate_value(*key, value)
            if key in canon and canon[key] != value:
                raise InvalidDeltaSpec("conflicting values for delta%s" % (key,))
            canon[key] = value
        object.__setattr__(self, "entries", canon)
        if self.func is None:
            horizon = max((k for (_, _, k), v in canon.items() if math.isfinite(v)), default=0)
            object.__setattr__(self, "finite_horizon", horizon)

    @classmethod
    def from_entries(cls, d: int, entries: Mapping[tuple[int, int, int], float]) -> "DeltaSpec":
        return cls(d=d, entries=dict(entries))

    @classmethod
    def from_function(
        cls, d: int, func: Callable[[int, int, int], float], finite_horizon: float
    ) -> "DeltaSpec":
        """Programmatic spec; finite_horizon may be math.inf, in which case
        extremal-coefficient estimation requires an explicit truncation lag."""
        if finite_horizon < 0:
            raise InvalidDeltaSpec("need finite_horizon >= 0")
        return cls(d=d, entries={}, finite_horizon=finite_horizon, func=func)

    def delta(self, i: int, j: int, k: int) -> float:
        _validate_index(self.d, i, j, k)
        return float(self.table(k)[k, i - 1, j - 1])

    def table(self, max_lag: int) -> np.ndarray:
        """table[k, i-1, j-1] = delta_ij(k) for lags k = 0..max_lag.

        This is the only reader of entries and func: each (i <= j, k) off
        the lag-0 diagonal is read once, a func value checked by
        _validate_value, and mirrored into (j, i, k).
        """
        table = np.zeros((max_lag + 1, self.d, self.d))
        for k in range(max_lag + 1):
            for i in range(1, self.d + 1):
                for j in range(i + (k == 0), self.d + 1):
                    value = (self.entries.get((i, j, k), math.inf) if self.func is None
                             else _validate_value(i, j, k, self.func(i, j, k)))
                    table[k, i - 1, j - 1] = table[k, j - 1, i - 1] = value
        return table

    def to_jsonable(self) -> dict:
        if self.func is not None:
            raise InvalidDeltaSpec("a spec built from a function has no JSON form")
        items = [
            {"i": i, "j": j, "k": k, "delta": (v if math.isfinite(v) else "inf")}
            for (i, j, k), v in sorted(self.entries.items())
        ]
        return {"d": self.d, "entries": items, "default": "inf"}

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "DeltaSpec":
        if not isinstance(obj, Mapping):
            raise InvalidDeltaSpec("a coefficient spec must be a JSON object, got %r" % (obj,))
        if obj.get("default", "inf") != "inf":
            raise InvalidDeltaSpec("only default 'inf' is supported")
        items = obj.get("entries", [])
        if type(obj.get("d")) is not int or not isinstance(items, list):
            raise InvalidDeltaSpec("need an integer field 'd' and a list field 'entries'")
        entries = {}
        for item in items:
            try:
                key = (item["i"], item["j"], item["k"])
                raw = item["delta"]
            except (KeyError, TypeError):
                raise InvalidDeltaSpec("each entry needs fields i, j, k, delta")
            if not all(type(v) is int for v in key):
                raise InvalidDeltaSpec("entry %r: i, j and k must be integers" % (item,))
            if raw != "inf" and type(raw) not in (int, float):
                raise InvalidDeltaSpec("entry %r: delta must be a number or 'inf'" % (item,))
            value = math.inf if raw == "inf" else float(raw)
            if entries.get(key, value) != value:
                raise InvalidDeltaSpec("entry %r: conflicting value for delta%s" % (item, key))
            entries[key] = value
        return cls.from_entries(obj["d"], entries)


@dataclass(frozen=True)
class CorrelationModel:
    """Stationary cross-correlation function of one array row.

    rho(lags, n)[a, i-1, j-1] gives Corr(X_s^(i), X_{s+k}^(j)), k = lags[a],
    in the row of size n; it is symmetric in (i, j), equals 1 at (i, i, 0),
    and vanishes for lags beyond max_lag (which may be math.inf).  A model
    may declare a separable AR(1) row, rho(k, n) = ar1_rate(n)^k rho(0, n)
    with |ar1_rate(n)| < 1, which the samplers check at lags 1 and 2 before
    they use it.
    """

    d: int
    rho: Callable[[np.ndarray, float], np.ndarray] = field(repr=False)
    max_lag: float
    name: str = "custom"
    delta_spec: DeltaSpec | None = field(default=None, repr=False)
    ar1_rate: Callable[[float], float] | None = field(default=None, repr=False)


def hr_family(spec: DeltaSpec) -> CorrelationModel:
    """Canonical model with rho_ij(k, n) = 1 - delta_ij(k) / log n.

    Infinite coefficients map to correlation 0.  At sample sizes small
    enough that the formula would fall below -1 the value is clamped to
    -1 + 1e-9; only the n -> infinity behaviour is prescribed, so the
    clamp does not affect any limit.
    """

    def rho(lags: np.ndarray, n: float) -> np.ndarray:
        if n < 2:
            raise ValueError("need sample size n >= 2")
        delta = spec.table(int(lags.max(initial=0)))[lags]
        return np.where(np.isinf(delta), 0.0, np.maximum(1.0 - delta / math.log(n), -1.0 + 1e-9))

    return CorrelationModel(
        d=spec.d, rho=rho, max_lag=spec.finite_horizon, name="hr", delta_spec=spec
    )


def iid_model(d: int) -> CorrelationModel:
    return replace(constant_model(d, 0.0), max_lag=0, name="iid")


def tabulated_model(d: int, table: Mapping[tuple[int, int, int], float]) -> CorrelationModel:
    """Correlations given by a finite lookup table, constant in n.

    Missing entries are 0; (i, i, 0) is fixed at 1 and must not be
    overridden with anything else.  (i, j, k) and (j, i, k) name one
    correlation, so both may be given only with the same value.
    """
    canon = {(i, i, 0): 1.0 for i in range(1, d + 1)}
    for (i, j, k), value in table.items():
        _validate_index(d, i, j, k)
        value = float(value)
        if not -1.0 <= value <= 1.0 or math.isnan(value):
            raise ValueError("correlation rho(%d,%d,%d) = %g outside [-1, 1]" % (i, j, k, value))
        if i == j and k == 0 and value != 1.0:
            raise ValueError("rho(i,i,0) is 1 by definition")
        a, b, k = key = _canonical(i, j, k)
        if canon.get(key, value) != value:
            raise ValueError("conflicting values %g and %g for rho(%d,%d,%d) = rho(%d,%d,%d)"
                             % (canon[key], value, a, b, k, b, a, k))
        canon[key] = value
    max_lag = max((k for (_, _, k), v in canon.items() if v != 0.0), default=0)
    # dense[k] for k <= max_lag, and the zero block dense[max_lag + 1] for the rest
    dense = np.zeros((max_lag + 2, d, d))
    for (i, j, k), value in canon.items():
        if k <= max_lag:
            dense[k, i - 1, j - 1] = dense[k, j - 1, i - 1] = value

    def rho(lags: np.ndarray, n: float) -> np.ndarray:
        return dense[np.minimum(lags, max_lag + 1)]

    return CorrelationModel(d=d, rho=rho, max_lag=max_lag, name="tabulated")


def geometric_model(d: int, rate: float, cross: float = 0.0) -> CorrelationModel:
    """Geometrically decaying correlations rho_ij(k) = c_ij * rate^k with
    c_ii = 1 and c_ij = cross off the diagonal: a separable AR(1) row, which
    the model declares.

    The cross matrix must be positive semidefinite, which for the
    equicorrelated form means cross in (-1/(d-1), 1]; together with
    |rate| < 1 the whole space-time covariance is then PSD (its spectral
    density factorises into the AR(1) spectrum times the cross matrix).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("need decay rate in [0, 1)")
    if d > 1 and not (-1.0 / (d - 1) < cross <= 1.0):
        raise ValueError("need cross-correlation in (-1/(d-1), 1]")

    base = np.where(np.eye(d, dtype=bool), 1.0, cross)
    # rate**k underflows to 0.0 at k = zero_from and stays 0.0 beyond, so only
    # lags below it are evaluated: 0.6**k is 0.0 from k = 1459, and a
    # circulant plan at L = 1e5 asks for 102,401 lags
    zero_from = 1 if rate == 0.0 else math.ceil(-1075.0 / math.log2(rate))
    while zero_from > 1 and rate ** (zero_from - 1) == 0.0:
        zero_from -= 1
    while rate**zero_from != 0.0:
        zero_from += 1

    def rho(lags: np.ndarray, n: float) -> np.ndarray:
        powers = np.zeros(len(lags))
        live = np.flatnonzero(lags < zero_from)
        # Python's pow: numpy's SIMD power can differ in the last bit, by CPU
        powers[live] = np.fromiter((rate**k for k in lags[live].tolist()), float, count=len(live))
        return base * powers[:, None, None]

    return CorrelationModel(d=d, rho=rho, max_lag=(0 if rate == 0.0 else math.inf), name="geometric",
                            ar1_rate=lambda n: rate)


def constant_model(d: int, rho_value: float) -> CorrelationModel:
    """Equicorrelated model: rho_ij(k) = rho_value everywhere except the
    unit diagonal at lag 0.  PSD for rho_value in [0, 1) since the
    covariance is (1 - rho) I + rho J over all space-time indices.  A
    fixed correlation never satisfies the mixing conditions, which is the
    point: it is the stock counterexample for the condition checkers.
    """
    if not 0.0 <= rho_value < 1.0:
        raise ValueError("need constant correlation in [0, 1)")

    def rho(lags: np.ndarray, n: float) -> np.ndarray:
        return np.where((lags[:, None, None] == 0) & np.eye(d, dtype=bool), 1.0, rho_value)

    return CorrelationModel(d=d, rho=rho, max_lag=math.inf, name="constant")


@dataclass(frozen=True)
class DeltaEstimate:
    value: float
    max_successive_diff: float
    diverged: bool


def estimate_delta(
    model: CorrelationModel,
    i: int,
    j: int,
    k: int,
    n_grid: Iterable[float],
    divergence_threshold: float = 1e6,
) -> DeltaEstimate:
    """Numerical probe of delta_ij(k) = lim (1 - rho_ij(k, n)) log n.

    Evaluates the sequence on the given sample-size grid and returns its
    last value together with the largest successive difference.  The
    estimate is reported as infinity when the sequence ends above the
    divergence threshold while still increasing over its last three grid
    points; that pattern distinguishes genuine divergence from slow
    convergence to a finite value.
    """
    grid = [float(n) for n in n_grid]
    if len(grid) < 3:
        raise ValueError("need at least three grid points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("need a strictly increasing n grid")
    if grid[0] <= 1.0:
        raise ValueError("need sample sizes > 1")
    _validate_index(model.d, i, j, k)
    rho = [lag_table(model, range(k, k + 1), n)[0, i - 1, j - 1] for n in grid]
    seq = [float((1.0 - r) * math.log(n)) for r, n in zip(rho, grid)]
    diffs = [abs(b - a) for a, b in zip(seq, seq[1:])]
    diverged = seq[-1] > divergence_threshold and seq[-3] < seq[-2] < seq[-1]
    return DeltaEstimate(
        value=math.inf if diverged else seq[-1],
        max_successive_diff=max(diffs),
        diverged=diverged,
    )


def berman_term(rho: float, n: float) -> float:
    """One summand of the long-range diagnostic,

        |rho| * exp(-(2 log n - log log n) / (1 + |rho|)).

    Needs |rho| < 1 and n >= 3.
    """
    if math.isnan(rho) or not abs(rho) < 1.0:
        raise ValueError("need |rho| < 1")
    if n < 3:
        raise ValueError("need n >= 3")
    r = abs(rho)
    if r == 0.0:
        return 0.0
    return r * math.exp(-(2.0 * math.log(n) - math.log(math.log(n))) / (1.0 + r))


@dataclass(frozen=True)
class BlockParameters:
    """Block sizes for the long/short-range split: 1 <= l_n < r_n <= n,
    with q_n = floor(n / r_n) blocks."""

    n: int
    l_n: int
    r_n: int
    q_n: int = field(init=False)

    def __post_init__(self):
        if not 1 <= self.l_n < self.r_n <= self.n:
            raise ValueError("need 1 <= l_n < r_n <= n")
        object.__setattr__(self, "q_n", self.n // self.r_n)

    @classmethod
    def from_exponents(cls, n: int, l_exp: float, r_exp: float) -> "BlockParameters":
        """l_n = max(1, floor(n^l_exp)) and r_n = min(n, max(l_n + 1, floor(n^r_exp)))."""
        l_n = max(1, int(n**l_exp))
        return cls(n=n, l_n=l_n, r_n=min(n, max(l_n + 1, int(n**r_exp))))


def lag_table(model: CorrelationModel, lags: range, n: float) -> np.ndarray:
    """table[a, i, j] = rho_{i+1, j+1}(lags[a], n) over an increasing range
    of lags.

    This is the only reader of model.rho, which it calls once, on the lags
    up to model.max_lag; the others read 0 without a call.  A model with a
    non-finite correlation or one that is not symmetric in (i, j) is
    rejected.
    """
    top = lags.stop if math.isinf(model.max_lag) else min(lags.stop, int(model.max_lag) + 1)
    called = np.arange(lags.start, top, lags.step)
    table = np.zeros((len(lags), model.d, model.d))
    if len(called):
        table[: len(called)] = model.rho(called, n)
    if not np.isfinite(table).all():
        a, i, j = np.argwhere(~np.isfinite(table))[0]
        raise ValueError(
            "correlation model gives a non-finite rho at (i, j, k) = (%d, %d, %d)"
            % (i + 1, j + 1, lags[a])
        )
    if not np.allclose(table, np.swapaxes(table, 1, 2), atol=1e-14):
        raise ValueError("correlation model is not symmetric in (i, j)")
    return table


def _long_range(window: np.ndarray, n: int, r_n: int) -> float:
    terms = [berman_term(r, n) for r in window[window != 0.0].tolist()]
    return (n * n / r_n) * math.fsum(terms)


def _short_range(window: np.ndarray, n: int) -> float:
    log_n = math.log(n)
    terms = []
    for r in window.ravel().tolist():
        if not abs(r) < 1.0:
            raise ValueError("need |rho| < 1 in the short-range sum")
        try:
            term = n ** (-(1.0 - r) / (1.0 + r)) * log_n ** (-r / (1.0 + r)) / math.sqrt(1.0 - r * r)
        except OverflowError:  # r near -1: the power overflows, the term underflows
            term = math.exp(-((1.0 - r) * log_n + r * math.log(log_n)) / (1.0 + r) - 0.5 * math.log1p(-r * r))
        terms.append(term)
    return math.fsum(terms)


def _simplified(window: np.ndarray, n: int) -> float:
    total = 0.0
    for peak in np.abs(window).max(axis=0, initial=0.0).ravel().tolist():
        total += peak
    return math.log(n) * total


def check_long_range(model: CorrelationModel, params: BlockParameters) -> float:
    """Long-range dependence sum

        (n^2 / r_n) * sum_{i,j} sum_{s=l_n}^{n} berman_term(rho_ij(s, n), n).

    Zero correlations (every lag beyond model.max_lag) contribute nothing.
    """
    table = lag_table(model, range(params.l_n, params.n + 1), params.n)
    return _long_range(table, params.n, params.r_n)


def _check_short_args(n: int, m: int, r_n: int) -> None:
    if m < 1 or r_n < 1:
        raise ValueError("need m >= 1 and r_n >= 1")
    if n < 2:
        raise ValueError("need n >= 2")


def check_short_range(model: CorrelationModel, n: int, m: int, r_n: int) -> float:
    """Short-range dependence sum

        sum_{i,j} sum_{s=m}^{r_n} n^{-(1-rho)/(1+rho)}
                                  * (log n)^{-rho/(1+rho)} / sqrt(1-rho^2)

    with rho = rho_ij(s, n).  Infinite left endpoints of the double limit
    are probed by increasing m; each rho = 0 term contributes exactly 1/n,
    and m > r_n gives an empty sum.
    """
    _check_short_args(n, m, r_n)
    return _short_range(lag_table(model, range(m, r_n + 1), n), n)


def check_simplified(model: CorrelationModel, n: int, l_n: int) -> float:
    """Single-line criterion log n * sum_{i,j} max_{l_n <= k <= n} |rho_ij(k, n)|.

    When this tends to 0 along n (for some l_n = o(n)) the long-range
    condition holds automatically and only small lags remain to check.
    """
    if not 1 <= l_n <= n:
        raise ValueError("need 1 <= l_n <= n")
    return _simplified(lag_table(model, range(l_n, n + 1), n), n)


def condition_row(
    model: CorrelationModel, n: int, l_exp: float, r_exp: float, m_list: list[int]
) -> dict:
    """All three diagnostics at one n, read from one lag table.

    Block sizes come from BlockParameters.from_exponents; the row holds n,
    l_n, r_n, long_range, simplified and short_range_m<m> for each m.
    """
    params = BlockParameters.from_exponents(n, l_exp, r_exp)
    for m in m_list:
        _check_short_args(n, m, params.r_n)
    first = min([params.l_n, *m_list])
    table = lag_table(model, range(first, n + 1), n)
    tail = table[params.l_n - first :]
    row = {
        "n": n,
        "l_n": params.l_n,
        "r_n": params.r_n,
        "long_range": _long_range(tail, n, params.r_n),
        "simplified": _simplified(tail, n),
    }
    for m in m_list:
        row["short_range_m%d" % m] = _short_range(table[m - first : params.r_n - first + 1], n)
    return row
