"""Extremal coefficients of the Gaussian-array limit law.

The limit CDF at levels x = (x_1, ..., x_d) is exp(-sum_i theta_i(x) e^-x_i),
where each coefficient is a Gaussian orthant-type probability

    theta_i(x) = P( A/2 + sqrt(delta) * W  <=  delta + (x_t - x_i)/2
                    for every active constraint ),

with A ~ Exp(1) independent of a centred Gaussian vector W.

All of theta_i(x) is read from one table D = spec.table(K), with
D[ell, t, j] = delta_tj(ell).  Its column delta_ti(ell) decides two things:

- a finite positive delta is a W slot, indexed k = ell + 1 and t;
- a finite delta is a constraint row when ell >= 1 or t < i.  At lag 0
  only the components numbered below the target enter, which is what
  removes double counting of simultaneous exceedances.  A zero lag-0
  coefficient gives a pure-A row (the Gaussian part drops out); zero
  coefficients at positive lags are rejected upstream.

The rows form a record array with fields column (the W slot read, or -1
for a pure-A row), scale = sqrt(delta) and bound.  Lag-0 slots with t > i
carry no row but stay in W, so the validity check of the covariance sees
every finite pair.  The W entries have unit variance and

    Cov(W_{k}^{(j)}, W_{l}^{(t)}) =
        (delta_ji(k-1) + delta_ti(l-1) - D[|k-l|, j, t])
        / (2 sqrt(delta_ji(k-1) * delta_ti(l-1))).

The covariance is filled and factored when the constraint set is built.
Given W, every row holds exactly when A <= 2 m(W), m(W) the least
bound - sqrt(delta) W over the rows, so the exponential integrates out:

    theta_i(x) = E[ 1 - exp(-2 max(m(W), 0)) ],

and the Monte Carlo estimate draws only W, through the factor.  When no
row reads W, m is the least bound and the coefficient is exact; with no
row at all it is 1 and the corresponding margin is pure Gumbel.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .correlation import DeltaSpec
from .errors import DegenerateDelta, InvalidDeltaSpec
from .norming import std_normal_cdf
from .rng import RngKey, standard_normal

__all__ = [
    "ConstraintSet",
    "ThetaEstimate",
    "TruncationGap",
    "build_constraints",
    "estimate_theta",
    "theta_for_spec",
    "theta_oracle_single",
    "theta_oracle_single_trapezoid",
    "theta_bivariate_closed_form",
]

_PSD_TOL = 1e-10
_BATCH = 1 << 16


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Constraint rows of theta_i(x) and the W vector they read.

    rows is a record array with fields column, scale and bound, one record
    per row in lag-then-component order: the row reads
    A/2 + scale * W[column] <= bound, and column = -1 marks a pure-A row
    (zero lag-0 coefficient, scale 0).  indices lists the W slots as
    (k, t) pairs, k = lag + 1, in lag-then-component order; matrix is
    their covariance and factor satisfies factor @ factor.T == matrix.
    """

    target: int
    x: tuple[float, ...]
    rows: np.recarray
    truncation_lag: int
    indices: tuple[tuple[int, int], ...]
    matrix: np.ndarray
    factor: np.ndarray


@dataclass(frozen=True)
class ThetaEstimate:
    """A coefficient and its Monte Carlo standard error: the standard
    deviation of the per-sample conditional probabilities over sqrt(samples),
    0 for an exact value.  It never exceeds the binomial bound 0.5/sqrt(N)."""

    value: float
    std_error: float
    samples: int
    truncation_K: int

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("theta estimate outside [0, 1]")
        if self.std_error > 0.5 / math.sqrt(max(self.samples, 1)) + 1e-15:
            raise ValueError("std_error exceeds the binomial bound")

    def to_jsonable(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TruncationGap:
    lag: int
    lag_doubled: int
    value: float
    value_doubled: float
    gap: float


def _resolve_lag(spec: DeltaSpec, max_lag: int | None) -> int:
    if max_lag is None:
        if not math.isfinite(spec.finite_horizon):
            raise ValueError(
                "spec has no finite horizon; supply an explicit truncation lag"
            )
        return int(spec.finite_horizon)
    if max_lag < 0:
        raise ValueError("need truncation lag >= 0")
    return int(max_lag)


def build_constraints(
    spec: DeltaSpec, x: Sequence[float], i: int, max_lag: int | None = None
) -> ConstraintSet:
    """Constraint rows, W slots and W covariance defining theta_i(x), taken
    from spec.table(max_lag) by array indexing as the module docstring
    describes; the covariance is then factored.  Coefficients that no
    Gaussian array realises raise InvalidDeltaSpec: a cross coefficient
    that is infinite between two slots, or a covariance whose smallest
    eigenvalue is below -1e-10 * (number of slots).
    """
    if len(x) != spec.d:
        raise ValueError("need one level per component")
    if any(math.isnan(v) or math.isinf(v) for v in x):
        raise ValueError("need finite levels x")
    if not 1 <= i <= spec.d:
        raise ValueError("target component out of range")
    max_lag = _resolve_lag(spec, max_lag)
    table = spec.table(max_lag)
    column = table[:, :, i - 1]
    finite = np.isfinite(column)
    lag, t = np.nonzero(finite & (column > 0.0))
    slot = np.full(column.shape, -1)
    slot[lag, t] = np.arange(len(lag))
    finite[0, i - 1 :] = False
    row_lag, row_t = np.nonzero(finite)
    values = column[row_lag, row_t]
    levels = np.asarray(x, dtype=float)
    rows = np.rec.fromarrays(
        [slot[row_lag, row_t], np.sqrt(values), values + (levels[row_t] - levels[i - 1]) / 2.0],
        names="column,scale,bound",
    )
    # slot pairs a < b in row-major order; the first with an infinite cross
    # coefficient or a zero denominator is rejected
    deltas = column[lag, t]
    a, b = np.triu_indices(len(deltas), 1)
    gap = np.abs(lag[a] - lag[b])
    cross = table[gap, t[a], t[b]]
    denom = 2.0 * np.sqrt(deltas[a] * deltas[b])
    bad = np.flatnonzero(np.isinf(cross) | (denom == 0.0))
    if bad.size and math.isinf(cross[bad[0]]):
        p = bad[0]
        raise InvalidDeltaSpec(
            "delta(%d,%d,%d) is infinite but both endpoints sit at finite"
            " dependence distance from component %d; no Gaussian array"
            " realises these coefficients" % (t[a[p]] + 1, t[b[p]] + 1, gap[p], i)
        )
    if bad.size:
        raise DegenerateDelta("zero coefficient reached the W covariance")
    matrix = np.eye(len(deltas))
    matrix[a, b] = matrix[b, a] = (deltas[a] + deltas[b] - cross) / denom
    return ConstraintSet(
        target=i,
        x=tuple(x),
        rows=rows,
        truncation_lag=max_lag,
        indices=tuple(zip((lag + 1).tolist(), (t + 1).tolist())),
        matrix=matrix,
        factor=_factor(matrix, i),
    )


def _factor(matrix: np.ndarray, i: int) -> np.ndarray:
    """Cholesky factor, or for a singular matrix the eigen-factor with
    clipped eigenvalues; rejects a materially indefinite matrix."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(matrix)
    if w.min() < -_PSD_TOL * len(w):
        raise InvalidDeltaSpec(
            "constraint covariance for component %d is not PSD (min eigenvalue"
            " %.3e); the coefficient spec is inconsistent" % (i, w.min())
        )
    return v * np.sqrt(np.clip(w, 0.0, None))[None, :]


def estimate_theta(cs: ConstraintSet, *, samples: int, key: RngKey) -> ThetaEstimate:
    """Estimate of P(A/2 + scale * W[column] <= bound for every row) as the
    mean of 1 - exp(-2 max(m(W), 0)) (see the module docstring).

    When no row reads W the value is exact and the standard error 0.
    Otherwise each row's slack bound - scale * W[column] is bound +
    loading @ z, with z standard normal and a zero loading for a pure-A row;
    batch b draws its (q, b) block of z, a row per W slot, from substream
    key.child(b), so estimators sharing a key see the same z on their leading
    slots (common random numbers): theta_for_spec's doubled lag reads the
    shorter lag's slots, and factor block, on the same draws.  The standard
    error is the per-sample probabilities' standard deviation over sqrt(samples).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rows = cs.rows
    if (rows.column < 0).all():
        value = -math.expm1(-2.0 * max(rows.bound.min(initial=math.inf), 0.0))
        return ThetaEstimate(value, 0.0, samples, cs.truncation_lag)
    loading = -rows.scale[:, None] * cs.factor[rows.column]
    # squared deviations: from each batch's mean here, of the batch means below
    counts, means, squares = [], [], 0.0
    for batch_index, start in enumerate(range(0, samples, _BATCH)):
        b = min(_BATCH, samples - start)
        gen = key.child(batch_index).generator()
        slack = loading @ standard_normal(gen, (len(cs.indices), b))
        slack += rows.bound[:, None]
        p = -np.expm1(-2.0 * np.maximum(slack.min(axis=0), 0.0))
        del slack  # free the (rows, b) block before the next batch draws
        counts.append(b)
        means.append(p.mean())
        squares += float(np.square(p - means[-1]).sum())
    counts, means = np.array(counts), np.array(means)
    value = float(counts @ means) / samples
    squares += float(counts @ np.square(means - value))
    return ThetaEstimate(value, math.sqrt(squares) / samples, samples, cs.truncation_lag)


def theta_for_spec(
    spec: DeltaSpec,
    x: Sequence[float],
    i: int,
    samples: int,
    key: RngKey,
    max_lag: int | None = None,
) -> tuple[ThetaEstimate, TruncationGap | None]:
    """Estimate theta_i(x) straight from a coefficient spec.

    When the supplied truncation lag cuts finite coefficients off (always
    the case for infinite-horizon specs), the estimate is repeated at
    twice the lag and the gap between the two is reported so the caller
    can judge the truncation error.
    """
    lag = _resolve_lag(spec, max_lag)
    estimate = estimate_theta(build_constraints(spec, x, i, lag), samples=samples, key=key)
    if lag >= spec.finite_horizon:
        return estimate, None
    doubled = max(2 * lag, 1)
    second = estimate_theta(build_constraints(spec, x, i, doubled), samples=samples, key=key)
    gap = TruncationGap(
        lag=lag,
        lag_doubled=doubled,
        value=estimate.value,
        value_doubled=second.value,
        gap=abs(estimate.value - second.value),
    )
    return estimate, gap


def theta_oracle_single(delta: float, shift: float) -> float:
    """Single-constraint coefficient by adaptive quadrature:

        integral_0^inf  e^-a  Phi((b - a/2) / sqrt(delta))  da,
        b = delta + shift,

    evaluated to absolute error below 1e-9.  Requires finite delta > 0.
    """
    from scipy.integrate import quad  # only this oracle needs it; a run does not load it

    _check_oracle_args(delta, shift)
    b = delta + shift
    s = math.sqrt(delta)
    value, err = quad(
        lambda a: math.exp(-a) * float(ndtr((b - 0.5 * a) / s)),
        0.0,
        np.inf,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    if err > 1e-9:
        raise ArithmeticError("quadrature error estimate %g too large" % err)
    return float(value)


def theta_oracle_single_trapezoid(
    delta: float, shift: float, upper: float = 50.0, step: float = 1e-4
) -> float:
    """Same integral on the fixed grid [0, upper] with the trapezoid rule.

    Independent of the adaptive route; the truncated tail is below
    e^-upper.  The two oracles agreeing to 1e-7 is part of the
    verification contract.
    """
    _check_oracle_args(delta, shift)
    b = delta + shift
    s = math.sqrt(delta)
    a = np.arange(0.0, upper + step, step)
    f = np.exp(-a) * ndtr((b - 0.5 * a) / s)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(f, dx=step))


def _check_oracle_args(delta: float, shift: float) -> None:
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError("need finite delta > 0")
    if not math.isfinite(shift):
        raise ValueError("need finite shift")


def theta_bivariate_closed_form(lam: float, x1: float, x2: float) -> tuple[float, float]:
    """Coefficient pair reproducing the bivariate CDF H_lambda:

        theta_1 = Phi(sqrt(lam) + (x2 - x1) / (2 sqrt(lam))),
        theta_2 = Phi(sqrt(lam) + (x1 - x2) / (2 sqrt(lam))),

    so that exp(-theta_1 e^-x1 - theta_2 e^-x2) = H_lambda(x1, x2).
    The boundary branches return (1, 1) at lambda = infinity and the
    indicator-type pair at lambda = 0.
    """
    if math.isnan(lam) or lam < 0:
        raise ValueError("need lambda in [0, inf]")
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("need finite levels")
    if math.isinf(lam):
        return (1.0, 1.0)
    if lam == 0.0:
        if x1 == x2:
            return (0.5, 0.5)
        return (1.0, 0.0) if x1 < x2 else (0.0, 1.0)
    root = math.sqrt(lam)
    half = (x2 - x1) / (2.0 * root)
    return (std_normal_cdf(root + half), std_normal_cdf(root - half))
