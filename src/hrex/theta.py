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

The covariance is filled and factored when the constraint set is built,
by a Cholesky that keeps the slot order also when the covariance is
singular.
Given W, every row holds exactly when A <= 2 m(W), m(W) the least
bound - sqrt(delta) W over the rows, so the exponential integrates out:

    theta_i(x) = E[ 1 - exp(-2 max(m(W), 0)) ],

and the Monte Carlo estimate draws only W, through the factor.  When no
row reads W, m is the least bound and the coefficient is exact; with no
row at all it is 1 and the corresponding margin is pure Gumbel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .correlation import DeltaSpec
from .errors import DegenerateDelta, InvalidDeltaSpec
from .norming import std_normal_cdf
from .rng import RngKey, run_parts, standard_normal

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
_TILE = 1 << 13  # columns of a part's slack tile, which divides _BATCH
# smallest part of a split estimate, in normals (q * samples): on 2 cores,
# alternated in one process, two parts of 2^17 ran from 21 % faster to 10 %
# slower than one, and two of 2^18 14-30 % faster
_PART_VALUES = 1 << 18


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
    _check_integer(max_lag, "max_lag")
    if max_lag < 0:
        raise ValueError("need truncation lag >= 0")
    return int(max_lag)


def _check_integer(value, name: str) -> None:
    # a bool or a float would pass the range checks and be cut to an int
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (name, value))


def build_constraints(
    spec: DeltaSpec, x: Sequence[float], i: int, max_lag: int | None = None
) -> ConstraintSet:
    """Constraint rows, W slots and W covariance defining theta_i(x), taken
    from spec.table(max_lag) by array indexing as the module docstring
    describes; the covariance is then factored.  Coefficients that no
    Gaussian array realises raise InvalidDeltaSpec: a cross coefficient
    that is infinite between two slots, or a covariance that _factor
    finds is not PSD.
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
    """Lower Cholesky factor of the W covariance.  When LAPACK finds a
    singular matrix, the same factorisation runs without pivoting, in slot
    order: a zero pivot leaves a zero column, so the factor of a leading
    block is the leading block of the factor, as for a nonsingular matrix.
    A pivot below -1e-10 * (number of slots), or an entry beside a zero
    pivot above the square root of that (a PSD matrix with unit diagonal
    keeps it below), rejects the matrix as not PSD."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        pass
    tol = _PSD_TOL * len(matrix)
    factor = np.zeros_like(matrix)
    for r in range(len(matrix)):
        for c in range(r + 1):
            residual = matrix[r, c] - factor[r, :c] @ factor[c, :c]
            if c < r and factor[c, c] > 0.0:
                factor[r, c] = residual / factor[c, c]
            elif c == r and residual > tol:
                factor[r, r] = math.sqrt(residual)
            elif residual < -tol if c == r else abs(residual) > math.sqrt(tol):
                raise InvalidDeltaSpec(
                    "constraint covariance for component %d is not PSD (residual %.3e at W slots"
                    " %d, %d); the coefficient spec is inconsistent" % (i, residual, r + 1, c + 1)
                )
    return factor


def estimate_theta(cs: ConstraintSet, *, samples: int, key: RngKey) -> ThetaEstimate:
    """Estimate of P(A/2 + scale * W[column] <= bound for every row) as the
    mean of 1 - exp(-2 max(m(W), 0)) (see the module docstring).

    When no row reads W the value is exact and the standard error 0.
    Otherwise each row's slack bound - scale * W[column] is bound +
    loading @ z, with z standard normal and a zero loading for a pure-A row;
    batch b of 2^16 samples draws its (q, b) block of z, a row per W slot,
    from substream key.child(b).  The standard error is the per-sample
    probabilities' standard deviation over sqrt(samples).  An estimate of
    at least 2^19 normals splits its batches into up to one part per CPU,
    with the same bits.  samples must be a positive integer (not a bool).
    This is the one-set case of theta_for_spec's estimate of two sets on
    the same draws.
    """
    return _estimate((cs,), samples, key)[0]


def _estimate(
    sets: Sequence[ConstraintSet], samples: int, key: RngKey, threads: int | None = None
) -> list[ThetaEstimate]:
    """estimate_theta of each set, all read from one draw per batch: batch b
    draws a (q, b) block of z from key.child(b), q the most W slots of any
    set that reads W, and each set reads its leading len(cs.indices) rows.
    An estimate of at least 2 * _PART_VALUES normals (q * samples) splits
    its batches into contiguous ranges, up to one per CPU and at most
    `threads` (None: no bound), on hrex.rng.run_parts.  Each part draws its
    batches and reduces them to per-batch means and squared deviations; the
    caller combines those in batch order, so any split gives the same bits.
    A set's estimate is the one it gets alone on the same key."""
    _check_integer(samples, "samples")
    if samples < 1:
        raise ValueError("need at least one sample")
    loadings = [None if (cs.rows.column < 0).all() else -cs.rows.scale[:, None] * cs.factor[cs.rows.column]
                for cs in sets]
    q = max((len(cs.indices) for cs, loading in zip(sets, loadings) if loading is not None), default=0)
    rows = max((len(loading) for loading in loadings if loading is not None), default=0)
    sizes = [min(_BATCH, samples - start) for start in range(0, samples if q else 0, _BATCH)]
    # per set and batch: the batch mean, and the squared deviations from it
    means, squares = np.zeros((2, len(sets), len(sizes)))

    def work(first: int, stop: int) -> None:
        # one draw, p and slack tile per part, reused by its batches: buffers
        # allocated per batch on pool threads stay in glibc's per-thread arenas
        draw, p = np.empty(q * sizes[first]), np.empty(sizes[first])
        slack_buffer = np.empty(rows * max(map(_tile, sizes[first:stop])))
        for batch_index in range(first, stop):
            b = sizes[batch_index]
            z = standard_normal(key.child(batch_index), (q, b), out=draw[: q * b].reshape(q, b))
            batch_p, w = p[:b], _tile(b)
            for n, (cs, loading) in enumerate(zip(sets, loadings)):
                if loading is None:
                    continue
                # m(W) tile by tile: each column's slack is bound + loading @ z
                slack = slack_buffer[: len(loading) * w].reshape(-1, w)
                for c in range(0, b, w):
                    np.matmul(loading, z[: len(cs.indices), c : c + w], out=slack)
                    slack += cs.rows.bound[:, None]
                    slack.min(axis=0, out=batch_p[c : c + w])
                np.maximum(batch_p, 0.0, out=batch_p)
                batch_p *= -2.0
                np.expm1(batch_p, out=batch_p)
                np.negative(batch_p, out=batch_p)
                means[n, batch_index] = batch_p.mean()
                batch_p -= means[n, batch_index]
                squares[n, batch_index] = np.square(batch_p, out=batch_p).sum()

    if sizes:
        run_parts(len(sizes), min(len(sizes) if threads is None else threads, q * samples // _PART_VALUES), work)
    counts = np.array(sizes)
    out = []
    for cs, loading, batch_means, batch_squares in zip(sets, loadings, means, squares):
        if loading is None:
            value = -math.expm1(-2.0 * max(cs.rows.bound.min(initial=math.inf), 0.0))
            out.append(ThetaEstimate(value, 0.0, samples, cs.truncation_lag))
            continue
        value = float(counts @ batch_means) / samples
        square = 0.0
        for s in batch_squares.tolist():  # one float add at a time: sum() compensates from Python 3.12
            square += s
        square += float(counts @ np.square(batch_means - value))
        out.append(ThetaEstimate(value, math.sqrt(square) / samples, samples, cs.truncation_lag))
    return out


def _tile(b: int) -> int:
    """Columns of each slack product in a batch of b samples: _TILE when b
    is a whole number of tiles, else b.  OpenBLAS computes the last columns
    of a product whose width is not a multiple of its unroll with other
    kernels for small products than for large ones, so only a batch cut
    into whole tiles gives the bits of one product over the batch."""
    return _TILE if b % _TILE == 0 else b


def theta_for_spec(
    spec: DeltaSpec,
    x: Sequence[float],
    i: int,
    samples: int,
    key: RngKey,
    max_lag: int | None = None,
    threads: int | None = None,
) -> tuple[ThetaEstimate, TruncationGap | None]:
    """Estimate theta_i(x) straight from a coefficient spec.

    When the supplied truncation lag cuts finite coefficients off (always
    the case for infinite-horizon specs), the estimate is repeated at
    twice the lag and the gap between the two is reported so the caller
    can judge the truncation error.  Both constraint sets are estimated
    from one draw per batch: the doubled lag's leading W slots are the
    shorter lag's, on the same normals and with the same factor block, so
    each sample's event can only shrink and the gap measures the
    truncation, not Monte Carlo noise.  Each estimate is byte-identical to
    estimate_theta of its set on the same key.  An estimate of at least
    2^19 normals (W slots times samples) splits its batches across at most
    `threads` parts (None: one per CPU), each drawing and reducing whole
    batches, with the same bits.  samples and max_lag must be integers
    (not bools).
    """
    lag = _resolve_lag(spec, max_lag)
    cs = build_constraints(spec, x, i, lag)
    if lag >= spec.finite_horizon:
        return _estimate((cs,), samples, key, threads)[0], None
    doubled = max(2 * lag, 1)
    estimate, second = _estimate((cs, build_constraints(spec, x, i, doubled)), samples, key, threads)
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
