"""Exact samplers for stationary Gaussian vector paths.

A path of length L from a d-dimensional model with correlations
rho_ij(k, n) has the block-Toeplitz covariance

    Sigma[(t-1)d + i, (s-1)d + j] = rho_ij(|t - s|, n),

indexed time-major.  One planner, `make_plan`, turns (model, L, n,
method, maxima) into a Plan: the normals a draw unit consumes, a transform
from them to paths, the floats per unit by which `iter_path_blocks` sizes
its batches, the route it took, the draw, `hrex.rng.standard_normal`, and
the paths per unit, 2 on a paired circulant plan and 1 elsewhere.  The
lag0, dense and banded routes return time-major (b, L, d) blocks, whose
rows `write_path` writes as they are; the ar1 route returns the
transposed view of a component-major (b, d, L) array, and the circulant
route gathers the windows it keeps of its irfft output into one such
array and returns its transposed view too.  `block_maxima` reduces either
layout over a contiguous time axis.  The five routes all read the lag
table rho_ij(k, n) of `hrex.correlation.lag_table`, which makes the cut
to 0 beyond model.max_lag.  Here max_lag only picks routes and bounds the
lags the banded route reads; the route follows the model's structure, not
the path length (past L = 1):

* lag0: models with max_lag = 0 (or length-1 paths) multiply each time
  point by one d x d factor;
* ar1 (method "cholesky"): models that declare a separable AR(1) row,
  rho(k, n) = a(n)^k rho(0, n), at any length: the Cholesky factor is an
  AR(1) recursion in time times the d x d factor of the lag-0 block, in
  O(L d^2) per path;
* banded: Cholesky, at any length, for models whose correlation vanishes
  beyond a finite max_lag (the band has width d*k + d - 1, k the last lag
  below L whose block is nonzero);
* dense: Schur factor of the block-Toeplitz lag table, for models with
  neither a finite max_lag nor an AR(1) row, L*d <= DENSE_CAP = 8192;
* circulant (method "circulant"): the lag table is wrapped onto a cycle
  of length m = 2 next_fast_len(L-1), the least even 5-smooth length with
  m >= 2(L-1), whose d x d spectral blocks are factored on the m/2 + 1
  non-negative frequencies; a cycle's m*d real normals are read as the
  spectrum of white noise, mixed by that factor and inverted by an
  in-place irfft.  When the table is 0 beyond a lag K, a cycle of
  m' = 2 next_fast_len(L + K) < 2m gives two independent paths instead,
  its points [0, L) and [m'/2, m'/2 + L) (Davies & Harte 1987 on a padded
  embedding), so each path draws m'/2 < m values per component.  The
  embedding is exact whenever the wrapped spectral blocks stay positive
  semidefinite; padding is doubled up to three times before a logged
  fallback, whose plan names the banded route (finite max_lag) or the
  dense one.  Each plan logs its embedding size, windows, doublings,
  smallest spectral eigenvalue and clipped eigenvalues at DEBUG.

`iter_path_blocks` is the one draw loop, for paths and, with `maxima`,
for their maxima over time, which make_plan then gives lag-0 rows with
d <= 2 exactly (route lag0-exact, which draws uniforms).  Each call logs
its plan's route at DEBUG, with the path length, n, the replicate count
and the values drawn.  It is the one place that splits path work across
cores (the draws of hrex.rng start no threads), so `threads` bounds every
thread a path run starts: each batch runs in parts on threads that share
one plan, so the covariance, factor or spectrum is built once however
many threads work.  A plan whose draw unit takes s values and gives p
paths reads replicate r as path r mod p of unit r // p, which reads values
(r // p)*s ... (r // p + 1)*s - 1 of the one substream key, and a part of
a batch as one fill, so results are reproducible for a given (seed,
model, length), whatever the count, and off the dense route, which only
infinite-horizon models without an AR(1) row take (see `iter_path_blocks`),
however replicates are batched or split.
"""

from __future__ import annotations

import logging
import math
import struct
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import scipy.linalg
from scipy.special import ndtr, ndtri, ndtri_exp

from .correlation import CorrelationModel, lag_table
from .errors import NotPositiveSemidefinite
from .norming import upper_orthant
from .rng import RngKey, run_parts, split_count, standard_normal, uniform_open

__all__ = [
    "SamplePath",
    "assemble_covariance",
    "make_plan",
    "iter_path_blocks",
    "block_maxima",
    "write_path",
    "read_path",
]

log = logging.getLogger(__name__)

DENSE_CAP = 8192
METHODS = ("cholesky", "circulant")  # the sampling methods a caller may ask for
PATH_MAGIC = b"HREXPATH"

_DEFAULT_JITTER = 1e-10
_BLOCK_VALUES = 4_000_000  # target floats per replicate batch, shared by its parts
# smallest part of a split batch, in floats of footprint: on 2 cores, two parts
# beat one from about 2^12 floats each on the lag0-exact route and from 2^15 to
# 2^17 on the path routes
_SPLIT_FLOATS = 1 << 14
_MAX_DOUBLINGS = 3  # circulant padding retries before the banded or dense fallback
_READ_CHUNK = 1 << 20  # bytes per read of a path dump

# (values per draw unit, transform from (u, size) draws to (u * paths, L, d)
# blocks, floats per unit that size the batches: the draw, the transform's
# temporaries and the block a part keeps until its next batch, the route that
# built it: lag0, ar1, dense, banded, circulant or lag0-exact, the hrex.rng
# function it draws from: standard_normal, or uniform_open on the lag0-exact
# route, and the paths one unit gives: 2 on a paired circulant plan, else 1).
# Blocks are time-major, except the ar1 and circulant routes': transposed views
# of component-major (u * paths, d, L) arrays
Plan = namedtuple("Plan", "size transform footprint route draw paths")


@dataclass(frozen=True, eq=False)
class SamplePath:
    values: np.ndarray = field(repr=False)  # (n, d), time-major


def assemble_covariance(
    model: CorrelationModel, length: int, n: float | None = None
) -> np.ndarray:
    """Dense block-Toeplitz covariance of a length-L path: the reference that
    tests and criterion 8 check against; no sampler route builds it.

    n is the array-row size fed to the correlation function; it defaults
    to the path length, which is the triangular-array reading where one
    samples a whole row.  Dense assembly is limited to L*d <= DENSE_CAP.
    """
    if length < 1:
        raise ValueError("need path length >= 1")
    if n is None:
        n = length
    d = model.d
    size = length * d
    if size > DENSE_CAP:
        raise ValueError(
            "dense covariance of size %d exceeds the cap %d; use the banded or"
            " circulant sampler" % (size, DENSE_CAP)
        )
    table = lag_table(model, range(length), n)
    # mirrored[L - 1 + k] = table[|k|]; reversed length-L sliding windows give
    # windows[t, i, j, s] = mirrored[L - 1 - t + s, i, j] = table[|s - t|, i, j]
    mirrored = np.concatenate([table[:0:-1], table])
    windows = np.lib.stride_tricks.sliding_window_view(mirrored, length, axis=0)[::-1]
    return np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(size, size)


def _factor_or_jitter(factor, matrix: np.ndarray, diagonal, what: str) -> np.ndarray:
    """factor(matrix), retried once with _DEFAULT_JITTER added to
    matrix[diagonal] (on a copy).

    Raises NotPositiveSemidefinite when both attempts fail; that is an
    invalid correlation model, not a numerical accident.
    """
    try:
        return factor(matrix)
    except np.linalg.LinAlgError:
        pass
    bumped = matrix.copy()
    bumped[diagonal] += _DEFAULT_JITTER
    try:
        return factor(bumped)
    except np.linalg.LinAlgError as exc:
        msg = "%s is not positive semidefinite, even with jitter %g" % (what, _DEFAULT_JITTER)
        raise NotPositiveSemidefinite("%s; %s" % (msg, exc)) from None


def _schur_factor(table: np.ndarray) -> np.ndarray:
    """Upper factor R (R^T R = Sigma) of the block-Toeplitz covariance of a
    lag table, by the generalized Schur algorithm in O(L^2 d^3): the
    generator u = c^-T [T0 ... T_{L-1}] (c^T c = T0), v = u gives row block 0;
    each later one is u shifted a block right after d^2 mixed-form hyperbolic
    rotations zero v's leading block.  LinAlgError names the first time block
    whose leading principal submatrix is not positive definite."""
    length, d = table.shape[:2]
    try:
        c = np.linalg.cholesky(table[0]).T
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("first fails at time block 0") from None
    r = np.zeros((length * d, length * d))
    r[:d] = scipy.linalg.solve_triangular(c, table.transpose(1, 0, 2).reshape(d, -1), trans="T")
    v = r[:d].copy()
    for k in range(1, length):
        u, v = r[k * d : (k + 1) * d, k * d :], v[:, d:]
        u[:] = r[(k - 1) * d : k * d, (k - 1) * d : -d]
        for j in range(d):
            for i in range(d):
                rho = v[i, j] / u[j, j]
                if not abs(rho) < 1.0:
                    raise np.linalg.LinAlgError("first fails at time block %d" % k)
                cos = math.sqrt(1.0 - rho * rho)
                u[j] = (u[j] - rho * v[i]) / cos
                v[i] = cos * v[i] - rho * u[j]
    return r


def _factor_spectrum(lam: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues of real-symmetric spectral blocks and their factors
    (negative eigenvalues clipped to 0); factors is None when materially
    indefinite."""
    lam = 0.5 * (lam + np.swapaxes(lam, -1, -2))
    w, v = np.linalg.eigh(lam)
    if w.min() < -tol:
        return w, None
    return w, v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def _lag0_plan(model: CorrelationModel, length: int, n: float) -> Plan:
    """Serially independent time points: one d x d factor per point."""
    d = model.d
    lag0 = lag_table(model, range(1), n)[0]
    _, factor = _factor_spectrum(lag0[None], tol=1e-9 * max(1.0, float(np.abs(lag0).max())))
    if factor is None:
        raise NotPositiveSemidefinite("lag-0 correlation matrix is not PSD")
    factor_t = factor[0].T.copy()
    # per replicate: the draw, its block, and the last batch's block, kept until this one is made
    return Plan(length * d, lambda z: z.reshape(-1, length, d) @ factor_t, 3 * length * d, "lag0",
                standard_normal, 1)


def _dense_plan(model: CorrelationModel, length: int, n: float) -> Plan:
    d = model.d
    factor_t = _factor_or_jitter(
        _schur_factor, lag_table(model, range(length), n), (0, np.arange(d), np.arange(d)),
        "covariance (size %d)" % (length * d),
    )
    # per replicate: the draw, its block, and the last batch's block, kept until this one is made
    return Plan(length * d, lambda z: (z @ factor_t).reshape(-1, length, d), 3 * length * d, "dense",
                standard_normal, 1)


def _ar1_plan(model: CorrelationModel, length: int, n: float) -> Plan:
    """Separable AR(1) rows, rho(k, n) = a^k C with C the lag-0 block, as the
    model declares a = model.ar1_rate(n), checked at lags 1 and 2.  The
    time-major covariance is T (x) C with T = [a^|t-s|], whose Cholesky factor
    is chol(T) (x) chol(C), and chol(T) is the recursion y_0 = w_0,
    y_t = a y_{t-1} + sqrt(1 - a^2) w_t: per replicate, chol(C) (times
    sqrt(1 - a^2) after the first point) maps each time point's normals into
    a component-major block, and one unit lower-bidiagonal solve, LAPACK's
    dtbtrs, runs the recursion on every component in place."""
    d = model.d
    table = lag_table(model, range(3), n)
    a = float(model.ar1_rate(n))
    gap = float(np.abs(table[1:] - a ** np.arange(1.0, 3.0)[:, None, None] * table[0]).max())
    if not (-1.0 < a < 1.0 and gap <= 1e-12):
        raise ValueError("model declares AR(1) rate %r at n=%g, but |rho(k) - rate^k rho(0)| reaches"
                         " %.3g at lags 1-2" % (a, n, gap))
    c = _factor_or_jitter(np.linalg.cholesky, table[0], (np.arange(d), np.arange(d)),
                          "lag-0 block of the AR(1) row")
    first_t, rest_t = c.T.copy(), math.sqrt((1.0 - a) * (1.0 + a)) * c.T
    band = np.zeros((2, length), order="F")  # Fortran order, which dtbtrs reads without a copy
    band[1, :-1] = -a  # the subdiagonal; diag="U" leaves row 0, the unit diagonal, unread

    def transform(z: np.ndarray) -> np.ndarray:
        z = z.reshape(-1, length, d)
        w = np.empty((len(z), d, length))
        # stacked products of a fixed shape per replicate, written through a time-major view
        times = w.transpose(0, 2, 1)
        np.matmul(z[:, :1], first_t, out=times[:, :1])
        np.matmul(z[:, 1:], rest_t, out=times[:, 1:])
        # info is nonzero only for an illegal argument, which these shapes rule out
        y, _ = scipy.linalg.lapack.dtbtrs(band, w.reshape(-1, length).T, uplo="L", diag="U", overwrite_b=1)
        return y.T.reshape(-1, d, length).transpose(0, 2, 1)

    # per replicate: the draw, its block, and the last batch's block, kept until this one is made
    return Plan(length * d, transform, 3 * length * d, "ar1", standard_normal, 1)


def _banded_plan(model: CorrelationModel, length: int, n: float) -> Plan:
    """Cholesky of the lower band storage ab[o, a] = Sigma[a + o, a].  The
    band reaches the last lag below the path length whose block is nonzero:
    a lag the path never reads, or reads as 0, would only widen it."""
    d = model.d
    table = lag_table(model, range(min(int(model.max_lag), length - 1) + 2), n)
    last = int(np.flatnonzero(table[:-1].any(axis=(1, 2)))[-1])
    bw = last * d + (d - 1)
    size = length * d
    # the band reaches lag last + 1 at most: a zero block, or lag L, which the mask below drops
    comp = np.arange(d)[:, None]
    lag, other = np.divmod(comp + np.arange(bw + 1), d)
    per_comp = table[lag, comp, other]
    ab = per_comp[np.arange(size) % d].T.copy()
    ab[np.arange(bw + 1)[:, None] + np.arange(size) >= size] = 0.0

    def factor(m: np.ndarray) -> np.ndarray:
        # dpbtrf, which scipy.linalg.cholesky_banded wraps, for its info: the
        # order of the first leading minor that is not positive definite
        c, info = scipy.linalg.lapack.dpbtrf(m, lower=1)
        if info > 0:
            raise np.linalg.LinAlgError("first fails at time block %d" % ((info - 1) // d))
        return c

    band = _factor_or_jitter(factor, ab, 0, "banded covariance (length %d, bandwidth %d)" % (length, bw))

    def transform(z: np.ndarray) -> np.ndarray:
        x = np.zeros_like(z)
        for o in range(bw + 1):
            x[:, o:] += band[o, : size - o] * z[:, : size - o]
        return x.reshape(-1, length, d)

    # per replicate: the draw, the block it sums into, one band row's product,
    # and the last batch's block, kept until this one is made
    return Plan(size, transform, 4 * size, "banded", standard_normal, 1)


def _circulant_plan(model: CorrelationModel, length: int, n: float) -> Plan | None:
    """Circulant embedding (Davies-Harte; Chan & Wood 1999 give the vector
    case) on m = 2 next_fast_len(L - 1), the least even 5-smooth length that
    holds the path, or on a paired length that gives two paths per cycle,
    doubled while indefinite; None when every padding stays indefinite.

    The wrapped lag table c_k = T_min(k, m-k) has real symmetric spectral
    blocks Lambda_f = Lambda_(m-f) = A_f A_f^T.  The rfft of m white normals
    is white noise again (Davies & Harte 1987): real N(0, m) at f = 0 and
    m/2, independent N(0, m/2) real and imaginary parts between.  So each
    component's m normals are read as that spectrum in fftpack's half-complex
    order (r0, re1, im1, ..., r_(m/2)); one real table, A_f times those
    scales at each position, mixes them, and the in-place irfft gives
    x = B z for a real circulant B with B B^T = C, whose first L time
    points have covariance Sigma.

    Pairing: when the first table's blocks vanish beyond a lag K below its
    last, m' = 2 next_fast_len(L + K) puts two windows, points [0, L) and
    [m'/2, m'/2 + L), at cyclic distance >= m'/2 - L + 1 > K, where c is 0:
    two independent paths per cycle.  The plan pairs when m' < 2m, and only
    if the final table, after any doublings, is 0 beyond K too."""
    from scipy import fft, fftpack  # only this route needs them; set-up does not load them

    d = model.d
    first = 2 * fft.next_fast_len(max(length - 1, 1), real=True)
    table = lag_table(model, range(first // 2 + 1), n)
    last = int(np.flatnonzero(table.any(axis=(1, 2)))[-1])
    paired = 2 * fft.next_fast_len(length + last, real=True)
    start, paths = (paired, 2) if last < first // 2 and paired < 2 * first else (first, 1)
    for doublings in range(_MAX_DOUBLINGS + 1):
        m = start << doublings
        if len(table) <= m // 2:  # read only the lags this embedding adds
            table = np.concatenate([table, lag_table(model, range(len(table), m // 2 + 1), n)])
        spectrum = np.fft.rfft(table[np.minimum(np.arange(m), m - np.arange(m))], axis=0).real
        tol = 1e-9 * max(1.0, float(np.abs(spectrum).max()))
        eigenvalues, factors = _factor_spectrum(spectrum, tol)
        if factors is not None:
            break
    else:
        return None
    if table[last + 1 :].any():  # a lag the first table did not reach is nonzero
        paths = 1
    log.debug(
        "circulant plan: embedding m=%d, windows=%d, doublings=%d, min eigenvalue %.3g, clipped %d",
        m, paths, doublings, eigenvalues.min(), np.count_nonzero(eigenvalues < 0.0),
    )
    # position p of the half-complex order holds frequency (p + 1) // 2;
    # coef[i, j, p] = A_ij at that frequency times the noise's scale there,
    # contiguous per (i, j)
    scale = np.full(m, math.sqrt(m / 2))
    scale[[0, -1]] = math.sqrt(m)
    coef = np.ascontiguousarray((factors[(np.arange(m) + 1) // 2] * scale[:, None, None]).transpose(1, 2, 0))

    def transform(z: np.ndarray) -> np.ndarray:
        noise = z.reshape(-1, d, m)
        spectral = np.empty_like(noise)
        for i in range(d):
            np.multiply(coef[i, 0], noise[:, 0], out=spectral[:, i])
            for j in range(1, d):
                spectral[:, i] += coef[i, j] * noise[:, j]
        cycles = fftpack.irfft(spectral, axis=-1, overwrite_x=True)
        # window w of a cycle is its points w m/2 ... w m/2 + L - 1; gathered
        # component-major, path u * paths + w is window w of cycle u
        windows = cycles.reshape(-1, d, paths, m // paths)[..., :length].transpose(0, 2, 1, 3)
        return np.ascontiguousarray(windows).reshape(-1, d, length).transpose(0, 2, 1)

    # per cycle: the draw, the spectral block, beside it one component's product
    # for d > 1 or the gathered windows, and the last batch's windows, kept (or
    # held by the consumer) until these are made
    kept = paths * length * d
    return Plan(m * d, transform, 2 * m * d + max(m if d > 1 else 0, kept) + kept, "circulant",
                standard_normal, paths)


def _lag0_exact_plan(model: CorrelationModel, length: int, n: float) -> Plan:
    """Maxima of lag-0 rows with d <= 2 by their exact law: 2d - 1 uniforms per
    replicate map to (b, 1, d) row maxima."""
    # make_plan's lag-0 plan has checked that |rho| <= 1 up to rounding
    rho = float(lag_table(model, range(1), n)[0, 0, -1])
    d, rho = model.d, min(max(rho, -1.0), 1.0)

    def transform(u: np.ndarray) -> np.ndarray:
        """Maxima of L independent rows from U1..U(2d-1), a row of u each: M1 =
        Phi^-1(U1^(1/L)), X2 at its argmax is rho M1 + sqrt(1 - rho^2) Phi^-1(U2),
        and the max of X2 over the other L - 1 rows (X1 < M1) inverts at U3 the
        CDF F(y) = (1 - P(X1 < M1, X2 > y) / Phi(M1))^(L-1) by bisection; M2 is the larger."""
        m1 = ndtri_exp(np.log(u[:, 0]) / length)
        if d == 1:
            return m1[:, None, None]
        # F(y) < U3 iff P(X1 < M1, X2 > y) > (1 - U3^(1/(L-1))) Phi(M1); L = 1 has no other rows
        level = -np.expm1(np.log(u[:, 2]) / max(length - 1, 1)) * ndtr(m1)
        lo, hi = np.full(len(u), -40.0), np.full(len(u), 40.0)
        for _ in range(60):  # halves [-40, 40] down to a width of 7e-17
            mid = 0.5 * (lo + hi)
            low = ndtr(-mid) - upper_orthant(m1, mid, rho) > level
            lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
        at_argmax = rho * m1 + math.sqrt((1.0 - rho) * (1.0 + rho)) * ndtri(u[:, 1])
        return np.column_stack([m1, np.maximum(at_argmax, hi if length > 1 else -np.inf)])[:, None]

    return Plan(2 * d - 1, transform, 2 * d - 1, "lag0-exact", uniform_open, 1)


def make_plan(
    model: CorrelationModel, length: int, method: str, n: float | None = None, maxima: bool = False
) -> Plan:
    """Pick the sampling route, which the plan names: lag0 whenever the path
    has no serial dependence, or lag0-exact there when maxima are asked for
    and d <= 2; otherwise circulant when asked for, and else ar1 for a model
    that declares an AR(1) row (model.ar1_rate).  Without them, or when the
    embedding fails, the model's horizon picks: banded Cholesky for a finite
    max_lag, at every length, and else dense (Schur factor of the
    block-Toeplitz lag table), which holds L*d <= DENSE_CAP and raises
    ValueError beyond.  n is the array-row size fed to the correlation
    function (default: the path length)."""
    if method not in METHODS:
        raise ValueError("unknown sampling method %r" % (method,))
    if length < 1:
        raise ValueError("need path length >= 1")
    if n is None:
        n = length
    plan = None
    if model.max_lag == 0 or length == 1:
        plan = _lag0_plan(model, length, n)  # which checks that the lag-0 matrix is PSD
        if maxima and model.d <= 2:
            plan = _lag0_exact_plan(model, length, n)
    elif method == "circulant":
        plan = _circulant_plan(model, length, n)
    elif model.ar1_rate is not None:
        plan = _ar1_plan(model, length, n)
    if plan is None:  # the horizon rule, also where the circulant embedding failed
        failed = "circulant embedding indefinite after %d doublings" % _MAX_DOUBLINGS
        banded = math.isfinite(model.max_lag)
        if not banded and length * model.d > DENSE_CAP:
            why = "path of size %d exceeds the dense cap and the model has no finite band"
            raise ValueError((failed + ", and the " + why if method == "circulant"
                              else why + "; use the circulant sampler") % (length * model.d))
        if method == "circulant":
            log.warning("%s; falling back to the %s route", failed, "banded" if banded else "dense")
        plan = (_banded_plan if banded else _dense_plan)(model, length, n)
    return plan


def iter_path_blocks(
    model: CorrelationModel,
    length: int,
    key: RngKey,
    count: int,
    method: str = "cholesky",
    n: float | None = None,
    *,
    threads: int = 1,
    maxima: bool = False,
) -> Iterator[tuple[int, np.ndarray]]:
    """Stream replicate blocks (first_index, values[b, length, d]), or with
    `maxima` their (b, d) maxima over time, without holding all paths in
    memory, on make_plan's plan for (model, length, method, n, maxima),
    whose route is logged once per call at DEBUG, with the values drawn.
    The loop counts draw units: a unit of s values gives the plan's p paths
    (p = 2 on a paired circulant plan, else 1), and replicate r is path
    r mod p of unit r // p, which reads values (r // p)*s ... (r // p + 1)*s
    - 1 of key's substream.  An odd count on a paired plan draws its last
    unit whole and drops that unit's second path.

    This is the one place that splits work across cores: each batch of
    units goes through hrex.rng.run_parts in at most `threads` parts, one
    per CPU and per unit at most, and only as many as hold _SPLIT_FLOATS
    floats of footprint each.  Each part draws its slice of the substream
    with the plan's draw and transforms it on its own thread, then with
    `maxima` reduces it there with `block_maxima`, so only maxima join, in
    the calling thread, into what the batch yields.  The parts share the batch
    budget of _BLOCK_VALUES floats, so memory does not grow with threads
    while footprint * parts <= _BLOCK_VALUES; past that, each part holds one
    unit.  A reduced part's block is kept until that part's next block
    is made, as a consumer of unreduced blocks keeps its last one.  Values
    are independent of the batching and the split, except on the dense
    route, which only infinite-horizon models without an AR(1) row take:
    BLAS picks the kernel of its z @ factor_t by the part's row count, so a
    replicate's last bit can move with count and threads."""
    size, transform, footprint, route, draw, paths = make_plan(model, length, method, n, maxima)
    units = -(-count // paths)
    log.debug("iter_path_blocks route=%s length=%d n=%s count=%d values=%d",
              route, length, length if n is None else n, count, size * units)
    parts = split_count(units, min(threads, units * footprint // _SPLIT_FLOATS))
    per_part = max(1, _BLOCK_VALUES // (footprint * parts))
    # a reduced part's block stays in `kept` until that part's next block is made:
    # freed at once, the heap top went back to the system every batch and was
    # faulted in again (maxima_matrix, 100 geometric circulant rows of 1e5, one
    # thread: 230,000 minor page faults, against 13,000 kept)
    u, kept = 0, {}
    while u < units:
        b = min(per_part * parts, units - u)
        done = {}

        def work(a: int, e: int, first: int = u) -> None:
            block = transform(draw(key, (e - a, size), start=(first + a) * size))
            if maxima:
                done[a], kept[a] = block_maxima(block), block
            else:
                done[a] = block

        run_parts(b, min(parts, b * footprint // _SPLIT_FLOATS), work)
        # join here: parts' blocks that the consumer held past their thread pinned
        # its malloc arena (sample_dump's peak RSS read 138.6-157.3 MB unjoined,
        # 136.9-139.1 MB joined, 134.5 MB on one core)
        joined = done.pop(0) if len(done) == 1 else np.concatenate([done.pop(a) for a in sorted(done)])
        yield u * paths, joined[: count - u * paths]  # an odd count drops its last unit's second path
        u += b


def block_maxima(block: np.ndarray) -> np.ndarray:
    """The (b, d) maxima over time of a (b, L, d) block.  A time-major block
    is first copied component-major, so that the max reduces along
    contiguous memory: on a (20, 100000, 2) block the copy and max took
    5.7 ms against 56 ms for the max over the strided axis."""
    if block.shape[1] > 1 and block.strides[1] != block.itemsize:
        block = np.ascontiguousarray(block.transpose(0, 2, 1)).transpose(0, 2, 1)
    return block.max(axis=1)


def write_path(path: SamplePath, file) -> None:
    """Binary dump: magic 'HREXPATH', little-endian u64 n and d (the shape
    of path.values), then n*d little-endian f64 in row-major (time-major)
    order."""
    file.write(PATH_MAGIC)
    file.write(struct.pack("<QQ", *path.values.shape))
    file.write(np.ascontiguousarray(path.values, dtype="<f8").tobytes())


def read_path(file) -> SamplePath:
    magic = file.read(8)
    if magic != PATH_MAGIC:
        raise ValueError("not a path dump: bad magic %r" % (magic,))
    header = file.read(16)
    if len(header) != 16:
        raise ValueError("truncated path dump")
    n, d = struct.unpack("<QQ", header)
    # read in bounded chunks, so a header that claims more values than the
    # file holds costs at most one chunk of memory, not the claimed size
    size, payload = 8 * n * d, bytearray()
    while len(payload) < size:
        chunk = file.read(min(size - len(payload), _READ_CHUNK))
        if not chunk:
            raise ValueError("truncated path dump")
        payload += chunk
    values = np.frombuffer(payload, dtype="<f8").reshape(n, d)
    return SamplePath(values)