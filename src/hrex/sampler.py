"""Exact samplers for stationary Gaussian vector paths.

A path of length L from a d-dimensional model with correlations
rho_ij(k, n) has the block-Toeplitz covariance

    Sigma[(t-1)d + i, (s-1)d + j] = rho_ij(|t - s|, n),

indexed time-major.  One planner, `_plan`, turns (model, L, n, method)
into the number of standard normals a replicate consumes and a transform
from those normals to paths.  It has four routes, all reading one lag
table rho_ij(k, n), k = 0..top_lag:

* lag-0: models with max_lag = 0 (or length-1 paths) multiply each time
  point by one d x d factor;
* dense Cholesky of the assembled matrix (desk scale, L*d <= 8192);
* banded Cholesky for longer paths of models whose correlation vanishes
  beyond a finite max_lag (the band has width d*max_lag + d - 1);
* circulant embedding (method "circulant"): the lag table is wrapped onto
  a cycle of length M >= 2(L-1), diagonalised by FFT, and sampled in the
  frequency domain.  The embedding is exact whenever the wrapped spectral
  blocks stay positive semidefinite; padding is doubled up to three times
  before falling back to dense Cholesky with a logged warning.

`iter_path_blocks` is the one batching loop.  Replicate r draws its
normals from its own substream key.child(r), so results are reproducible
for a given (seed, model, length, count) no matter how replicates are
batched or parallelised.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
import scipy.linalg

from .correlation import CorrelationModel
from .errors import NotPositiveSemidefinite
from .rng import RngKey, standard_normal

__all__ = [
    "BlockCovariance",
    "SamplePath",
    "PsdReport",
    "assemble_covariance",
    "validate_psd",
    "sample_paths",
    "iter_path_blocks",
    "componentwise_maxima",
    "write_path",
    "read_path",
]

log = logging.getLogger(__name__)

DENSE_CAP = 8192
PATH_MAGIC = b"HREXPATH"

_DEFAULT_JITTER = 1e-10
_BLOCK_VALUES = 4_000_000  # target floats per replicate batch
_MAX_DOUBLINGS = 3  # circulant padding retries before the dense fallback

# (normals per replicate, transform from (b, normals) to (b, L, d) paths)
Plan = tuple[int, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True, eq=False)
class BlockCovariance:
    length: int
    d: int
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class SamplePath:
    values: np.ndarray = field(repr=False)
    n: int
    d: int
    seed_provenance: str


@dataclass(frozen=True, eq=False)
class PsdReport:
    jitter_used: float  # 0.0 when plain Cholesky succeeded
    factor: np.ndarray = field(repr=False)


def _lag_table(model: CorrelationModel, top_lag: int, n: float) -> np.ndarray:
    """table[k, i, j] = rho_{i+1, j+1}(k, n) for k = 0..top_lag."""
    d = model.d
    values = (
        model.rho(i + 1, j + 1, k, n)
        for k in range(top_lag + 1)
        for i in range(d)
        for j in range(d)
    )
    table = np.fromiter(values, float, count=(top_lag + 1) * d * d).reshape(top_lag + 1, d, d)
    if not np.allclose(table, np.swapaxes(table, 1, 2), atol=1e-14):
        raise ValueError("correlation model is not symmetric in (i, j)")
    return table


def assemble_covariance(
    model: CorrelationModel, length: int, n: float | None = None, max_size: int = DENSE_CAP
) -> BlockCovariance:
    """Dense block-Toeplitz covariance of a length-L path.

    n is the array-row size fed to the correlation function; it defaults
    to the path length, which is the triangular-array reading where one
    samples a whole row.  Dense assembly is limited to L*d <= max_size.
    """
    if length < 1:
        raise ValueError("need path length >= 1")
    if n is None:
        n = length
    d = model.d
    size = length * d
    if size > max_size:
        raise ValueError(
            "dense covariance of size %d exceeds the cap %d; use the banded or"
            " circulant sampler" % (size, max_size)
        )
    table = _lag_table(model, int(min(length - 1, model.max_lag)), n)
    out = np.zeros((size, size))
    blocks = out.reshape(length, d, length, d)
    times = np.arange(length)
    for lag, block in enumerate(table):
        t = times[: length - lag]
        blocks[t, :, t + lag, :] = block
        blocks[t + lag, :, t, :] = block
    return BlockCovariance(length=length, d=d, matrix=out)


def validate_psd(cov: BlockCovariance, jitter: float = _DEFAULT_JITTER) -> PsdReport:
    """Cholesky-test a covariance, retrying once with jitter * I added.

    Raises NotPositiveSemidefinite when both attempts fail; that is an
    invalid correlation model, not a numerical accident.
    """
    try:
        return PsdReport(jitter_used=0.0, factor=np.linalg.cholesky(cov.matrix))
    except np.linalg.LinAlgError:
        pass
    try:
        bumped = cov.matrix + jitter * np.eye(cov.matrix.shape[0])
        return PsdReport(jitter_used=jitter, factor=np.linalg.cholesky(bumped))
    except np.linalg.LinAlgError:
        raise NotPositiveSemidefinite(
            "covariance (size %d) is not positive semidefinite, even with"
            " jitter %g" % (cov.matrix.shape[0], jitter)
        ) from None


def _factor_spectrum(lam: np.ndarray, tol: float) -> np.ndarray | None:
    """Factor real-symmetric spectral blocks; None when materially indefinite."""
    lam = 0.5 * (lam + np.swapaxes(lam, -1, -2))
    w, v = np.linalg.eigh(lam)
    if w.min() < -tol:
        return None
    return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def _lag0_plan(model: CorrelationModel, length: int, n: float) -> Plan:
    """Serially independent time points: one d x d factor per point."""
    d = model.d
    lag0 = _lag_table(model, 0, n)[0]
    factor = _factor_spectrum(lag0[None], tol=1e-9 * max(1.0, float(np.abs(lag0).max())))
    if factor is None:
        raise NotPositiveSemidefinite("lag-0 correlation matrix is not PSD")
    factor_t = factor[0].T.copy()
    return length * d, lambda z: z.reshape(-1, length, d) @ factor_t


def _dense_plan(model: CorrelationModel, length: int, n: float) -> Plan:
    cov = assemble_covariance(model, length, n)
    factor_t = validate_psd(cov).factor.T.copy()
    return length * model.d, lambda z: (z @ factor_t).reshape(-1, length, model.d)


def _banded_plan(model: CorrelationModel, length: int, n: float) -> Plan:
    """Cholesky of the lower band storage ab[o, a] = Sigma[a + o, a]."""
    d = model.d
    max_lag = int(model.max_lag)
    bw = max_lag * d + (d - 1)
    size = length * d
    table = _lag_table(model, max_lag, n)
    comp = np.arange(d)[:, None]
    lag, other = np.divmod(comp + np.arange(bw + 1), d)
    per_comp = np.where(lag <= max_lag, table[np.minimum(lag, max_lag), comp, other], 0.0)
    ab = per_comp[np.arange(size) % d].T.copy()
    ab[np.arange(bw + 1)[:, None] + np.arange(size) >= size] = 0.0
    try:
        band = scipy.linalg.cholesky_banded(ab, lower=True)
    except np.linalg.LinAlgError:
        try:
            ab[0] += _DEFAULT_JITTER
            band = scipy.linalg.cholesky_banded(ab, lower=True)
        except np.linalg.LinAlgError:
            raise NotPositiveSemidefinite(
                "banded covariance (length %d, bandwidth %d) is not positive"
                " semidefinite, even with jitter %g" % (length, bw, _DEFAULT_JITTER)
            ) from None

    def transform(z: np.ndarray) -> np.ndarray:
        x = np.zeros_like(z)
        for o in range(bw + 1):
            x[:, o:] += band[o, : size - o] * z[:, : size - o]
        return x.reshape(-1, length, d)

    return size, transform


def _circulant_plan(model: CorrelationModel, length: int, n: float) -> Plan | None:
    """Circulant embedding; None when every padding stays indefinite."""
    d = model.d
    m = 1 << max(1, int(math.ceil(math.log2(max(2 * (length - 1), 2)))))
    for _ in range(_MAX_DOUBLINGS + 1):
        top_lag = int(min(m // 2, model.max_lag))
        table = _lag_table(model, top_lag, n)
        wrapped = np.zeros((m, d, d))
        lags = np.minimum(np.arange(m), m - np.arange(m))
        inside = lags <= top_lag
        wrapped[inside] = table[lags[inside]]
        spectrum = np.fft.fft(wrapped, axis=0).real
        tol = 1e-9 * max(1.0, float(np.abs(spectrum).max()))
        factors = _factor_spectrum(spectrum, tol)
        if factors is not None:
            break
        m *= 2
    else:
        return None

    def transform(z: np.ndarray) -> np.ndarray:
        eps = np.empty((z.shape[0], m, d), dtype=complex)
        eps.real = z[:, : m * d].reshape(-1, m, d)
        eps.imag = z[:, m * d :].reshape(-1, m, d)
        spectral = np.einsum("fij,bfj->bfi", factors, eps)
        return math.sqrt(m) * np.fft.ifft(spectral, axis=1)[:, :length, :].real

    return 2 * m * d, transform


def _plan(model: CorrelationModel, length: int, n: float, method: str) -> Plan:
    """Pick the sampling route: lag-0 whenever the path has no serial
    dependence; otherwise circulant when asked for (dense Cholesky if the
    embedding fails), else dense Cholesky up to DENSE_CAP and banded beyond."""
    if method not in ("cholesky", "circulant"):
        raise ValueError("unknown sampling method %r" % (method,))
    if length < 1:
        raise ValueError("need path length >= 1")
    if model.max_lag == 0 or length == 1:
        return _lag0_plan(model, length, n)
    if method == "circulant":
        plan = _circulant_plan(model, length, n)
        if plan is not None:
            return plan
        log.warning(
            "circulant embedding indefinite after %d doublings; falling back to"
            " dense Cholesky", _MAX_DOUBLINGS,
        )
    elif length * model.d > DENSE_CAP:
        if not math.isfinite(model.max_lag):
            raise ValueError(
                "path of size %d exceeds the dense cap and the model has no"
                " finite band; use the circulant sampler" % (length * model.d)
            )
        return _banded_plan(model, length, n)
    return _dense_plan(model, length, n)


def iter_path_blocks(
    model: CorrelationModel,
    length: int,
    key: RngKey,
    count: int,
    method: str = "cholesky",
    n: float | None = None,
    start: int = 0,
) -> Iterator[tuple[int, np.ndarray]]:
    """Stream replicate blocks (first_index, values[b, length, d]) without
    holding all paths in memory.  Values are independent of the batching."""
    size, transform = _plan(model, length, length if n is None else n, method)
    batch = max(1, _BLOCK_VALUES // size)
    r = start
    while r < start + count:
        b = min(batch, start + count - r)
        z = np.empty((b, size))
        for row in range(b):
            z[row] = standard_normal(key.child(r + row).generator(), size)
        yield r, transform(z)
        r += b


def sample_paths(
    model: CorrelationModel,
    length: int,
    key: RngKey,
    count: int,
    method: str = "cholesky",
    n: float | None = None,
) -> list[SamplePath]:
    """All `count` paths as a list; replicate r draws from key.child(r)."""
    return [
        SamplePath(
            values=values,
            n=length,
            d=model.d,
            seed_provenance=key.child(first + row).provenance,
        )
        for first, block in iter_path_blocks(model, length, key, count, method, n)
        for row, values in enumerate(block)
    ]


def componentwise_maxima(path: SamplePath) -> np.ndarray:
    """Vector of per-component maxima over the path."""
    return path.values.max(axis=0)


def write_path(path: SamplePath, file) -> None:
    """Binary dump: magic 'HREXPATH', little-endian u64 n and d, then
    n*d little-endian f64 in row-major (time-major) order."""
    file.write(PATH_MAGIC)
    file.write(struct.pack("<QQ", path.n, path.d))
    file.write(np.ascontiguousarray(path.values, dtype="<f8").tobytes())


def read_path(file) -> SamplePath:
    magic = file.read(8)
    if magic != PATH_MAGIC:
        raise ValueError("not a path dump: bad magic %r" % (magic,))
    header = file.read(16)
    if len(header) != 16:
        raise ValueError("truncated path dump")
    n, d = struct.unpack("<QQ", header)
    payload = file.read(8 * n * d)
    if len(payload) != 8 * n * d:
        raise ValueError("truncated path dump")
    values = np.frombuffer(payload, dtype="<f8").reshape(n, d).copy()
    return SamplePath(values=values, n=int(n), d=int(d), seed_provenance="file")