"""Monte Carlo experiments connecting finite-sample maxima to the limit law.

run_maxima_experiment simulates componentwise maxima of array rows and
counts threshold events on a grid; compare_to_limit turns the counts
into deviations from exp(-sum_i theta_i e^-x_i).  A sweep over n gets a
trend verdict: deviations must be weakly decreasing within two combined
standard errors per step.

lemma1_check verifies, by exhaustive enumeration of a finite discrete
matrix distribution, the exact decomposition of the exceedance union

    P(union_i {M_n^(i) > u_i}) =
        sum_k P(X_k^(1) > u_1,  nothing larger after k anywhere)
      + sum_{i>=2} sum_k P(X_k^(i) > u_i,
                           components s < i quiet from k on,
                           components t >= i quiet after k),

which partitions the union by the last exceedance time and the smallest
component index exceeding there.  The identity is distribution-free, so
it exercises exactly the strict/non-strict suffix-maximum conventions an
implementation can get wrong.

block_consistency_check compares P(joint maxima below u_n) computed on
whole rows against the q_n-th power of the probability on one block of
length r_n, the quantity whose asymptotic equality underpins the
block-decoupling step of the limit argument.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .correlation import CorrelationModel
from .errors import check_integer
from .jsonio import to_jsonable, write_json
from .norming import limit_cdf, norming_constants, threshold
from .rng import RngKey
from .sampler import METHODS, iter_path_blocks


def check_n_list(n_list: Sequence[int]) -> tuple[int, ...]:
    """n_list as ints, checked to be integers (not bools), strictly increasing and not empty."""
    for a, n in enumerate(n_list):
        check_integer(n, "n_list[%d]" % a)
    if len(n_list) == 0 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("need a strictly increasing, non-empty n list")
    return tuple(int(n) for n in n_list)


@dataclass(frozen=True)
class ExperimentConfig:
    model: CorrelationModel
    n_list: tuple[int, ...]
    replicates: int
    x_grid: tuple[tuple[float, ...], ...]
    seed: int
    sampler: str = "cholesky"

    def __post_init__(self):
        object.__setattr__(self, "n_list", check_n_list(self.n_list))
        check_integer(self.replicates, "replicates")
        object.__setattr__(
            self, "x_grid", tuple(tuple(float(v) for v in p) for p in self.x_grid)
        )
        if self.n_list[0] < 2:
            raise ValueError("need sample sizes >= 2")
        if self.replicates < 100:
            raise ValueError("need at least 100 replicates")
        if not self.x_grid or any(len(p) != self.model.d for p in self.x_grid):
            raise ValueError("need a non-empty grid of d-dimensional points")
        if any(math.isnan(v) for p in self.x_grid for v in p):
            raise ValueError("need non-NaN grid levels, got %r" % (self.x_grid,))
        if self.sampler not in METHODS:
            raise ValueError("sampler must be one of %s, got %r" % (", ".join(METHODS), self.sampler))


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    n: int
    x_grid: tuple[tuple[float, ...], ...]
    counts: np.ndarray
    replicates: int


@dataclass(frozen=True, eq=False)
class ConvergenceEntry:
    """One size n of a sweep.  columns maps each report column name to its
    values, one per grid point, in the order the report files write them."""

    n: int
    x_grid: tuple[tuple[float, ...], ...]
    columns: dict[str, np.ndarray]
    sup_deviation: float


@dataclass(frozen=True)
class ConvergenceReport:
    entries: tuple[ConvergenceEntry, ...]
    verdict: str  # "decreasing" or "not-decreasing"
    step_slacks: tuple[float, ...]
    failed_steps: tuple[int, ...]  # step i compares entries i and i + 1


def maxima_matrix(
    model: CorrelationModel,
    n: int,
    key: RngKey,
    replicates: int,
    sampler: str = "cholesky",
    threads: int = 1,
) -> np.ndarray:
    """Componentwise maxima of `replicates` independent rows of size n, as
    hrex.sampler.iter_path_blocks streams them with `maxima`: it plans and
    logs the route, takes the exact plan of lag-0 rows with d <= 2, which
    draws 2d - 1 uniforms per replicate at a cost free of n, and gives the
    same bytes for every thread count."""
    out = np.empty((replicates, model.d))
    for first, maxima in iter_path_blocks(model, n, key, replicates, sampler, threads=threads, maxima=True):
        out[first : first + len(maxima)] = maxima
    return out


def empirical_cdf(
    maxima: np.ndarray, x_grid: Sequence[Sequence[float]], n: int
) -> EmpiricalCdf:
    """Counts of replicates with all component maxima below u_n(x_i)."""
    constants = norming_constants(n)
    grid = tuple(tuple(float(v) for v in p) for p in x_grid)
    if any(len(p) != maxima.shape[1] for p in grid):
        raise ValueError("need grid points of %d levels, one per component" % maxima.shape[1])
    u = np.array([[threshold(constants, v) for v in p] for p in grid])
    inside = (maxima[None, :, :] <= u[:, None, :]).all(axis=2)
    return EmpiricalCdf(
        n=n, x_grid=grid, counts=inside.sum(axis=1), replicates=maxima.shape[0]
    )


def run_maxima_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[EmpiricalCdf]:
    """One EmpiricalCdf per n.  Replicate r of the run at size n reads values
    r*s ... (r+1)*s - 1 of substream (seed, n), s the uniforms its plan draws
    per replicate, so results do not depend on which other sizes are in the
    sweep, nor on batching or threads."""
    root = RngKey(cfg.seed)
    out = []
    for n in cfg.n_list:
        maxima = maxima_matrix(
            cfg.model, n, root.child(n), cfg.replicates, cfg.sampler, threads=threads
        )
        out.append(empirical_cdf(maxima, cfg.x_grid, n))
    return out


def compare_to_limit(
    emp: EmpiricalCdf, thetas_per_point: Sequence[Sequence[float]]
) -> ConvergenceEntry:
    """Deviation of empirical threshold frequencies from the limit CDF
    evaluated with the given extremal coefficients (one theta vector per
    grid point)."""
    if len(thetas_per_point) != len(emp.x_grid):
        raise ValueError("need one theta vector per grid point")
    empirical = emp.counts / emp.replicates
    limit = np.array(
        [limit_cdf(thetas, x) for thetas, x in zip(thetas_per_point, emp.x_grid)]
    )
    deviation = np.abs(empirical - limit)
    columns = {
        "empirical": empirical,
        "limit": limit,
        "deviation": deviation,
        "std_error": np.sqrt(empirical * (1.0 - empirical) / emp.replicates),
    }
    return ConvergenceEntry(
        n=emp.n, x_grid=emp.x_grid, columns=columns, sup_deviation=float(deviation.max())
    )


def weakly_decreasing(values: Sequence[float], slacks: Sequence[float] | None = None) -> bool:
    """True when each step satisfies v[i+1] <= v[i] + slack[i] (slack 0 by
    default, i.e. a plain non-increasing check)."""
    if slacks is None:
        slacks = [0.0] * (len(values) - 1)
    if len(slacks) != len(values) - 1:
        raise ValueError("need one slack per step")
    return all(b <= a + s for a, b, s in zip(values, values[1:], slacks))


def build_report(entries: Sequence[ConvergenceEntry]) -> ConvergenceReport:
    """Trend verdict over a sweep: sup deviations must be weakly decreasing
    within 2 * sqrt(se_i^2 + se_{i+1}^2) per step, the standard errors
    taken as each entry's largest grid-point standard error."""
    entries = tuple(sorted(entries, key=lambda e: e.n))
    ses = [float(e.columns["std_error"].max(initial=0.0)) for e in entries]
    slacks = tuple(
        2.0 * math.hypot(ses[i], ses[i + 1]) for i in range(len(entries) - 1)
    )
    sups = [e.sup_deviation for e in entries]
    failed = tuple(i for i, s in enumerate(slacks) if not weakly_decreasing(sups[i : i + 2], [s]))
    verdict = "not-decreasing" if failed else "decreasing"
    return ConvergenceReport(
        entries=entries, verdict=verdict, step_slacks=slacks, failed_steps=failed
    )


# ---------------------------------------------------------------------------
# exact enumeration of the exceedance decomposition


@dataclass(frozen=True)
class DiscreteMatrixDistribution:
    """Product distribution over n x d matrices: every cell (time, component)
    draws independently from its own finite atom list."""

    n: int
    d: int
    values: tuple[tuple[float, ...], ...]  # n*d cells, time-major
    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if len(self.values) != self.n * self.d or len(self.probs) != self.n * self.d:
            raise ValueError("need one atom list per cell")
        for vals, ps in dict.fromkeys(zip(self.values, self.probs)):  # each distinct cell once
            if len(vals) != len(ps) or not vals:
                raise ValueError("cell atoms and probabilities must align")
            if not all(p >= 0 for p in ps) or any(math.isnan(v) for v in vals):
                raise ValueError("need non-negative probabilities and non-NaN atoms, got %r, %r" % (ps, vals))
            if abs(math.fsum(ps) - 1.0) > 1e-9:
                raise ValueError("cell probabilities must sum to 1")

    @classmethod
    def iid_cells(cls, n: int, d: int, atoms: Sequence[float], probs: Sequence[float] | None = None):
        """Every cell on the same atoms.  A law whose enumeration passes
        lemma1_check's default cap is refused before its n*d cells are built."""
        if not atoms:
            raise ValueError("need at least one atom")
        _enumerated_values(n, d, itertools.repeat(len(atoms), n * d), _MAX_VALUES)
        if probs is None:
            probs = [1.0 / len(atoms)] * len(atoms)
        cell_v = tuple(float(a) for a in atoms)
        cell_p = tuple(float(p) for p in probs)
        return cls(n=n, d=d, values=(cell_v,) * (n * d), probs=(cell_p,) * (n * d))


def random_matrix_distribution(
    gen: np.random.Generator, n: int, d: int, max_atoms: int = 3
) -> DiscreteMatrixDistribution:
    """Random instance with 1..max_atoms distinct atoms per cell and
    random (normalised) weights; used to fuzz the decomposition check."""
    values, probs = [], []
    for _ in range(n * d):
        m = int(gen.integers(1, max_atoms + 1))
        atoms = np.round(gen.uniform(-2.0, 2.0, size=m), 3)
        while len(set(atoms.tolist())) < m:
            atoms = np.round(gen.uniform(-2.0, 2.0, size=m), 3)
        w = gen.uniform(0.1, 1.0, size=m)
        w = w / w.sum()
        values.append(tuple(float(a) for a in atoms))
        probs.append(tuple(float(p) for p in w))
    return DiscreteMatrixDistribution(n=n, d=d, values=tuple(values), probs=tuple(probs))


@dataclass(frozen=True)
class Lemma1Report:
    lhs: float
    rhs: float
    difference: float
    support_size: int


_MAX_VALUES = 1_000_000  # cell values, support size * n * d, that lemma1_check enumerates by default


def _enumerated_values(n: int, d: int, radices, cap: int) -> int:
    """support size * n * d: the cell values that enumerating n x d matrices
    with radices[c] atoms in cell c holds.  The running product starts at
    n * d and raises ValueError as soon as it passes cap, so it reads about
    cap cells at most, however large n is."""
    values = n * d
    for m in itertools.chain((1,), radices):
        values *= m
        if values > cap:
            raise ValueError("enumerating %d x %d matrices holds more than the cap of %d cell values"
                             % (n, d, cap))
    return values


def _realisations(dist: DiscreteMatrixDistribution, max_values: int) -> tuple[np.ndarray, np.ndarray]:
    """Every realisation s of dist as x[s] (n x d) with its probability
    prob[s]; cell c's atom index is digit c of s in the mixed radix whose
    last cell varies fastest.  Atoms and probabilities are gathered from
    tables with one row per distinct cell, and each probability is the
    product over cells from the last to the first, in that order."""
    n, d = dist.n, dist.d
    cells = list(zip(dist.values, dist.probs))
    # each distinct (atoms, probabilities) cell, first seen first, to its table row
    rows = {cell: r for r, cell in enumerate(dict.fromkeys(cells))}
    which = np.fromiter(map(rows.__getitem__, cells), dtype=np.intp, count=len(cells))
    radix = np.array([len(vals) for vals, _ in rows])
    radices = radix[which]
    size = _enumerated_values(n, d, radices.tolist(), max_values) // (n * d)
    atom_table = np.zeros((len(rows), radix.max()))
    prob_table = np.zeros_like(atom_table)
    for r, (vals, ps) in enumerate(rows):
        atom_table[r, : len(vals)], prob_table[r, : len(ps)] = vals, ps
    # digits[c, s]: stride c is the product of the radices after cell c
    strides = np.append(np.cumprod(radices[:0:-1])[::-1], 1)
    digits = (np.arange(size) // strides[:, None]) % radices[:, None]
    x = atom_table[which[:, None], digits].T.reshape(size, n, d)
    # reduced over axis 0, row by row: the last cell's factor first
    prob = np.multiply.reduce(prob_table[which[::-1, None], digits[::-1]], axis=0)
    return x, prob


def lemma1_check(
    dist: DiscreteMatrixDistribution, u: Sequence[float], max_values: int = _MAX_VALUES
) -> Lemma1Report:
    """Exhaustively verify the last-exceedance decomposition on `dist`, whose
    enumeration holds support_size * n * d cell values, at most max_values:
    that bounds both its memory and its time.

    Both sides are accumulated with exactly rounded summation (math.fsum),
    keeping the comparison within a 1e-12 budget even for float atom
    probabilities.
    """
    u = np.asarray([float(v) for v in u])
    if len(u) != dist.d or np.isnan(u).any():
        raise ValueError("need one threshold per component, none of them NaN, got %r" % (u.tolist(),))
    x, prob = _realisations(dist, max_values)

    # inclusive suffix maxima over time, then the strict (exclusive) version
    incl = np.maximum.accumulate(x[:, ::-1, :], axis=1)[:, ::-1, :]
    excl = np.full_like(x, -np.inf)
    excl[:, :-1, :] = incl[:, 1:, :]

    union = (x.max(axis=1) > u).any(axis=1)
    # term (k, c) of a realisation: X_k^(c) exceeds, components before c are
    # quiet from k on, and components from c on are quiet after k
    quiet_before = np.ones(x.shape, dtype=bool)
    np.logical_and.accumulate(incl[:, :, :-1] <= u[:-1], axis=2, out=quiet_before[:, :, 1:])
    quiet_after = np.logical_and.accumulate((excl <= u)[:, :, ::-1], axis=2)[:, :, ::-1]
    counts = ((x > u) & quiet_before & quiet_after).sum(axis=(1, 2))

    lhs = math.fsum(prob[union].tolist())
    weighted = prob * counts
    rhs = math.fsum(weighted[counts > 0].tolist())
    return Lemma1Report(lhs=lhs, rhs=rhs, difference=abs(lhs - rhs), support_size=len(x))


@dataclass(frozen=True)
class BlockConsistency:
    n: int
    r_n: int
    q_n: int
    full_prob: float
    block_prob: float
    block_prob_power: float
    gap: float
    se_full: float
    se_power: float  # delta-method error of block_prob ** q_n


def block_consistency_check(
    model: CorrelationModel,
    n: int,
    r_n: int,
    x: Sequence[float],
    replicates: int,
    key: RngKey,
    sampler: str = "cholesky",
) -> BlockConsistency:
    """Estimate P(maxima of a full row stay below u_n(x)) against the
    q_n-th power of the same probability on a single length-r_n block.

    Both runs use the row-n thresholds, the row-n correlation model, and
    the same key; only the path length differs, so lag-0 rows with d <= 2
    take the exact route at both.  Replicate r reads values r*s ...
    (r+1)*s - 1 of key's substream, s the uniforms its plan draws per
    replicate, so the two lengths share a replicate's uniforms (common
    random numbers) only where s is the same at both: on the exact route,
    s = 2d - 1.  On the path routes s grows with the length, and the two
    runs read different stretches of the substream.  With r_n = n the two
    computations coincide and the gap is exactly zero.
    """
    if not 1 <= r_n <= n:
        raise ValueError("need 1 <= r_n <= n")
    if len(x) != model.d:
        raise ValueError("x needs one level per component: got %d for d = %d" % (len(x), model.d))
    if any(math.isnan(v) for v in x):
        raise ValueError("need non-NaN levels x, got %r" % (list(x),))
    if replicates < 1:
        raise ValueError("replicates must be >= 1, got %d" % replicates)
    q_n = n // r_n

    def below(length: int) -> float:
        blocks = iter_path_blocks(model, length, key, replicates, sampler, n, maxima=True)
        maxima = np.concatenate([block for _, block in blocks])
        return int(empirical_cdf(maxima, [x], n).counts[0]) / replicates

    p_full = below(n)
    p_block = below(r_n)
    powered = p_block**q_n
    se_full = math.sqrt(p_full * (1.0 - p_full) / replicates)
    se_block = math.sqrt(p_block * (1.0 - p_block) / replicates)
    se_power = q_n * p_block ** max(q_n - 1, 0) * se_block
    return BlockConsistency(
        n=n,
        r_n=r_n,
        q_n=q_n,
        full_prob=p_full,
        block_prob=p_block,
        block_prob_power=powered,
        gap=abs(p_full - powered),
        se_full=se_full,
        se_power=se_power,
    )


# ---------------------------------------------------------------------------
# report files


def write_csv(path, header: Sequence[str], rows) -> None:
    """Comma-separated header and rows, each cell written by repr, every line
    ending in a bare newline."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))


def write_convergence_csv(report: ConvergenceReport, path) -> None:
    """Rows n, x1..xd, then the entries' columns in their order."""
    names = list(report.entries[0].columns) if report.entries else []
    d = len(report.entries[0].x_grid[0]) if report.entries else 0
    header = ["n"] + ["x%d" % (i + 1) for i in range(d)] + names
    write_csv(path, header, [
        [entry.n, *point, *(float(entry.columns[name][g]) for name in names)]
        for entry in report.entries
        for g, point in enumerate(entry.x_grid)
    ])


def report_jsonable(report: ConvergenceReport) -> dict:
    return to_jsonable(
        {
            "verdict": report.verdict,
            "step_slacks": report.step_slacks,
            "entries": [
                {
                    "n": e.n,
                    "x_grid": e.x_grid,
                    **{name: values.tolist() for name, values in e.columns.items()},
                    "sup_deviation": e.sup_deviation,
                }
                for e in report.entries
            ],
        }
    )


def write_convergence_json(report: ConvergenceReport, path) -> None:
    write_json(path, report_jsonable(report))
