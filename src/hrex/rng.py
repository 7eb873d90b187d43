"""Counter-based random streams with named substreams.

Every stochastic routine in the toolkit draws from a Philox generator
addressed by a root seed plus a path of non-negative integers, an RngKey.
Substreams with distinct paths are statistically independent, and a draw
depends only on (root, path), never on how many other substreams were
consumed first.  That is what makes replicate-level parallelism and
common-random-number reuse reproducible: replicate r always sees the same
bytes.

The draws are counter-addressed: `uniform_open(key, size, start=s)` reads
values s, s + 1, ... of key's substream, and `standard_normal(key, size,
start=s)` the normals of those values.  Philox is counter-based (Salmon et
al., SC 2011) and gives 4 words, one per value, per counter step, so a
read advances the counter to step s // 4 and drops s % 4 words, at a cost
that does not grow with s.  Replicates that draw k values each read
replicate r as values r*k ... (r+1)*k - 1 of one substream, so a batch of
replicates is one fill.  A read runs in the calling thread and starts no
threads: a consumer that splits its work across cores calls `run_parts`,
the package's one core-split runner, and each part reads its slice by the
same address, so any split gives the same bits as one sequential fill.

Gaussian variates are produced by inverting the normal CDF of a uniform
stream rather than by rejection, so two estimators fed the same substream
consume identical uniforms and stay pathwise coupled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

_HALF_STEP = 2.0**-54  # half the 2^-53 lattice spacing of Generator.random
_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1
_WORDS_PER_STEP = 4  # Philox4x64 gives 4 words, so 4 values, per counter step
_POOL_PREFIX = "hrex-part"  # names the threads of run_parts' pools


@dataclass(frozen=True)
class RngKey:
    """Address of one substream: a root seed and a path of integers."""

    root: int
    path: tuple[int, ...] = field(default_factory=tuple)

    def child(self, *parts: int) -> "RngKey":
        if any(p < 0 for p in parts):
            raise ValueError("need non-negative substream indices")
        return RngKey(self.root, self.path + tuple(int(p) for p in parts))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.root, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


def uniform_open(key: RngKey, size, start: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Uniforms on the open interval (0, 1), safe to pass to inverse CDFs:
    values start, start + 1, ... of key's substream, of shape size, or
    written into out (a C-contiguous float64 array of that shape) and
    returned as out; start must be non-negative.

    Values are midpoints of a 2^53 lattice, (k + 1/2) / 2^53 for the top 53
    bits k of a Philox word.  The top midpoint rounds to 1.0 in float64 and
    is clamped to the largest double below 1, so neither endpoint can occur.
    """
    if out is None:
        out = np.empty(size)
    elif out.shape != (tuple(size) if np.iterable(size) else (size,)) or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array of shape size")
    _fill(key, out.reshape(-1), start)
    return out


def standard_normal(key: RngKey, size, start: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """N(0,1) variates: the inverse normal CDF applied in place to
    uniform_open(key, size, start, out)."""
    uniforms = uniform_open(key, size, start, out)
    return ndtri(uniforms, out=uniforms)


def run_parts(total: int, parts: int, work) -> None:
    """Call work(start, stop) on contiguous ranges covering [0, total) in order:
    one range when parts, total or os.cpu_count() is at most 1, else at most
    the least of the three, each of ceil(total / that) values (the last may
    be shorter).  A single range runs in the caller's thread, more on a pool
    of one thread each.  The draws start no threads, so a consumer's split
    is the only one under it.  The first exception a range raises
    propagates once every range has ended."""
    parts = split_count(total, parts)
    if parts <= 1:
        work(0, total)
        return
    from concurrent.futures import ThreadPoolExecutor  # only a split needs it; set-up does not load it

    step = -(-total // parts)
    starts = range(0, total, step)
    with ThreadPoolExecutor(max_workers=len(starts), thread_name_prefix=_POOL_PREFIX) as pool:
        futures = [pool.submit(work, s, min(s + step, total)) for s in starts]
        for f in futures:
            f.result()


def split_count(total: int, parts: int) -> int:
    """How many ranges run_parts(total, parts, ...) asks for: at most parts,
    total and os.cpu_count(), and at least 1."""
    parts = min(parts, total)
    if parts > 1:  # os.cpu_count costs a system call: ask only for a split
        parts = min(parts, os.cpu_count() or 1)
    return max(parts, 1)


def _fill(key: RngKey, flat: np.ndarray, start: int) -> None:
    """Fill flat with uniforms start, start + 1, ... of key's substream: the
    counter advances to the step holding value start, and the words before
    it in that step are drawn and dropped.  Generator.random gives k / 2^53,
    and the half step rounds to the same double as (k + 1/2) / 2^53."""
    if start < 0:
        raise ValueError("need a non-negative start, got %d" % start)
    gen = key.generator()
    step, skip = divmod(start, _WORDS_PER_STEP)
    if step:
        gen.bit_generator.advance(step)
    if skip:
        gen.random(skip)
    gen.random(out=flat)
    flat += _HALF_STEP
    np.minimum(flat, _BELOW_ONE, out=flat)
