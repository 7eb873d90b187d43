"""Counter-based random streams with named substreams.

Every stochastic routine in the toolkit draws from a Philox generator
addressed by a root seed plus a path of non-negative integers.  Substreams
with distinct paths are statistically independent, and a draw depends only
on (root, path), never on how many other substreams were consumed first.
That is what makes replicate-level parallelism and common-random-number
reuse reproducible: replicate r always sees the same bytes.

Gaussian variates are produced by inverting the normal CDF of a uniform
stream rather than by rejection, so two estimators fed the same substream
consume identical uniforms and stay pathwise coupled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

_U53 = 1 << 53


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


def uniform_open(gen: np.random.Generator, size) -> np.ndarray:
    """Uniforms on the open interval (0, 1), safe to pass to inverse CDFs.

    Values are midpoints of a 2^53 lattice, so neither endpoint can occur.
    """
    return (gen.integers(0, _U53, size=size).astype(np.float64) + 0.5) / _U53


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """N(0,1) variates via the inverse normal CDF of a uniform stream."""
    return ndtri(uniform_open(gen, size))

