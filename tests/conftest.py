"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every thread pool hrex.rng.run_parts opens, in
    order; the pools are real and run their work on their own threads."""
    sizes = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", CountingPool)
    return sizes
