"""Shared test settings and helpers: property tests run the same examples on every run."""

import concurrent.futures

import pytest
from hypothesis import settings

settings.register_profile("chainbook", derandomize=True, deadline=None, database=None)
settings.load_profile("chainbook")


@pytest.fixture
def recording_pool(monkeypatch):
    """Stands in for ``ProcessPoolExecutor``, running every task in this process; returns the
    list of the ``max_workers`` of each pool started (a real pool starts them at its first submit)."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started
