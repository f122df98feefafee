"""Shared fixtures."""

import concurrent.futures
import os

import pytest


@pytest.fixture
def recording_executor(monkeypatch):
    """Swap ``concurrent.futures.ProcessPoolExecutor``, which
    ``enumeration.map_tasks`` imports when it starts a pool, for an
    in-process fake.

    The fixture is the list that collects every requested
    ``max_workers``.  ``os.cpu_count`` reads 4; no process is started.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    requested = []

    class RecordingExecutor:
        def __init__(self, max_workers=None):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return requested
