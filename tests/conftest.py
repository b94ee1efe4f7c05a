"""Shared fixtures: the default harness context is expensive enough to cache."""

import tracemalloc

import numpy as np
import pytest

from reservoir_tta import config


@pytest.fixture(scope="session")
def default_config():
    return config.RunConfig()


@pytest.fixture(scope="session")
def context(default_config):
    """Source model, calibration, and domains for the default config."""
    return config.build_context(default_config)


@pytest.fixture()
def default_rng_calls(monkeypatch):
    """The argument tuples of the ``np.random.default_rng`` calls made through
    the module attribute while the test runs, as a wrapper on it would see
    them."""
    calls = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return calls


def traced_peak_mb(fn, *args):
    """The peak of the memory traced while ``fn(*args)`` runs, above the
    traced memory at its start, in MB of 2**20 bytes (``tracemalloc``,
    which sees numpy's buffers)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(name="traced_peak_mb")
def traced_peak_mb_fixture():
    """:func:`traced_peak_mb`, for test modules, which cannot import it by
    name next to another ``conftest`` module."""
    return traced_peak_mb
