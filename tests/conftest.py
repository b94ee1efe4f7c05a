"""Shared fixtures: the default harness context is expensive enough to cache."""

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
