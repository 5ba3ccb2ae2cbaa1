import numpy as np
import pytest

from corpus import run_property_trials


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture(scope="session")
def property_trial_failures():
    """The 200-trial seed-pinned bundle, run once and shared by its two gates."""
    return run_property_trials(200, 20260811)
