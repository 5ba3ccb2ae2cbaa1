import sys
from collections import Counter

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


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shape of each array handed to ``np.linalg.eigh`` during the test, in call order."""
    shapes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return shapes


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls to functions of ``beyondcp``, in every module that holds them.

    ``count_calls((module, name), ...)`` wraps each named function wherever a
    ``beyondcp`` module imported it and returns one Counter, keyed by name.
    """
    counts = Counter()

    def install(*targets):
        for module, name in targets:
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for holder in list(sys.modules.values()):
                if getattr(holder, "__name__", "").startswith("beyondcp") and (
                    getattr(holder, name, None) is original
                ):
                    monkeypatch.setattr(holder, name, counting)
        return counts

    return install
