"""Seed-pinned randomized property suite.

The trial bundle lives in ``corpus.run_property_trials`` and runs once per
session (the ``property_trial_failures`` fixture); each trial checks
diagram commutation, derivation uniqueness, trace and Hermiticity
preservation, brute-force agreement on mixtures of state generators, the
swap-dilation round trip for random maps with spanning positive domains, and
CP trace-norm contractivity as a positive control.
"""

import numpy as np

from beyondcp import (
    map_from_kraus,
    partial_trace,
    positive_domain_membership,
    swap_representation,
)
from beyondcp.catalog import contractivity_ratio
from beyondcp.sampling import random_density

from corpus import convex_mixture, random_map_with_spanning_positive_domain

MASTER_SEED = 20260811


def test_randomized_property_suite(property_trial_failures):
    failures = property_trial_failures
    assert not failures, f"{len(failures)} failures: {failures[:10]}"


def test_round_trip_physical_domain_agrees_with_membership():
    """For swap representations, reduced joint states land in the positive domain."""
    rng = np.random.default_rng(MASTER_SEED + 1)
    for _ in range(10):
        target, sample = random_map_with_spanning_positive_domain(
            rng, seed=int(rng.integers(2**32))
        )
        rep = swap_representation(target, list(sample.members))
        state_gens = [g for g in rep.subspace.generators if g.is_density(1e-9)]
        for _ in range(5):
            joint = convex_mixture(state_gens, rng)
            reduced = partial_trace(joint, keep=0)
            assert positive_domain_membership(target, reduced)


def test_derived_maps_contract_only_when_cp():
    """The thermal-family map is CP, so its trace-norm ratios stay below one."""
    rng = np.random.default_rng(MASTER_SEED + 2)
    from beyondcp.catalog import controlled_phase_kraus

    for t in np.linspace(0.1, 3.0, 8):
        e1, e2 = controlled_phase_kraus(t)
        kraus_map = map_from_kraus([e1, e2])
        for _ in range(5):
            r1, r2 = random_density(2, rng), random_density(2, rng)
            ratio = contractivity_ratio(kraus_map, r1, r2, p=1)
            assert ratio is None or ratio <= 1 + 1e-9
