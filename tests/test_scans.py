"""Stacked positive-domain scans against the one-state-at-a-time reference.

The reference functions below are the per-state scans that the stacked ones
replaced, kept verbatim in behaviour: they draw the same candidates from the
same generator, test each as an Operator and stop where the original loop
stopped.  The stacked scans must agree with them bit for bit.
"""

import numpy as np
import pytest
from corpus import random_hp_tp_map

from beyondcp import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    derive_map,
    identity,
    map_from_kraus,
    operator,
    positive_domain_membership,
    positivity_scan,
    sample_positive_domain,
)
from beyondcp.catalog import (
    controlled_phase_unitary,
    gibbs_subspace,
    repolarizer,
    transpose_map,
)
from beyondcp.maps import _positive_domain_mask
from beyondcp.operators import vec
from beyondcp.sampling import axis_grid_states, random_kraus_channel, random_pure_state

# -- the per-state reference ------------------------------------------------------


def reference_membership(phi, rho):
    if rho.layout.dims != phi.domain.layout.dims:
        return False
    if not phi.domain.contains(rho):
        return False
    if not rho.is_hermitian(phi.tol.residual_tol):
        return False
    if abs(rho.trace() - 1.0) > phi.tol.residual_tol:
        return False
    if rho.min_eigenvalue() < -phi.tol.psd_slack:
        return False
    return phi.apply(rho).min_eigenvalue() >= -phi.tol.psd_slack


def reference_candidates(phi, n_samples, rng):
    n = phi.dim
    full = phi.domain.dim == n * n
    state_tol = max(phi.tol.residual_tol, phi.tol.psd_slack)
    for rho in axis_grid_states(phi.domain.layout):
        if full or phi.domain.contains(rho):
            yield rho
    produced = 0
    attempts = 0
    budget = 50 * n_samples + 200
    while produced < n_samples and attempts < budget:
        attempts += 1
        rho = random_pure_state(phi.domain.layout, rng)
        if not full:
            projected = phi.domain.project(rho)
            hermitized = (projected + projected.dagger()) * 0.5
            tr = hermitized.trace().real
            if abs(tr) < 0.1:
                continue
            rho = hermitized / tr
            if not (phi.domain.contains(rho) and rho.is_density(state_tol)):
                continue
        produced += 1
        yield rho


def reference_scan(phi, n_samples, seed):
    rng = np.random.default_rng(seed)
    worst = None
    tested = 0
    for rho in reference_candidates(phi, n_samples, rng):
        tested += 1
        min_eig = phi.apply(rho).min_eigenvalue()
        if worst is None or min_eig < worst:
            worst = min_eig
        if min_eig < -phi.tol.psd_slack:
            return True, rho, min_eig, tested
    return False, None, worst, tested


def reference_sample(phi, n, seed):
    rng = np.random.default_rng(seed)
    nn = phi.dim
    center = identity(phi.domain.layout) / nn
    center_ok = phi.domain.contains(center) and reference_membership(phi, center)
    members = []
    for rho in reference_candidates(phi, 60 * n + 300, rng):
        if len(members) >= n:
            break
        if reference_membership(phi, rho):
            members.append(rho)
            continue
        if center_ok:
            for t in (0.5, 0.75, 0.9, 0.99, 0.999, 1.0):
                mixed = (1.0 - t) * rho + t * center
                if reference_membership(phi, mixed):
                    members.append(mixed)
                    break
    if not members:
        return [], 0
    s = np.linalg.svd(np.column_stack([vec(r.entries) for r in members]), compute_uv=False)
    return members, int(np.sum(s > phi.tol.rank_cut * s[0]))


# -- the maps ------------------------------------------------------------------------


def _random_parts(seed):
    rng = np.random.default_rng(seed)
    raw = random_hp_tp_map(rng)
    return raw, map_from_kraus(random_kraus_channel(2, 3, rng))


def _map(name, seed):
    if name == "transpose":
        return transpose_map()
    if name == "repolarizer":
        return repolarizer(0.1)
    if name == "random_hp_tp":
        return _random_parts(seed)[0]
    if name == "gibbs_cphase":  # a proper domain, span{1, X, Z}
        return derive_map(gibbs_subspace(), controlled_phase_unitary(0.7))
    # nearly CP mixtures, whose first counterexample may lie deep in the random states
    raw, cp = _random_parts(seed)
    s = float(name.split("_")[1])
    return (1.0 - s) * cp + s * raw


MAPS = ["transpose", "repolarizer", "random_hp_tp", "gibbs_cphase"]
MIXTURES = ["mix_0.025", "mix_0.065", "mix_0.115"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", MAPS)
def test_sample_positive_domain_matches_per_state_reference(name, seed):
    phi = _map(name, seed)
    for n in (1, 12):
        sample = sample_positive_domain(phi, n, seed)
        members, span = reference_sample(phi, n, seed)
        assert len(sample.members) == len(members)
        for got, want in zip(sample.members, members):
            assert got.layout.dims == want.layout.dims
            assert np.array_equal(got.entries, want.entries)
        assert sample.span_dim == span


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", MAPS + MIXTURES)
def test_positivity_scan_matches_per_state_reference(name, seed):
    phi = _map(name, seed)
    for n_samples in (1, 64, 200):
        result = positivity_scan(phi, n_samples, seed)
        found, rho, min_eig, tested = reference_scan(phi, n_samples, seed)
        assert result.violation_found == found
        assert result.n_tested == tested
        assert result.min_eigenvalue == min_eig
        if found:
            assert np.array_equal(result.counterexample.entries, rho.entries)
        else:
            assert result.counterexample is None


def test_positivity_scan_counterexample_beyond_the_first_block():
    # the first violating state of this mixture is random state 132 after the grid
    result = positivity_scan(_map("mix_0.115", 1), 200, seed=1)
    assert result.violation_found
    assert result.n_tested == 138


def test_random_hp_tp_sample_can_exhaust_its_budget():
    # no member at all: every one of the 60 n + 300 candidates and its retries is tested
    sample = sample_positive_domain(_map("random_hp_tp", 1), 12, seed=1)
    assert sample.members == () and sample.span_dim == 0


def _mixed_batch():
    eps = 0.1
    return [
        (PAULI_I + 0.05 * PAULI_X) * 0.5,  # inside the ball: a member of both maps
        (PAULI_I + 0.08 * PAULI_Z) * 0.5,
        (PAULI_I + eps * PAULI_Y) * 0.5,  # outside span{1, X, Z}
        (PAULI_I + 0.9 * PAULI_X) * 0.5,  # a state whose repolarized image is not positive
        (PAULI_I + 1.5 * PAULI_Z) * 0.5,  # Hermitian with unit trace, but not positive
        (PAULI_I + 0.05j * PAULI_X) * 0.5,  # not Hermitian, though in the domain
        (PAULI_I + 0.05 * PAULI_X) * 0.7,  # wrong trace
        operator([[0.5, 0.1], [0.1, 0.5]], 2),
        operator([[np.nan, 0.0], [0.0, 0.5]], 2),
    ]


@pytest.mark.parametrize("name", ["repolarizer", "gibbs_cphase"])
def test_stacked_membership_equals_single_state_membership(name):
    phi = _map(name, 1)
    batch = _mixed_batch()
    mask = _positive_domain_mask(phi, np.array([rho.entries for rho in batch]))
    want = [reference_membership(phi, rho) for rho in batch]
    assert mask.tolist() == want
    assert [positive_domain_membership(phi, rho) for rho in batch] == want
    assert True in want and want.count(False) >= 5


@pytest.mark.parametrize("name", ["repolarizer", "mix_0.115"])
def test_stacked_membership_agrees_at_the_last_bit_of_the_boundary(name):
    # bisect to neighbouring states on either side of the positive-domain
    # boundary, one state at a time, then test all of them as one stack
    phi = _map(name, 1)
    rng = np.random.default_rng(7)
    center = identity(2).entries / 2
    edges = []
    while len(edges) < 12:
        direction = random_pure_state(2, rng).entries - center
        if positive_domain_membership(phi, operator(center + direction, 2)):
            continue  # the whole segment lies in the positive domain
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if positive_domain_membership(phi, operator(center + mid * direction, 2)):
                lo = mid
            else:
                hi = mid
        edges += [center + lo * direction, center + hi * direction]
    stack = np.array(edges)
    want = [reference_membership(phi, operator(m, 2)) for m in stack]
    assert want == [True, False] * 6
    assert _positive_domain_mask(phi, stack).tolist() == want
