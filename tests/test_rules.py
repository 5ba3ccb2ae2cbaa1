"""The numerical rules every verdict rests on, tested at their bounds.

Span membership: X lies in a subspace iff ||X - proj(X)|| <= residual_tol *
max(1, ||X||).  The state test: Hermitian and of unit trace within a
tolerance, with no eigenvalue below minus a slack.  Each rule has one owner;
every caller must reach the same verdict a relative 1e-6 inside and outside
each bound.  Intersection: two subspaces share a direction iff the sine of
its principal angle is at most rank_cut.
"""

import math

import numpy as np
import pytest

from beyondcp import (
    DEFAULT_TOL,
    PAULI_I,
    PAULI_Y,
    MapDomainError,
    identity_map,
    map_from_action,
    operator,
    positive_domain_membership,
    span_from_generators,
    subspace_intersection,
    subspace_leq,
)
from beyondcp.maps import _positive_domain_mask
from beyondcp.operators import PAULI_X, PAULI_Z, _density_mask

TOL = DEFAULT_TOL.residual_tol
CUT = DEFAULT_TOL.rank_cut
SLACK = DEFAULT_TOL.psd_slack
SIDES = [(1 - 1e-6, True), (1 + 1e-6, False)]  # (factor on the bound, inside)

DOMAIN = span_from_generators([PAULI_I, PAULI_X, PAULI_Z])
Y_UNIT = PAULI_Y / math.sqrt(2)  # unit norm, orthogonal to DOMAIN


def _state(r):
    """A state of norm below 1 at distance r from DOMAIN."""
    return PAULI_I * 0.5 + Y_UNIT * r


def _unit(r):
    """A unit-norm operator at distance r from DOMAIN."""
    return PAULI_I * (math.sqrt(1 - r * r) / math.sqrt(2)) + Y_UNIT * r


@pytest.mark.parametrize("factor,inside", SIDES)
def test_every_membership_test_reads_the_same_bound(factor, inside):
    r = factor * TOL
    rho = _state(r)
    assert DOMAIN.coordinates(rho)[1] == pytest.approx(r, rel=1e-8)
    assert DOMAIN.contains(rho) is inside
    assert DOMAIN.contains(_unit(r) * 10.0) is inside  # the bound grows with the norm
    assert subspace_leq(span_from_generators([_unit(r)]), DOMAIN) is inside
    phi = map_from_action(lambda a: a, DOMAIN)
    if inside:
        assert (phi.apply(rho) - PAULI_I * 0.5).hs_norm() <= 1e-15
    else:
        with pytest.raises(MapDomainError):
            phi.apply(rho)
    assert positive_domain_membership(phi, rho) is inside


@pytest.mark.parametrize("factor,shared", [(0.5, True), (1.5, False)])
def test_an_intersection_shares_a_direction_up_to_a_sine_of_rank_cut(factor, shared):
    tilted = span_from_generators([_unit(factor * CUT)])  # at angle asin(factor * CUT)
    assert subspace_intersection(DOMAIN, tilted).dim == int(shared)
    assert subspace_intersection(tilted, DOMAIN).dim == int(shared)


def _hermiticity_drift(d):
    """||A - A^dag|| = d, everything else a state."""
    s = d / (2 * math.sqrt(2))
    return np.array([[0.5, s], [-s, 0.5]], dtype=complex)


def _trace_drift(t):
    return np.eye(2, dtype=complex) * ((1 + t) / 2)


def _negative_eigenvalue(e):
    return np.diag([1 + e, -e]).astype(complex)


CASES = [
    (_hermiticity_drift, TOL),
    (_trace_drift, TOL),
    (_negative_eigenvalue, SLACK),
]


@pytest.mark.parametrize("factor,inside", SIDES)
@pytest.mark.parametrize("make,bound", CASES, ids=["hermiticity", "trace", "eigenvalue"])
def test_every_state_test_reads_the_same_bounds(make, bound, factor, inside):
    m = make(factor * bound)
    # Operator.is_density(tol) applies one tolerance to all three bounds
    assert operator(m, 2).is_density(bound) is inside
    assert _density_mask(m[None], TOL, SLACK).tolist() == [inside]
    assert _positive_domain_mask(identity_map((2,)), m[None]).tolist() == [inside]


def test_a_state_verdict_does_not_depend_on_the_stack():
    stack = np.array([make(f * b) for make, b in CASES for f, _ in SIDES])
    want = [inside for _ in CASES for _, inside in SIDES]
    assert _density_mask(stack, TOL, SLACK).tolist() == want
    assert _positive_domain_mask(identity_map((2,)), stack).tolist() == want
    assert _density_mask(stack[:0], TOL, SLACK).shape == (0,)
    nan = np.full((1, 2, 2), np.nan, dtype=complex)
    assert _density_mask(nan, TOL, SLACK).tolist() == [False]
