"""The numerical rules every verdict rests on, tested at their bounds.

Span membership: X lies in a subspace iff ||X - proj(X)|| <= residual_tol *
max(1, ||X||).  The state test: Hermitian and of unit trace within a
tolerance, with no eigenvalue below minus a slack.  Each rule has one owner;
every caller must reach the same verdict a relative 1e-6 inside and outside
each bound.  Intersection and sum: two subspaces share a direction iff the
sine of its principal angle is at most rank_cut, and the sum adds every
direction the intersection does not share.  Rank: a singular value is kept iff
it exceeds rank_cut times its scale, the largest singular value s_0 for a span
and max(s_0, 1) for the domain of a derived map.
"""

import math

import numpy as np
import pytest

from beyondcp import (
    DEFAULT_TOL,
    PAULI_I,
    OperatorSubspace,
    SpaceLayout,
    ToleranceConfig,
    PAULI_Y,
    MapDomainError,
    derive_map,
    identity,
    identity_map,
    map_from_action,
    operator,
    positive_domain_membership,
    span_from_generators,
    subspace_intersection,
    subspace_leq,
    subspace_sum,
)
from beyondcp.maps import _positive_domain_mask
from beyondcp.operators import PAULI_X, PAULI_Z, _density_mask
from beyondcp.subspaces import _span_of_columns

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
    assert subspace_sum(DOMAIN, tilted).dim == DOMAIN.dim + 1 - shared
    assert subspace_sum(tilted, DOMAIN).dim == DOMAIN.dim + 1 - shared


def _orthonormal(rng, n, k):
    z = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    return np.linalg.qr(z)[0]


def _tilted_pair(dims, theta, seed):
    """Random V and W on ``dims`` that share s directions exactly and one more up to the
    principal angle theta, with orthonormal bases mixed by random unitaries (so the tilted
    direction is spread over every basis element); returns V, W and s."""
    rng = np.random.default_rng(seed)
    layout = SpaceLayout(dims)
    n = layout.total_dim**2
    s, pv, pw = (int(rng.integers(lo, hi)) for lo, hi in [(0, 3), (1, n // 4), (0, n // 4)])
    q = _orthonormal(rng, n, s + pv + pw + 1)
    shared, only_v, only_w = q[:, :s], q[:, s : s + pv], q[:, s + pv : s + pv + pw]
    tilted = only_v[:, :1] * math.cos(theta) + q[:, -1:] * math.sin(theta)
    bv = np.hstack([shared, only_v]) @ _orthonormal(rng, s + pv, s + pv)
    bw = np.hstack([shared, tilted, only_w]) @ _orthonormal(rng, s + 1 + pw, s + 1 + pw)
    return OperatorSubspace(layout, bv), OperatorSubspace(layout, bw), s


PAIR_DIMS = [(2, 2), (2, 3), (4, 4)]
SINE_FACTORS = [0.5, 0.8, 0.95, 1.05, 1.25, 1.5, 2.0, 3.0]  # on rank_cut, off its rounding


@pytest.mark.parametrize("factor", SINE_FACTORS)
@pytest.mark.parametrize("dims", PAIR_DIMS)
@pytest.mark.parametrize("seed", [1, 2])
def test_a_sum_adds_exactly_the_directions_an_intersection_does_not_share(dims, factor, seed):
    v, w, s = _tilted_pair(dims, factor * CUT, seed)
    shared = s + (factor < 1)
    for a, b in [(v, w), (w, v)]:
        assert subspace_intersection(a, b).dim == shared
        total = subspace_sum(a, b)
        assert total.dim + shared == v.dim + w.dim
        # the larger basis is kept bit for bit, the rest of the basis is orthonormal to it
        big = a if a.dim >= b.dim else b
        assert np.array_equal(total.basis_matrix()[:, : big.dim], big.basis_matrix())


def _stacked_sum(v, w):
    """The sum as one SVD of [B_v B_w], cut at rank_cut times its largest singular value."""
    return _span_of_columns(v.layout, np.hstack([v.basis_matrix(), w.basis_matrix()]), v.tol)


def _distance(x, y):
    """The largest distance of a column of x from the span of the orthonormal columns of y."""
    return float(np.max(np.linalg.norm(x - y @ (y.conj().T @ x), axis=0), initial=0.0))


# away from the cut: the oracle's SVD finds a direction at sine s only to about eps / s
@pytest.mark.parametrize("theta", [0.0, 1e-4, 0.3])
@pytest.mark.parametrize("dims", PAIR_DIMS)
@pytest.mark.parametrize("seed", [3, 4])
def test_a_sum_spans_what_one_svd_of_both_bases_spans_away_from_the_cut(dims, theta, seed):
    v, w, _ = _tilted_pair(dims, theta, seed)
    for a, b in [(v, w), (w, v)]:
        got, oracle = subspace_sum(a, b).basis_matrix(), _stacked_sum(a, b).basis_matrix()
        assert got.shape == oracle.shape
        assert _distance(got, oracle) <= 1e-10 and _distance(oracle, got) <= 1e-10


RANK_SIDES = [(1 - 1e-6, False), (1 + 1e-6, True)]  # (factor on rank_cut * scale, kept)
WIDE = ToleranceConfig(residual_tol=100 * CUT)  # a dropped direction still lies in the span


@pytest.mark.parametrize("factor,kept", RANK_SIDES)
@pytest.mark.parametrize("s0", [0.1, 10.0])
def test_a_span_keeps_a_direction_above_rank_cut_times_its_largest_singular_value(
    s0, factor, kept
):
    generators = [PAULI_I * (s0 / math.sqrt(2)), Y_UNIT * (factor * CUT * s0)]  # s_0, s_1
    assert span_from_generators(generators, WIDE).dim == 1 + kept


def _unit_with_bath_trace(p, r):
    """A unit-norm P (x) (c 1 + sqrt(1 - c^2) Z) / 2 on (2, 2) whose bath trace has norm r."""
    c = r / math.sqrt(2)
    bath = np.eye(2) * c + PAULI_Z.entries * math.sqrt(1 - c * c)
    return operator(np.kron(p.entries, bath) / 2, (2, 2))


@pytest.mark.parametrize("factor,kept", RANK_SIDES)
@pytest.mark.parametrize("s0", [0.5, 1.4])
def test_a_derived_domain_keeps_a_direction_above_rank_cut_times_the_floored_scale(
    s0, factor, kept
):
    scale = max(s0, 1.0)  # the reduced basis of an orthonormal basis: floored at 1
    v = span_from_generators(
        [_unit_with_bath_trace(PAULI_Z, s0), _unit_with_bath_trace(PAULI_X, factor * CUT * scale)],
        WIDE,
    )
    assert derive_map(v, identity((2, 2))).domain.dim == 1 + kept


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
