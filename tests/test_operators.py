import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from beyondcp import (
    PAULI_X,
    Operator,
    SpaceLayout,
    adjoint_action,
    bell_projector,
    gibbs_state,
    identity,
    ket_projector,
    map_from_kraus,
    operator,
    partial_trace,
    relative_entropy,
    schatten_distance,
    span_from_generators,
    swap_unitary,
    tensor,
)
from beyondcp.operators import (
    _reduced_evolution,
    _reduced_evolution_matrix,
    _stacked,
)
from beyondcp.sampling import haar_unitary, random_density

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct index expansion of the Kronecker product."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = a[i, j] * b[k, l]
    return out


def trace_bath_oracle(m: np.ndarray, d_s: int, d_b: int) -> np.ndarray:
    """Index-sum partial trace over the second factor of a two-factor operator."""
    out = np.zeros((d_s, d_s), dtype=complex)
    for s in range(d_s):
        for sp in range(d_s):
            for b in range(d_b):
                out[s, sp] += m[s * d_b + b, sp * d_b + b]
    return out


def _rand_ops(seed, n=2, count=2):
    gen = np.random.default_rng(seed)
    return [
        gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def test_tensor_identity_case():
    result = tensor(identity(2), identity(2))
    assert np.allclose(result.entries, np.eye(4))
    assert result.layout.dims == (2, 2)


def test_tensor_xx_is_antidiagonal_ones():
    expected = kron_oracle(PAULI_X.entries, PAULI_X.entries)
    assert np.allclose(expected, np.fliplr(np.eye(4)))
    assert np.allclose(tensor(PAULI_X, PAULI_X).entries, expected)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tensor_mixed_product_identity(seed):
    a, b, c, d = _rand_ops(seed, count=4)
    lhs = tensor(operator(a, 2), operator(b, 2)) @ tensor(operator(c, 2), operator(d, 2))
    rhs = tensor(operator(a @ c, 2), operator(b @ d, 2))
    assert np.allclose(lhs.entries, rhs.entries)


def test_tensor_matches_index_oracle(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(tensor(operator(a, 2), operator(b, 3)).entries, kron_oracle(a, b))


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------


def test_partial_trace_of_product_recovers_factor(rng):
    a = operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), 2)
    rho_b = random_density(2, rng)
    reduced = partial_trace(tensor(a, rho_b), keep=0)
    assert np.allclose(reduced.entries, a.entries, atol=1e-12)


def test_partial_trace_swap_gives_identity():
    swap = swap_unitary(2)
    expected = trace_bath_oracle(swap.entries, 2, 2)
    assert np.allclose(expected, np.eye(2))
    assert np.allclose(partial_trace(swap, keep=0).entries, expected)


def test_partial_trace_bell_state():
    reduced = partial_trace(bell_projector(), keep=0)
    expected = trace_bath_oracle(bell_projector().entries, 2, 2)
    assert np.allclose(expected, np.eye(2) / 2)
    assert np.allclose(reduced.entries, expected, atol=1e-12)


def test_partial_trace_matches_oracle_on_random_input(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    op = operator(m, (2, 3))
    assert np.allclose(partial_trace(op, keep=0).entries, trace_bath_oracle(m, 2, 3))


def test_partial_trace_keeps_second_factor(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    joint = tensor(operator(a, 2), operator(b, 3))
    reduced = partial_trace(joint, keep=1)
    assert np.allclose(reduced.entries, np.trace(a) * b)


def test_partial_trace_three_factors(rng):
    ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    joint = tensor(tensor(operator(ops[0], 2), operator(ops[1], 2)), operator(ops[2], 2))
    reduced = partial_trace(joint, keep=(0, 2))
    expected = np.trace(ops[1]) * np.kron(ops[0], ops[2])
    assert np.allclose(reduced.entries, expected)
    assert reduced.layout.dims == (2, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_partial_trace_linearity_and_trace_preservation(seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    b = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    alpha = complex(gen.standard_normal(), gen.standard_normal())
    oa = operator(a, (2, 2))
    ob = operator(b, (2, 2))
    combo = partial_trace(alpha * oa + ob, keep=0)
    split = alpha * partial_trace(oa, keep=0) + partial_trace(ob, keep=0)
    assert np.allclose(combo.entries, split.entries, atol=1e-9)
    assert np.isclose(partial_trace(oa, keep=0).trace(), oa.trace())


def test_trace_out_complement_form(rng):
    from beyondcp import trace_out

    m = operator(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), (2, 3))
    assert np.allclose(trace_out(m, 1).entries, partial_trace(m, keep=0).entries)
    assert np.allclose(trace_out(m, 0).entries, partial_trace(m, keep=1).entries)


def test_hs_inner_product():
    assert PAULI_X.hs_inner(PAULI_X) == 2.0
    assert PAULI_X.hs_inner(identity(2)) == 0.0
    y = operator([[0, -1j], [1j, 0]], 2)
    assert abs(PAULI_X.hs_inner(y)) == 0.0


def test_partial_trace_invalid_factor_errors():
    with pytest.raises(ValueError):
        partial_trace(identity((2, 2)), keep=5)
    with pytest.raises(ValueError):
        partial_trace(identity((2, 2)), keep=())


# ---------------------------------------------------------------------------
# adjoint action
# ---------------------------------------------------------------------------


def test_adjoint_identity_leaves_input(rng):
    a = operator(rng.standard_normal((4, 4)), (2, 2))
    assert np.allclose(adjoint_action(identity((2, 2)), a).entries, a.entries)


def test_adjoint_swap_exchanges_factors(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    # index permutation oracle: SWAP (A x B) SWAP = B x A
    conj = adjoint_action(swap_unitary(2), tensor(operator(a, 2), operator(b, 2)))
    assert np.allclose(conj.entries, kron_oracle(b, a))


def test_adjoint_preserves_trace_and_hermiticity(rng):
    u = haar_unitary((2, 2), rng)
    a = random_density((2, 2), rng)
    out = adjoint_action(u, a)
    assert np.isclose(out.trace(), a.trace())
    assert out.is_hermitian(1e-12)


def test_adjoint_rejects_non_unitary():
    bad = operator([[1, 0], [0, 2]], 2)
    with pytest.raises(ValueError, match="unitary"):
        adjoint_action(bad, PAULI_X)


# ---------------------------------------------------------------------------
# stacked reduced evolution
# ---------------------------------------------------------------------------

REDUCED_EVOLUTION_CASES = [
    (dims, keep)
    for dims in [(2, 2), (2, 4), (3, 2), (2, 3, 2)]
    for r in range(1, len(dims) + 1)
    for keep in itertools.combinations(range(len(dims)), r)
]


def reduced_evolution_oracle(cols, dims, keep, u):
    """Per-column partial_trace(adjoint_action(U, X), keep) for each U of the stack u."""
    n = math.prod(dims)
    out = []
    for member in u:
        op = operator(member, dims)
        reduced = [
            partial_trace(adjoint_action(op, operator(x.reshape((n, n), order="F"), dims)), keep)
            for x in cols.T
        ]
        out.append(np.column_stack([y.entries.reshape(-1, order="F") for y in reduced]))
    return np.array(out)


@pytest.mark.parametrize("dims, keep", REDUCED_EVOLUTION_CASES)
def test_reduced_evolution_matches_per_column_loop(rng, dims, keep):
    n = math.prod(dims)
    cols = rng.standard_normal((n * n, 5)) + 1j * rng.standard_normal((n * n, 5))
    stack = np.array([haar_unitary(dims, rng).entries for _ in range(3)])
    expected = reduced_evolution_oracle(cols, dims, keep, stack)
    single = _reduced_evolution(cols, dims, keep, stack[0])
    assert single.shape == expected[0].shape
    assert np.max(np.abs(single - expected[0])) <= 1e-12
    stacked = _reduced_evolution(cols, dims, keep, stack)
    assert stacked.shape == expected.shape
    assert np.max(np.abs(stacked - expected)) <= 1e-12


@pytest.mark.parametrize("dims, keep", REDUCED_EVOLUTION_CASES)
def test_reduced_evolution_matrix_matches_per_column_loop(rng, dims, keep):
    n = math.prod(dims)
    eye = np.eye(n * n, dtype=complex)
    stack = np.array([haar_unitary(dims, rng).entries for _ in range(2)])
    expected = reduced_evolution_oracle(eye, dims, keep, stack)
    single = _reduced_evolution_matrix(dims, keep, stack[0]) @ eye
    assert np.max(np.abs(single - expected[0])) <= 1e-12
    stacked = _reduced_evolution_matrix(dims, keep, stack) @ eye
    assert stacked.shape == expected.shape
    assert np.max(np.abs(stacked - expected)) <= 1e-12


def bath_trace_loop(cols, dims, keep):
    """vec Tr_{not keep} X for each column vec X, one matrix entry at a time."""
    n = math.prod(dims)
    kept = [dims[k] for k in keep]
    m = math.prod(kept)
    traced = [i for i in range(len(dims)) if i not in keep]
    out = np.zeros((m * m, cols.shape[1]), dtype=complex)
    for c, x in enumerate(cols.T):
        reduced = np.zeros((m, m), dtype=complex)
        x = x.reshape((n, n), order="F")
        for row in itertools.product(*map(range, dims)):
            for col in itertools.product(*map(range, dims)):
                if all(row[t] == col[t] for t in traced):
                    a = np.ravel_multi_index([row[k] for k in keep], kept)
                    b = np.ravel_multi_index([col[k] for k in keep], kept)
                    i, j = np.ravel_multi_index(row, dims), np.ravel_multi_index(col, dims)
                    reduced[a, b] += x[i, j]
        out[:, c] = reduced.reshape(-1, order="F")
    return out


BATH_TRACE_CASES = [
    ((2, 2), (0,)),
    ((2, 3), (0,)),
    ((3, 2), (0,)),
    ((4, 4), (0,)),
    ((2, 2, 2), (0, 2)),
    ((2, 2, 2), (0,)),
]


@pytest.mark.parametrize("dims, keep", BATH_TRACE_CASES)
def test_bath_trace_matches_per_column_loop(rng, dims, keep):
    n = math.prod(dims)
    cols = rng.standard_normal((n * n, 3)) + 1j * rng.standard_normal((n * n, 3))
    reduced = _reduced_evolution(cols, dims, keep)
    expected = bath_trace_loop(cols, dims, keep)
    assert reduced.shape == expected.shape
    assert np.max(np.abs(reduced - expected)) <= 1e-14


def test_partial_trace_of_a_large_three_factor_layout_matches_einsum(rng):
    n = 8**3
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    reduced = partial_trace(operator(x, (8, 8, 8)), keep=(0, 2))
    expected = np.einsum("abcdbf->acdf", x.reshape((8,) * 6)).reshape(64, 64)
    assert reduced.layout.dims == (8, 8)
    assert np.max(np.abs(reduced.entries - expected)) <= 1e-12


def test_stacked_refuses_operators_of_different_layouts():
    # both act on a 4-dimensional space, but on different factorizations
    with pytest.raises(ValueError, match="layout mismatch"):
        _stacked([identity((4,)), identity((2, 2))])
    with pytest.raises(ValueError, match="layout mismatch"):
        span_from_generators([identity((2, 2)), identity((4,))])
    with pytest.raises(ValueError, match="layout mismatch"):
        map_from_kraus([identity((4,)) * 0.5**0.5, identity((2, 2)) * 0.5**0.5])


# ---------------------------------------------------------------------------
# gibbs state
# ---------------------------------------------------------------------------


def test_gibbs_beta_zero_is_maximally_mixed():
    h = operator(np.diag([0.3, -1.2, 0.8, 0.1]), (2, 2))
    rho = gibbs_state(h, 0.0)
    assert np.allclose(rho.entries, np.eye(4) / 4)


def test_gibbs_xx_closed_form_vs_expm_oracle():
    h = tensor(PAULI_X, PAULI_X)
    for beta in (0.2, 1.0, 3.0):
        rho = gibbs_state(h, beta)
        dense = scipy.linalg.expm(-beta * h.entries)
        dense /= np.trace(dense)
        assert np.allclose(rho.entries, dense, atol=1e-12)
        closed = (np.eye(4) - math.tanh(beta) * h.entries) / 4
        assert np.allclose(rho.entries, closed, atol=1e-12)


def test_gibbs_diagonal_boltzmann_factors():
    h = operator(np.diag([0.0, 1.7]), 2)
    rho = gibbs_state(h, 0.9)
    z = 1 + math.exp(-0.9 * 1.7)
    assert np.allclose(np.diag(rho.entries).real, [1 / z, math.exp(-0.9 * 1.7) / z])


def test_gibbs_output_is_full_rank_state(rng):
    h = rng.standard_normal((4, 4))
    h = operator(h + h.T, (2, 2))
    rho = gibbs_state(h, 1.3)
    assert rho.is_density(1e-10)
    assert rho.min_eigenvalue() > 0


def test_gibbs_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        gibbs_state(operator([[0, 1], [0, 0]], 2), 1.0)


def test_gibbs_rejects_non_finite_hamiltonian():
    h = np.eye(2)
    h[0, 1] = np.nan
    with pytest.raises(ValueError, match="Hermitian"):
        gibbs_state(operator(h, 2), 1.0)


# ---------------------------------------------------------------------------
# schatten distance
# ---------------------------------------------------------------------------


def test_schatten_identical_inputs():
    rho = ket_projector([1, 0], 2)
    for p in (1, 2, math.inf):
        assert schatten_distance(rho, rho, p) == 0.0


def test_schatten_orthogonal_pure_states():
    zero = ket_projector([1, 0], 2)
    one = ket_projector([0, 1], 2)
    # singular values of the difference are {1, 1}
    assert np.isclose(schatten_distance(zero, one, 1), 1.0)
    assert np.isclose(schatten_distance(zero, one, 2), 2 ** (-0.5) * math.sqrt(2))
    assert np.isclose(schatten_distance(zero, one, math.inf), 1.0)


def test_schatten_rejects_bad_p():
    rho = ket_projector([1, 0], 2)
    with pytest.raises(ValueError):
        schatten_distance(rho, rho, 0.5)


def test_schatten_monotone_chain_on_qubits(rng):
    # for qubit state pairs the normalized distances coincide, and the
    # p=1 >= p=2 comparison holds in any dimension for traceless differences
    for _ in range(20):
        r1, r2 = random_density(2, rng), random_density(2, rng)
        d1 = schatten_distance(r1, r2, 1)
        d2 = schatten_distance(r1, r2, 2)
        dinf = schatten_distance(r1, r2, math.inf)
        assert d1 >= d2 - 1e-12
        assert d2 >= dinf - 1e-12
    for _ in range(20):
        r1, r2 = random_density((2, 2), rng), random_density((2, 2), rng)
        assert schatten_distance(r1, r2, 1) >= schatten_distance(r1, r2, 2) - 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_schatten_triangle_inequality(seed):
    gen = np.random.default_rng(seed)
    states = [random_density(2, gen) for _ in range(3)]
    for p in (1, 2, math.inf):
        d02 = schatten_distance(states[0], states[2], p)
        d01 = schatten_distance(states[0], states[1], p)
        d12 = schatten_distance(states[1], states[2], p)
        assert d02 <= d01 + d12 + 1e-12


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------


def test_relative_entropy_self_is_zero(rng):
    rho = random_density(2, rng)
    assert abs(relative_entropy(rho, rho)) < 1e-12


def test_relative_entropy_pure_vs_mixed():
    zero = ket_projector([1, 0], 2)
    mixed = identity(2) / 2
    # eigenbasis oracle: S = sum p log p - sum p log q = 0 - log(1/2)
    assert np.isclose(relative_entropy(zero, mixed), math.log(2))


def test_relative_entropy_disjoint_support_is_infinite():
    zero = ket_projector([1, 0], 2)
    one = ket_projector([0, 1], 2)
    assert relative_entropy(zero, one) == math.inf


def test_relative_entropy_rejects_non_states():
    with pytest.raises(ValueError):
        relative_entropy(PAULI_X, identity(2) / 2)


def test_relative_entropy_joint_convexity(rng):
    for _ in range(10):
        r1, r2 = random_density(2, rng), random_density(2, rng)
        s1, s2 = random_density(2, rng), random_density(2, rng)
        lam = rng.uniform(0.1, 0.9)
        mixed = relative_entropy(lam * r1 + (1 - lam) * s1, lam * r2 + (1 - lam) * s2)
        split = lam * relative_entropy(r1, r2) + (1 - lam) * relative_entropy(s1, s2)
        assert mixed <= split + 1e-10


def test_relative_entropy_nonnegative(rng):
    for _ in range(10):
        r1, r2 = random_density(2, rng), random_density(2, rng)
        assert relative_entropy(r1, r2) >= -1e-12


# ---------------------------------------------------------------------------
# predicates and layout plumbing
# ---------------------------------------------------------------------------


def test_predicates():
    assert PAULI_X.is_hermitian(1e-14)
    assert PAULI_X.is_unitary(1e-14)
    assert not PAULI_X.is_density(1e-9)
    assert (identity(2) / 2).is_density(1e-12)
    assert swap_unitary(3).is_unitary(1e-14)


def test_layout_validation():
    with pytest.raises(ValueError):
        SpaceLayout((2, 0))
    with pytest.raises(ValueError):
        Operator(SpaceLayout((2, 2)), np.eye(3))
    with pytest.raises(ValueError):
        SpaceLayout((2, 2), labels=("s",))


def test_operator_entries_are_read_only():
    with pytest.raises(ValueError):
        PAULI_X.entries[0, 0] = 5.0


def test_tolerance_config_rejects_negative_fields():
    from beyondcp import ToleranceConfig

    with pytest.raises(ValueError):
        ToleranceConfig(rank_cut=-1e-9)
    for value in (math.inf, math.nan):  # an infinite tolerance would pass every verdict
        with pytest.raises(ValueError, match="residual_tol must be finite and non-negative"):
            ToleranceConfig(residual_tol=value)
    assert ToleranceConfig().residual_tol == 1e-9


def test_state_tol_is_the_larger_of_residual_tol_and_psd_slack():
    from beyondcp import ToleranceConfig

    assert ToleranceConfig(residual_tol=1e-9, psd_slack=1e-10).state_tol == 1e-9
    assert ToleranceConfig(residual_tol=0.0, psd_slack=1e-10).state_tol == 1e-10
