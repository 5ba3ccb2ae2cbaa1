import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beyondcp import (
    OperatorSubspace,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    check_state_spanned,
    full_operator_space,
    identity,
    kernel_of_partial_trace,
    operator,
    partial_trace,
    span_from_generators,
    subspace_intersection,
    subspace_leq,
    subspace_sum,
    subspaces_equal,
    symmetric_sector,
    tensor,
)
from beyondcp import maps, subspaces
from beyondcp.catalog import (
    GibbsParams,
    controlled_phase_unitary,
    gibbs_state_closed_form,
    gibbs_subspace,
    transpose_subspace,
)
from beyondcp.consistency import UnitaryFamily, consistent_kernel
from beyondcp.operators import Operator, SpaceLayout, adjoint_action, swap_unitary, vec
from beyondcp.sampling import haar_unitary, random_density
from beyondcp.serialization import emit_subspace, parse_subspace, validate_document


def rank_oracle(ops, tol=1e-9):
    """Numerical rank of vectorized operators, independent of the span code."""
    m = np.column_stack([op.entries.reshape(-1) for op in ops])
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


# ---------------------------------------------------------------------------
# span construction
# ---------------------------------------------------------------------------


def test_span_drops_linear_dependence():
    v = span_from_generators([PAULI_I, PAULI_X, PAULI_I + PAULI_X])
    assert v.dim == 2
    assert rank_oracle([PAULI_I, PAULI_X, PAULI_I + PAULI_X]) == 2


def test_span_gibbs_grid_is_six_dimensional():
    family = gibbs_subspace()
    assert family.dim == 6
    printed = span_from_generators(
        [
            tensor(PAULI_I, PAULI_I),
            tensor(PAULI_X, PAULI_I),
            tensor(PAULI_Z, PAULI_I),
            tensor(PAULI_I, PAULI_X),
            tensor(PAULI_X, PAULI_X),
            tensor(PAULI_Z, PAULI_X),
        ]
    )
    assert subspaces_equal(family, printed)


def test_span_of_state_transpose_products_is_ten_dimensional(rng):
    gens = []
    for _ in range(20):
        rho = random_density(2, rng)
        gens.append(tensor(rho, operator(rho.entries.T, 2)))
    v = span_from_generators(gens)
    assert v.dim == 10
    assert rank_oracle(gens) == 10


def test_span_rejects_bad_input():
    with pytest.raises(ValueError):
        span_from_generators([])
    with pytest.raises(ValueError):
        span_from_generators([PAULI_X, identity((2, 2))])


def test_span_idempotent():
    v = gibbs_subspace()
    again = span_from_generators(v.basis, v.tol)
    assert subspaces_equal(v, again)


def test_basis_gram_is_identity():
    v = gibbs_subspace()
    b = v.basis_matrix()
    assert np.allclose(b.conj().T @ b, np.eye(v.dim), atol=1e-12)


# ---------------------------------------------------------------------------
# membership and projection
# ---------------------------------------------------------------------------


def test_contains_basic():
    v = span_from_generators([PAULI_I, PAULI_X])
    assert v.contains(PAULI_X)
    assert v.contains(3 * PAULI_I - 2j * PAULI_X)
    assert not v.contains(PAULI_Z)


def test_contains_layout_mismatch_errors():
    v = span_from_generators([PAULI_I, PAULI_X])
    with pytest.raises(ValueError):
        v.contains(identity((2, 2)))


def test_transpose_subspace_contains_printed_element():
    v = transpose_subspace()
    assert v.contains(tensor(PAULI_Y, PAULI_I) - tensor(PAULI_I, PAULI_Y))
    assert not v.contains(tensor(PAULI_Y, PAULI_I) + tensor(PAULI_I, PAULI_Y))


def test_projector_properties(rng):
    v = gibbs_subspace()
    a = operator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), (2, 2))
    once = v.project(a)
    twice = v.project(once)
    assert np.allclose(once.entries, twice.entries, atol=1e-12)
    assert once.hs_norm() <= a.hs_norm() + 1e-12


# ---------------------------------------------------------------------------
# sum and intersection
# ---------------------------------------------------------------------------


def test_sum_and_intersection_trivial_cases():
    vix = span_from_generators([PAULI_I, PAULI_X])
    vxz = span_from_generators([PAULI_X, PAULI_Z])
    inter = subspace_intersection(vix, vxz)
    assert inter.dim == 1
    assert inter.contains(PAULI_X)
    total = subspace_sum(span_from_generators([PAULI_I]), span_from_generators([PAULI_X]))
    assert subspaces_equal(total, vix)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_grassmann_dimension_identity(seed):
    gen = np.random.default_rng(seed)

    def random_subspace(k):
        ops = [
            operator(gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)), (2, 2))
            for _ in range(k)
        ]
        return span_from_generators(ops)

    v = random_subspace(4)
    w = random_subspace(6)
    total = subspace_sum(v, w)
    inter = subspace_intersection(v, w)
    assert v.dim + w.dim == total.dim + inter.dim


def test_intersection_with_engineered_overlap():
    v = span_from_generators([tensor(PAULI_I, PAULI_I), tensor(PAULI_X, PAULI_I), tensor(PAULI_Z, PAULI_X)])
    w = span_from_generators([tensor(PAULI_X, PAULI_I), tensor(PAULI_Z, PAULI_X), tensor(PAULI_Y, PAULI_Y)])
    inter = subspace_intersection(v, w)
    assert inter.dim == 2
    assert inter.contains(tensor(PAULI_X, PAULI_I))
    assert inter.contains(tensor(PAULI_Z, PAULI_X))


def stacked_intersection(v, w):
    """Reference intersection: the null space of the stacked projector complements
    [1 - P_v; 1 - P_w] by a full SVD, with the rank cut of ``_null_space``."""
    bv, bw = v.basis_matrix(), w.basis_matrix()
    eye = np.eye(bv.shape[0])
    stacked = np.vstack([eye - bv @ bv.conj().T, eye - bw @ bw.conj().T])
    _, s, vh = np.linalg.svd(stacked)
    return vh[int(np.sum(s > v.tol.rank_cut * max(s[0], 1.0))) :].conj().T


def _containment(b, c):
    """Largest residual of a column of b outside the span of the orthonormal columns c."""
    return float(np.max(np.linalg.norm(b - c @ (c.conj().T @ b), axis=0), initial=0.0))


@pytest.mark.parametrize("dims, members", [((2, 2), 1), ((2, 4), 4), ((4, 4), 4)])
def test_intersection_matches_the_stacked_projector_reference(rng, dims, members):
    layout = SpaceLayout(dims)
    v, w = (
        consistent_kernel(UnitaryFamily(tuple(haar_unitary(dims, rng) for _ in range(members))), layout)
        for _ in range(2)
    )
    inter = subspace_intersection(v, w).basis_matrix()
    reference = stacked_intersection(v, w)
    assert inter.shape == reference.shape
    assert inter.shape[1] > 0
    assert _containment(inter, reference) <= 1e-10
    assert _containment(reference, inter) <= 1e-10


# ---------------------------------------------------------------------------
# kernel of the partial trace
# ---------------------------------------------------------------------------


def test_kernel_of_product_subspace_is_trivial(rng):
    rho_b = random_density(2, rng)
    gens = [tensor(b, rho_b) for b in full_operator_space(2).basis]
    v = span_from_generators(gens)
    assert kernel_of_partial_trace(v).dim == 0


def test_kernel_of_gibbs_subspace_matches_printed_basis():
    kernel = kernel_of_partial_trace(gibbs_subspace())
    assert kernel.dim == 3
    printed = span_from_generators(
        [tensor(PAULI_I, PAULI_X), tensor(PAULI_X, PAULI_X), tensor(PAULI_Z, PAULI_X)]
    )
    assert subspaces_equal(kernel, printed)


def test_kernel_of_full_algebra_has_rank_nullity_dimension():
    v = full_operator_space((2, 2))
    kernel = kernel_of_partial_trace(v)
    assert kernel.dim == 16 - 4


def test_kernel_elements_have_vanishing_partial_trace():
    v = gibbs_subspace()
    kernel = kernel_of_partial_trace(v)
    for x in kernel.basis:
        assert partial_trace(x, keep=0).hs_norm() <= 1e-9
    reduced = span_from_generators([partial_trace(b, keep=0) for b in v.basis])
    assert kernel.dim + reduced.dim == v.dim


def test_kernel_requires_multiple_factors():
    with pytest.raises(ValueError):
        kernel_of_partial_trace(span_from_generators([PAULI_X]))


# ---------------------------------------------------------------------------
# symmetric sector
# ---------------------------------------------------------------------------


def test_symmetric_sector_dimensions():
    full = full_operator_space(2)
    sector = symmetric_sector(full)
    assert sector.dim == 4 * 5 // 2
    single = symmetric_sector(span_from_generators([PAULI_I]))
    assert single.dim == 1


def test_symmetric_sector_is_swap_invariant():
    sector = symmetric_sector(full_operator_space(2))
    swap = swap_unitary(2)
    for w in sector.basis:
        conj = adjoint_action(swap, w)
        assert (conj - w).hs_norm() <= 1e-10


def test_symmetric_sector_contains_doubled_states(rng):
    sector = symmetric_sector(full_operator_space(2))
    for _ in range(10):
        rho = random_density(2, rng)
        assert sector.contains(tensor(rho, rho))


# ---------------------------------------------------------------------------
# state-spanned verification
# ---------------------------------------------------------------------------


def test_state_spanned_product_subspace():
    gens = [tensor(b, identity(2) / 2) for b in full_operator_space(2).basis]
    assert check_state_spanned(span_from_generators(gens))


def test_state_spanned_gibbs_with_witness():
    witness = gibbs_state_closed_form(GibbsParams(1.0, 0.5))
    assert witness.min_eigenvalue() > 0  # min-eigenvalue oracle on the closed form
    assert check_state_spanned(gibbs_subspace(), witness)


def test_state_spanned_fails_without_positive_element():
    v = span_from_generators([tensor(PAULI_X, PAULI_X)])
    assert not check_state_spanned(v)


def test_state_spanned_fails_without_adjoint_closure():
    raiser = operator([[0, 1], [0, 0]], 2)
    v = span_from_generators([raiser])
    assert not check_state_spanned(v)


# ---------------------------------------------------------------------------
# array-native storage: basis and generator matrices, Operator tuples on first read
# ---------------------------------------------------------------------------


@pytest.fixture
def operators_built(monkeypatch):
    """``operators_built(f, *args)`` gives f(*args) and the number of Operators it built."""
    built = []
    original = Operator.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Operator, "__post_init__", counting)

    def run(f, *args):
        built.clear()
        result = f(*args)
        return result, len(built)

    return run


def _haar_family(dims, rng):
    return UnitaryFamily(tuple(haar_unitary(dims, rng) for _ in range(4)))


@pytest.mark.parametrize("dims", [(2, 4), (4, 4)])
def test_consistent_kernel_builds_no_operator(operators_built, rng, dims):
    family = _haar_family(dims, rng)
    kernel, built = operators_built(consistent_kernel, family, family.members[0].layout)
    assert kernel.dim > 0
    assert built == 0


def test_subspace_algebra_builds_no_operator(operators_built):
    v, w = gibbs_subspace(), transpose_subspace()
    for f, args in (
        (kernel_of_partial_trace, (v,)),
        (subspace_sum, (v, w)),
        (subspace_intersection, (v, w)),
        (subspaces_equal, (v, w)),
    ):
        _, built = operators_built(f, *args)
        assert built == 0, f.__name__


def test_derivation_builds_no_operator(operators_built):
    v = gibbs_subspace()
    u = controlled_phase_unitary(0.7)
    (derivation,), built = operators_built(maps._derive, v, [u], (0,), True)
    assert derivation.map is not None
    assert built == 0


def test_operator_tuples_are_built_on_first_read_only():
    v = gibbs_subspace()
    assert "basis" not in vars(v) and "generators" not in vars(v)
    assert v.dim == 6 and len(v.generators) == 25
    assert v.basis is v.basis


def _same_bits(a, b) -> bool:
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize(
    "make",
    [gibbs_subspace, transpose_subspace, lambda: kernel_of_partial_trace(gibbs_subspace())],
    ids=["gibbs", "transpose", "gibbs_kernel"],
)
def test_operator_tuples_hold_the_stored_columns_bit_for_bit(make):
    v = make()
    for ops, cols in ((v.basis, v.basis_matrix()), (v.generators, v._generator_matrix)):
        assert len(ops) == cols.shape[1]
        for i, op in enumerate(ops):
            assert _same_bits(vec(op.entries), cols[:, i])


def test_span_keeps_its_generators_entry_for_entry(rng):
    gens = [random_density(2, rng) for _ in range(5)] + [PAULI_X, -0.0 * PAULI_Z]
    v = span_from_generators(gens)
    assert len(v.generators) == len(gens)
    for got, given_op in zip(v.generators, gens):
        assert got.layout == given_op.layout
        assert _same_bits(got.entries, given_op.entries)


def _zero_dimensional_results():
    x, z = span_from_generators([PAULI_X]), span_from_generators([PAULI_Z])
    product = span_from_generators([tensor(b, identity(2) / 2) for b in (PAULI_I, PAULI_X)])
    zero = subspace_intersection(x, z)
    return {
        "kernel": kernel_of_partial_trace(product),
        "intersection": zero,
        "sum": subspace_sum(zero, zero),
        "symmetric_sector": symmetric_sector(zero),
    }


@pytest.mark.parametrize("name", ["kernel", "intersection", "sum", "symmetric_sector"])
def test_zero_dimensional_results_construct_compare_and_serialise(name):
    v = _zero_dimensional_results()[name]
    n2 = v.layout.total_dim**2
    assert v.dim == 0 and v.basis == () and v.generators == ()
    assert v.basis_matrix().shape == (n2, 0)
    assert subspaces_equal(v, v)
    assert subspace_leq(v, full_operator_space(v.layout))
    assert not subspaces_equal(v, full_operator_space(v.layout))
    assert not check_state_spanned(v)
    doc = emit_subspace(v)
    assert doc == {"dims": list(v.layout.dims), "basis": []}
    validate_document(doc, "subspace")
    again = parse_subspace(doc)
    assert again.layout == v.layout and again.dim == 0 and again.generators == ()


def test_subspace_constructor_checks_its_matrices():
    layout = SpaceLayout((2,))
    with pytest.raises(ValueError, match="not orthonormal"):
        OperatorSubspace(layout, 2 * np.eye(4)[:, :2])
    with pytest.raises(ValueError, match="outside the span"):
        OperatorSubspace(layout, np.eye(4)[:, :2], np.eye(4)[:, 1:3])
    with pytest.raises(ValueError, match="do not match the layout"):
        OperatorSubspace(layout, np.eye(9)[:, :2])
    v = OperatorSubspace(layout, np.eye(4)[:, :2], np.eye(4)[:, :2] * 3)
    assert v.dim == 2 and len(v.generators) == 2


def test_subspace_matrices_are_read_only_copies():
    cols = np.eye(4)[:, :2].astype(complex)
    v = OperatorSubspace(SpaceLayout((2,)), cols)
    cols[0, 0] = 5.0
    assert v.basis_matrix()[0, 0] == 1.0
    with pytest.raises(ValueError):
        v.basis_matrix()[0, 0] = 5.0


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _projector(cols):
    return cols @ cols.conj().T


def _full_svd_null_space(a, cut):
    """The null space as the tail of a full SVD's right factor, rank cut as in _null_space."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return vh[int(np.sum(s > cut * max(s[0], 1.0))) :].conj().T


@pytest.mark.parametrize(
    "rows",
    [
        lambda rng: np.kron([[1.0], [2.0]], _complex_normal(rng, (3, 120))),  # wide, rank 3
        lambda rng: _complex_normal(rng, (130, 110)),  # tall
        lambda rng: rng.standard_normal((5, 120)),  # real
        lambda rng: 1e-12 * rng.standard_normal((3, 100)),  # numerically zero: the floor keeps it
        lambda rng: np.eye(100),  # full rank: no null space
        lambda rng: np.eye(100)[[0, 2]] * [[0.0], [1.0]],  # a zero row: an identity reflector
        lambda rng: _complex_normal(rng, (20, 64)),  # below the switch: a full SVD
    ],
)
def test_null_space_matches_the_full_svd(rng, rows):
    a = rows(rng)
    reference = _full_svd_null_space(a, 1e-9)
    basis = subspaces._null_space(a, 1e-9)
    assert basis.shape == reference.shape
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-12
    assert np.linalg.norm(_projector(basis) - _projector(reference)) <= 1e-10


def test_consistent_kernel_at_4x4_takes_no_full_svd(rng, monkeypatch):
    full = []
    svd = np.linalg.svd

    def recording_svd(a, full_matrices=True, **kwargs):
        full.append(full_matrices and kwargs.get("compute_uv", True))
        return svd(a, full_matrices=full_matrices, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    kernel = consistent_kernel(_haar_family((4, 4), rng), SpaceLayout((4, 4)))
    assert kernel.dim == 180
    assert full and not any(full)
