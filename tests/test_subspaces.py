import warnings

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
    repolarizer_subspace,
    transpose_subspace,
)
from beyondcp.config import DEFAULT_TOL
from beyondcp.consistency import (
    ConsistencyVerdict,
    UnitaryFamily,
    consistent_kernel,
    is_family_consistent,
    is_unitary_consistent,
)
from beyondcp.operators import (
    Operator,
    SpaceLayout,
    _min_eigenvalues,
    adjoint_action,
    swap_unitary,
    unvec,
    vec,
)
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
    (derivation,), built = operators_built(maps._derive, v, [u], (0,))
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


def test_zero_dimensional_subspace_is_consistent_with_every_family(rng):
    # the bath trace of no column is an empty (d_S^2, 0) block, not a reshape error
    zero = _zero_dimensional_results()["kernel"]
    family = _haar_family(zero.layout.dims, rng)
    assert kernel_of_partial_trace(zero).dim == 0
    expected = ConsistencyVerdict(True, 0.0, None)
    assert is_unitary_consistent(zero, family.members[0]) == expected
    assert is_family_consistent(zero, family) == expected


def test_generator_refusal_names_its_residual_and_the_rank_cut():
    # the relative cut drops the 1e-7 direction, which the membership rule then refuses
    a, b = operator(np.diag([1e3, 0]), 2), operator(np.diag([0, 1e-7]), 2)
    message = r"^a generator lies outside the span of the basis \(worst residual 1\.000e-07; "
    with pytest.raises(ValueError, match=message + r"relative rank cut 1e-09\)$"):
        span_from_generators([a, b])


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


@pytest.mark.parametrize("order", ["C", "F"])
def test_arrays_passed_to_public_constructors_are_copied(rng, order):
    """Only a producer's hand-over through ``_taking`` skips the copy; a caller's array, in
    either order and already read-only or not, can change afterwards with no effect."""
    layout = SpaceLayout((2, 2))
    kernel = consistent_kernel(UnitaryFamily((haar_unitary((2, 2), rng),)), layout)
    basis = np.array(full_operator_space(layout).basis_matrix()[:, :5], order=order)
    generators = np.array(basis * 3, order=order)
    entries = np.array(_complex_normal(rng, (4, 4)), order=order)
    saved = [basis.copy(), generators.copy(), entries.copy()]
    v = OperatorSubspace(layout, basis, generators)
    w = OperatorSubspace(layout, basis)
    op = Operator(layout, entries)
    again = OperatorSubspace(layout, kernel.basis_matrix())
    for a in (basis, generators, entries):
        a[...] = np.nan
    assert np.array_equal(v.basis_matrix(), saved[0]) and np.array_equal(w.basis_matrix(), saved[0])
    assert np.array_equal(v._generator_matrix, saved[1])
    assert np.array_equal(op.entries, saved[2])
    assert kernel.dim == 9 and again.basis_matrix() is not kernel.basis_matrix()
    for m in (v.basis_matrix(), v._generator_matrix, w.basis_matrix(), op.entries):
        assert m.flags.f_contiguous and not m.flags.writeable and m.dtype == complex


def test_a_taken_basis_is_not_copied_and_is_still_gram_checked():
    layout = SpaceLayout((2,))
    basis = np.asfortranarray(np.eye(4, dtype=complex)[:, :3])
    v = OperatorSubspace._taking(layout, basis, DEFAULT_TOL, hermitian=False)
    assert v.basis_matrix() is basis and v._generator_matrix is basis
    assert not basis.flags.writeable and v.dim == 3 and v.tol is DEFAULT_TOL
    assert np.array_equal(v.basis[1].entries, unvec(basis[:, 1], 2))
    with pytest.raises(ValueError, match="not orthonormal"):
        OperatorSubspace._taking(layout, np.asfortranarray(2 * basis), DEFAULT_TOL, hermitian=False)


@pytest.mark.parametrize("dims", [(2,), (2, 2), (3,)])
def test_every_subspace_lies_in_a_full_space_with_no_product(rng, monkeypatch, dims):
    layout = SpaceLayout(dims)
    n2 = layout.total_dim**2
    q, _ = np.linalg.qr(_complex_normal(rng, (n2, n2)))
    full, rotated = full_operator_space(layout), OperatorSubspace(layout, q)
    part = OperatorSubspace(layout, q[:, : n2 // 2])
    expected = [w._contains_columns(v.basis_matrix().T[:, :, None])
                for v in (full, rotated, part) for w in (full, rotated)]
    products = []
    monkeypatch.setattr(OperatorSubspace, "_coordinates_of", lambda self, cols: products.append(1))
    assert [subspace_leq(v, w) for v in (full, rotated, part) for w in (full, rotated)] == expected
    assert all(expected) and subspaces_equal(full, rotated) and not subspaces_equal(part, full)
    assert products == []


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


@pytest.mark.parametrize(
    "rows",
    [
        lambda rng: rng.standard_normal((20, 64)),  # below the switch: a full SVD
        lambda rng: np.kron([[1.0], [2.0]], rng.standard_normal((3, 99))),  # rank 3, SVD
        lambda rng: rng.standard_normal((5, 120)),  # from the switch on: QR
        lambda rng: np.kron([[1.0], [2.0]], rng.standard_normal((40, 256))),  # rank 40, QR
        lambda rng: rng.standard_normal((130, 110)),  # tall, QR
        lambda rng: np.eye(100)[[0, 2]] * [[0.0], [1.0]],  # a zero row: an identity reflector
    ],
)
def test_null_space_of_a_real_matrix_is_real(rng, rows):
    a = rows(rng)
    reference = _full_svd_null_space(a, 1e-9)
    basis = subspaces._null_space(a, 1e-9)
    assert basis.dtype == np.float64
    assert basis.shape == reference.shape
    assert np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1])) <= 1e-12
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
    assert not any(full)  # a certified full rank takes no SVD at all


def _recorded_svds(monkeypatch):
    """A list that gets ``compute_uv`` of every later ``np.linalg.svd`` call."""
    calls = []
    svd = np.linalg.svd

    def recording_svd(a, full_matrices=True, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, full_matrices=full_matrices, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return calls


@pytest.mark.parametrize("shape", [(5, 120), (40, 100), (76, 256)])
def test_null_space_of_a_full_rank_wide_stack_takes_no_svd(rng, monkeypatch, shape):
    a = rng.standard_normal(shape)
    reference = _full_svd_null_space(a, 1e-9)
    calls = _recorded_svds(monkeypatch)
    basis = subspaces._null_space(a, 1e-9)
    assert calls == []  # the Cholesky certificate replaces the values-only SVD
    assert basis.dtype == np.float64 and basis.shape == reference.shape
    assert np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1])) <= 1e-12
    assert np.linalg.norm(_projector(basis) - _projector(reference)) <= 1e-10


def test_a_rank_deficient_wide_stack_takes_one_svd_with_vectors(rng, monkeypatch):
    """A bath-local member changes no bath trace: its rows repeat T's, and R has a diagonal
    entry at the cut, so the stack goes straight to the SVD that finds its rank."""
    family = UnitaryFamily((tensor(identity(4), haar_unitary(4, rng)),))
    calls = _recorded_svds(monkeypatch)
    kernel = consistent_kernel(family, SpaceLayout((4, 4)))
    assert calls == [True]
    assert kernel.dim == 256 - 16  # the kernel of T alone


def test_a_tall_stack_takes_one_svd_with_vectors(rng, monkeypatch):
    layout = SpaceLayout((4, 4))
    v, w = (consistent_kernel(_haar_family((4, 4), rng), layout) for _ in range(2))
    calls = _recorded_svds(monkeypatch)
    inter = subspace_intersection(v, w)
    assert calls == [True]
    assert inter.dim == 180 + 180 - 240  # both lie in the 240-dimensional trace kernel


# ---------------------------------------------------------------------------
# the full-rank certificate of the QR route: one Cholesky factorization of R R^dag
# ---------------------------------------------------------------------------


def _qr_triangle(a):
    """The triangle R of ``_null_space``'s QR route, from the same factorization."""
    return np.triu(np.linalg.qr(a.conj().T, mode="raw")[0].T[: min(a.shape)])


def _stack_with_singular_values(rng, s, n=120):
    """A real (len(s), n) stack whose singular values are ``s``."""
    u = np.linalg.qr(rng.standard_normal((len(s), len(s))))[0]
    w = np.linalg.qr(rng.standard_normal((n, len(s))))[0]
    return (u * s) @ w.T


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e4])
@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0, 1e3])
@pytest.mark.parametrize("cut", [1e-9, 1e-3])
def test_a_near_cut_triangle_gets_the_rank_its_svd_gives(rng, monkeypatch, cut, factor, scale):
    """One singular value at ``factor`` times the cut's threshold cut max(s_0, 1): whichever
    route decides, the rank is the one ``_numerical_rank`` gives on the triangle's SVD.  (At
    scale 1e-2 and cut 1e-3 the other 39 lie below the threshold too.)"""
    threshold = cut * max(scale, 1.0)
    s = np.r_[scale, scale * np.geomspace(0.3, 0.01, 38), factor * threshold]
    a = _stack_with_singular_values(rng, s)
    expected = subspaces._numerical_rank(
        np.linalg.svd(_qr_triangle(a), full_matrices=False)[1], cut, floor=1.0
    )
    calls = _recorded_svds(monkeypatch)
    basis = subspaces._null_space(a, cut)
    assert a.shape[1] - basis.shape[1] == expected
    assert np.linalg.norm(a @ basis) <= 10 * cut * max(s.max(), 1.0)
    if factor == 1e3 and s.min() == s[-1]:  # far above the cut: certified, no SVD
        assert calls == [] and expected == 40
    if factor <= 1.0:  # at or below it: the SVD decides
        assert calls == [True]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1j * np.nan])
@pytest.mark.parametrize("entry", [(0, 0), (40, 40), (3, 70), (75, 75)])
def test_a_non_finite_triangle_never_certifies(value, entry):
    """numpy's Cholesky returns a non-finite factor for a NaN or inf G instead of raising,
    so the factor itself is checked."""
    triangle = np.eye(76, dtype=complex if np.iscomplex(value) else float)
    assert subspaces._certified_full_rank(triangle, 1e-9)
    triangle[entry] = value
    assert not subspaces._certified_full_rank(triangle, 1e-9)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_wide_stack_is_refused_by_the_svd(rng, value):
    a = rng.standard_normal((76, 256))
    a[7, 30] = value
    with pytest.raises(np.linalg.LinAlgError):
        subspaces._null_space(a, 1e-9)


def test_the_rounding_term_keeps_a_rank_deficient_triangle_uncertified():
    """Row 5 lies in the span of rows 0-4, so R's diagonal entry 5 is rounding and G's pivot 5
    cancels to noise above (cut S)^2: the bare cut certifies full rank, and the rounding
    term 4 (p + 2) eps ||R||_F^2 of tau is what refuses it."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((40, 120))
    a[5] = rng.standard_normal(5) @ a[:5]
    triangle = _qr_triangle(a)
    g = triangle @ triangle.T
    g[np.diag_indices(40)] -= (1e-9 * max(np.linalg.norm(triangle), 1.0)) ** 2
    assert np.all(np.isfinite(np.linalg.cholesky(g)))  # the bare cut would pass
    assert not subspaces._certified_full_rank(triangle, 1e-9)
    assert subspaces._null_space(a, 1e-9).shape == (120, 81)  # rank 39


def _framed(w, x):
    """W X W^dag for each element of the stack ``x``."""
    return w @ x @ w.conj().T


@pytest.mark.parametrize("dims", [(2, 4), (4, 4)])  # SVD route, certified QR route
def test_consistent_kernel_follows_a_local_frame(rng, monkeypatch, dims):
    """With W = W_S (x) W_B, X has a vanishing bath trace iff W X W^dag has, so the family
    W U_i W^dag has the consistent kernel W K W^dag: equal dimension, each contained in the
    other within 1e-10, and at (4,4) the certificate passes in every frame."""
    layout = SpaceLayout(dims)
    n = layout.total_dim
    family = _haar_family(dims, rng)
    kernel = consistent_kernel(family, layout)
    stack = subspaces._unvec_stack(kernel.basis_matrix().T, n)
    for _ in range(4):
        w = np.kron(*(haar_unitary(d, rng).entries for d in dims))
        members = (Operator(layout, _framed(w, u.entries)) for u in family.members)
        framed = UnitaryFamily(tuple(members))
        calls = _recorded_svds(monkeypatch)
        moved = consistent_kernel(framed, layout)
        monkeypatch.undo()
        assert moved.dim == kernel.dim > 0
        if n * n >= subspaces._QR_NULL_SPACE_COLUMNS:
            assert calls == []
        there = subspaces._columns(_framed(w, stack))
        moved_stack = subspaces._unvec_stack(moved.basis_matrix().T, n)
        back = subspaces._columns(_framed(w.conj().T, moved_stack))
        assert np.max(moved._coordinates_of(there)[1]) <= 1e-10
        assert np.max(kernel._coordinates_of(back)[1]) <= 1e-10


# ---------------------------------------------------------------------------
# the Gram check: real coordinates for large bitwise Hermitian bases, complex otherwise
# ---------------------------------------------------------------------------


def _pauli_basis(qubits, scale):
    """The 4^qubits Pauli products times ``scale``: bitwise Hermitian, orthonormal at
    scale 2^(-qubits/2); from three qubits on, 64 or more columns, the real route's size."""
    paulis, products = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z), [np.ones((1, 1))]
    for _ in range(qubits):
        products = [np.kron(p, q.entries) for p in products for q in paulis]
    return np.column_stack([vec(p) * scale for p in products])


def _kernel_basis(dims, members, rng):
    family = UnitaryFamily(tuple(haar_unitary(dims, rng) for _ in range(members)))
    return dims, consistent_kernel(family, SpaceLayout(dims)).basis_matrix()


_GRAM_BASES = {  # name -> rng -> (dims, basis columns, bitwise Hermitian)
    "kernel_2x2": lambda rng: (*_kernel_basis((2, 2), 2, rng), True),
    "kernel_2x4": lambda rng: (*_kernel_basis((2, 4), 4, rng), True),
    "kernel_4x4": lambda rng: (*_kernel_basis((4, 4), 4, rng), True),
    "pauli_2": lambda rng: ((2, 2), _pauli_basis(2, 0.5), True),
    "pauli_3": lambda rng: ((2, 2, 2), _pauli_basis(3, 8**-0.5), True),
    "matrix_units": lambda rng: ((2, 2), np.eye(16), False),
    "svd_span": lambda rng: (
        (2, 2),
        np.linalg.svd(_complex_normal(rng, (16, 5)), full_matrices=False)[0],
        False,
    ),
}


def _hermitian_perturbation(rng, n, k):
    """k vectorized Hermitian matrices of unit norm each, Hermitian bit for bit."""
    a = _complex_normal(rng, (k, n, n))
    h = (a + a.conj().swapaxes(-1, -2)) / 2
    return (h / np.linalg.norm(h, axis=(-2, -1), keepdims=True)).swapaxes(-1, -2).reshape(k, -1).T


def _perturbed(rng, name, eps):
    dims, b, hermitian = _GRAM_BASES[name](rng)
    n = int(np.prod(dims))
    if not eps:
        return dims, b, hermitian
    if hermitian:
        p = _hermitian_perturbation(rng, n, b.shape[1])
    else:
        p = _complex_normal(rng, b.shape)
        p /= np.linalg.norm(p, axis=0)
    return dims, b + eps * p, hermitian


def _is_bitwise_hermitian(b, n):
    stack = b.T.reshape(-1, n, n).swapaxes(-1, -2)
    return np.array_equal(stack, stack.conj().swapaxes(-1, -2))


def _real_route(b, n):
    """Whether the constructor takes B^dag B as the real M^T M."""
    return subspaces._gram(np.asfortranarray(b, dtype=complex), n).dtype == np.float64


def _assert_gram_check_matches_the_complex_product(dims, b):
    """Whether the constructor accepts ``b``: exactly when ||B^dag B - 1|| <= residual_tol,
    taken as the complex product; a refusal names that residual to 1e-14."""
    layout = SpaceLayout(dims)
    with np.errstate(invalid="ignore"):  # an inf entry makes inf * 0 in either product
        reference = float(np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1])))
        try:
            OperatorSubspace(layout, b)
            named = None
        except ValueError as err:
            named = str(err)
    accepted = named is None
    assert accepted == (reference <= DEFAULT_TOL.residual_tol)
    if not accepted:
        prefix = "basis is not orthonormal within residual_tol (||B^dag B - 1|| = "
        assert named.startswith(prefix) and named.endswith("; residual_tol 1e-09)")
        residual = float(named[len(prefix) : -len("; residual_tol 1e-09)")])
        if np.isfinite(reference):
            assert abs(residual - reference) <= 1e-14 * max(1.0, reference)
        else:
            assert not np.isfinite(residual)
    return accepted


@pytest.mark.parametrize("eps", [0.0, 1e-11, 1e-8])
@pytest.mark.parametrize("name", list(_GRAM_BASES))
def test_gram_check_agrees_with_the_complex_product(rng, name, eps):
    dims, b, hermitian = _perturbed(rng, name, eps)
    n = int(np.prod(dims))
    assert _is_bitwise_hermitian(b, n) == hermitian
    gram = subspaces._gram(np.asfortranarray(b, dtype=complex), n)
    assert (gram.dtype == np.float64) == (hermitian and b.shape[1] >= 64)  # the route taken
    assert np.max(np.abs(gram - b.conj().T @ b)) <= 1e-14
    accepted = _assert_gram_check_matches_the_complex_product(dims, b)
    assert accepted == (eps < 1e-9)  # 1e-11 stays inside residual_tol, 1e-8 does not


def test_gram_check_of_a_basis_one_ulp_off_hermitian_takes_the_complex_route():
    b = _pauli_basis(3, 8**-0.5)
    assert _real_route(b, 8)
    b[1, 1] = np.nextafter(b[1, 1].real, 1.0)  # entry (1, 0) of (1 (x) 1 (x) X)/8^0.5, not (0, 1)
    assert not _is_bitwise_hermitian(b, 8) and not _real_route(b, 8)
    assert _assert_gram_check_matches_the_complex_product((2, 2, 2), b)


@pytest.mark.parametrize(
    "where, value, real_route",
    [
        ((0, 0), np.nan, False),  # NaN is unequal to itself
        ((0, 0), np.inf, True),  # a real inf on the diagonal keeps the basis Hermitian
        ((5, 3), np.inf, False),  # off the diagonal it does not
        ((1, 0), complex(0, np.inf), False),
    ],
)
def test_gram_check_refuses_non_finite_bases(where, value, real_route):
    b = _pauli_basis(3, 8**-0.5)
    b[where] = value
    with np.errstate(invalid="ignore"):
        assert _real_route(b, 8) == real_route
    assert not _assert_gram_check_matches_the_complex_product((2, 2, 2), b)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_a_non_finite_basis_or_generator_is_refused_with_no_warning_first(value):
    """The refusal is the outcome even where warnings are errors: inf * 0 in the Gram or the
    coordinate product must not escape as a RuntimeWarning."""
    pauli = _pauli_basis(1, 2**-0.5)
    basis, generators = pauli.copy(), pauli.copy()
    basis[1, 2] = generators[1, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^basis is not orthonormal .*= nan;"):
            OperatorSubspace(SpaceLayout((2,)), basis)
        with pytest.raises(ValueError, match=r"^a generator lies outside .*residual nan;"):
            OperatorSubspace(SpaceLayout((2,)), pauli, generators)


@pytest.mark.parametrize("dims", [(2,), (2, 2)])
def test_gram_check_of_an_empty_basis(dims):
    n = int(np.prod(dims))
    b = np.zeros((n * n, 0), dtype=complex)
    assert subspaces._gram(b, n).shape == (0, 0)
    assert _assert_gram_check_matches_the_complex_product(dims, b)
    assert OperatorSubspace(SpaceLayout(dims), b).dim == 0


@pytest.mark.parametrize(
    "dims, basis, residual",
    [
        ((2, 2, 2), _pauli_basis(3, 1.0), "56.0"),  # Hermitian: the real route; Gram 8 * 1
        ((2,), 2 * np.eye(4)[:, :2], "4.242640687119285"),  # E_21 is not: the complex route
    ],
    ids=["hermitian", "not_hermitian"],
)
def test_orthonormality_refusal_names_its_residual_and_residual_tol(dims, basis, residual):
    message = (
        "basis is not orthonormal within residual_tol "
        f"(||B^dag B - 1|| = {residual}; residual_tol 1e-09)"
    )
    with pytest.raises(ValueError) as err:
        OperatorSubspace(SpaceLayout(dims), basis)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# a consistent kernel vouches for its bitwise Hermitian basis
# ---------------------------------------------------------------------------


def _recorded_bitwise_tests(monkeypatch):
    """A list that gets the shape of every later ``np.array_equal`` call's first argument."""
    calls = []
    array_equal = np.array_equal

    def recording_array_equal(a, b, *args, **kwargs):
        calls.append(np.shape(a))
        return array_equal(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "array_equal", recording_array_equal)
    return calls


@pytest.mark.parametrize("dims, members", [((2, 2), 1), ((4, 4), 4)])
def test_a_consistent_kernel_is_gram_checked_with_no_bitwise_test(rng, monkeypatch, dims, members):
    family = UnitaryFamily(tuple(haar_unitary(dims, rng) for _ in range(members)))
    tests = _recorded_bitwise_tests(monkeypatch)
    kernel = consistent_kernel(family, SpaceLayout(dims))
    assert kernel.dim > 0 and kernel._hermitian
    assert tests == []
    b, n = kernel.basis_matrix(), kernel.layout.total_dim
    gram = subspaces._gram(b, n, hermitian=True)
    assert gram.dtype == np.float64
    assert np.max(np.abs(gram - b.conj().T @ b)) <= 1e-13


def test_other_bases_of_a_consistent_kernel_still_take_the_bitwise_test(rng, monkeypatch):
    layout = SpaceLayout((4, 4))
    kernel = consistent_kernel(_haar_family((4, 4), rng), layout)
    doc = emit_subspace(kernel)
    tests = _recorded_bitwise_tests(monkeypatch)
    parsed = parse_subspace(doc)  # the emitted basis document
    assert (180, 16, 16) in tests and not parsed._hermitian
    tests.clear()
    rebuilt = OperatorSubspace(layout, kernel.basis_matrix())  # the size ladder's subspace call
    assert tests == [(180, 16, 16)] and not rebuilt._hermitian
    assert subspaces_equal(parsed, kernel) and subspaces_equal(rebuilt, kernel)


# ---------------------------------------------------------------------------
# state-spanned verification in one membership product
# ---------------------------------------------------------------------------


def _state_spanned_four_products(v, positive_witness=None):
    """check_state_spanned with one membership product per question (the adjoints, the
    identity, its coordinates again, the projected witness): the reference for one product."""
    if v.dim == 0:
        return False
    n = v.layout.total_dim
    if not v._contains_columns(subspaces._dagger_columns(v.basis_matrix(), n)):
        return False
    ident = vec(np.eye(n, dtype=complex))[:, None]
    if v._contains_columns(ident):
        return True
    if positive_witness is not None:
        if v.contains(positive_witness) and positive_witness.min_eigenvalue() > v.tol.psd_slack:
            return True
    projected = unvec(v.basis_matrix() @ v._coordinates_of(ident)[0][:, 0], n)
    h = (projected + projected.conj().T) * complex(0.5)
    return v._contains_columns(vec(h)[:, None]) and float(_min_eigenvalues(h)) > v.tol.psd_slack


def _two_qubit_span(*matrices):
    return span_from_generators([operator(m, SpaceLayout((2, 2))) for m in matrices])


def _product_subspace():
    rho_b = random_density(2, np.random.default_rng(29))
    return span_from_generators([tensor(b, rho_b) for b in full_operator_space(2).basis])


def _kernel_2x4():
    u = haar_unitary((2, 4), np.random.default_rng(29))
    return consistent_kernel(UnitaryFamily((u,)), SpaceLayout((2, 4)))


def _matrix_unit(i, j):
    e = np.zeros((4, 4))
    e[i, j] = 1
    return e


STATE_SPANNED_CORPUS = {
    "gibbs": lambda: (gibbs_subspace(), None),
    "gibbs with witness": lambda: (
        gibbs_subspace(),
        gibbs_state_closed_form(GibbsParams(1.0, 0.5)),
    ),
    "B(H_S) (x) rho_B": lambda: (_product_subspace(), None),
    "transpose": lambda: (transpose_subspace(), None),
    "repolarizer": lambda: (repolarizer_subspace(0.3), None),
    "(2,4) consistent kernel": lambda: (_kernel_2x4(), None),
    "full (2,2)": lambda: (full_operator_space((2, 2)), None),
    "span{|00><00|, |01><01|}": lambda: (_two_qubit_span(_matrix_unit(0, 0), _matrix_unit(1, 1)), None),
    "span{X (x) Z}": lambda: (span_from_generators([tensor(PAULI_X, PAULI_Z)]), None),
    "span{E_01}": lambda: (_two_qubit_span(_matrix_unit(0, 1)), None),
    "zero": lambda: (OperatorSubspace(SpaceLayout((2, 2)), np.zeros((16, 0))), None),
}


@pytest.mark.parametrize("name", list(STATE_SPANNED_CORPUS))
def test_state_spanned_matches_the_four_product_reference(name, monkeypatch):
    v, witness = STATE_SPANNED_CORPUS[name]()
    expected = _state_spanned_four_products(v, witness)
    products = []
    coordinates_of = OperatorSubspace._coordinates_of

    def counting(self, cols):
        products.append(cols.shape)
        return coordinates_of(self, cols)

    monkeypatch.setattr(OperatorSubspace, "_coordinates_of", counting)
    assert check_state_spanned(v, witness) is expected
    if witness is None:
        assert len(products) <= 2
