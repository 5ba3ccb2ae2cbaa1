import inspect
import tracemalloc

import numpy as np
import pytest

from beyondcp import (
    InconsistentPairError,
    choi_matrix,
    OperatorSubspace,
    PAULI_I,
    PAULI_X,
    UnitaryFamily,
    bell_projector,
    consistent_kernel,
    derive_map,
    extension_is_consistent,
    full_operator_space,
    identity,
    identity_map,
    is_cp,
    is_family_consistent,
    is_unitary_consistent,
    kernel_of_partial_trace,
    lie_generator_check,
    map_from_action,
    map_residual,
    matrix_unit,
    operator,
    partial_trace,
    Representation,
    span_from_generators,
    subspace_intersection,
    subspace_leq,
    subspace_sum,
    subspaces_equal,
    swap_unitary,
    tensor,
    transformation_space,
    verify_representation,
    witness_extension_consistent,
    witness_factorization_gap,
)
from beyondcp import consistency, maps, subspaces
from beyondcp.catalog import (
    controlled_phase_family,
    controlled_phase_generator,
    gibbs_subspace,
    repolarizer_subspace,
)
from beyondcp.config import DEFAULT_TOL, SelfCheckError
from beyondcp.operators import (
    SpaceLayout,
    _reduced_evolution,
    _reduced_evolution_matrix,
    _transposed_columns,
    _unvec_stack,
    adjoint_action,
)
from beyondcp.sampling import haar_unitary, random_density
from beyondcp.serialization import emit_subspace, parse_subspace, validate_document


def kraus_subspace(rho_b):
    """Product-form subspace B(H_S) (x) rho_b."""
    return span_from_generators([tensor(b, rho_b) for b in full_operator_space(2).basis])


@pytest.fixture
def gibbs_v():
    return gibbs_subspace()


@pytest.fixture
def phase_family():
    return controlled_phase_family()


# ---------------------------------------------------------------------------
# single-unitary consistency
# ---------------------------------------------------------------------------


def test_kraus_subspace_consistent_for_many_random_unitaries(rng):
    v = kraus_subspace(random_density(2, rng))
    for _ in range(50):
        verdict = is_unitary_consistent(v, haar_unitary((2, 2), rng))
        assert verdict.consistent
        assert verdict.worst_residual == 0.0  # kernel is empty


def test_gibbs_consistent_with_controlled_phase_grid(gibbs_v, phase_family):
    for u in phase_family.members:
        assert is_unitary_consistent(gibbs_v, u).consistent


def test_gibbs_inconsistent_with_swap(gibbs_v):
    # direct evaluation oracle: the kernel element 1 (x) X maps under SWAP to
    # X (x) 1 whose bath trace is 2X, clearly nonzero
    evolved = adjoint_action(swap_unitary(2), tensor(PAULI_I, PAULI_X))
    assert np.allclose(partial_trace(evolved, keep=0).entries, 2 * PAULI_X.entries)
    verdict = is_unitary_consistent(gibbs_v, swap_unitary(2))
    assert not verdict.consistent
    assert verdict.worst_residual > 0.5
    kernel_elem, unitary = verdict.violating_pair
    assert kernel_of_partial_trace(gibbs_v).contains(kernel_elem)
    assert np.allclose(unitary.entries, swap_unitary(2).entries)


def test_consistency_rejects_non_unitary(gibbs_v):
    with pytest.raises(ValueError, match="unitary"):
        is_unitary_consistent(gibbs_v, operator(np.diag([1.0, 2.0, 1.0, 1.0]), (2, 2)))


def test_nan_unitary_is_rejected_not_consistent(gibbs_v):
    # NaN compares False with every tolerance, so each check must fail closed
    entries = np.eye(4, dtype=complex)
    entries[0, 0] = np.nan
    u = operator(entries, (2, 2))
    with pytest.raises(ValueError, match="unitary"):
        is_unitary_consistent(gibbs_v, u)
    with pytest.raises(ValueError, match="unitary"):
        is_family_consistent(gibbs_v, UnitaryFamily((identity((2, 2)), u)))
    with pytest.raises(ValueError, match="unitary"):
        adjoint_action(u, gibbs_v.basis[0])
    with pytest.raises(ValueError, match="unitary"):
        derive_map(gibbs_v, u)


# ---------------------------------------------------------------------------
# family consistency
# ---------------------------------------------------------------------------


def test_family_consistency_kraus(rng):
    v = kraus_subspace(random_density(2, rng))
    family = UnitaryFamily(tuple(haar_unitary((2, 2), rng) for _ in range(20)))
    assert is_family_consistent(v, family).consistent


def test_family_consistency_gibbs(gibbs_v, phase_family):
    assert is_family_consistent(gibbs_v, phase_family).consistent


def test_family_with_swap_breaks_gibbs(gibbs_v, phase_family):
    extended = UnitaryFamily(phase_family.members + (swap_unitary(2),))
    verdict = is_family_consistent(gibbs_v, extended)
    assert not verdict.consistent
    assert verdict.worst_residual > 0.5


def test_family_residual_matches_per_element_loop(rng, gibbs_v, phase_family):
    # reference: one partial trace per (member, kernel element), as a loop
    members = phase_family.members[:4] + (swap_unitary(2), haar_unitary((2, 2), rng))
    kernel = kernel_of_partial_trace(gibbs_v)
    loop_worst = max(
        partial_trace(adjoint_action(u, x), keep=0).hs_norm() for u in members for x in kernel.basis
    )
    verdict = is_family_consistent(gibbs_v, UnitaryFamily(members))
    assert abs(verdict.worst_residual - loop_worst) <= 1e-12
    x, u = verdict.violating_pair
    assert abs(partial_trace(adjoint_action(u, x), keep=0).hs_norm() - loop_worst) <= 1e-12


def test_consistency_monotone_under_subfamilies(gibbs_v, phase_family):
    # consistency for the family implies consistency for each subfamily
    assert is_family_consistent(gibbs_v, phase_family).consistent
    for i in range(0, len(phase_family.members), 3):
        sub = UnitaryFamily(phase_family.members[: i + 1])
        assert is_family_consistent(gibbs_v, sub).consistent


# ---------------------------------------------------------------------------
# consistent kernel of the trace map
# ---------------------------------------------------------------------------


def test_consistent_kernel_identity_family():
    layout = SpaceLayout((2, 2))
    kernel = consistent_kernel(UnitaryFamily((identity((2, 2)),)), layout)
    assert kernel.dim == 4 * (4 - 1)  # d_S^2 (d_B^2 - 1)
    assert subspaces_equal(kernel, kernel_of_partial_trace(full_operator_space(layout)))


def test_consistent_kernel_many_random_unitaries_is_trivial(rng):
    layout = SpaceLayout((2, 2))
    family = UnitaryFamily(tuple(haar_unitary((2, 2), rng) for _ in range(20)))
    assert consistent_kernel(family, layout).dim == 0


def test_consistent_kernel_swap_is_doubly_traceless():
    layout = SpaceLayout((2, 2))
    kernel = consistent_kernel(UnitaryFamily((swap_unitary(2),)), layout)
    # rank oracle: traceless on both margins leaves 16 - 4 - 4 + 1 = 9
    assert kernel.dim == 9
    for x in kernel.basis:
        assert partial_trace(x, keep=0).hs_norm() <= 1e-9
        assert partial_trace(x, keep=1).hs_norm() <= 1e-9


def test_consistent_kernel_shrinks_with_more_members(rng):
    layout = SpaceLayout((2, 2))
    members = tuple(haar_unitary((2, 2), rng) for _ in range(4))
    dims = []
    for i in range(1, 5):
        dims.append(consistent_kernel(UnitaryFamily(members[:i]), layout).dim)
    assert all(dims[i + 1] <= dims[i] for i in range(len(dims) - 1))
    for i in range(1, 5):
        smaller = consistent_kernel(UnitaryFamily(members[:i]), layout)
        bigger = consistent_kernel(UnitaryFamily(members[:1]), layout)
        assert subspace_leq(smaller, bigger)


def test_consistent_kernel_requires_members():
    with pytest.raises(ValueError):
        consistent_kernel(UnitaryFamily(()), SpaceLayout((2, 2)))


@pytest.mark.parametrize("bath_factor", [2, 5, -1])
def test_consistent_kernel_refuses_a_bath_factor_outside_the_layout(bath_factor):
    # -1 used to keep every factor and so trace out nothing: a zero kernel, no error
    family = UnitaryFamily((swap_unitary(2),))
    with pytest.raises(ValueError, match=f"bath factor {bath_factor} out of range"):
        consistent_kernel(family, SpaceLayout((2, 2)), bath_factor=bath_factor)


@pytest.mark.parametrize("bath_factor", [0, 1])
def test_consistent_kernel_refuses_a_single_factor_layout(bath_factor):
    family = UnitaryFamily((identity((4,)),))
    with pytest.raises(ValueError, match="at least two tensor factors"):
        consistent_kernel(family, SpaceLayout((4,)), bath_factor=bath_factor)


def test_an_empty_family_still_refuses_a_bath_factor_outside_the_layout(gibbs_v):
    assert is_family_consistent(gibbs_v, UnitaryFamily(())).consistent  # vacuously
    with pytest.raises(ValueError, match="bath factor 5 out of range"):
        is_family_consistent(gibbs_v, UnitaryFamily(()), bath_factor=5)


def reference_consistent_kernel(family, layout):
    """The consistent kernel by iterated intersection of conjugated trace kernels."""
    ambient = kernel_of_partial_trace(full_operator_space(layout))
    current = ambient
    for u in family.members:
        conjugated = span_from_generators([adjoint_action(u.dagger(), b) for b in ambient.basis])
        current = subspace_intersection(current, conjugated)
    return current


def _containment(v, w):
    """Largest out-of-span residual of a basis element of v in w."""
    bv, bw = v.basis_matrix(), w.basis_matrix()
    return float(np.max(np.linalg.norm(bv - bw @ (bw.conj().T @ bv), axis=0), initial=0.0))


@pytest.mark.parametrize("dims, members", [((2, 2), 2), ((2, 4), 4), ((4, 4), 3)])
def test_consistent_kernel_matches_iterated_intersection(rng, dims, members):
    layout = SpaceLayout(dims)
    family = UnitaryFamily(tuple(haar_unitary(dims, rng) for _ in range(members)))
    kernel = consistent_kernel(family, layout)
    reference = reference_consistent_kernel(family, layout)
    assert kernel.dim == reference.dim > 0
    assert _containment(kernel, reference) <= 1e-10
    assert _containment(reference, kernel) <= 1e-10


def null_space_kernel(family, layout, bath_factor=1):
    """Reference for the QR null space: the consistent kernel as the tail of
    a full SVD's right factor of the stacked constraints, with the rank cut
    of ``_null_space``.  Returns the constraints and the kernel's basis."""
    n2 = layout.total_dim**2
    u = np.stack([np.eye(layout.total_dim)] + [m.entries for m in family.members])
    keep = subspaces._keep_indices(layout, bath_factor)
    a = _reduced_evolution_matrix(layout.dims, keep, u).reshape(-1, n2)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return a, vh[int(np.sum(s > DEFAULT_TOL.rank_cut * max(s[0], 1.0))) :].conj().T


@pytest.mark.parametrize(
    "dims, bath_factor", [((2, 2), 1), ((2, 4), 1), ((4, 4), 1), ((4, 8), 1), ((4, 2), 0)]
)
def test_consistent_kernel_matches_the_full_svd_null_space(rng, dims, bath_factor):
    layout = SpaceLayout(dims)
    family = UnitaryFamily(tuple(haar_unitary(dims, rng) for _ in range(4)))
    kernel = consistent_kernel(family, layout, bath_factor=bath_factor)
    a, reference = null_space_kernel(family, layout, bath_factor)
    basis = kernel.basis_matrix()
    assert kernel.dim == reference.shape[1] == basis.shape[1]
    assert _containment(kernel, OperatorSubspace(layout, reference)) <= 1e-10
    assert _containment(OperatorSubspace(layout, reference), kernel) <= 1e-10
    assert np.max(np.linalg.norm(a @ basis, axis=0), initial=0.0) <= 1e-9


# The kernel is computed in the real coordinates M = Re X + Im X of Hermitian matrices.
# The cases below are degenerate families, where the rank decision has the most room to
# go wrong: a member that changes nothing, a bath-local member, SWAP, a large commuting
# family, the bath as factor 0 and a three-factor layout.
_REAL_ROUTE_CASES = {
    "identity": lambda rng: ((identity((2, 4)),), (2, 4), 1),
    "bath_local": lambda rng: ((tensor(identity(2), haar_unitary(4, rng)),), (2, 4), 1),
    "swap": lambda rng: ((swap_unitary(2),), (2, 2), 1),
    "swap_3": lambda rng: ((swap_unitary(3),), (3, 3), 1),
    "controlled_phase": lambda rng: (controlled_phase_family().members, (2, 2), 1),
    "bath_first": lambda rng: (tuple(haar_unitary((4, 2), rng) for _ in range(2)), (4, 2), 0),
    "three_factors": lambda rng: ((haar_unitary((2, 2, 2), rng),), (2, 2, 2), 1),
    "three_factors_local": lambda rng: (
        (tensor(tensor(identity(2), haar_unitary(2, rng)), identity(2)),), (2, 2, 2), 1
    ),
}


def _real_route_case(name, rng):
    members, dims, bath_factor = _REAL_ROUTE_CASES[name](rng)
    return UnitaryFamily(tuple(members)), SpaceLayout(dims), bath_factor


def real_hermitian_stack(a, n):
    """Re B + Im B with B = (1+i)/2 A + (1-i)/2 A K, K spelled out as a permutation matrix
    that sends vec X to vec X^T: the constraints in the coordinates M = Re X + Im X."""
    k = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            k[j + n * i, i + n * j] = 1.0
    b = (1 + 1j) / 2 * a + (1 - 1j) / 2 * (a @ k)
    return b.real + b.imag


@pytest.mark.parametrize("name", list(_REAL_ROUTE_CASES))
def test_consistent_kernel_basis_is_exactly_hermitian(rng, name):
    family, layout, bath_factor = _real_route_case(name, rng)
    kernel = consistent_kernel(family, layout, bath_factor=bath_factor)
    assert kernel.dim > 0
    for x in _unvec_stack(kernel.basis_matrix().T, layout.total_dim):
        assert np.array_equal(x, x.conj().T)


@pytest.mark.parametrize("name", list(_REAL_ROUTE_CASES))
def test_real_stack_has_the_singular_values_of_the_complex_one(rng, name):
    family, layout, bath_factor = _real_route_case(name, rng)
    a, _ = null_space_kernel(family, layout, bath_factor)
    n = layout.total_dim
    real = real_hermitian_stack(a, n)
    # the stack consistent_kernel takes, Re A + Im A K, is that matrix
    assert np.max(np.abs(real - (a.real + _transposed_columns(a.imag.T, n).T))) <= 1e-15
    s_complex = np.linalg.svd(a, compute_uv=False)
    s_real = np.linalg.svd(real, compute_uv=False)
    assert np.max(np.abs(s_real - s_complex)) <= 1e-13 * s_complex[0]


@pytest.mark.parametrize("name", list(_REAL_ROUTE_CASES))
def test_real_route_matches_the_full_svd_null_space_on_degenerate_families(rng, name):
    family, layout, bath_factor = _real_route_case(name, rng)
    kernel = consistent_kernel(family, layout, bath_factor=bath_factor)
    _, reference = null_space_kernel(family, layout, bath_factor)
    assert kernel.dim == reference.shape[1] > 0
    assert_same_subspace(kernel, OperatorSubspace(layout, reference))


# ---------------------------------------------------------------------------
# the trimmed stack: each member block without its repeat of the trace row
# ---------------------------------------------------------------------------


def full_trace_rows(family, layout, bath_factor=1):
    """The full stack [T; T S_1; ...] as (f+1, m^2, N^2) blocks, T first."""
    u = np.stack([np.eye(layout.total_dim)] + [m.entries for m in family.members])
    keep = subspaces._keep_indices(layout, bath_factor)
    return _reduced_evolution_matrix(layout.dims, keep, u)


def kept_rows(rows):
    """T, then each member block without its last row, that of the entry (m-1, m-1)."""
    return np.vstack([rows[0], rows[1:, :-1].reshape(-1, rows.shape[-1])])


def _trimmed_stack_case(name, rng):
    if name == "haar_4x4":
        family = UnitaryFamily(tuple(haar_unitary((4, 4), rng) for _ in range(4)))
        return family, SpaceLayout((4, 4)), 1
    return _real_route_case(name, rng)


@pytest.mark.parametrize("name", [*_REAL_ROUTE_CASES, "haar_4x4"])
def test_each_dropped_trace_row_lies_in_the_span_of_the_kept_rows(rng, name):
    family, layout, bath_factor = _trimmed_stack_case(name, rng)
    rows = full_trace_rows(family, layout, bath_factor)
    kept = kept_rows(rows)
    _, s, vh = np.linalg.svd(kept, full_matrices=False)
    span = vh[: int(np.sum(s > DEFAULT_TOL.rank_cut * max(s[0], 1.0)))]
    for dropped in rows[1:, -1]:
        residual = dropped - (dropped @ span.conj().T) @ span
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(dropped)


@pytest.mark.parametrize(
    "dims, bath_factor, members",
    [((2, 2), 1, 1), ((2, 4), 1, 4), ((4, 4), 1, 4), ((4, 2), 0, 2), ((2, 2, 2), 1, 1)],
)
def test_consistent_kernel_takes_the_trimmed_stack(rng, monkeypatch, dims, bath_factor, members):
    layout = SpaceLayout(dims)
    family = UnitaryFamily(tuple(haar_unitary(dims, rng) for _ in range(members)))
    shapes, null_space = [], consistency._null_space

    def recording(a, cut):
        shapes.append(a.shape)
        return null_space(a, cut)

    monkeypatch.setattr(consistency, "_null_space", recording)
    consistent_kernel(family, layout, bath_factor=bath_factor)
    m = layout.total_dim // dims[bath_factor]
    assert shapes == [((members + 1) * m * m - members, layout.total_dim**2)]


@pytest.mark.parametrize("dims", [(2, 4), (4, 4)])
def test_a_member_unitary_within_residual_tol_keeps_the_full_stack_kernel(rng, dims):
    """The full stack's kernel is the trimmed one's up to the member's defect e: by Wedin's
    theorem the two null spaces lie within e / s_min (the trimmed stack's) of each other."""
    layout = SpaceLayout(dims)
    n = layout.total_dim
    members = [haar_unitary(dims, rng) for _ in range(4)]
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / np.linalg.norm(h + h.conj().T)
    members[1] = operator(members[1].entries @ (np.eye(n) + 2.5e-10 * h), dims)
    defect = members[1].unitarity_residual()  # 2 * 2.5e-10 ||h||, to first order
    assert 4e-10 <= defect <= 6e-10 < DEFAULT_TOL.residual_tol
    family = UnitaryFamily(tuple(members))
    kernel = consistent_kernel(family, layout)
    a, reference = null_space_kernel(family, layout)
    assert kernel.dim == reference.shape[1] > 0
    s_min = np.linalg.svd(kept_rows(full_trace_rows(family, layout)), compute_uv=False)[-1]
    bound = defect / s_min
    assert _containment(kernel, OperatorSubspace(layout, reference)) <= bound
    assert _containment(OperatorSubspace(layout, reference), kernel) <= bound
    assert np.max(np.linalg.norm(a @ kernel.basis_matrix(), axis=0)) <= defect


def test_consistent_kernel_reads_as_any_subspace():
    layout = SpaceLayout((2, 2))
    family = UnitaryFamily((swap_unitary(2),))
    kernel = consistent_kernel(family, layout)
    doc = emit_subspace(kernel)
    validate_document(doc, "subspace")
    assert subspaces_equal(parse_subspace(doc), kernel)
    assert derive_map(kernel, family.members[0]).domain.layout.dims == (2,)
    assert subspaces_equal(transformation_space(kernel, family), kernel)


# ---------------------------------------------------------------------------
# the basis build in place, against the build that copied at each step
# ---------------------------------------------------------------------------


def copying_null_space(a, cut):
    """``subspaces._null_space`` as it completed the QR route by copies: c from a zero
    array, then c - V (T^-1)^-1 V^dag c as a fresh product and a fresh difference."""
    k, n = a.shape
    if n < subspaces._QR_NULL_SPACE_COLUMNS:
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        return vh[subspaces._numerical_rank(s, cut, floor=1.0) :].conj().T
    m = min(k, n)
    h, tau = np.linalg.qr(a.conj().T, mode="raw")
    packed = h.T
    triangle = np.triu(packed[:m])
    d = np.abs(np.diagonal(triangle))
    r = -1
    if k < n and np.min(d, initial=np.inf) > cut * max(np.max(d, initial=0.0), 1.0):
        r = subspaces._numerical_rank(np.linalg.svd(triangle, compute_uv=False), cut, floor=1.0)
    if r == m:
        small = triangle[:, :0]
    else:
        u, s, _ = np.linalg.svd(triangle, full_matrices=False)
        r = subspaces._numerical_rank(s, cut, floor=1.0)
        small = u[:, r:]
    v = np.tril(packed[:, :m], -1) + np.eye(n, m)
    unit = tau == 0
    v[:, unit] = 0
    t_inv = np.triu(v.conj().T @ v, 1) + np.diag(1 / np.where(unit, 1, tau))
    c = np.zeros((n, n - r), dtype=small.dtype)
    c[:m, : m - r] = small
    np.fill_diagonal(c[m:, m - r :], 1)
    v_dag_c = np.hstack([v[:m].conj().T @ small, v[m:].conj().T])
    return c - v @ (np.linalg.inv(t_inv) @ v_dag_c)


def copying_kernel_basis(family, layout, bath_factor=1):
    """The consistent kernel's basis as it was built by copies: the null space above, h / 2,
    K h as a copy, a C-order complex basis and its column-major ``_stored`` copy."""
    n = layout.total_dim
    u = np.stack([np.eye(n)] + [m.entries for m in family.members])
    a = kept_rows(_reduced_evolution_matrix(layout.dims, subspaces._keep_indices(layout, bath_factor), u))
    h = copying_null_space(a.real + _transposed_columns(a.imag.T, n).T, DEFAULT_TOL.rank_cut) / 2
    kh = _transposed_columns(h, n)
    basis = np.empty(h.shape, dtype=complex)
    np.add(h, kh, out=basis.real)
    np.subtract(h, kh, out=basis.imag)
    return np.array(basis, dtype=complex, order="F")


@pytest.mark.parametrize(
    "dims, members, bath_factor", [((2, 2), 1, 1), ((2, 4), 4, 1), ((4, 4), 4, 1), ((4, 2), 2, 0)]
)
def test_consistent_kernel_keeps_the_bits_of_the_copying_build(rng, dims, members, bath_factor):
    family = UnitaryFamily(tuple(haar_unitary(dims, rng) for _ in range(members)))
    layout = SpaceLayout(dims)
    basis = consistent_kernel(family, layout, bath_factor=bath_factor).basis_matrix()
    reference = copying_kernel_basis(family, layout, bath_factor)
    assert basis.shape[1] > 0
    assert basis.shape == reference.shape and basis.tobytes(order="A") == reference.tobytes(order="A")
    assert basis.flags.f_contiguous and not basis.flags.writeable and basis.dtype == complex


def test_consistent_kernel_at_4x8_stays_within_rounding_of_the_copying_build(rng):
    """The column-major product takes BLAS's transposed route, which may round the last digit
    of a long sum differently."""
    family = UnitaryFamily(tuple(haar_unitary((4, 8), rng) for _ in range(4)))
    layout = SpaceLayout((4, 8))
    basis = consistent_kernel(family, layout).basis_matrix()
    reference = copying_kernel_basis(family, layout)
    assert basis.shape == reference.shape == (1024, 948)
    assert np.max(np.abs(basis - reference)) <= 1e-15


@pytest.mark.parametrize(
    "rows",
    [
        lambda rng: np.kron([[1.0], [2.0]], rng.standard_normal((40, 256))),  # rank 40
        lambda rng: rng.standard_normal((76, 256)),  # full rank: trailing unit vectors only
        lambda rng: rng.standard_normal((130, 110)),  # tall: no trailing unit vector
        lambda rng: np.eye(100)[[0, 2]] * [[0.0], [1.0]],  # a zero row: an identity reflector
        lambda rng: np.kron([[1.0], [1j]], rng.standard_normal((3, 120))),  # complex, rank 3
    ],
)
def test_null_space_keeps_the_bits_of_the_copying_completion(rng, rows):
    """Bit for bit on a real stack, the consistent kernel's; a complex product may round its
    last digit differently on BLAS's transposed route."""
    a = rows(rng)
    basis = subspaces._null_space(a, 1e-9)
    reference = copying_null_space(a, 1e-9)
    assert basis.dtype == reference.dtype and basis.flags.f_contiguous
    assert basis.shape == reference.shape
    if np.isrealobj(a):
        assert basis.tobytes(order="C") == reference.tobytes(order="C")
    else:
        assert np.max(np.abs(basis - reference)) <= 1e-15


def test_consistent_kernel_at_4x4_peaks_below_two_basis_copies(rng):
    """The traced peak of one warm (4,4) call: the (256, 180) basis is 0.70 MiB complex.  The
    copying build peaked at 3.2 MiB; a ``_stored`` copy of the basis or a zero-array
    completion in the null space each takes it above the bound."""
    family = UnitaryFamily(tuple(haar_unitary((4, 4), rng) for _ in range(4)))
    layout = SpaceLayout((4, 4))
    assert consistent_kernel(family, layout).dim == 180
    tracemalloc.start()
    try:
        consistent_kernel(family, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2**20


# ---------------------------------------------------------------------------
# bath as the first factor (bath_factor=0)
# ---------------------------------------------------------------------------

SYSTEM_BATH_DIMS = [(2, 3), (2, 4)]


def factor_swap(d_s, d_b):
    """Permutation P with P|s, b> = |b, s>, from layout (d_s, d_b) to (d_b, d_s)."""
    p = np.zeros((d_s * d_b, d_s * d_b))
    for s in range(d_s):
        for b in range(d_b):
            p[b * d_s + s, s * d_b + b] = 1.0
    return p


def swapped(a, p):
    """P a P^dag on the layout with the two factors exchanged."""
    return operator(p @ a.entries @ p.T, a.layout.dims[::-1])


def assert_same_subspace(v, w):
    assert v.dim == w.dim
    assert _containment(v, w) <= 1e-10
    assert _containment(w, v) <= 1e-10


@pytest.mark.parametrize("d_s, d_b", SYSTEM_BATH_DIMS)
def test_consistent_kernel_bath_first_matches_factor_swap(rng, d_s, d_b):
    p = factor_swap(d_s, d_b)
    members = tuple(haar_unitary((d_s, d_b), rng) for _ in range(2))
    kernel = consistent_kernel(UnitaryFamily(members), SpaceLayout((d_s, d_b)))
    bath_first = consistent_kernel(
        UnitaryFamily(tuple(swapped(u, p) for u in members)),
        SpaceLayout((d_b, d_s)),
        bath_factor=0,
    )
    assert kernel.dim > 0
    assert_same_subspace(
        bath_first, span_from_generators([swapped(b, p) for b in kernel.basis])
    )


@pytest.mark.parametrize("d_s, d_b", SYSTEM_BATH_DIMS)
def test_kernel_of_partial_trace_bath_first_matches_factor_swap(rng, d_s, d_b):
    p = factor_swap(d_s, d_b)
    gens = [random_density((d_s, d_b), rng) for _ in range(d_s * d_s + 2)]
    kernel = kernel_of_partial_trace(span_from_generators(gens))
    bath_first = kernel_of_partial_trace(
        span_from_generators([swapped(g, p) for g in gens]), bath_factor=0
    )
    assert kernel.dim > 0
    assert_same_subspace(
        bath_first, span_from_generators([swapped(b, p) for b in kernel.basis])
    )


@pytest.mark.parametrize("d_s, d_b", SYSTEM_BATH_DIMS)
def test_unitary_consistency_bath_first_matches_factor_swap(rng, d_s, d_b):
    p = factor_swap(d_s, d_b)
    rho = random_density(d_s, rng)
    # one-dimensional trace kernel, rho (x) (rho_b - sigma_b), so the worst
    # residual does not depend on the choice of kernel basis
    gens = [tensor(rho, random_density(d_b, rng)) for _ in range(2)]
    v = span_from_generators(gens)
    v_first = span_from_generators([swapped(g, p) for g in gens])
    local = tensor(haar_unitary(d_s, rng), haar_unitary(d_b, rng))
    for u, consistent in ((local, True), (haar_unitary((d_s, d_b), rng), False)):
        verdict = is_unitary_consistent(v, u)
        first = is_unitary_consistent(v_first, swapped(u, p), bath_factor=0)
        assert verdict.consistent == first.consistent == consistent
        assert abs(verdict.worst_residual - first.worst_residual) <= 1e-12


# ---------------------------------------------------------------------------
# relations that change no result: a global phase on U, the order of the family's
# members, the order and scale of the generators
# ---------------------------------------------------------------------------

FRAME_CASES = [((2, 2), 21), ((2, 2), 22), ((2, 3), 23), ((2, 3), 24)]


def _frame_case(dims, seed):
    """A seeded Haar family of three members; the generators of a subspace consistent with
    it (rho_S (x) rho_B for four rho_S, and the family's consistent kernel), and of a
    generic inconsistent one (d_S^2 + 2 random states)."""
    rng = np.random.default_rng(seed)
    family = UnitaryFamily(tuple(haar_unitary(dims, rng) for _ in range(3)))
    rho_b = random_density(dims[1], rng)
    kernel = consistent_kernel(family, SpaceLayout(dims))
    good = [tensor(random_density(dims[0], rng), rho_b) for _ in range(4)] + list(kernel.basis)
    bad = [random_density(dims, rng) for _ in range(dims[0] ** 2 + 2)]
    return family, good, bad


def _results(family, good, bad):
    """The family verdicts of both subspaces, each member's derived map on the consistent
    one, and whether each member refuses the inconsistent one."""
    v, v_bad = span_from_generators(good), span_from_generators(bad)
    verdicts = [is_family_consistent(w, family) for w in (v, v_bad)]
    derived = [derive_map(v, u) for u in family.members]
    refused = []
    for u in family.members:
        with pytest.raises(InconsistentPairError) as refusal:
            derive_map(v_bad, u)
        refused.append(refusal.value.verdict.consistent)
    return v, verdicts, derived, refused


def _assert_same_results(before, after):
    (v, verdicts, derived, refused), (w, moved, rederived, re_refused) = before, after
    assert_same_subspace(v, w)
    assert [x.consistent for x in verdicts] == [y.consistent for y in moved] == [True, False]
    assert refused == re_refused == [False] * 3
    for phi, psi in zip(derived, rederived):
        assert map_residual(phi, psi) <= 1e-9


@pytest.mark.parametrize("dims, seed", FRAME_CASES)
def test_a_global_phase_on_each_member_changes_no_result(dims, seed):
    family, good, bad = _frame_case(dims, seed)
    phased = UnitaryFamily(
        tuple(np.exp(1j * t) * u for t, u in zip((0.7, 2.1, -1.3), family.members))
    )
    before, after = _results(family, good, bad), _results(phased, good, bad)
    _assert_same_results(before, after)
    for x, y in zip(before[1], after[1]):
        assert y.worst_residual == pytest.approx(x.worst_residual, rel=1e-9, abs=1e-15)
    kernel = consistent_kernel(family, SpaceLayout(dims))
    assert kernel.dim > 0
    assert_same_subspace(kernel, consistent_kernel(phased, SpaceLayout(dims)))


@pytest.mark.parametrize("dims, seed", FRAME_CASES)
def test_the_order_of_the_family_changes_no_result(dims, seed):
    family, good, bad = _frame_case(dims, seed)
    order = (2, 0, 1)
    reordered = UnitaryFamily(tuple(family.members[i] for i in order))
    before, after = _results(family, good, bad), _results(reordered, good, bad)
    v, verdicts, derived, refused = before
    _assert_same_results((v, verdicts, [derived[i] for i in order], refused), after)
    for x, y in zip(verdicts, after[1]):
        assert y.worst_residual == pytest.approx(x.worst_residual, rel=1e-9, abs=1e-15)
    kernel = consistent_kernel(family, SpaceLayout(dims))
    assert kernel.dim > 0
    assert_same_subspace(kernel, consistent_kernel(reordered, SpaceLayout(dims)))
    assert_same_subspace(transformation_space(v, family), transformation_space(v, reordered))


@pytest.mark.parametrize("dims, seed", FRAME_CASES)
def test_the_order_and_scale_of_the_generators_change_no_result(dims, seed):
    family, good, bad = _frame_case(dims, seed)
    scales = (2.5, -0.4, 1j, 3.0, -1.0, 0.5j)

    def moved(gens):  # reversed, each scaled by a nonzero number
        return [scales[i % len(scales)] * g for i, g in enumerate(reversed(gens))]

    _assert_same_results(_results(family, good, bad), _results(family, moved(good), moved(bad)))


# ---------------------------------------------------------------------------
# relations that move the derived map only as the frame says: a local frame
# W_S (x) W_B conjugates it by W_S, a bath-only frame leaves it, and the swapped
# layout (d_B, d_S) with bath_factor=0 gives the same pair
# ---------------------------------------------------------------------------


def _pair_results(family, good, bad, bath_factor=1):
    """The family verdicts of both subspaces of ``_frame_case``, the dimensions of their
    trace kernels and of the family's consistent kernel, and each member's derived map on
    the consistent subspace."""
    v, v_bad = span_from_generators(good), span_from_generators(bad)
    return (
        [is_family_consistent(w, family, bath_factor).consistent for w in (v, v_bad)],
        [kernel_of_partial_trace(w, bath_factor).dim for w in (v, v_bad)],
        consistent_kernel(family, v.layout, bath_factor=bath_factor).dim,
        [derive_map(v, u, bath_factor) for u in family.members],
    )


def _assert_conjugated(phi, psi, w_s):
    """psi = Ad_{W_S} o phi o Ad_{W_S^dag}, and on the full domain the two have the same CP
    verdict and Choi spectrum."""
    d_s = w_s.dim

    def conjugated(x):
        return adjoint_action(w_s, phi.apply(adjoint_action(w_s.dagger(), operator(x, d_s)))).entries

    assert map_residual(psi, map_from_action(conjugated, psi.domain)) <= 1e-9
    assert phi.domain.dim == psi.domain.dim == d_s**2
    assert is_cp(phi).cp is is_cp(psi).cp
    spectra = [np.linalg.eigvalsh(choi_matrix(m).entries) for m in (phi, psi)]
    assert np.max(np.abs(spectra[0] - spectra[1])) <= 1e-10


@pytest.mark.parametrize("dims, seed", FRAME_CASES)
def test_a_local_frame_conjugates_each_derived_map(dims, seed):
    family, good, bad = _frame_case(dims, seed)
    rng = np.random.default_rng(seed + 100)
    w_s = haar_unitary(dims[0], rng)
    w = tensor(w_s, haar_unitary(dims[1], rng))
    moved = UnitaryFamily(tuple(adjoint_action(w, u) for u in family.members))
    verdicts, kernels, kernel, derived = _pair_results(family, good, bad)
    after = _pair_results(
        moved, [adjoint_action(w, g) for g in good], [adjoint_action(w, g) for g in bad]
    )
    assert verdicts == after[0] == [True, False]
    assert (kernels, kernel) == after[1:3] and kernel > 0
    for phi, psi in zip(derived, after[3]):
        assert is_cp(phi).cp  # B(H_S) (x) rho_B under a unitary gives a channel
        _assert_conjugated(phi, psi, w_s)


def test_a_local_frame_conjugates_the_repolarizer():
    # the SWAP pair of the repolarizer: a full-domain map that is not CP
    rng = np.random.default_rng(31)
    w_s = haar_unitary(2, rng)
    w = tensor(w_s, haar_unitary(2, rng))
    v = repolarizer_subspace(0.2)
    phi = derive_map(v, swap_unitary(2))
    moved = span_from_generators([adjoint_action(w, b) for b in v.basis])
    psi = derive_map(moved, adjoint_action(w, swap_unitary(2)))
    assert not is_cp(phi).cp
    _assert_conjugated(phi, psi, w_s)


@pytest.mark.parametrize("dims, seed", FRAME_CASES)
def test_a_bath_frame_leaves_each_derived_map_unchanged(dims, seed):
    family, good, bad = _frame_case(dims, seed)
    w = tensor(identity(dims[0]), haar_unitary(dims[1], np.random.default_rng(seed + 200)))
    moved = UnitaryFamily(tuple(adjoint_action(w, u) for u in family.members))
    before = _pair_results(family, good, bad)
    after = _pair_results(
        moved, [adjoint_action(w, g) for g in good], [adjoint_action(w, g) for g in bad]
    )
    assert before[:3] == after[:3] and before[0] == [True, False]
    for phi, psi in zip(before[3], after[3]):
        assert map_residual(phi, psi) <= 1e-9


@pytest.mark.parametrize("dims, seed", FRAME_CASES)
def test_the_swapped_layout_gives_the_same_pair_results(dims, seed):
    family, good, bad = _frame_case(dims, seed)
    p = factor_swap(*dims)
    moved = UnitaryFamily(tuple(swapped(u, p) for u in family.members))
    before = _pair_results(family, good, bad)
    after = _pair_results(
        moved, [swapped(g, p) for g in good], [swapped(g, p) for g in bad], bath_factor=0
    )
    assert before[:3] == after[:3] and before[0] == [True, False]
    for phi, psi in zip(before[3], after[3]):
        assert map_residual(phi, psi) <= 1e-9


# ---------------------------------------------------------------------------
# transformation space
# ---------------------------------------------------------------------------


def test_transformation_space_kraus_unchanged(rng):
    v = kraus_subspace(random_density(2, rng))
    family = UnitaryFamily(tuple(haar_unitary((2, 2), rng) for _ in range(8)))
    assert consistent_kernel(family, v.layout).dim == 0
    vprime = transformation_space(v, family)
    assert subspaces_equal(vprime, v)


def test_transformation_space_gibbs_extends(gibbs_v, phase_family):
    vprime = transformation_space(gibbs_v, phase_family)
    assert subspace_leq(gibbs_v, vprime)
    assert vprime.dim >= gibbs_v.dim


def test_transformation_space_identity_family(gibbs_v):
    family = UnitaryFamily((identity((2, 2)),))
    vprime = transformation_space(gibbs_v, family)
    expected = subspace_sum(gibbs_v, kernel_of_partial_trace(full_operator_space(gibbs_v.layout)))
    assert subspaces_equal(vprime, expected)


def test_transformation_space_computes_the_trace_kernel_once(gibbs_v, phase_family, count_calls):
    counts = count_calls((consistency, "_kernel_residuals"))
    vprime = transformation_space(gibbs_v, phase_family)
    assert subspace_leq(gibbs_v, vprime)
    assert counts["_kernel_residuals"] == 1  # the derivation's decision; none per member


def test_transformation_space_derives_what_no_member_changes_once(
    gibbs_v, phase_family, count_calls, monkeypatch
):
    counts = count_calls(
        (subspaces, "check_state_spanned"), (subspaces, "_span_of_columns")
    )
    reduced_stacks, thin_svds = [], []
    kernel_residuals, svd = maps._kernel_residuals, np.linalg.svd

    def recording_residuals(*args):
        out = kernel_residuals(*args)
        reduced_stacks.append(out[1])  # R = T B, the reduced basis of v
        return out

    def recording_svd(a, *args, **kwargs):
        if not kwargs.get("full_matrices", True):
            thin_svds.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(maps, "_kernel_residuals", recording_residuals)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    vprime = transformation_space(gibbs_v, phase_family)
    assert counts["check_state_spanned"] == 1
    assert counts["_span_of_columns"] == 1  # v + v-hat; the reduced basis is not a span call
    (reduced,) = reduced_stacks
    assert len(phase_family.members) > 1
    assert sum(a is reduced for a in thin_svds) == 1  # the domain's SVD, once for every member
    expected = subspace_sum(gibbs_v, consistent_kernel(phase_family, gibbs_v.layout))
    assert np.array_equal(vprime.basis_matrix(), expected.basis_matrix())


def test_shared_derivation_gives_each_member_its_own_derived_map(gibbs_v, phase_family):
    # the maps behind the transformation-space self-check, bit for bit
    derivations = maps._derive(gibbs_v, phase_family.members, (0,))
    assert len(derivations) == len(phase_family.members)
    for derivation, u in zip(derivations, phase_family.members):
        alone = derive_map(gibbs_v, u)
        assert np.array_equal(derivation.map.coord_matrix, alone.coord_matrix)
        assert derivation.map.provenance == alone.provenance


def test_the_zero_subspace_derives_and_its_transformation_space_is_the_kernel(rng):
    zero = parse_subspace({"dims": [2, 2], "basis": []})
    family = UnitaryFamily(tuple(haar_unitary((2, 2), rng) for _ in range(2)))
    for derivation in maps._derive(zero, family.members, (0,)):
        assert derivation.residual == 0.0 and derivation.kernel.shape == (0, 0)
        assert derivation.map.domain.dim == 0 and derivation.spanned is False
    kernel = consistent_kernel(family, zero.layout)
    assert kernel.dim == 6
    assert subspaces_equal(transformation_space(zero, family), kernel)
    with pytest.raises(ValueError, match="zero-dimensional"):
        derive_map(zero, family.members[0])


def test_transformation_space_rejects_inconsistent(gibbs_v):
    with pytest.raises(ValueError, match="not consistent"):
        transformation_space(gibbs_v, UnitaryFamily((swap_unitary(2),)))


def test_transformation_space_self_check_failure_is_a_self_check_error(
    gibbs_v, phase_family, monkeypatch
):
    # X (x) Z has a zero bath trace, but the controlled phase gives it a nonzero one
    extra = span_from_generators([tensor(PAULI_X, operator(np.diag([1.0, -1.0]), 2))])
    monkeypatch.setattr(consistency, "subspace_sum", lambda v, w: subspace_sum(v, extra))
    with pytest.raises(SelfCheckError, match="transformation-space self-check failed"):
        transformation_space(gibbs_v, phase_family)


# ---------------------------------------------------------------------------
# one consistency decision for verdicts and derivations
# ---------------------------------------------------------------------------


def kernel_subspace_verdict(v, family):
    """Reference verdict: the trace kernel built as a subspace, then the column
    norms of the reduced evolution of its orthonormal basis under every member."""
    kernel = kernel_of_partial_trace(v)
    if kernel.dim == 0:
        return True, 0.0
    u = np.array([m.entries for m in family.members])
    evolved = _reduced_evolution(kernel.basis_matrix(), v.layout.dims, (0,), u)
    worst = float(np.max(np.linalg.norm(evolved, axis=1)))
    return worst <= v.tol.residual_tol, worst


def decision_cases(dims, rng):
    """A consistent and an inconsistent (subspace, family) pair at ``dims``.

    The consistent subspace is B(H_S) (x) sigma plus the family's consistent
    kernel, whose trace kernel is that kernel; the inconsistent one is spanned
    by d_S^2 + 3 random states, so its trace kernel is not empty.
    """
    d_s, d_b = dims
    family = UnitaryFamily(tuple(haar_unitary(dims, rng) for _ in range(1 if dims == (2, 2) else 4)))
    sigma = random_density(d_b, rng)
    product = span_from_generators([tensor(b, sigma) for b in full_operator_space(d_s).basis])
    consistent = subspace_sum(product, consistent_kernel(family, SpaceLayout(dims)))
    states = span_from_generators([random_density(dims, rng) for _ in range(d_s**2 + 3)])
    return [(consistent, family, True), (states, family, False)]


@pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 4)])
def test_family_verdict_matches_the_kernel_subspace_route(dims, rng):
    for v, family, expected in decision_cases(dims, rng):
        assert kernel_of_partial_trace(v).dim > 0
        verdict = is_family_consistent(v, family)
        consistent, worst = kernel_subspace_verdict(v, family)
        assert verdict.consistent is consistent is expected
        assert abs(verdict.worst_residual - worst) <= 1e-14


@pytest.mark.parametrize("dims", [(2, 2), (2, 4), (4, 4)])
def test_derivations_decide_as_the_verdict_does(dims, rng):
    for v, family, expected in decision_cases(dims, rng):
        for u in family.members:
            verdict = is_unitary_consistent(v, u)
            assert verdict.consistent is expected
            rep = Representation(dims[1], u, v, full_operator_space(dims[0]))
            graded = verify_representation(rep, identity_map(dims[0]))
            assert graded.consistency_residual == verdict.worst_residual  # bit for bit
            if expected:
                assert subspaces_equal(derive_map(v, u).domain, full_operator_space(dims[0]))
                continue
            with pytest.raises(InconsistentPairError, match="not consistent") as err:
                derive_map(v, u)
            carried = err.value.verdict
            assert (carried.consistent, carried.worst_residual) == (False, verdict.worst_residual)


def _assert_bit_equal_verdicts(carried, verdict):
    assert carried.consistent is verdict.consistent is False
    assert carried.worst_residual.hex() == verdict.worst_residual.hex()
    (x, u), (y, w) = carried.violating_pair, verdict.violating_pair
    assert np.array_equal(x.entries, y.entries) and x.layout == y.layout and u is w


@pytest.mark.parametrize("dims", [(2, 2), (2, 4)])
def test_a_refused_derivation_decides_once_and_carries_that_verdict(dims, rng, count_calls):
    counts = count_calls((consistency, "_kernel_residuals"))
    (v, family, consistent), *_ = [case for case in decision_cases(dims, rng) if not case[2]]
    for u in family.members:
        verdict = is_unitary_consistent(v, u)
        counts.clear()
        with pytest.raises(InconsistentPairError) as err:
            derive_map(v, u)
        assert counts == {"_kernel_residuals": 1}
        _assert_bit_equal_verdicts(err.value.verdict, verdict)
        rep = Representation(dims[1], u, v, full_operator_space(dims[0]))
        assert rep._derivation.map is None
        counts.clear()
        with pytest.raises(InconsistentPairError) as err:
            rep.derived_map()  # refused from the cached derivation
        assert counts == {}
        _assert_bit_equal_verdicts(err.value.verdict, verdict)


def test_family_verdict_builds_no_subspace(gibbs_v, phase_family, monkeypatch):
    built = []
    original = OperatorSubspace.__post_init__
    monkeypatch.setattr(
        OperatorSubspace, "__post_init__", lambda self: built.append(original(self))
    )
    assert is_family_consistent(gibbs_v, phase_family).consistent
    assert not is_family_consistent(gibbs_v, UnitaryFamily((swap_unitary(2),))).consistent
    assert built == []
    assert "consistent" not in inspect.signature(maps._derive).parameters


# ---------------------------------------------------------------------------
# extension probes
# ---------------------------------------------------------------------------


def test_extension_trivial_for_states_already_inside(rng):
    v = kraus_subspace(identity(2) / 2)
    family = UnitaryFamily(tuple(haar_unitary((2, 2), rng) for _ in range(5)))
    rho = tensor(random_density(2, rng), identity(2) / 2)
    assert extension_is_consistent(v, rho, family)


def test_extension_with_different_bath_state_fails(rng):
    rho_b = random_density(2, rng)
    v = kraus_subspace(rho_b)
    family = UnitaryFamily(tuple(haar_unitary((2, 2), rng) for _ in range(20)))
    other_bath = random_density(2, rng)
    rho = tensor(random_density(2, rng), other_bath)
    assert not extension_is_consistent(v, rho, family)


def test_extension_gibbs_with_bell_state_regression(gibbs_v, phase_family):
    # Regression fixture computed by the direct kernel-plus-residual route:
    # the Bell state's bath trace is 1/2, covered in the subspace by 1/4, and
    # both evolve to 1/2 under every diagonal-phase unitary, so the extension
    # stays consistent.
    assert extension_is_consistent(gibbs_v, bell_projector(), phase_family) is True


def test_extension_rejects_non_state(gibbs_v, phase_family):
    with pytest.raises(ValueError):
        extension_is_consistent(gibbs_v, tensor(PAULI_X, PAULI_X), phase_family)


# ---------------------------------------------------------------------------
# witness extension
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d_w", [1, 2, 3])
def test_witness_extension_kraus(rng, d_w):
    v = kraus_subspace(random_density(2, rng))
    family = UnitaryFamily(tuple(haar_unitary((2, 2), rng) for _ in range(6)))
    assert witness_extension_consistent(v, family, d_w).consistent


@pytest.mark.parametrize("d_w", [1, 2, 3])
def test_witness_extension_gibbs(gibbs_v, phase_family, d_w):
    assert witness_extension_consistent(gibbs_v, phase_family, d_w).consistent


def test_witness_dimension_one_reduces_to_plain_check(gibbs_v, phase_family):
    plain = is_family_consistent(gibbs_v, phase_family)
    lifted = witness_extension_consistent(gibbs_v, phase_family, 1)
    assert plain.consistent == lifted.consistent
    assert np.isclose(plain.worst_residual, lifted.worst_residual)


def explicit_witness_verdict(v, family, d_w):
    """Consistency of the explicitly built v (x) B(H_W) under {U (x) 1_W}."""
    units = [matrix_unit(i, j, (d_w,)) for i in range(d_w) for j in range(d_w)]
    extended = span_from_generators([tensor(b, e) for b in v.basis for e in units])
    lifted = UnitaryFamily(tuple(tensor(u, identity((d_w,))) for u in family.members))
    return is_family_consistent(extended, lifted)


@pytest.mark.parametrize("d_w", [2, 3])
def test_witness_extension_matches_explicit_construction(rng, gibbs_v, phase_family, d_w):
    haar = UnitaryFamily(tuple(haar_unitary((2, 2), rng) for _ in range(4)))
    for family, expected in ((phase_family, True), (haar, False)):
        explicit = explicit_witness_verdict(gibbs_v, family, d_w)
        factored = witness_extension_consistent(gibbs_v, family, d_w)
        assert explicit.consistent is factored.consistent is expected


def test_witness_extension_rejects_bad_dimension(gibbs_v, phase_family):
    with pytest.raises(ValueError):
        witness_extension_consistent(gibbs_v, phase_family, 0)


# ---------------------------------------------------------------------------
# witness factorization gap
# ---------------------------------------------------------------------------


def test_witness_gap_product_state(rng):
    rho_bw = tensor(random_density(2, rng), random_density(2, rng))
    report = witness_factorization_gap(random_density(2, rng), rho_bw)
    assert report.mismatch <= 1e-12


def test_witness_gap_bell_state(rng):
    bell = bell_projector()
    report = witness_factorization_gap(random_density(2, rng), bell)
    # eigenvalue oracle: Bell - 1/4 has eigenvalues {3/4, -1/4, -1/4, -1/4},
    # so the normalized trace distance is (3/4 + 3/4) / 2 = 3/4
    eigs = np.linalg.eigvalsh(bell.entries - np.eye(4) / 4)
    assert np.isclose(np.abs(eigs).sum() / 2, 0.75)
    assert np.isclose(report.mismatch, 0.75, atol=1e-12)
    assert np.allclose(report.evolved_true.entries, bell.entries, atol=1e-12)
    assert np.allclose(report.evolved_factored.entries, np.eye(4) / 4, atol=1e-12)


def test_witness_gap_classically_correlated():
    rho_bw = operator(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
    report = witness_factorization_gap(identity(2) / 2, rho_bw)
    eigs = np.linalg.eigvalsh(rho_bw.entries - np.eye(4) / 4)
    assert np.isclose(np.abs(eigs).sum() / 2, 0.5)
    assert np.isclose(report.mismatch, 0.5, atol=1e-12)


def test_witness_gap_validates_inputs():
    with pytest.raises(ValueError):
        witness_factorization_gap(PAULI_X, bell_projector())
    with pytest.raises(ValueError):
        witness_factorization_gap(identity(2) / 2, identity(2) / 2)


def test_witness_gap_refuses_layouts_without_a_swap():
    bell = bell_projector()
    with pytest.raises(ValueError, match="^rho_s must live on a single-factor system layout$"):
        witness_factorization_gap(tensor(identity(2) / 2, identity(2) / 2), bell)
    with pytest.raises(
        ValueError, match="^system and bath dimensions must match for the SWAP evolution$"
    ):
        witness_factorization_gap(identity(3) / 3, bell)


# ---------------------------------------------------------------------------
# generator-level probe
# ---------------------------------------------------------------------------


def test_lie_generator_check_controlled_phase(gibbs_v):
    assert lie_generator_check(gibbs_v, controlled_phase_generator()) <= 1e-12


def kron_lie_check(v, k, order):
    """Reference for ``lie_generator_check``: commutators by the superoperator
    1 (x) K - K^T (x) 1 on vec X, bath traces by einsum."""
    n = v.layout.total_dim
    d_s, d_b = v.layout.dims
    commutator = np.kron(np.eye(n), k.entries) - np.kron(k.entries.T, np.eye(n))
    cols = kernel_of_partial_trace(v).basis_matrix()
    worst = 0.0
    for _ in range(order):
        cols = commutator @ cols
        for col in cols.T:
            x = col.reshape((n, n), order="F").reshape(d_s, d_b, d_s, d_b)
            reduced = np.einsum("abcb->ac", x)
            worst = max(worst, np.linalg.norm(reduced) / np.linalg.norm(col))
    return worst


def test_lie_generator_check_matches_a_kron_superoperator(gibbs_v, rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    k = operator(a + a.conj().T, (2, 2))
    expected = kron_lie_check(gibbs_v, k, order=3)
    assert expected > 0.1
    assert lie_generator_check(gibbs_v, k, order=3) == pytest.approx(expected, rel=1e-12)


def test_lie_generator_check_refuses_a_generator_on_another_layout(gibbs_v):
    flat = operator(controlled_phase_generator().entries, (4,))  # same matrix, one factor
    with pytest.raises(ValueError, match=r"layout mismatch: \(4,\) vs \(2, 2\)"):
        lie_generator_check(gibbs_v, flat)


def test_lie_generator_check_refuses_a_non_hermitian_generator(gibbs_v):
    with pytest.raises(ValueError, match="^the family generator must be Hermitian$"):
        lie_generator_check(gibbs_v, operator(np.triu(np.ones((4, 4))), (2, 2)))


def test_lie_generator_check_detects_bad_generator(gibbs_v):
    # Y on the system fails to commute with the kernel's system parts while
    # X on the bath overlaps its bath factor, so the first commutator already
    # leaves the trace kernel.
    from beyondcp.operators import PAULI_Y

    bad = tensor(PAULI_Y, PAULI_X)
    assert lie_generator_check(gibbs_v, bad) > 0.1


@pytest.mark.parametrize("order", [0, -1, -3])
def test_lie_generator_check_refuses_an_order_that_tests_nothing(gibbs_v, order):
    # Z on the system, X on the bath: the first commutator leaves the trace kernel, so an
    # order that takes no commutator would report this leaking generator as clean
    from beyondcp.operators import PAULI_Z

    leaking = tensor(PAULI_Z, PAULI_X)
    assert lie_generator_check(gibbs_v, leaking, order=1) == pytest.approx(np.sqrt(2), rel=1e-12)
    with pytest.raises(ValueError, match=f"^order must be at least 1, got {order}$"):
        lie_generator_check(gibbs_v, leaking, order=order)

