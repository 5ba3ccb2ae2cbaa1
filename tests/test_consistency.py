import numpy as np
import pytest

from beyondcp import (
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
    is_family_consistent,
    is_unitary_consistent,
    kernel_of_partial_trace,
    lie_generator_check,
    matrix_unit,
    operator,
    partial_trace,
    span_from_generators,
    subspace_intersection,
    subspace_leq,
    subspace_sum,
    subspaces_equal,
    swap_unitary,
    tensor,
    transformation_space,
    witness_extension_consistent,
    witness_factorization_gap,
)
from beyondcp import maps, subspaces
from beyondcp.catalog import (
    controlled_phase_family,
    controlled_phase_generator,
    gibbs_subspace,
)
from beyondcp.config import DEFAULT_TOL
from beyondcp.operators import SpaceLayout, _reduced_evolution_matrix, adjoint_action
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
    counts = count_calls((subspaces, "kernel_of_partial_trace"))
    vprime = transformation_space(gibbs_v, phase_family)
    assert subspace_leq(gibbs_v, vprime)
    assert counts["kernel_of_partial_trace"] == 1  # the family verdict's; none per member


def test_transformation_space_derives_what_no_member_changes_once(
    gibbs_v, phase_family, count_calls
):
    counts = count_calls(
        (subspaces, "check_state_spanned"), (subspaces, "_span_of_columns")
    )
    vprime = transformation_space(gibbs_v, phase_family)
    assert counts["check_state_spanned"] == 1
    assert counts["_span_of_columns"] == 2  # v + v-hat, and the reduced basis of v
    expected = subspace_sum(gibbs_v, consistent_kernel(phase_family, gibbs_v.layout))
    assert np.array_equal(vprime.basis_matrix(), expected.basis_matrix())


def test_shared_derivation_gives_each_member_its_own_derived_map(gibbs_v, phase_family):
    # the maps behind the transformation-space self-check, bit for bit
    derivations = maps._derive(gibbs_v, phase_family.members, (0,), consistent=True)
    assert len(derivations) == len(phase_family.members)
    for derivation, u in zip(derivations, phase_family.members):
        alone = derive_map(gibbs_v, u)
        assert np.array_equal(derivation.map.coord_matrix, alone.coord_matrix)
        assert derivation.map.provenance == alone.provenance


def test_transformation_space_rejects_inconsistent(gibbs_v):
    with pytest.raises(ValueError, match="not consistent"):
        transformation_space(gibbs_v, UnitaryFamily((swap_unitary(2),)))


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


def test_lie_generator_check_detects_bad_generator(gibbs_v):
    # Y on the system fails to commute with the kernel's system parts while
    # X on the bath overlaps its bath factor, so the first commutator already
    # leaves the trace kernel.
    from beyondcp.operators import PAULI_Y

    bad = tensor(PAULI_Y, PAULI_X)
    assert lie_generator_check(gibbs_v, bad) > 0.1
