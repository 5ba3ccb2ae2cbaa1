import math

import numpy as np
import pytest

from beyondcp import (
    InconsistentPairError,
    MapDomainError,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Representation,
    SpaceLayout,
    SubsystemMap,
    UnitaryFamily,
    choi_matrix,
    compose,
    consistent_kernel,
    derive_map,
    full_operator_space,
    identity,
    identity_map,
    is_cp,
    kernel_of_partial_trace,
    map_from_action,
    map_from_kraus,
    map_residual,
    operator,
    partial_trace,
    positive_domain_membership,
    positivity_scan,
    sample_positive_domain,
    span_from_generators,
    subspace_sum,
    swap_representation,
    swap_unitary,
    tensor,
    transformation_space,
)
from beyondcp import maps, subspaces
from beyondcp.catalog import (
    axis_states,
    controlled_phase_family,
    controlled_phase_map,
    controlled_phase_unitary,
    depolarizer,
    depolarizer_kraus,
    gibbs_subspace,
    repolarizer,
    transpose_map,
)
from beyondcp.config import DEFAULT_TOL, SelfCheckError
from beyondcp.operators import adjoint_action
from beyondcp.sampling import haar_unitary, random_density, random_kraus_channel


def kraus_subspace(rho_b):
    return span_from_generators([tensor(b, rho_b) for b in full_operator_space(2).basis])


# ---------------------------------------------------------------------------
# derive_map
# ---------------------------------------------------------------------------


def test_derived_kraus_map_matches_brute_force(rng):
    rho_b = random_density(2, rng)
    v = kraus_subspace(rho_b)
    for _ in range(10):
        u = haar_unitary((2, 2), rng)
        phi = derive_map(v, u)
        rho = random_density(2, rng)
        expected = partial_trace(adjoint_action(u, tensor(rho, rho_b)), keep=0)
        assert (phi.apply(rho) - expected).hs_norm() <= 1e-10


def test_derived_map_matches_closed_form_on_thermal_family():
    v = gibbs_subspace()
    for t in (0.0, math.pi / 6, math.pi / 4, math.pi / 2):
        derived = derive_map(v, controlled_phase_unitary(t))
        assert map_residual(derived, controlled_phase_map(t)) <= 1e-9


def test_derive_map_transpose_from_state_products(rng):
    gens = []
    for _ in range(20):
        rho = random_density(2, rng)
        gens.append(tensor(rho, operator(rho.entries.T, 2)))
    v = span_from_generators(gens)
    phi = derive_map(v, swap_unitary(2))
    assert map_residual(phi, transpose_map()) <= 1e-9


def test_derive_map_refuses_degenerate_subspace():
    from beyondcp import zero

    empty = span_from_generators([zero((2, 2))])
    assert empty.dim == 0
    with pytest.raises(ValueError, match="zero-dimensional"):
        derive_map(empty, swap_unitary(2))


def test_derive_map_refuses_inconsistent_pair():
    with pytest.raises(InconsistentPairError) as excinfo:
        derive_map(gibbs_subspace(), swap_unitary(2))
    verdict = excinfo.value.verdict
    assert not verdict.consistent
    assert verdict.violating_pair is not None


def test_derived_map_preserves_trace_and_hermiticity(rng):
    v = kraus_subspace(random_density(2, rng))
    phi = derive_map(v, haar_unitary((2, 2), rng))
    assert phi.is_trace_preserving()
    assert phi.is_hermiticity_preserving()


def test_derivation_unique_against_subset_oracle(rng):
    """Greedy maximal-independent-subset derivation agrees with derive_map's SVD route."""
    v = gibbs_subspace()
    u = controlled_phase_unitary(0.73)
    phi = derive_map(v, u)
    projected = [partial_trace(b, keep=0) for b in v.basis]
    evolved = [
        partial_trace(adjoint_action(u, b), keep=0).entries.reshape(-1) for b in v.basis
    ]
    chosen: list[int] = []
    for i, x in enumerate(projected):
        candidate = [projected[j].entries.reshape(-1) for j in chosen] + [
            x.entries.reshape(-1)
        ]
        if np.linalg.matrix_rank(np.column_stack(candidate), tol=1e-9) == len(candidate):
            chosen.append(i)
    basis_mat = np.column_stack([projected[j].entries.reshape(-1) for j in chosen])
    image_mat = np.column_stack([evolved[j] for j in chosen])
    for _ in range(20):
        # random state inside the domain span{1, X, Z}
        x, z = rng.uniform(-1, 1, size=2)
        scale = rng.uniform(0, 1) / max(1.0, math.hypot(x, z))
        rho = (PAULI_I + (x * scale) * PAULI_X + (z * scale) * PAULI_Z) * 0.5
        coeffs, *_ = np.linalg.lstsq(basis_mat, rho.entries.reshape(-1), rcond=None)
        expected = (image_mat @ coeffs).reshape(2, 2)
        assert np.linalg.norm(phi.apply(rho).entries - expected) <= 1e-9


def _pinv_coordinates(phi, v, u):
    """The former derivation's coordinates, E pinv(U_r^dag R) with U_r the domain basis."""
    _, reduced, (evolved,), *_ = maps._kernel_residuals(v, [u], (0,))
    coords = phi.domain.basis_matrix().conj().T @ reduced
    return evolved @ np.linalg.pinv(coords, rcond=DEFAULT_TOL.rank_cut)


def _consistent_pair(d_b, seed):
    """B(H_S) (x) rho_B plus the consistent kernel of a Haar u: its trace kernel is that
    kernel, so the pair is consistent."""
    rng = np.random.default_rng(seed)
    rho_b, u = random_density(d_b, rng), haar_unitary((2, d_b), rng)
    product = span_from_generators([tensor(b, rho_b) for b in full_operator_space(2).basis])
    return subspace_sum(product, consistent_kernel(UnitaryFamily((u,)), SpaceLayout((2, d_b)))), u


def _swap_pair():
    rep = swap_representation(transpose_map(), axis_states())
    return rep.subspace, rep.unitary


ORACLE_PAIRS = {
    "kraus+kernel (2,2) seed 11": lambda: _consistent_pair(2, 11),
    "kraus+kernel (2,2) seed 12": lambda: _consistent_pair(2, 12),
    "kraus+kernel (2,3) seed 13": lambda: _consistent_pair(3, 13),
    "kraus+kernel (2,3) seed 14": lambda: _consistent_pair(3, 14),
    **{
        f"gibbs, controlled phase {t:.3f}": lambda t=t: (
            gibbs_subspace(),
            controlled_phase_unitary(t),
        )
        for t in (0.0, 0.7, math.pi / 2, 2.0)
    },
    "swap representation of the transpose": _swap_pair,
}


@pytest.mark.parametrize("pair", list(ORACLE_PAIRS))
def test_derived_coordinates_match_the_pinv_route(pair):
    v, u = ORACLE_PAIRS[pair]()
    phi = derive_map(v, u)
    expected = _pinv_coordinates(phi, v, u)
    assert np.linalg.norm(phi.coord_matrix - expected) <= 1e-14 * max(1.0, np.linalg.norm(expected))
    assert phi.domain.dim + kernel_of_partial_trace(v).dim == v.dim
    assert 0 < phi.domain.dim < v.dim


def test_derived_domain_of_rounding_noise_is_the_zero_subspace():
    """The SWAP kernel's bath traces are rounding noise without being exactly
    zero; its derived domain is empty, as for an exactly traceless kernel."""
    kernel = consistent_kernel(UnitaryFamily((swap_unitary(2),)), SpaceLayout((2, 2)))
    reduced = [partial_trace(b, keep=0).hs_norm() for b in kernel.basis]
    assert 0 < max(reduced) <= 1e-15
    phi = derive_map(kernel, swap_unitary(2))
    assert phi.domain.dim == 0
    assert phi.coord_matrix.shape == (4, 0)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_apply_identity_map(rng):
    phi = identity_map(2)
    rho = random_density(2, rng)
    assert (phi.apply(rho) - rho).hs_norm() <= 1e-12


def test_apply_full_dephasing_kills_x():
    phi = controlled_phase_map(math.pi / 2)
    out = phi.apply(PAULI_X)
    assert out.hs_norm() <= 1e-12


def test_apply_repolarizer_fixed_point():
    phi = repolarizer(0.1)
    mixed = identity(2) / 2
    assert (phi.apply(mixed) - mixed).hs_norm() <= 1e-12


def test_apply_outside_domain_errors():
    phi = controlled_phase_map(0.3)  # domain span{1, X, Z}
    with pytest.raises(MapDomainError):
        phi.apply(PAULI_Y)


@pytest.mark.parametrize("d", [2, 3])
def test_map_results_do_not_depend_on_the_producers_memory_order(rng, d):
    """BLAS rounds differently by memory order; a map stores one order, so the
    same values give the same bits however the producer laid them out."""
    domain = full_operator_space(d)
    values = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    c = SubsystemMap(domain, np.ascontiguousarray(values))
    f = SubsystemMap(domain, np.asfortranarray(values))
    rho = random_density(d, rng)
    assert np.array_equal(c.apply(rho).entries, f.apply(rho).entries)
    assert np.array_equal(c.linear_operator(), f.linear_operator())
    scan_c, scan_f = positivity_scan(c, 64, 1), positivity_scan(f, 64, 1)
    assert (scan_c.violation_found, scan_c.min_eigenvalue, scan_c.n_tested) == (
        scan_f.violation_found,
        scan_f.min_eigenvalue,
        scan_f.n_tested,
    )
    assert scan_c.violation_found  # a random map is not positive
    assert np.array_equal(scan_c.counterexample.entries, scan_f.counterexample.entries)


def test_every_stored_matrix_is_column_major_and_read_only():
    from beyondcp import OperatorSubspace

    values = np.arange(16.0).reshape(4, 4) + 1j
    for order in ("C", "F"):
        m = np.array(values, order=order)
        stored = [
            operator(m, (2, 2)).entries,
            OperatorSubspace(SpaceLayout((2,)), np.eye(4, order=order)).basis_matrix(),
            SubsystemMap(full_operator_space(2), m).coord_matrix,
        ]
        for a in stored:
            assert a.flags.f_contiguous and not a.flags.writeable


# ---------------------------------------------------------------------------
# Choi matrix and complete positivity
# ---------------------------------------------------------------------------


def test_choi_identity_map():
    c = choi_matrix(identity_map(2))
    eigs = np.linalg.eigvalsh(c.entries)
    assert np.allclose(sorted(eigs), [0, 0, 0, 2], atol=1e-12)


def test_choi_transpose_is_swap():
    c = choi_matrix(transpose_map())
    # direct construction oracle: sum_ij |i><j| (x) |j><i| is the SWAP matrix
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            block = np.zeros((2, 2), dtype=complex)
            block[j, i] = 1.0
            expected[i * 2 : (i + 1) * 2, j * 2 : (j + 1) * 2] = block
    assert np.allclose(expected, swap_unitary(2).entries)
    assert np.allclose(c.entries, expected, atol=1e-12)
    assert np.allclose(sorted(np.linalg.eigvalsh(c.entries)), [-1, 1, 1, 1], atol=1e-12)


def test_choi_depolarizer_is_psd():
    c = choi_matrix(depolarizer(0.3))
    assert np.linalg.eigvalsh(c.entries)[0] >= -1e-12


def test_choi_refuses_proper_domain():
    with pytest.raises(MapDomainError):
        choi_matrix(controlled_phase_map(0.5))


def test_choi_linearity(rng):
    phi1 = map_from_kraus([m for m in depolarizer_kraus(0.4)])
    phi2 = transpose_map()
    alpha = 0.7 - 0.2j
    combined = choi_matrix(alpha * phi1 + phi2)
    split = alpha * choi_matrix(phi1) + choi_matrix(phi2)
    assert (combined - split).hs_norm() <= 1e-12


def test_maps_combine_only_on_the_identical_stored_basis():
    from beyondcp import OperatorSubspace

    phi = repolarizer(0.01)
    c, s = math.cos(9e-9), math.sin(9e-9)
    rotation = np.eye(4, dtype=complex)
    rotation[:2, :2] = [[c, -s], [s, c]]
    rotated = OperatorSubspace(phi.domain.layout, phi.domain.basis_matrix() @ rotation)
    psi = SubsystemMap(rotated, phi.linear_operator() @ rotated.basis_matrix())
    assert map_residual(phi, psi) <= 1e-9  # the same map, stored on another basis
    with pytest.raises(ValueError, match="same stored domain basis"):
        (phi + psi) * 0.5
    with pytest.raises(ValueError, match="same stored domain basis"):
        phi - psi
    assert map_residual((phi + phi) * 0.5, phi) == 0.0


def test_is_cp_verdicts():
    for t in (0.0, 0.4, math.pi / 3):
        from beyondcp.catalog import controlled_phase_kraus

        e1, e2 = controlled_phase_kraus(t)
        assert is_cp(map_from_kraus([e1, e2])).cp
    transpose_verdict = is_cp(transpose_map())
    assert not transpose_verdict.cp
    assert np.isclose(transpose_verdict.min_choi_eigenvalue, -1.0, atol=1e-12)
    repo_verdict = is_cp(repolarizer(0.1))
    assert not repo_verdict.cp


# ---------------------------------------------------------------------------
# positivity scan
# ---------------------------------------------------------------------------


def test_positivity_scan_identity_finds_nothing():
    result = positivity_scan(identity_map(2), 50, seed=1)
    assert not result.violation_found
    assert result.n_tested >= 50
    assert "not a positivity certificate" in result.summary()


def test_positivity_scan_repolarizer_counterexample():
    eps = 0.1
    result = positivity_scan(repolarizer(eps), 50, seed=1)
    assert result.violation_found
    # closed-form eigenvalue oracle: a pure state maps to spectrum
    # {(1 + 1/eps)/2, (1 - 1/eps)/2}, so the violation is -(1-eps)/(2 eps)
    assert np.isclose(result.min_eigenvalue, -(1 - eps) / (2 * eps), atol=1e-12)
    assert np.isclose(result.min_eigenvalue, -4.5, atol=1e-12)


def test_positivity_scan_transpose_finds_nothing():
    result = positivity_scan(transpose_map(), 100, seed=3)
    assert not result.violation_found


def test_positivity_scan_rejects_bad_count():
    with pytest.raises(ValueError):
        positivity_scan(identity_map(2), 0, seed=1)


# ---------------------------------------------------------------------------
# positive domain
# ---------------------------------------------------------------------------


def test_positive_domain_membership_repolarizer_boundary():
    eps = 0.25
    phi = repolarizer(eps)
    boundary = (PAULI_I + eps * PAULI_Z) * 0.5
    outside = (PAULI_I + 2 * eps * PAULI_Z) * 0.5
    assert positive_domain_membership(phi, boundary)
    assert not positive_domain_membership(phi, outside)


def test_positive_domain_membership_cp_maps_accept_all_states(rng):
    phi = map_from_kraus(depolarizer_kraus(0.2))
    for _ in range(20):
        assert positive_domain_membership(phi, random_density(2, rng))


def test_sample_positive_domain_repolarizer_spans_everything():
    sample = sample_positive_domain(repolarizer(0.1), 24, seed=5)
    assert len(sample.members) == 24
    assert sample.span_dim == 4
    phi = repolarizer(0.1)
    for member in sample.members:
        assert positive_domain_membership(phi, member)


def test_sample_positive_domain_identity():
    sample = sample_positive_domain(identity_map(2), 16, seed=5)
    assert sample.span_dim == 4


def test_sample_positive_domain_proper_slice():
    # map defined only on the diagonal slice span{1, Z}: its positive domain
    # is the classical bit simplex, spanning 2 of the 4 operator dimensions
    domain = span_from_generators([PAULI_I, PAULI_Z])
    phi = map_from_action(lambda a: a.copy(), domain, provenance="diagonal identity")
    sample = sample_positive_domain(phi, 12, seed=2)
    assert sample.members
    assert sample.span_dim == 2


def test_sample_positive_domain_empty_verdict():
    # shift every output far from positivity: nothing is accepted
    domain = full_operator_space(2)
    phi = map_from_action(
        lambda a: a + 10 * np.trace(a) * np.diag([1.0, -1.0]), domain, "hopeless"
    )
    sample = sample_positive_domain(phi, 8, seed=2)
    assert sample.members == ()
    assert sample.span_dim == 0


# ---------------------------------------------------------------------------
# Bloch form
# ---------------------------------------------------------------------------


def _bloch_image(m, b, r):
    """(1 + (M r + b).sigma) / 2 as a matrix."""
    x, y, z = m @ r + b
    return (PAULI_I.entries + x * PAULI_X.entries + y * PAULI_Y.entries + z * PAULI_Z.entries) / 2


@pytest.mark.parametrize(
    "phi,m,b",
    [
        (identity_map((2,)), np.eye(3), np.zeros(3)),
        (transpose_map(), np.diag([1.0, -1.0, 1.0]), np.zeros(3)),
        (repolarizer(0.2), np.eye(3) / 0.2, np.zeros(3)),
        (repolarizer(9.5e-4), np.eye(3) / 9.5e-4, np.zeros(3)),
    ],
    ids=["identity", "transpose", "repolarizer-0.2", "repolarizer-9.5e-4"],
)
def test_bloch_form_of_the_catalog_maps(phi, m, b):
    got_m, got_b = maps._bloch_form(phi)
    assert got_m.dtype == got_b.dtype == np.float64
    assert got_m.shape == (3, 3) and got_b.shape == (3,)
    np.testing.assert_allclose(got_m, m, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(got_b, b, atol=1e-14)


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_bloch_form_of_amplitude_damping(gamma, rng):
    k0 = operator([[1, 0], [0, math.sqrt(1 - gamma)]], 2)
    k1 = operator([[0, math.sqrt(gamma)], [0, 0]], 2)
    phi = map_from_kraus([k0, k1])
    m, b = maps._bloch_form(phi)
    s = math.sqrt(1 - gamma)
    np.testing.assert_allclose(m, np.diag([s, s, 1 - gamma]), atol=1e-15)
    np.testing.assert_allclose(b, [0.0, 0.0, gamma], atol=1e-15)
    for r in rng.normal(size=(5, 3)):  # the form reproduces the map on states
        r = r / np.linalg.norm(r) * rng.uniform()
        rho = operator(_bloch_image(np.eye(3), np.zeros(3), r), 2)  # (1 + r.sigma) / 2
        np.testing.assert_allclose(phi.apply(rho).entries, _bloch_image(m, b, r), atol=1e-15)


@pytest.mark.parametrize(
    "phi",
    [
        identity_map((2, 2)),
        identity_map((3,)),
        controlled_phase_map(0.7),  # Example 1: domain span{1, X, Z}
        identity_map((2,)) * 2,  # doubles the trace
        map_from_action(lambda a: a + 1j * np.trace(a) * PAULI_Z.entries, full_operator_space(2)),
    ],
    ids=["2x2", "3", "example1", "not-trace-preserving", "not-hermiticity-preserving"],
)
def test_bloch_form_refuses_other_maps(phi):
    message = "^not a trace- and Hermiticity-preserving qubit map on the full domain$"
    with pytest.raises(ValueError, match=message):
        maps._bloch_form(phi)


# ---------------------------------------------------------------------------
# composition and residuals
# ---------------------------------------------------------------------------


def test_compose_depolarizer_repolarizer_is_identity():
    eps = 0.2
    assert map_residual(compose(depolarizer(eps), repolarizer(eps)), identity_map(2)) <= 1e-12


def test_compose_requires_full_domain():
    with pytest.raises(ValueError):
        compose(controlled_phase_map(0.2), identity_map(2))


@pytest.mark.parametrize("combine", [compose, SubsystemMap.__add__, SubsystemMap.__sub__])
def test_maps_on_different_layouts_neither_compose_nor_combine(combine):
    # both are the identity on a 4-dimensional space, with the same stored basis
    with pytest.raises(ValueError, match=r"layout mismatch: \(4,\) vs \(2, 2\)"):
        combine(identity_map((4,)), identity_map((2, 2)))


def test_map_residual_requires_equal_domains():
    with pytest.raises(ValueError):
        map_residual(controlled_phase_map(0.2), identity_map(2))


# ---------------------------------------------------------------------------
# Hermiticity preservation and non-finite maps
# ---------------------------------------------------------------------------


def _hermiticity_preserving_loop(phi, tol):
    """Reference: the per-basis-element check, one operator at a time."""
    for b in phi.domain.basis:
        dag = b.dagger()
        if not phi.domain.contains(dag):
            return False
        if not ((phi.apply(dag) - phi.apply(b).dagger()).hs_norm() <= tol):
            return False
    return True


def test_hermiticity_preserving_matches_per_basis_loop(rng):
    raising = span_from_generators([operator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))])
    maps = [
        identity_map((2,)),
        transpose_map(),
        repolarizer(0.1),
        controlled_phase_map(0.4),
        1j * identity_map((2,)),
        transpose_map() + 1e-3j * identity_map((2,)),
        SubsystemMap(raising, rng.standard_normal((4, 1))),
    ]
    for phi in maps:
        for tol in (1e-9, 1e-2):
            assert phi.is_hermiticity_preserving(tol) == _hermiticity_preserving_loop(phi, tol)
    assert [phi.is_hermiticity_preserving() for phi in maps] == [
        True, True, True, True, False, False, False
    ]


def _identity_map_with_nan():
    phi = identity_map((2,))
    coords = np.array(phi.coord_matrix)
    coords[0, 0] = np.nan
    return SubsystemMap(phi.domain, coords)


def test_non_finite_map_is_not_hermiticity_preserving():
    assert not _identity_map_with_nan().is_hermiticity_preserving()


def test_is_cp_rejects_non_finite_map():
    with pytest.raises(ValueError, match="finite"):
        is_cp(_identity_map_with_nan())


# eigvalsh returns finite numbers for a NaN matrix, so without the refusal these
# scans report a counterexample or accept |0><0|.
def test_positivity_scan_rejects_non_finite_map():
    with pytest.raises(ValueError, match="positivity_scan: .* finite"):
        positivity_scan(_identity_map_with_nan(), 16, seed=0)


def test_sample_positive_domain_rejects_non_finite_map():
    with pytest.raises(ValueError, match="sample_positive_domain: .* finite"):
        sample_positive_domain(_identity_map_with_nan(), 4, seed=0)


def test_positive_domain_membership_rejects_non_finite_map():
    with pytest.raises(ValueError, match="positive_domain_membership: .* finite"):
        positive_domain_membership(_identity_map_with_nan(), operator([[1, 0], [0, 0]], 2))


# Finite coordinates of 1e308: the Hermitian part (A + A^dag) / 2 of an image
# overflowed to inf, after which the scans gave verdicts.
@pytest.mark.parametrize(
    "check",
    [
        is_cp,
        lambda phi: positivity_scan(phi, 8, seed=0),
        lambda phi: sample_positive_domain(phi, 3, seed=0),
        lambda phi: positive_domain_membership(phi, operator([[1, 0], [0, 0]], 2)),
    ],
    ids=["is_cp", "positivity_scan", "sample_positive_domain", "positive_domain_membership"],
)
def test_positivity_verdicts_refuse_coordinates_whose_norm_overflows(check):
    phi = identity_map((2,))
    huge = SubsystemMap(phi.domain, 1e308 * np.array(phi.coord_matrix))
    with pytest.raises(ValueError, match="their norm must not overflow"):
        check(huge)


def test_map_from_kraus_refuses_an_empty_list():
    with pytest.raises(ValueError, match="^at least one Kraus operator is required$"):
        map_from_kraus([])


def test_sample_positive_domain_refuses_an_empty_sample():
    with pytest.raises(ValueError, match="^sample size must be >= 1, got 0$"):
        sample_positive_domain(repolarizer(0.1), 0, 1)


def test_subsystem_map_refuses_coordinates_of_the_wrong_shape():
    message = r"^coord_matrix shape \(4, 3\) does not match domain \(expected \(4, 4\)\)$"
    with pytest.raises(ValueError, match=message):
        SubsystemMap(full_operator_space(2), np.zeros((4, 3)))


def test_map_from_kraus_rejects_non_finite_operator():
    m = np.eye(2)
    m[0, 1] = np.nan
    with pytest.raises(ValueError, match="trace preserving"):
        map_from_kraus([operator(m, 2)])


# ---------------------------------------------------------------------------
# one rank cut per derivation: the domain takes the kernel's
# ---------------------------------------------------------------------------


def _near_cut_subspace(delta):
    """span{1/4, 1/4 + delta Z (x) X} at (2,2): span{1, Z (x) X} in exact arithmetic, whose
    second direction sits near the rank cut of the bath traces for delta of a few 1e-9."""
    layout = SpaceLayout((2, 2))
    quarter = np.eye(4) / 4
    z_x = np.kron(PAULI_Z.entries, PAULI_X.entries)
    return span_from_generators([operator(quarter, layout), operator(quarter + delta * z_x, layout)])


@pytest.mark.parametrize("delta", [2e-9, 1e-9, 5e-10])
def test_derived_domain_and_kernel_obey_rank_nullity_near_the_cut(delta):
    v = _near_cut_subspace(delta)
    u = haar_unitary((2, 2), np.random.default_rng(3))
    try:
        phi = derive_map(v, u)
    except RuntimeError as error:  # the defining-relation self-check refuses
        assert "defining relation" in str(error)
        return
    assert phi.domain.dim + kernel_of_partial_trace(v).dim == v.dim


@pytest.mark.parametrize("delta", [2e-9, 1e-9])
def test_a_failed_defining_relation_is_a_self_check_error(delta):
    u = haar_unitary((2, 2), np.random.default_rng(3))
    with pytest.raises(SelfCheckError, match="^derived map fails its defining relation"):
        derive_map(_near_cut_subspace(delta), u)


def test_derived_domain_and_kernel_obey_rank_nullity_on_the_qr_route():
    """181 columns: the kernel's null space is taken by QR, and the domain rests on that cut."""
    rng = np.random.default_rng(1)
    layout = SpaceLayout((4, 4))
    family = UnitaryFamily(tuple(haar_unitary((4, 4), rng) for _ in range(4)))
    kernel = consistent_kernel(family, layout)
    v = subspace_sum(kernel, span_from_generators([identity(layout) / 16]))
    assert v.dim == 181 >= subspaces._QR_NULL_SPACE_COLUMNS
    phi = derive_map(v, family.members[0])
    assert (phi.domain.dim, kernel_of_partial_trace(v).dim) == (1, 180)


def test_a_derivation_takes_no_rank_cut_of_its_own(monkeypatch):
    rep = swap_representation(transpose_map(), axis_states())
    family = controlled_phase_family(4)
    pair = _consistent_pair(3, 13)
    calls = []
    numerical_rank = maps._numerical_rank

    def counting(*args, **kwargs):
        calls.append(args)
        return numerical_rank(*args, **kwargs)

    monkeypatch.setattr(maps, "_numerical_rank", counting)
    derive_map(gibbs_subspace(), controlled_phase_unitary(0.7))
    derive_map(*pair)
    fresh = Representation(rep.bath_dim, rep.unitary, rep.subspace, rep.target_domain)
    assert fresh.derived_map().domain.dim == 4
    assert transformation_space(gibbs_subspace(), family).dim == 13
    assert calls == []


def _self_check_columns(monkeypatch, v, u):
    """How many columns derive_map's defining-relation self-check reduces."""
    widths = []
    reduce = maps._reduced_evolution  # the consistency decision's reduction is not this name

    def counting(cols, *args, **kwargs):
        widths.append(cols.shape[1])
        return reduce(cols, *args, **kwargs)

    monkeypatch.setattr(maps, "_reduced_evolution", counting)
    derive_map(v, u)
    monkeypatch.undo()
    return widths


def test_the_self_check_takes_each_basis_column_once(monkeypatch):
    w = haar_unitary(2, np.random.default_rng(4))
    full = full_operator_space((2, 2))
    assert _self_check_columns(monkeypatch, full, tensor(identity(2), w)) == [full.dim]
    gibbs = gibbs_subspace()  # a span: its generators are checked as well as its basis
    widths = _self_check_columns(monkeypatch, gibbs, controlled_phase_unitary(0.7))
    assert widths == [len(gibbs.generators) + gibbs.dim]


def _kraus_superoperator_loop(kraus):
    """sum_i conj(M_i) (x) M_i as one np.kron per operator: map_from_kraus's former body."""
    return sum(np.kron(m.entries.conj(), m.entries) for m in kraus)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_map_from_kraus_is_bit_equal_to_the_kron_loop(d):
    for k in (1, 2, 3, 9, 16, 32):
        kraus = random_kraus_channel(d, k, np.random.default_rng([d, k]))
        phi = map_from_kraus(kraus)
        expected = _kraus_superoperator_loop(kraus) @ phi.domain.basis_matrix()
        assert phi.coord_matrix.tobytes() == expected.tobytes(), (d, k)
