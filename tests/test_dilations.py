import math

import numpy as np
import pytest

from beyondcp import (
    Operator,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    Representation,
    derive_map,
    full_operator_space,
    identity,
    identity_map,
    inverse_representation,
    is_unitary_consistent,
    kraus_dilation,
    map_from_action,
    map_from_kraus,
    map_residual,
    matrix_unit,
    operator,
    partial_trace,
    positive_domain_membership,
    restrict_to_physical,
    span_from_generators,
    subspaces_equal,
    swap_representation,
    swap_unitary,
    symmetric_sector,
    tensor,
    verify_representation,
)
from beyondcp import consistency, dilations, maps, subspaces
from beyondcp.config import SelfCheckError
from beyondcp.catalog import (
    axis_states,
    controlled_phase_kraus,
    controlled_phase_unitary,
    depolarizer,
    depolarizer_kraus,
    gibbs_subspace,
    repolarizer,
    repolarizer_subspace,
    transpose_map,
    transpose_subspace,
)
from beyondcp.operators import _reduced_evolution, adjoint_action
from beyondcp.sampling import random_density, random_kraus_channel


def id_tensor_apply(phi, w: Operator) -> Operator:
    """(id (x) phi)(W) computed block by block; independent of the library route."""
    d = phi.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for s in range(d):
        for sp in range(d):
            block = w.entries[s * d : (s + 1) * d, sp * d : (sp + 1) * d]
            out[s * d : (s + 1) * d, sp * d : (sp + 1) * d] = phi.apply(
                operator(block, d)
            ).entries
    return operator(out, (d, d))


# ---------------------------------------------------------------------------
# swap representation
# ---------------------------------------------------------------------------


def test_swap_representation_transpose_matches_printed_basis(rng):
    phi = transpose_map()
    rep = swap_representation(phi, axis_states())
    assert rep.bath_dim == 2
    assert rep.subspace.dim == 10
    assert subspaces_equal(rep.subspace, transpose_subspace())
    derived = rep.derived_map()
    for _ in range(100):
        rho = random_density(2, rng)
        assert (derived.apply(rho) - operator(rho.entries.T, 2)).hs_norm() <= 1e-10


def test_swap_representation_repolarizer_matches_printed_basis():
    eps = 0.1
    rep = swap_representation(repolarizer(eps), axis_states(radius=eps))
    assert subspaces_equal(rep.subspace, repolarizer_subspace(eps))


def test_swap_representation_identity_gives_symmetric_sector(rng):
    rep = swap_representation(identity_map(2), axis_states())
    sector = symmetric_sector(full_operator_space(2))
    assert subspaces_equal(rep.subspace, sector)
    assert map_residual(rep.derived_map(), identity_map(2)) <= 1e-10


def test_swap_subspace_equals_symmetric_sector_image():
    # the joint subspace is the image of the symmetric sector under id (x) phi
    phi = repolarizer(0.2)
    rep = swap_representation(phi, axis_states(radius=0.2))
    sector = symmetric_sector(phi.domain)
    image = span_from_generators([id_tensor_apply(phi, w) for w in sector.basis])
    assert subspaces_equal(rep.subspace, image)


def test_swap_physical_domain_matches_positive_domain(rng):
    eps = 0.3
    phi = repolarizer(eps)
    rep = swap_representation(phi, axis_states(radius=eps))
    state_gens = [g for g in rep.subspace.generators if g.is_density(1e-9)]
    assert state_gens
    for _ in range(20):
        weights = rng.dirichlet(np.ones(len(state_gens)))
        joint = state_gens[0] * weights[0]
        for w, g in zip(weights[1:], state_gens[1:]):
            joint = joint + w * g
        reduced = partial_trace(joint, keep=0)
        assert positive_domain_membership(phi, reduced)


def test_swap_representation_requires_spanning_generators():
    phi = repolarizer(0.1)
    with pytest.raises(ValueError, match="span"):
        swap_representation(phi, [identity(2) / 2])


def test_swap_representation_rejects_states_outside_positive_domain():
    phi = repolarizer(0.1)
    with pytest.raises(ValueError, match="positive-domain"):
        swap_representation(phi, axis_states(radius=0.5))


def test_swap_representation_refuses_maps_it_cannot_represent():
    doubled = 2.0 * identity_map(2)  # not trace preserving
    phased = map_from_action(  # trace preserving, not Hermiticity preserving
        lambda a: np.array([[a[0, 0], 1j * a[0, 1]], [1j * a[1, 0], a[1, 1]]]),
        full_operator_space(2),
    )
    states = axis_states(radius=0.1)
    with pytest.raises(ValueError, match="^swap representation requires a trace-preserving map$"):
        swap_representation(doubled, states)
    with pytest.raises(
        ValueError, match="^swap representation requires a Hermiticity-preserving map$"
    ):
        swap_representation(phased, states)
    with pytest.raises(ValueError, match="^at least one positive-domain generator is required$"):
        swap_representation(repolarizer(0.1), [])


# ---------------------------------------------------------------------------
# restriction to the physical part
# ---------------------------------------------------------------------------


def test_restrict_to_physical_repolarizer_keeps_full_domain():
    restricted = restrict_to_physical(repolarizer(0.1), 24, seed=9)
    assert restricted.domain.dim == 4
    assert map_residual_on_common_domain(restricted, repolarizer(0.1)) <= 1e-10


def map_residual_on_common_domain(phi_small, phi_big):
    worst = 0.0
    for b in phi_small.domain.basis:
        worst = max(worst, (phi_small.apply(b) - phi_big.apply(b)).hs_norm())
    return worst


def test_restrict_to_physical_identity_unchanged():
    restricted = restrict_to_physical(identity_map(2), 16, seed=4)
    assert subspaces_equal(restricted.domain, identity_map(2).domain)
    assert map_residual(restricted, identity_map(2)) <= 1e-10


def test_restrict_to_physical_two_dimensional_slice():
    domain = span_from_generators([PAULI_I, PAULI_Z])
    phi = map_from_action(lambda a: a.copy(), domain, "diagonal identity")
    restricted = restrict_to_physical(phi, 12, seed=6)
    assert restricted.domain.dim == 2


def test_restrict_to_physical_empty_sample_refuses():
    phi = map_from_action(
        lambda a: a + 10 * np.trace(a) * np.diag([1.0, -1.0]),
        full_operator_space(2),
        "hopeless",
    )
    with pytest.raises(ValueError, match="positive domain"):
        restrict_to_physical(phi, 8, seed=6)


# ---------------------------------------------------------------------------
# inverse representation
# ---------------------------------------------------------------------------


def test_inverse_of_repolarizer_is_depolarizer():
    eps = 0.1
    phi = repolarizer(eps)
    rep = swap_representation(phi, axis_states(radius=eps))
    inv = inverse_representation(rep, phi)
    assert map_residual(inv.derived_map(), depolarizer(eps)) <= 1e-9
    assert np.allclose(inv.unitary.entries, swap_unitary(2).entries)


def test_inverse_of_identity_is_identity():
    rep = swap_representation(identity_map(2), axis_states())
    inv = inverse_representation(rep, identity_map(2))
    assert map_residual(inv.derived_map(), identity_map(2)) <= 1e-10


def test_inverse_of_transpose_is_transpose():
    phi = transpose_map()
    rep = swap_representation(phi, axis_states())
    inv = inverse_representation(rep, phi)
    assert map_residual(inv.derived_map(), phi) <= 1e-10


def test_inverse_representation_refuses_a_triple_of_another_map():
    rep = swap_representation(repolarizer(0.1), axis_states(radius=0.1))
    with pytest.raises(ValueError, match=r"^the given triple does not represent the map \(max"):
        inverse_representation(rep, depolarizer(0.3))


def test_inverse_representation_refuses_a_map_on_a_proper_domain():
    diagonal = [operator(np.diag([1, 0]), 2), operator(np.diag([0, 1]), 2)]
    phi = map_from_action(lambda a: a, span_from_generators(diagonal))
    rep = swap_representation(phi, diagonal)
    with pytest.raises(ValueError, match="^inverse representations require a full-domain map$"):
        inverse_representation(rep, phi)


def test_inverse_requires_invertible_map():
    # full dephasing is singular on the X, Y directions
    phi = map_from_action(
        lambda a: np.diag(np.diag(a)).astype(complex), full_operator_space(2), "dephase"
    )
    rep = swap_representation(phi, axis_states())
    with pytest.raises(ValueError, match="singular"):
        inverse_representation(rep, phi)


# ---------------------------------------------------------------------------
# Kraus dilation
# ---------------------------------------------------------------------------


def test_kraus_dilation_depolarizer():
    eps = 0.1
    rep = kraus_dilation(depolarizer_kraus(eps))
    assert rep.bath_dim == 4
    assert rep.unitary.unitarity_residual() <= 1e-10
    assert map_residual(rep.derived_map(), depolarizer(eps)) <= 1e-10


def test_kraus_dilation_single_unitary(rng):
    from beyondcp.sampling import haar_unitary

    v = haar_unitary(2, rng)
    rep = kraus_dilation([v])
    assert rep.bath_dim == 1
    derived = rep.derived_map()
    for _ in range(10):
        rho = random_density(2, rng)
        expected = operator(v.entries @ rho.entries @ v.entries.conj().T, 2)
        assert (derived.apply(rho) - expected).hs_norm() <= 1e-10


def test_kraus_dilation_amplitude_damping(rng):
    gamma = 0.3
    m0 = operator([[1, 0], [0, math.sqrt(1 - gamma)]], 2)
    m1 = operator([[0, math.sqrt(gamma)], [0, 0]], 2)
    rep = kraus_dilation([m0, m1])
    derived = rep.derived_map()
    for _ in range(20):
        rho = random_density(2, rng)
        # direct evaluation oracle
        expected = (
            m0.entries @ rho.entries @ m0.entries.conj().T
            + m1.entries @ rho.entries @ m1.entries.conj().T
        )
        assert np.linalg.norm(derived.apply(rho).entries - expected) <= 1e-10


def test_kraus_dilation_first_block_column_reproduces_kraus():
    kraus = depolarizer_kraus(0.25)
    rep = kraus_dilation(kraus)
    k = rep.bath_dim
    u = rep.unitary.entries
    for i, m in enumerate(kraus):
        block = np.array(
            [[u[s * k + i, sp * k + 0] for sp in range(2)] for s in range(2)]
        )
        assert np.allclose(block, m.entries, atol=1e-12)


def test_kraus_dilation_completes_the_isometry_as_the_full_svd_tail(rng):
    lists = [random_kraus_channel(d, k, rng) for d in (2, 3, 4) for k in (1, 2, 3, 6)]
    lists += [depolarizer_kraus(0.1), list(controlled_phase_kraus(0.7))]
    for kraus in lists:
        d, k = kraus[0].dim, len(kraus)
        w = np.stack([m.entries for m in kraus], axis=1).reshape(d * k, d)
        tail = np.linalg.svd(w.conj().T)[2][d:].conj().T  # the completion before _null_space
        u = kraus_dilation(kraus).unitary.entries
        assert np.array_equal(u[:, np.arange(d * k) % k != 0], tail), (d, k)


def test_kraus_dilation_refuses_a_two_factor_operator():
    with pytest.raises(ValueError, match="^Kraus operators must act on a single system factor$"):
        kraus_dilation([identity((2, 2))])


def test_kraus_dilation_rejects_non_finite_operator():
    m = np.eye(2)
    m[0, 1] = np.nan
    with pytest.raises(ValueError, match="trace preserving"):
        kraus_dilation([operator(m, 2)])


def test_kraus_dilation_conjugated_subspace_matches_transformed_form():
    """Conjugating the dilation subspace gives span{sum_ij M_i A M_j^dag (x) |i><j|}."""
    kraus = depolarizer_kraus(0.1)
    rep = kraus_dilation(kraus)
    conjugated = span_from_generators(
        [adjoint_action(rep.unitary, b) for b in rep.subspace.basis]
    )
    k = len(kraus)
    transformed_gens = []
    for unit in full_operator_space(2).basis:
        acc = np.zeros((2 * k, 2 * k), dtype=complex)
        for i, mi in enumerate(kraus):
            for j, mj in enumerate(kraus):
                block = mi.entries @ unit.entries @ mj.entries.conj().T
                acc += np.kron(block, matrix_unit(i, j, (k,)).entries)
        transformed_gens.append(operator(acc, (2, k)))
    transformed = span_from_generators(transformed_gens)
    assert conjugated.dim == 4
    assert subspaces_equal(conjugated, transformed)
    # pairing that subspace with the adjoint unitary recovers the inverse map
    inv = inverse_representation(rep, map_from_kraus(kraus))
    assert subspaces_equal(inv.subspace, transformed)
    assert map_residual(inv.derived_map(), repolarizer(0.1)) <= 1e-9


def test_kraus_dilation_of_dephasing_pair_represents_its_map():
    e1, e2 = controlled_phase_kraus(0.9)
    rep = kraus_dilation([e1, e2])
    completeness = (e1.dagger() @ e1 + e2.dagger() @ e2 - identity(2)).hs_norm()
    assert completeness <= 1e-12
    verdict = verify_representation(rep, map_from_kraus([e1, e2]))
    assert verdict.passed


def test_kraus_dilation_rejects_incomplete_list():
    with pytest.raises(ValueError, match="trace preserving"):
        kraus_dilation([0.5 * PAULI_I])


# ---------------------------------------------------------------------------
# representation verification
# ---------------------------------------------------------------------------


def test_verify_representation_passes_for_construction():
    eps = 0.1
    phi = repolarizer(eps)
    rep = swap_representation(phi, axis_states(radius=eps))
    verdict = verify_representation(rep, phi)
    assert verdict.passed
    assert verdict.max_residual <= 1e-9


def test_verify_representation_detects_perturbed_unitary():
    eps = 0.1
    phi = repolarizer(eps)
    rep = swap_representation(phi, axis_states(radius=eps))
    delta = 1e-2
    h = np.kron(PAULI_Z.entries, PAULI_X.entries)
    w, vecs = np.linalg.eigh(h)
    perturbation = (vecs * np.exp(1j * delta * w)) @ vecs.conj().T
    bad_u = Operator(rep.unitary.layout, rep.unitary.entries @ perturbation)
    bad = Representation(rep.bath_dim, bad_u, rep.subspace, rep.target_domain)
    verdict = verify_representation(bad, phi)
    assert not verdict.passed
    assert 1e-4 < verdict.max_residual < 1.0  # residual of order delta


def test_verify_representation_detects_wrong_target():
    phi = transpose_map()
    rep = swap_representation(phi, axis_states())
    verdict = verify_representation(rep, identity_map(2))
    assert not verdict.passed


def test_representation_validate_rejects_inconsistent_claim():
    from beyondcp.catalog import gibbs_subspace

    claim = Representation(2, swap_unitary(2), gibbs_subspace(), full_operator_space(2))
    with pytest.raises(ValueError, match="consistent"):
        claim.validate()


def test_representation_refuses_layouts_other_than_system_bath():
    # SWAP (x) 1_W on (system, bath, witness) with a full qubit target:
    # derive_map traces out the bath factor only, while the domain checks trace
    # out every factor but the system, so the two would grade different maps.
    u = tensor(swap_unitary(2), identity(2))
    v = span_from_generators([tensor(rho, identity((2, 2)) / 4) for rho in axis_states()])
    with pytest.raises(ValueError, match=r"\(system, bath\) layout"):
        Representation(2, u, v, full_operator_space(2))


def test_swap_verify_and_derived_map_compute_each_check_once(count_calls):
    counts = count_calls(
        (consistency, "_kernel_residuals"),
        (maps, "_derive"),
        (subspaces, "check_state_spanned"),
    )
    phi = repolarizer(0.1)
    rep = swap_representation(phi, axis_states(radius=0.1))
    assert verify_representation(rep, phi).passed
    assert map_residual(rep.derived_map(), phi) <= 1e-10
    assert counts == {"_kernel_residuals": 1, "_derive": 1, "check_state_spanned": 1}


def _unstacked_verify(rep, phi):
    """verify_representation with per-element coordinates and a fresh derive_map."""
    tol = phi.tol
    consistency = is_unitary_consistent(rep.subspace, rep.unitary).worst_residual
    reduced = span_from_generators(
        [partial_trace(b, keep=(0,)) for b in rep.subspace.basis], rep.subspace.tol
    )
    domain_residual = 0.0
    for b in reduced.basis:
        _, r = phi.domain.coordinates(b)
        domain_residual = max(domain_residual, r)
    for b in phi.domain.basis:
        _, r = reduced.coordinates(b)
        domain_residual = max(domain_residual, r)
    basis, dims = rep.subspace.basis_matrix(), rep.subspace.layout.dims
    evolved = _reduced_evolution(basis, dims, (0,), rep.unitary.entries)
    try:
        images = phi._apply_columns(_reduced_evolution(basis, dims, (0,)))
        residual_map = float(np.max(np.linalg.norm(images - evolved, axis=0), initial=0.0))
    except ValueError:
        residual_map = float("inf")
    if max(residual_map, domain_residual, consistency) <= tol.residual_tol:
        l1 = derive_map(rep.subspace, rep.unitary).linear_operator()
        l2 = phi.linear_operator()
        residual_map = max(
            residual_map, float(np.linalg.norm(l1 - l2) / max(1.0, np.linalg.norm(l2)))
        )
    passed = max(consistency, domain_residual, residual_map) <= tol.residual_tol
    return passed, consistency, domain_residual, residual_map


def _perturbed_repolarizer_triple():
    phi = repolarizer(0.1)
    rep = swap_representation(phi, axis_states(radius=0.1))
    h = np.kron(PAULI_Z.entries, PAULI_X.entries)
    w, vecs = np.linalg.eigh(h)
    perturbation = (vecs * np.exp(1e-2j * w)) @ vecs.conj().T
    bad_u = Operator(rep.unitary.layout, rep.unitary.entries @ perturbation)
    return Representation(rep.bath_dim, bad_u, rep.subspace, rep.target_domain), phi


REFERENCE_TRIPLES = {
    "swap_transpose": lambda: (
        swap_representation(transpose_map(), axis_states()),
        transpose_map(),
    ),
    "swap_repolarizer": lambda: (
        swap_representation(repolarizer(0.1), axis_states(radius=0.1)),
        repolarizer(0.1),
    ),
    "swap_identity": lambda: (swap_representation(identity_map(2), axis_states()), identity_map(2)),
    "kraus_dilation": lambda: (
        kraus_dilation(depolarizer_kraus(0.1)),
        map_from_kraus(depolarizer_kraus(0.1)),
    ),
    "perturbed_unitary": _perturbed_repolarizer_triple,
    "wrong_target": lambda: (swap_representation(transpose_map(), axis_states()), identity_map(2)),
    "inconsistent_claim": lambda: (
        Representation(2, swap_unitary(2), gibbs_subspace(), full_operator_space(2)),
        identity_map(2),
    ),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_TRIPLES))
def test_verify_representation_matches_unstacked_reference(name):
    rep, phi = REFERENCE_TRIPLES[name]()
    passed, *residuals = _unstacked_verify(rep, phi)
    verdict = verify_representation(rep, phi)
    assert verdict.passed == passed
    got = [verdict.consistency_residual, verdict.domain_residual, verdict.map_residual]
    for g, r in zip(got, residuals):
        assert g == r or abs(g - r) <= 1e-12


def test_verify_representation_grades_the_derived_map_only_after_the_three_checks(monkeypatch):
    good, phi = REFERENCE_TRIPLES["swap_transpose"]()
    bad, bad_phi = _perturbed_repolarizer_triple()
    graded = []

    def nan_residual(phi1, phi2):
        graded.append((phi1, phi2))
        return float("nan")

    monkeypatch.setattr(dilations, "map_residual", nan_residual)
    verdict = verify_representation(good, phi)
    assert len(graded) == 1
    assert verdict.passed and verdict.map_residual <= 1e-9  # max(residual, nan) keeps the residual
    assert not verify_representation(bad, bad_phi).passed
    assert len(graded) == 1  # a failed check leaves the derived map ungraded


def _gibbs_example_triple():
    """Example 1's map on the proper domain span{1, X, Z}, represented by its own triple."""
    u, v = controlled_phase_unitary(0.7), gibbs_subspace()
    phi = derive_map(v, u)
    return Representation(2, u, v, phi.domain), phi


@pytest.mark.parametrize(
    "make, products",
    [
        (REFERENCE_TRIPLES["swap_transpose"], 3),  # 5 when map_residual compared the domains again
        (REFERENCE_TRIPLES["kraus_dilation"], 3),
        (REFERENCE_TRIPLES["wrong_target"], 3),  # failed: the derived map is not graded
        (_gibbs_example_triple, 5),  # a proper domain: map_residual compares it again
    ],
)
def test_verify_representation_compares_a_full_domain_once(monkeypatch, make, products):
    rep, phi = make()
    rep._derivation  # derived before counting, as verify_representation finds it
    leq = subspaces.subspace_leq

    def product_leq(v, w):  # subspace_leq with no full-space shortcut
        return w._contains_columns(v.basis_matrix().T[:, :, None])

    monkeypatch.setattr(subspaces, "subspace_leq", product_leq)
    reference = verify_representation(rep, phi)
    monkeypatch.setattr(subspaces, "subspace_leq", leq)
    shapes, coordinates_of = [], subspaces.OperatorSubspace._coordinates_of

    def counting(self, cols):
        shapes.append(cols.shape)
        return coordinates_of(self, cols)

    monkeypatch.setattr(subspaces.OperatorSubspace, "_coordinates_of", counting)
    verdict = verify_representation(rep, phi)
    assert len(shapes) == products
    assert verdict == reference  # every field, bit for bit


# ---------------------------------------------------------------------------
# sampled physical-domain check of the inverse representation
# ---------------------------------------------------------------------------


def reference_physical_domain_check(rep, new_rep, phi, tol, n_samples=8):
    """The per-sample loop that the stacked check replaced; returns its residuals."""
    state_tol = max(tol.residual_tol, tol.psd_slack)
    state_gens = [g for g in rep.subspace.generators if g.is_density(state_tol)]
    escaped, drift = [], []
    if not state_gens:
        return escaped, drift
    rng = np.random.default_rng(20260811)
    for _ in range(n_samples):
        weights = rng.dirichlet(np.ones(len(state_gens)))
        joint = state_gens[0] * weights[0]
        for w, g in zip(weights[1:], state_gens[1:]):
            joint = joint + w * g
        evolved = adjoint_action(rep.unitary, joint, tol=tol.residual_tol)
        escaped.append(new_rep.subspace.coordinates(evolved)[1])
        if not new_rep.subspace.contains(evolved):
            raise RuntimeError("evolved physical state escaped the conjugated subspace")
        image = partial_trace(evolved, keep=(0,))
        reference = phi.apply(partial_trace(joint, keep=(0,)))
        bound = tol.residual_tol * max(1.0, reference.hs_norm())
        drift.append((image - reference).hs_norm())
        if not ((image - reference).hs_norm() <= bound):
            raise RuntimeError("physical-domain image check failed")
    return escaped, drift


def _inverse_cases():
    repo = repolarizer(0.1)
    repo_rep = swap_representation(repo, axis_states(radius=0.1))
    transpose = transpose_map()
    transpose_rep = swap_representation(transpose, axis_states())
    kraus_rep = kraus_dilation(depolarizer_kraus(0.1))
    depo = map_from_kraus(depolarizer_kraus(0.1))
    return {
        "repolarizer": (repo_rep, inverse_representation(repo_rep, repo), repo),
        "transpose": (transpose_rep, inverse_representation(transpose_rep, transpose), transpose),
        "kraus": (kraus_rep, inverse_representation(kraus_rep, depo), depo),
    }


@pytest.mark.parametrize("name", ["repolarizer", "transpose", "kraus"])
def test_stacked_physical_domain_check_matches_per_sample_loop(name):
    rep, new_rep, phi = _inverse_cases()[name]
    escaped, drift = dilations._sampled_physical_domain_check(rep, new_rep, phi, phi.tol)
    want_escaped, want_drift = reference_physical_domain_check(rep, new_rep, phi, phi.tol)
    assert len(escaped) == len(want_escaped) == 8
    assert np.allclose(escaped, want_escaped, rtol=0.0, atol=1e-12)
    assert np.allclose(drift, want_drift, rtol=0.0, atol=1e-12)


def test_stacked_physical_domain_check_raises_where_the_loop_raises():
    rep, new_rep, phi = _inverse_cases()["repolarizer"]
    cases = [
        ((rep, rep, phi), "escaped the conjugated subspace"),  # not conjugated
        ((rep, new_rep, identity_map(2)), "image check failed"),  # the wrong map
    ]
    for args, message in cases:
        with pytest.raises(RuntimeError, match=message):
            reference_physical_domain_check(*args, phi.tol)
        with pytest.raises(RuntimeError, match=message):
            dilations._sampled_physical_domain_check(*args, phi.tol)


def test_a_failed_representation_self_check_is_a_self_check_error():
    rep, new_rep, phi = _inverse_cases()["repolarizer"]
    for args, message in [
        ((rep, rep, phi), "escaped the conjugated subspace"),
        ((rep, new_rep, identity_map(2)), "image check failed"),
    ]:
        with pytest.raises(SelfCheckError, match=message):
            dilations._sampled_physical_domain_check(*args, phi.tol)
    transpose_rep = swap_representation(transpose_map(), axis_states())
    with pytest.raises(SelfCheckError, match="^swap representation failed its self-check"):
        dilations._self_check(transpose_rep, identity_map(2), "swap representation")


@pytest.mark.parametrize("name", ["repolarizer", "transpose", "kraus"])
def test_physical_domain_check_selects_the_generators_is_density_selects(name):
    rep, new_rep, phi = _inverse_cases()[name]
    state_tol = max(phi.tol.residual_tol, phi.tol.psd_slack)
    gens = rep.subspace._generator_matrix
    s0, s1 = gens[:, 0], gens[:, 1]
    # in the span, but of trace 2, not Hermitian, traceless, not positive
    mixed = np.column_stack([gens, 2 * s0, s0 + 1j * (s0 - s1), s0 - s1, 1.5 * s0 - 0.5 * s1])

    def with_generators(cols):
        sub = subspaces.OperatorSubspace(rep.subspace.layout, rep.subspace.basis_matrix(), cols)
        return Representation(rep.bath_dim, rep.unitary, sub, rep.target_domain)

    mixed_rep = with_generators(mixed)
    keep = [g.is_density(state_tol) for g in mixed_rep.subspace.generators]
    assert 0 < sum(keep) < len(keep) - 1
    got = dilations._sampled_physical_domain_check(mixed_rep, new_rep, phi, phi.tol)
    want = dilations._sampled_physical_domain_check(
        with_generators(mixed[:, keep]), new_rep, phi, phi.tol
    )
    for g, w in zip(got, want):
        assert g.size == 8 and np.array_equal(g, w)


def test_inverse_representation_builds_no_generator_operators(monkeypatch):
    phi = repolarizer(0.1)
    rep = swap_representation(phi, axis_states(0.1))
    built = []
    original = Operator.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Operator, "__post_init__", counting)
    inverse_representation(rep, phi)
    assert len(built) <= 2  # was 23, 21 of them the subspace's generators
