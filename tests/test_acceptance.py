"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them on
success; failures always surface the line and the assertion).  Tolerances are
pinned here, not configurable.
"""

import contextlib
import math

import numpy as np
import scipy.linalg

from beyondcp import (
    UnitaryFamily,
    bell_projector,
    consistent_kernel,
    derive_map,
    identity,
    inverse_representation,
    is_cp,
    kraus_dilation,
    map_residual,
    operator,
    positive_domain_membership,
    positivity_scan,
    span_from_generators,
    swap_representation,
    tensor,
    witness_extension_consistent,
    witness_factorization_gap,
)
from beyondcp.catalog import (
    GibbsParams,
    axis_states,
    ball_pair,
    contractivity_ratio,
    controlled_phase_family,
    controlled_phase_kraus,
    controlled_phase_map,
    controlled_phase_unitary,
    depolarizer,
    depolarizer_kraus,
    gibbs_hamiltonian,
    gibbs_state_closed_form,
    gibbs_subspace,
    interior_ball_pair,
    repolarizer,
    repolarizer_subspace,
    transpose_map,
    transpose_subspace,
    uhlmann_check,
)
from beyondcp.operators import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, SpaceLayout
from beyondcp.sampling import haar_unitary, random_density

from corpus import kraus_subspace


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def containment_residual(v, w) -> float:
    """Worst projection residual of either basis in the other span."""
    worst = 0.0
    for b in v.basis:
        worst = max(worst, w.coordinates(b)[1])
    for b in w.basis:
        worst = max(worst, v.coordinates(b)[1])
    return worst


def test_criterion_1_thermal_family_map_equivalence():
    with criterion("1 thermal-family map equals closed form; Kraus completeness"):
        family = gibbs_subspace()
        for t in (0.0, math.pi / 6, math.pi / 4, math.pi / 2):
            derived = derive_map(family, controlled_phase_unitary(t))
            closed = controlled_phase_map(t)
            assert map_residual(derived, closed) <= 1e-9
            # coordinate-wise over the shared domain basis
            for b in closed.domain.basis:
                assert (derived.apply(b) - closed.apply(b)).hs_norm() <= 1e-9
            e1, e2 = controlled_phase_kraus(t)
            completeness = (
                e1.dagger() @ e1 + e2.dagger() @ e2 - identity(2)
            ).hs_norm()
            assert completeness <= 1e-12


def test_criterion_2_closed_form_thermal_states_and_span():
    with criterion("2 closed-form thermal states match expm; family spans printed basis"):
        worst = 0.0
        for theta in np.linspace(-2.0, 2.0, 7):
            for beta in np.linspace(0.1, 2.0, 7):
                closed = gibbs_state_closed_form(GibbsParams(theta, beta))
                dense = scipy.linalg.expm(-beta * gibbs_hamiltonian(theta).entries)
                dense /= np.trace(dense)
                worst = max(worst, float(np.linalg.norm(closed.entries - dense)))
        assert worst <= 1e-10
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
        assert containment_residual(family, printed) <= 1e-9


def test_criterion_3_transpose_representation():
    with criterion("3 transpose swap representation, printed basis, Choi eigenvalue"):
        phi = transpose_map()
        rep = swap_representation(phi, axis_states())
        assert rep.subspace.dim == 10
        assert containment_residual(rep.subspace, transpose_subspace()) <= 1e-9
        derived = rep.derived_map()
        rng = np.random.default_rng(31)
        for _ in range(100):
            rho = random_density(2, rng)
            assert (derived.apply(rho) - operator(rho.entries.T, 2)).hs_norm() <= 1e-10
        verdict = is_cp(derived)
        assert not verdict.cp
        assert abs(verdict.min_choi_eigenvalue - (-1.0)) <= 1e-9


def test_criterion_4_repolarizer():
    with criterion("4 repolarizer: boundary, printed basis, ratios, counterexample"):
        eps = 0.1
        phi = repolarizer(eps)
        # positive-domain boundary by radial bisection
        for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2
                rho = (PAULI_I + mid * sigma) * 0.5
                if positive_domain_membership(phi, rho):
                    lo = mid
                else:
                    hi = mid
            assert abs((lo + hi) / 2 - eps) <= 1e-8
        rep = swap_representation(phi, axis_states(radius=eps))
        assert containment_residual(rep.subspace, repolarizer_subspace(eps)) <= 1e-9
        rng = np.random.default_rng(41)
        for _ in range(20):
            r1, r2 = ball_pair(eps, rng)
            ratio = contractivity_ratio(phi, r1, r2, p=1)
            assert ratio is not None and abs(ratio - 1 / eps) <= 1e-6
        for _ in range(20):
            r1, r2 = interior_ball_pair(eps, rng)
            report = uhlmann_check(phi, r1, r2)
            assert report.ratio is not None and report.ratio >= 1 / eps - 1e-6
        scan = positivity_scan(phi, 64, seed=41)
        assert scan.violation_found
        assert abs(scan.min_eigenvalue - (-(1 - eps) / (2 * eps))) <= 1e-9
        assert abs(scan.min_eigenvalue - (-4.5)) <= 1e-9


def test_criterion_5_kraus_depolarizer_dilation():
    with criterion("5 depolarizer Kraus dilation and inverse representation"):
        eps = 0.1
        rep = kraus_dilation(depolarizer_kraus(eps))
        assert rep.bath_dim == 4
        assert rep.unitary.unitarity_residual() <= 1e-10
        assert map_residual(rep.derived_map(), depolarizer(eps)) <= 1e-10
        phi = repolarizer(eps)
        swap_rep = swap_representation(phi, axis_states(radius=eps))
        inv = inverse_representation(swap_rep, phi)
        assert map_residual(inv.derived_map(), depolarizer(eps)) <= 1e-9


def test_criterion_6_consistency_suite():
    with criterion("6 consistent kernels, witness extensions, factorization gaps"):
        rng = np.random.default_rng(61)
        layout = SpaceLayout((2, 2))
        family = UnitaryFamily(tuple(haar_unitary((2, 2), rng) for _ in range(20)))
        assert consistent_kernel(family, layout).dim == 0
        gibbs = gibbs_subspace()
        phase = controlled_phase_family()
        kraus_v = kraus_subspace(random_density(2, rng))
        random_family = UnitaryFamily(tuple(haar_unitary((2, 2), rng) for _ in range(6)))
        for d_w in (1, 2, 3):
            assert witness_extension_consistent(kraus_v, random_family, d_w).consistent
            assert witness_extension_consistent(gibbs, phase, d_w).consistent
        bell_gap = witness_factorization_gap(random_density(2, rng), bell_projector())
        assert abs(bell_gap.mismatch - 0.75) <= 1e-10
        product = tensor(random_density(2, rng), random_density(2, rng))
        product_gap = witness_factorization_gap(random_density(2, rng), product)
        assert product_gap.mismatch <= 1e-10


def test_criterion_7_randomized_property_suite(property_trial_failures):
    with criterion("7 randomized property suite, 200 seed-pinned trials"):
        assert property_trial_failures == []
