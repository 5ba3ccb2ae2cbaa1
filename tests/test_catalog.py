import contextlib
import io
import math

import numpy as np
import pytest
import scipy.linalg

from beyondcp import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    Operator,
    check_state_spanned,
    identity,
    is_cp,
    map_from_kraus,
    map_residual,
    positive_domain_membership,
    tensor,
)
from beyondcp.catalog import (
    GibbsParams,
    RepolarizerParams,
    axis_states,
    ball_pair,
    contractivity_ratio,
    controlled_phase_family,
    controlled_phase_generator,
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
    transpose_subspace,
    uhlmann_check,
)
from beyondcp.catalog import (
    _contractivity_ratios,
    _uhlmann_reports,
    _violation_sample,
)
from beyondcp.cli import run_cli
from beyondcp.config import DEFAULT_TOL
from beyondcp.maps import _positive_domain_mask
from beyondcp.operators import _min_eigenvalues, _stacked
from beyondcp.sampling import random_density


# ---------------------------------------------------------------------------
# thermal family
# ---------------------------------------------------------------------------


def test_gibbs_params_derived_values():
    p = GibbsParams(theta=1.0, beta=0.5)
    assert np.isclose(p.lam, math.sqrt(5))
    assert np.isclose(p.gam, 1.0)
    for theta in np.linspace(-3, 3, 13):
        q = GibbsParams(theta, 1.0)
        assert q.lam >= 1 / math.sqrt(2) - 1e-12
        assert q.gam >= 1 / math.sqrt(2) - 1e-12


def test_gibbs_hamiltonian_at_zero_coupling():
    assert np.allclose(gibbs_hamiltonian(0.0).entries, tensor(PAULI_X, PAULI_X).entries)


def test_gibbs_hamiltonian_square_identity():
    for theta in (-1.5, 0.3, 2.0):
        h = gibbs_hamiltonian(theta)
        expected = (2 * theta**2 + 1) * identity((2, 2)) + 2 * theta * tensor(
            PAULI_I, PAULI_X
        )
        assert np.allclose((h @ h).entries, expected.entries, atol=1e-12)


def test_gibbs_hamiltonian_spectrum_at_theta_one():
    eigs = np.linalg.eigvalsh(gibbs_hamiltonian(1.0).entries)
    assert np.allclose(sorted(eigs), sorted([-math.sqrt(5), -1, 1, math.sqrt(5)]))


def test_closed_form_matches_expm_oracle_on_grid():
    worst = 0.0
    for theta in np.linspace(-2, 2, 7):
        for beta in np.linspace(0.1, 2.0, 7):
            closed = gibbs_state_closed_form(GibbsParams(theta, beta))
            dense = scipy.linalg.expm(-beta * gibbs_hamiltonian(theta).entries)
            dense /= np.trace(dense)
            worst = max(worst, float(np.linalg.norm(closed.entries - dense)))
    assert worst <= 1e-10


def test_closed_form_zero_coupling_is_tanh_form():
    for beta in (0.4, 1.1):
        closed = gibbs_state_closed_form(GibbsParams(0.0, beta))
        expected = (identity((2, 2)) - math.tanh(beta) * tensor(PAULI_X, PAULI_X)) / 4
        assert np.allclose(closed.entries, expected.entries, atol=1e-12)


def test_closed_form_infinite_temperature():
    closed = gibbs_state_closed_form(GibbsParams(1.7, 0.0))
    assert np.allclose(closed.entries, np.eye(4) / 4)


def test_gibbs_params_refuse_non_finite_values():
    for theta, beta in ((math.nan, 0.5), (1.0, math.inf), (-math.inf, 0.5)):
        with pytest.raises(ValueError, match="must be finite"):
            GibbsParams(theta, beta)


def test_closed_form_refuses_where_its_terms_overflow():
    for theta, beta in ((1.0, 800.0), (1.0, -800.0), (1e200, 0.5), (1e10, 1e300)):
        with pytest.raises(ValueError, match="the closed form overflows"):
            gibbs_state_closed_form(GibbsParams(theta, beta))
    # at theta = 0, lam = gam = 1, so beta = 700 stays below the overflow of cosh
    assert gibbs_state_closed_form(GibbsParams(0.0, 700.0)).is_density(1e-9)


def test_gibbs_subspace_state_spanned_with_closed_form_witness():
    witness = gibbs_state_closed_form(GibbsParams(1.0, 0.5))
    assert check_state_spanned(gibbs_subspace(), witness)


def test_gibbs_subspace_reads_each_grid_once():
    from_lists = gibbs_subspace(thetas=[-1.0, 0.5], betas=[0.3, 1.1])
    from_generators = gibbs_subspace(thetas=iter([-1.0, 0.5]), betas=iter([0.3, 1.1]))
    assert len(from_generators.generators) == 4
    np.testing.assert_array_equal(from_generators.basis_matrix(), from_lists.basis_matrix())


def test_gibbs_subspace_refuses_an_empty_grid():
    for grid in ({"thetas": ()}, {"betas": ()}, {"thetas": (), "betas": ()}):
        with pytest.raises(ValueError, match="at least one theta and one beta"):
            gibbs_subspace(**grid)


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(argv) == 0


@pytest.mark.parametrize(
    "argv, code, most",
    [(["violations", "--epsilon", "0.1", "--pairs", "5"], 1, 60), (["catalog", "transpose"], 0, 14)],
)
def test_qubit_state_commands_build_operators_only_at_the_api_edge(monkeypatch, argv, code, most):
    """Each Bloch state is one Operator, built from one stacked formula (the per-state
    Operator arithmetic built 270 and 26)."""
    built = []
    post_init = Operator.__post_init__

    def counting(self):
        built.append(type(self))
        post_init(self)

    monkeypatch.setattr(Operator, "__post_init__", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(argv) == code  # violations exits 1: the repolarizer breaks two inequalities
    assert len(built) <= most


def test_catalog_gibbs_decomposes_each_thermal_stack_once(eigh_shapes):
    _run_quietly(["catalog", "gibbs"])
    assert eigh_shapes == [(49, 4, 4), (25, 4, 4)]  # the 7x7 closed-form check, the 5x5 family


def test_catalog_example1_decomposes_the_family_once(eigh_shapes):
    _run_quietly(["catalog", "example1"])
    assert eigh_shapes == [(25, 4, 4)]


# ---------------------------------------------------------------------------
# controlled-phase evolution
# ---------------------------------------------------------------------------


def test_controlled_phase_generator_is_projector_like():
    k = controlled_phase_generator()
    assert np.allclose(k.entries, np.diag([1.0, 1.0, 1.0, -1.0]))
    assert np.allclose((k @ k).entries, np.eye(4))


def test_controlled_phase_unitary_matches_expm():
    for t in (0.3, 1.2, math.pi / 2):
        u = controlled_phase_unitary(t)
        dense = scipy.linalg.expm(-1j * t * controlled_phase_generator().entries)
        assert np.allclose(u.entries, dense, atol=1e-12)
        assert u.is_unitary(1e-12)


def test_controlled_phase_map_at_zero_is_identity():
    phi = controlled_phase_map(0.0)
    for b in phi.domain.basis:
        assert (phi.apply(b) - b).hs_norm() <= 1e-12


@pytest.mark.parametrize("t, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
@pytest.mark.parametrize(
    "construction", [controlled_phase_unitary, controlled_phase_map, controlled_phase_kraus]
)
def test_controlled_phase_constructions_refuse_a_non_finite_t(construction, t, shown):
    with pytest.raises(ValueError) as err:
        construction(t)
    assert str(err.value) == f"t must be finite, got {shown}"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"t_max": math.inf}, "t_max must be finite, got inf"),
        ({"t_max": -math.inf}, "t_max must be finite, got -inf"),
        ({"t_max": math.nan}, "t_max must be finite, got nan"),
        ({"n": 0}, "n must be at least 1, got 0"),
        ({"n": -3}, "n must be at least 1, got -3"),
    ],
)
def test_controlled_phase_family_refuses_its_arguments_by_name(kwargs, message):
    with pytest.raises(ValueError) as err:
        controlled_phase_family(**kwargs)
    assert str(err.value) == message


def test_controlled_phase_family_samples_the_open_interval():
    family = controlled_phase_family(3, 1.0)
    ts = [(i + 1) * 1.0 / 4 for i in range(3)]
    for u, t in zip(family.members, ts, strict=True):
        np.testing.assert_array_equal(u.entries, controlled_phase_unitary(t).entries)


def test_controlled_phase_kraus_extension_is_cp_for_all_t():
    for t in np.linspace(0, 2 * math.pi, 9):
        e1, e2 = controlled_phase_kraus(t)
        completeness = (e1.dagger() @ e1 + e2.dagger() @ e2 - identity(2)).hs_norm()
        assert completeness <= 1e-12
        verdict = is_cp(map_from_kraus([e1, e2]))
        assert verdict.cp
        closed = controlled_phase_map(t)
        kraus_map = map_from_kraus([e1, e2])
        for b in closed.domain.basis:
            assert (kraus_map.apply(b) - closed.apply(b)).hs_norm() <= 1e-12


# ---------------------------------------------------------------------------
# printed subspaces
# ---------------------------------------------------------------------------


def test_transpose_subspace_dimension_and_sample_span(rng):
    from beyondcp import operator, span_from_generators, subspaces_equal

    printed = transpose_subspace()
    assert printed.dim == 10
    gens = []
    for _ in range(20):
        rho = random_density(2, rng)
        gens.append(tensor(rho, operator(rho.entries.T, 2)))
    assert subspaces_equal(printed, span_from_generators(gens))


def test_repolarizer_subspace_contains_weighted_element():
    v = repolarizer_subspace(0.1)
    assert v.dim == 10
    assert v.contains(tensor(PAULI_X, PAULI_I) + 10.0 * tensor(PAULI_I, PAULI_X))
    assert not v.contains(tensor(PAULI_X, PAULI_I) + 5.0 * tensor(PAULI_I, PAULI_X))


def test_printed_subspaces_are_dagger_closed_and_state_spanned():
    for v in (transpose_subspace(), repolarizer_subspace(0.3)):
        assert check_state_spanned(v)  # identity is one of the printed elements


def test_repolarizer_params_validation():
    with pytest.raises(ValueError):
        RepolarizerParams(0.0)
    with pytest.raises(ValueError):
        repolarizer(1.5)


# ---------------------------------------------------------------------------
# repolarizer / depolarizer pair
# ---------------------------------------------------------------------------


def test_depolarizer_kraus_matches_closed_form(rng):
    eps = 0.35
    kraus_map = map_from_kraus(depolarizer_kraus(eps))
    assert map_residual(kraus_map, depolarizer(eps)) <= 1e-12


def test_repolarizer_positive_domain_is_epsilon_ball():
    eps = 0.2
    phi = repolarizer(eps)
    for radius in np.linspace(0.0, 1.0, 21):
        rho = (PAULI_I + radius * PAULI_Z) * 0.5
        inside = positive_domain_membership(phi, rho)
        assert inside == (radius <= eps + 1e-9)


# ---------------------------------------------------------------------------
# contractivity
# ---------------------------------------------------------------------------


def test_contractivity_ratio_repolarizer_is_inverse_epsilon(rng):
    eps = 0.1
    phi = repolarizer(eps)
    for _ in range(10):
        r1, r2 = ball_pair(eps, np.random.default_rng(rng.integers(2**32)))
        ratio = contractivity_ratio(phi, r1, r2, p=1)
        assert ratio is not None
        assert abs(ratio - 1 / eps) <= 1e-6


def test_contractivity_ratio_identical_inputs_is_undefined():
    phi = repolarizer(0.1)
    rho = identity(2) / 2
    assert contractivity_ratio(phi, rho, rho, p=1) is None


def test_contractivity_ratio_identity_map(rng):
    from beyondcp import identity_map

    r1, r2 = random_density(2, rng), random_density(2, rng)
    assert np.isclose(contractivity_ratio(identity_map(2), r1, r2, 1), 1.0)


def test_cp_maps_are_trace_norm_contractive(rng):
    from beyondcp.sampling import random_kraus_channel

    for _ in range(10):
        channel = map_from_kraus(random_kraus_channel(2, 3, rng))
        r1, r2 = random_density(2, rng), random_density(2, rng)
        ratio = contractivity_ratio(channel, r1, r2, p=1)
        assert ratio is not None and ratio <= 1 + 1e-9


def test_contractivity_holds_for_every_p_on_repolarizer(rng):
    eps = 0.25
    phi = repolarizer(eps)
    r1, r2 = ball_pair(eps, rng)
    for p in (1, 2, math.inf):
        ratio = contractivity_ratio(phi, r1, r2, p)
        assert abs(ratio - 1 / eps) <= 1e-6


def _pairs(draw, count, rng):
    """``count`` pairs of ``draw(rng)`` as the two (count, N, N) stacks and the pair list."""
    pairs = [draw(rng) for _ in range(count)]
    return _stacked([a for a, _ in pairs]), _stacked([b for _, b in pairs]), pairs


@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_contractivity_ratio_stack_matches_single_calls(rng, p):
    phi = repolarizer(0.25)
    r1, r2, pairs = _pairs(lambda g: ball_pair(0.25, g), 6, rng)
    r2[3] = r1[3]  # a coincident pair
    pairs[3] = (pairs[3][0], pairs[3][0])
    single = [contractivity_ratio(phi, a, b, p) for a, b in pairs]
    stacked = _contractivity_ratios(phi, r1, r2, p)
    assert stacked[3] is None and single[3] is None
    assert [float.hex(r) for r in stacked if r is not None] == [
        float.hex(r) for r in single if r is not None
    ]


# ---------------------------------------------------------------------------
# relative-entropy comparison
# ---------------------------------------------------------------------------


def test_uhlmann_repolarizer_amplifies_relative_entropy(rng):
    eps = 0.1
    phi = repolarizer(eps)
    for _ in range(10):
        r1, r2 = interior_ball_pair(eps, rng)
        report = uhlmann_check(phi, r1, r2)
        assert report.ratio is not None
        assert report.ratio >= 1 / eps - 1e-6


def test_uhlmann_identical_inputs():
    phi = repolarizer(0.1)
    rho = (PAULI_I + 0.05 * PAULI_Z) * 0.5
    report = uhlmann_check(phi, rho, rho)
    assert abs(report.entropy_in) <= 1e-12
    assert abs(report.entropy_out) <= 1e-12
    assert report.ratio is None


def test_uhlmann_depolarizer_is_monotone(rng):
    phi = depolarizer(0.1)
    for _ in range(10):
        r1, r2 = random_density(2, rng), random_density(2, rng)
        report = uhlmann_check(phi, r1, r2)
        assert report.entropy_out <= report.entropy_in + 1e-9


def test_uhlmann_matches_eigenbasis_oracle_for_commuting_pair():
    eps = 0.5
    phi = repolarizer(eps)
    r1 = (PAULI_I + 0.2 * PAULI_Z) * 0.5
    r2 = (PAULI_I - 0.1 * PAULI_Z) * 0.5

    def scalar_entropy(p, q):
        return sum(
            pi * (math.log(pi) - math.log(qi)) for pi, qi in zip(p, q)
        )

    s_in_oracle = scalar_entropy([0.6, 0.4], [0.45, 0.55])
    report = uhlmann_check(phi, r1, r2)
    assert np.isclose(report.entropy_in, s_in_oracle, atol=1e-12)
    s_out_oracle = scalar_entropy([0.7, 0.3], [0.4, 0.6])  # Bloch radii scaled by 1/eps
    assert np.isclose(report.entropy_out, s_out_oracle, atol=1e-12)


def test_uhlmann_stack_matches_single_calls(rng):
    phi = repolarizer(0.2)
    r1, r2, pairs = _pairs(lambda g: interior_ball_pair(0.2, g), 6, rng)
    r2[4] = r1[4]  # coincident: no ratio
    pairs[4] = (pairs[4][0], pairs[4][0])
    single = [uhlmann_check(phi, a, b) for a, b in pairs]
    stacked = _uhlmann_reports(phi, r1, r2)
    assert stacked[4].ratio is None
    for got, want in zip(stacked, single):
        assert float.hex(got.entropy_in) == float.hex(want.entropy_in)
        assert float.hex(got.entropy_out) == float.hex(want.entropy_out)
        assert (got.ratio is None) == (want.ratio is None)
        assert got.ratio is None or float.hex(got.ratio) == float.hex(want.ratio)


def test_uhlmann_refuses_a_non_member_or_rank_deficient_r2_with_its_message():
    inside = (PAULI_I + 0.05 * PAULI_Z) * 0.5
    with pytest.raises(ValueError) as err:
        uhlmann_check(repolarizer(0.1), inside, (PAULI_I + 0.5 * PAULI_X) * 0.5)
    assert str(err.value) == "r2 is not in the map's positive domain"
    with pytest.raises(ValueError) as err:  # a pure state is in a CP map's positive domain
        uhlmann_check(depolarizer(0.5), inside, (PAULI_I + PAULI_Z) * 0.5)
    assert str(err.value) == "r2 must be full rank for the relative-entropy check"
    with pytest.raises(ValueError) as err:  # another layout is in no positive domain
        uhlmann_check(depolarizer(0.5), inside, identity(4) / 4)
    assert str(err.value) == "r2 is not in the map's positive domain"


def test_uhlmann_stack_takes_the_states_eigenvalues_once(rng, monkeypatch):
    """The full-rank test reads the smallest eigenvalues that the positive-domain test's
    state test took: four eigvalsh calls, where the rank test made a fifth."""
    phi = repolarizer(0.2)
    r1, r2, _ = _pairs(lambda g: interior_ball_pair(0.2, g), 6, rng)
    states = np.concatenate([r1, r2])
    assert np.array_equal(
        _positive_domain_mask(phi, states, _min_eigenvalues(states)), _positive_domain_mask(phi, states)
    )
    before = _uhlmann_reports(phi, r1, r2)
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert _uhlmann_reports(phi, r1, r2) == before
    assert shapes == [(12, 2, 2), (12, 2, 2), (12, 2, 2), (12, 2, 2)]


def test_uhlmann_stack_refuses_pair_by_pair():
    inside, pure = ((PAULI_I + 0.05 * PAULI_Z) * 0.5).entries, ((PAULI_I + PAULI_Z) * 0.5).entries
    r1, r2 = np.array([inside, pure]), np.array([pure, inside])  # pair 0 fails first, at r2
    with pytest.raises(ValueError, match="^r2 must be full rank"):
        _uhlmann_reports(depolarizer(0.5), r1, r2)


def test_violation_sample_builds_no_operator_and_few_decompositions(monkeypatch):
    built, calls = [], []
    original = Operator.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Operator, "__post_init__", counting)
    for name in ("svd", "eigh", "eigvalsh"):
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    ratios, entropy_ratios, monotone, control = _violation_sample(
        0.1, 5, np.random.default_rng(1), DEFAULT_TOL
    )
    assert (len(ratios), len(entropy_ratios), monotone, len(control)) == (5, 5, False, 5)
    assert built == []  # 60 when each pair was an Operator chain
    assert len(calls) <= 8  # 90 then: one svd, eigh or eigvalsh per 2x2 matrix and test


def test_uhlmann_rejects_states_outside_positive_domain(rng):
    phi = repolarizer(0.1)
    with pytest.raises(ValueError, match="positive domain"):
        uhlmann_check(phi, random_density(2, rng), random_density(2, rng))


# ---------------------------------------------------------------------------
# state constructions refuse parameters that give no state
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda rng: ball_pair(2.0, rng), r"^epsilon must lie in \(0, 1\], got 2\.0$"),
        (lambda rng: ball_pair(0.0, rng), r"^epsilon must lie in \(0, 1\], got 0\.0$"),
        (lambda rng: ball_pair(math.nan, rng), r"^epsilon must lie in \(0, 1\], got nan$"),
        (lambda rng: interior_ball_pair(1.5, rng), r"^epsilon must lie in \(0, 1\], got 1\.5$"),
        (lambda rng: interior_ball_pair(-0.2, rng), r"^epsilon must lie in \(0, 1\]"),
        (
            lambda rng: interior_ball_pair(0.5, rng, radius_fraction=5),
            r"^radius_fraction must lie in \(0, 1\], got 5$",
        ),
        (
            lambda rng: interior_ball_pair(0.5, rng, radius_fraction=0),
            r"^radius_fraction must lie in \(0, 1\], got 0$",
        ),
        (
            lambda rng: interior_ball_pair(0.5, rng, radius_fraction=math.nan),
            r"^radius_fraction must lie in \(0, 1\], got nan$",
        ),
        (lambda rng: axis_states(3.0), r"^radius must lie in \[0, 1\], got 3\.0$"),
        (lambda rng: axis_states(-0.1), r"^radius must lie in \[0, 1\], got -0\.1$"),
        (lambda rng: axis_states(math.nan), r"^radius must lie in \[0, 1\], got nan$"),
    ],
)
def test_state_constructions_refuse_parameters_that_give_no_state(draw, message):
    # on the parent, ball_pair(2.0) drew an eigenvalue of -0.40, axis_states(3.0) one of -1.0
    # and interior_ball_pair(0.5, radius_fraction=5) one of -0.51; nothing is drawn now
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        draw(rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: ball_pair(1.0, rng),
        lambda rng: interior_ball_pair(1.0, rng, radius_fraction=1.0),
        lambda rng: interior_ball_pair(1e-3, rng, radius_fraction=1e-3),
        lambda rng: axis_states(1.0),
        lambda rng: axis_states(0.0),
    ],
)
def test_state_constructions_accept_their_closed_bounds(draw):
    for rho in draw(np.random.default_rng(3)):
        assert rho.is_density(DEFAULT_TOL.state_tol)

