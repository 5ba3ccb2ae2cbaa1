"""Catalog operators spelled from the Pauli-product table, against the spelled-out products.

The reference functions below build every two-qubit Pauli product with a fresh
``tensor`` call, as the catalog did before it read them from one table.  They
keep the same coefficients and the same order of operations, so the catalog
must agree with them bit for bit.  The thermal states are built the same way,
one ``Operator`` and one eigendecomposition at a time, against the stacked
``_gibbs_hamiltonians``, ``_gibbs_states`` and ``_gibbs_closed_forms``, and so are
the Bloch-axis and Bloch-ball states, the pure-state grid, the SWAP unitary and the
centre mixtures of ``sample_positive_domain``, one ``Operator`` or one entry at a
time, against their stacked formulas.  The violations experiment is kept as the
loop that built one ``Operator`` chain per pair, against the stacked
``_violation_sample``.
"""

import contextlib
import io
import json
import math
from itertools import chain

import numpy as np
import pytest

from beyondcp import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Operator,
    gibbs_state,
    identity,
    ket_projector,
    derive_map,
    identity_map,
    positive_domain_membership,
    positivity_scan,
    sample_positive_domain,
    span_from_generators,
    tensor,
    zero,
)
from beyondcp.catalog import (
    GibbsParams,
    _smallest_state_checkable_epsilon,
    _violation_sample,
    _gibbs_hamiltonians,
    RepolarizerParams,
    controlled_phase_generator,
    controlled_phase_unitary,
    depolarizer,
    gibbs_hamiltonian,
    gibbs_state_closed_form,
    axis_states,
    ball_pair,
    gibbs_subspace,
    interior_ball_pair,
    repolarizer,
    repolarizer_subspace,
    transpose_map,
    transpose_subspace,
)
from beyondcp.cli import run_cli
from beyondcp.config import DEFAULT_TOL
from beyondcp.maps import (
    _CENTER_WEIGHTS,
    _SCAN_BLOCK,
    _grid_domain_states,
    _random_domain_states,
    map_from_action,
)
from beyondcp.operators import SpaceLayout, relative_entropy, schatten_distance, swap_unitary
from beyondcp.sampling import _ginibre, axis_grid_states, random_density, random_pure_state

# -- the spelled-out reference ----------------------------------------------------


def reference_hamiltonian(theta):
    return theta * (tensor(PAULI_X, PAULI_I) + tensor(PAULI_Z, PAULI_I)) + tensor(
        PAULI_X, PAULI_X
    )


def reference_closed_form(p):
    lam, gam = p.lam, p.gam
    beta = p.beta
    denom = math.cosh(beta * lam) + math.cosh(beta * gam)
    sl = math.sinh(beta * lam) / lam
    sg = math.sinh(beta * gam) / gam
    c_bath_x = (math.cosh(beta * lam) - math.cosh(beta * gam)) / denom
    c_z1 = -p.theta * (sl + sg) / denom
    c_x1 = -((p.theta + 1) * sl + (p.theta - 1) * sg) / denom
    c_xx = -((p.theta + 1) * sl - (p.theta - 1) * sg) / denom
    c_zx = -p.theta * (sl - sg) / denom
    state = (
        tensor(PAULI_I, PAULI_I)
        + c_bath_x * tensor(PAULI_I, PAULI_X)
        + c_z1 * tensor(PAULI_Z, PAULI_I)
        + c_x1 * tensor(PAULI_X, PAULI_I)
        + c_xx * tensor(PAULI_X, PAULI_X)
        + c_zx * tensor(PAULI_Z, PAULI_X)
    )
    return state / 4.0


def reference_gibbs_state(h, beta):
    """One Hamiltonian's thermal state, by its own eigendecomposition."""
    w, v = np.linalg.eigh((h.entries + h.entries.conj().T) / 2)
    x = -beta * (w - (w.min() if beta >= 0 else w.max()))
    p = np.exp(x)
    p /= p.sum()
    return Operator(h.layout, (v * p) @ v.conj().T)


def reference_gibbs_subspace():
    gens = [
        reference_gibbs_state(reference_hamiltonian(th), b)
        for th in np.linspace(-2.0, 2.0, 5)
        for b in np.linspace(0.1, 2.0, 5)
    ]
    return span_from_generators(gens, DEFAULT_TOL)


def reference_grid_worst():
    """The largest closed-form error over the 7x7 grid of `catalog gibbs`, state by state."""
    worst = 0.0
    for th in np.linspace(-2.0, 2.0, 7):
        for b in np.linspace(0.1, 2.0, 7):
            closed = reference_closed_form(GibbsParams(th, b))
            direct = reference_gibbs_state(reference_hamiltonian(th), b)
            worst = max(worst, (closed - direct).hs_norm())
    return worst


def reference_generator():
    return (
        tensor(PAULI_I, PAULI_I)
        + tensor(PAULI_Z, PAULI_I)
        + tensor(PAULI_I, PAULI_Z)
        - tensor(PAULI_Z, PAULI_Z)
    ) * 0.5


def reference_unitary(t):
    k = reference_generator()
    return math.cos(t) * identity(k.layout) + (-1j * math.sin(t)) * k


def reference_transpose_subspace():
    i2, x, y, z = PAULI_I, PAULI_X, PAULI_Y, PAULI_Z
    gens = [
        tensor(i2, i2),
        tensor(x, i2) + tensor(i2, x),
        tensor(y, i2) - tensor(i2, y),
        tensor(z, i2) + tensor(i2, z),
        tensor(x, x),
        tensor(y, y),
        tensor(z, z),
        tensor(x, y) - tensor(y, x),
        tensor(y, z) - tensor(z, y),
        tensor(z, x) + tensor(x, z),
    ]
    return span_from_generators(gens, DEFAULT_TOL)


def reference_repolarizer_subspace(epsilon):
    w = 1.0 / RepolarizerParams(epsilon).epsilon
    i2, x, y, z = PAULI_I, PAULI_X, PAULI_Y, PAULI_Z
    gens = [
        tensor(i2, i2),
        tensor(x, i2) + w * tensor(i2, x),
        tensor(y, i2) + w * tensor(i2, y),
        tensor(z, i2) + w * tensor(i2, z),
        tensor(x, x),
        tensor(y, y),
        tensor(z, z),
        tensor(x, y) + tensor(y, x),
        tensor(y, z) + tensor(z, y),
        tensor(z, x) + tensor(x, z),
    ]
    return span_from_generators(gens, DEFAULT_TOL)


def assert_same_bits(a, b):
    """Equal values, and equal bytes too, so that a zero cannot change its sign."""
    assert np.array_equal(a, b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the table-built catalog against it ---------------------------------------------


@pytest.mark.parametrize("theta", np.linspace(-2.0, 2.0, 7))  # the grid of `catalog gibbs`
def test_gibbs_operators_match_the_spelled_out_products(theta):
    assert gibbs_hamiltonian(theta).layout.dims == (2, 2)
    assert_same_bits(gibbs_hamiltonian(theta).entries, reference_hamiltonian(theta).entries)
    for beta in np.linspace(0.1, 2.0, 7):
        p = GibbsParams(theta, beta)
        assert_same_bits(gibbs_state_closed_form(p).entries, reference_closed_form(p).entries)


def test_gibbs_hamiltonian_stack_matches_the_operator_chain():
    """Every grid of the catalog, edge values and an empty grid, read as one stack."""
    thetas = [
        *np.linspace(-2.0, 2.0, 7), *np.linspace(-2.0, 2.0, 5), -0.0, 5e-324, 1e308, -1e308, 3
    ]
    hams = _gibbs_hamiltonians(thetas)
    assert_same_bits(hams, np.array([reference_hamiltonian(th).entries for th in thetas]))
    assert _gibbs_hamiltonians(iter(thetas)).tobytes() == hams.tobytes()
    assert _gibbs_hamiltonians([]).shape == (0, 4, 4)


def test_controlled_phase_operators_match_the_spelled_out_products():
    assert controlled_phase_generator().layout.dims == (2, 2)
    assert_same_bits(controlled_phase_generator().entries, reference_generator().entries)
    for t in (0.0, 0.3, math.pi / 4, 1.7, math.pi, 4.0, 2 * math.pi - 0.1):
        assert_same_bits(controlled_phase_unitary(t).entries, reference_unitary(t).entries)


def _assert_same_subspace_bits(v, reference):
    assert_same_bits(v.basis_matrix(), reference.basis_matrix())
    assert_same_bits(v._generator_matrix, reference._generator_matrix)


def test_transpose_subspace_matches_the_spelled_out_products():
    _assert_same_subspace_bits(transpose_subspace(), reference_transpose_subspace())


@pytest.mark.parametrize("epsilon", [4.44e-7, 1e-3, 0.05, 0.1, 0.37, 1.0])
def test_repolarizer_subspace_matches_the_spelled_out_products(epsilon):
    _assert_same_subspace_bits(
        repolarizer_subspace(epsilon), reference_repolarizer_subspace(epsilon)
    )


def test_gibbs_subspace_matches_the_state_by_state_family():
    _assert_same_subspace_bits(gibbs_subspace(), reference_gibbs_subspace())


def test_catalog_gibbs_grid_error_matches_the_state_by_state_loop():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli(["catalog", "gibbs"]) == 0
    verdicts = {v["name"]: v for v in json.loads(out.getvalue())["verdicts"]}
    worst = verdicts["closed_form_matches_exponential"]["residual"]
    assert worst.hex() == reference_grid_worst().hex()  # repr round-trips a float exactly


def _random_hermitian(dims, seed):
    n = math.prod(dims)
    a = np.random.default_rng(seed).standard_normal((2, n, n))
    return Operator(identity(dims).layout, (a[0] + 1j * a[1]) + (a[0] + 1j * a[1]).conj().T)


@pytest.mark.parametrize(
    "h",
    [zero((2, 2)), identity((2, 2)), _random_hermitian((2, 2), 3), zero((2, 2, 2)),
     identity((2, 2, 2)), _random_hermitian((2, 2, 2), 5), _random_hermitian((2, 3, 2), 7)],
    ids=["H=0", "H=1", "random", "H=0 three factors", "H=1 three factors",
         "random three factors", "random (2,3,2)"],
)
@pytest.mark.parametrize("beta", [-1.3, -0.0, 0.0, 0, 0.7, 4.0])
def test_gibbs_state_matches_its_own_eigendecomposition(h, beta):
    rho = gibbs_state(h, beta)
    assert rho.layout == h.layout
    assert_same_bits(rho.entries, reference_gibbs_state(h, beta).entries)


# -- states and SWAP, one Operator or one entry at a time ------------------------------


def reference_axis_states(radius):
    return [
        (PAULI_I + sign * radius * sigma) * 0.5
        for sigma in (PAULI_X, PAULI_Y, PAULI_Z)
        for sign in (1.0, -1.0)
    ]


def reference_ball_pair(rng, radius):
    out = []
    for _ in range(2):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        r = radius(rng)
        bloch = direction[0] * PAULI_X + direction[1] * PAULI_Y + direction[2] * PAULI_Z
        out.append((PAULI_I + r * bloch) * 0.5)
    return out


def reference_axis_grid_states(dims):
    n = math.prod(dims)
    states = []
    for i in range(n):
        amp = np.zeros(n, dtype=complex)
        amp[i] = 1.0
        states.append(ket_projector(amp, dims))
    for i in range(n):
        for j in range(i + 1, n):
            for phase in (1.0, -1.0, 1j, -1j):
                amp = np.zeros(n, dtype=complex)
                amp[i] = 1.0
                amp[j] = phase
                states.append(ket_projector(amp, dims))
    return states


def reference_swap_unitary(d):
    s = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            s[b * d + a, a * d + b] = 1.0
    return s


def reference_positive_domain_members(phi, n, seed):
    """sample_positive_domain's members, one candidate and one centre mixture at a time."""
    rng = np.random.default_rng(seed)
    center = identity(phi.domain.layout) / phi.dim
    center_ok = positive_domain_membership(phi, center)
    randoms = chain.from_iterable(_random_domain_states(phi, 60 * n + 300, rng))
    stack = chain(_grid_domain_states(phi), randoms)
    candidates = (Operator(phi.domain.layout, rho) for rho in stack)
    members = []
    while len(members) < n:
        rho = next(candidates, None)
        if rho is None:
            break
        tries = [rho]
        if center_ok:
            tries += [rho * (1.0 - t) + center * t for t in _CENTER_WEIGHTS]
        members += [s for s in tries if positive_domain_membership(phi, s)][:1]
    return members


def _assert_same_states(states, reference):
    assert len(states) == len(reference)
    for rho, ref in zip(states, reference):
        assert rho.layout == ref.layout
        assert_same_bits(rho.entries, ref.entries)


@pytest.mark.parametrize("radius", [1.0, 0.1, 1e-3])
def test_axis_states_match_the_operator_chain(radius):
    _assert_same_states(axis_states(radius), reference_axis_states(radius))


@pytest.mark.parametrize("seed", [1, 7, 20260811])
@pytest.mark.parametrize(
    "draw,radius",
    [
        (lambda rng: ball_pair(0.3, rng), lambda g: 0.3 * g.uniform(0.0, 1.0) ** (1.0 / 3.0)),
        (lambda rng: interior_ball_pair(0.3, rng), lambda g: 0.3 * 0.5 * g.uniform(0.3, 1.0)),
    ],
    ids=["ball_pair", "interior_ball_pair"],
)
def test_ball_pairs_match_the_operator_chain_and_leave_the_same_generator(seed, draw, radius):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    _assert_same_states(draw(rng), reference_ball_pair(reference_rng, radius))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (2, 2, 2)])
def test_axis_grid_states_match_the_vector_by_vector_loop(dims):
    _assert_same_states(axis_grid_states(dims), reference_axis_grid_states(dims))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_swap_unitary_matches_the_entry_by_entry_loop(d):
    u = swap_unitary(d)
    assert u.layout == SpaceLayout((d, d))
    assert_same_bits(u.entries, reference_swap_unitary(d))


@pytest.mark.parametrize("n,seed", [(8, 3), (12, 5)])
def test_positive_domain_members_match_the_mixture_by_mixture_loop(n, seed):
    phi = repolarizer(0.3)  # rejects the pure grid states; the centre is in its domain
    sample = sample_positive_domain(phi, n, seed)
    reference = reference_positive_domain_members(phi, n, seed)
    assert len(reference) == n and any(
        not positive_domain_membership(phi, Operator(phi.domain.layout, rho))
        for rho in _grid_domain_states(phi)
    )
    _assert_same_states(sample.members, reference)


def reference_pure_state(layout, rng):
    """One random pure state as ``random_pure_state`` drew it before it became the one-state
    call of the stacked draw: a Ginibre column and ``ket_projector``."""
    return ket_projector(_ginibre(layout.total_dim, 1, rng)[:, 0], layout)


@pytest.mark.parametrize("seed", [1, 7, 20260811])
@pytest.mark.parametrize("n", [*range(1, 41), 64, 100, 128, 256])
def test_random_pure_state_matches_the_ginibre_projector(n, seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        rho = random_pure_state(n, rng)
        assert_same_bits(rho.entries, reference_pure_state(rho.layout, reference_rng).entries)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def reference_random_domain_states(phi, n_samples, rng):
    """``_random_domain_states`` one state at a time, each drawn as a Ginibre column and
    ``ket_projector``, as it was for every domain before a full domain drew its candidates
    in stacked calls."""
    full = phi.domain.dim == phi.dim**2
    produced = 0
    attempts = 0
    budget = 50 * n_samples + 200
    while produced < n_samples and attempts < budget:
        attempts += 1
        rho = reference_pure_state(phi.domain.layout, rng)
        if not full:
            projected = phi.domain.project(rho)
            hermitized = (projected + projected.dagger()) * 0.5
            tr = hermitized.trace().real
            if abs(tr) < 0.1:
                continue
            rho = hermitized / tr
            if not (phi.domain.contains(rho) and rho.is_density(phi.tol.state_tol)):
                continue
        produced += 1
        yield rho


@pytest.mark.parametrize("seed", [1, 7, 20260811])
@pytest.mark.parametrize(
    "make",
    [
        lambda: identity_map((2,)),
        lambda: identity_map((3,)),
        lambda: identity_map((2, 2)),
        lambda: identity_map((2, 3)),
        lambda: identity_map((8,)),
        lambda: derive_map(gibbs_subspace(), controlled_phase_unitary(0.7)),  # a proper domain
    ],
    ids=["qubit", "qutrit", "two_qubits", "qubit_qutrit", "dim8", "proper"],
)
@pytest.mark.parametrize("n_samples", [1, 7, 64, 65, 1020])
def test_random_domain_states_match_the_state_by_state_loop(make, seed, n_samples):
    phi = make()
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stacks = list(_random_domain_states(phi, n_samples, rng))
    reference = list(reference_random_domain_states(phi, n_samples, reference_rng))
    assert all(len(stack) <= _SCAN_BLOCK for stack in stacks)
    states = [rho for stack in stacks for rho in stack]
    assert len(states) == len(reference) > 0
    for rho, ref in zip(states, reference):
        assert_same_bits(rho, ref.entries)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 5, 64])
def test_random_domain_states_stop_at_the_budget_when_no_candidate_survives(n):
    # a |0><0| + b X over its trace a has eigenvalues 1/2 +- sqrt(1/4 + (b/a)^2), one negative
    domain = span_from_generators([ket_projector(np.array([1.0, 0.0]), 2), PAULI_X])
    phi = map_from_action(lambda x: x, domain)
    rng, reference_rng, budget_rng = (np.random.default_rng(3) for _ in range(3))
    assert sum(len(stack) for stack in _random_domain_states(phi, n, rng)) == 0
    assert list(reference_random_domain_states(phi, n, reference_rng)) == []
    for _ in range(50 * n + 200):
        reference_pure_state(phi.domain.layout, budget_rng)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert rng.bit_generator.state == budget_rng.bit_generator.state


@pytest.mark.parametrize(
    "make",
    [transpose_map, lambda: derive_map(gibbs_subspace(), controlled_phase_unitary(0.7))],
    ids=["transpose", "proper"],
)
def test_scan_and_sample_build_an_operator_only_per_member(monkeypatch, make):
    built = []
    original = Operator.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Operator, "__post_init__", counting)
    phi = make()
    built.clear()
    assert not positivity_scan(phi, 64, seed=5).violation_found
    assert built == []
    sample = sample_positive_domain(phi, 12, seed=5)
    assert len(sample.members) == 12
    assert len(built) == 2 + 12  # the centre (identity, then / 2) and each member


# -- the violations experiment, one Operator chain per pair ----------------------------


def reference_schatten_distance(t1, t2, p):
    s = np.linalg.svd(t1.entries - t2.entries, compute_uv=False)
    if p == math.inf:
        return float(s[0])
    return float(2.0 ** (-1.0 / p) * (np.sum(s**p)) ** (1.0 / p))


def reference_relative_entropy(t1, t2, tol):
    for name, t in (("t1", t1), ("t2", t2)):
        if not t.is_density(tol.state_tol):
            raise ValueError(f"relative_entropy requires density matrices; {name} is not one")
    cut = tol.entropy_support_tol
    p, u = np.linalg.eigh((t1.entries + t1.entries.conj().T) / 2)
    q, v = np.linalg.eigh((t2.entries + t2.entries.conj().T) / 2)
    p = np.clip(p, 0.0, None)
    q = np.clip(q, 0.0, None)
    overlap = np.abs(u.conj().T @ v) ** 2
    mass_outside = float(p @ overlap[:, q <= cut].sum(axis=1)) if np.any(q <= cut) else 0.0
    if mass_outside > tol.residual_tol:
        return math.inf
    p_supp = p > cut
    q_supp = q > cut
    s1 = float(np.sum(p[p_supp] * np.log(p[p_supp])))
    cross = float(p[p_supp] @ overlap[np.ix_(p_supp, q_supp)] @ np.log(q[q_supp]))
    return s1 - cross


def reference_contractivity_ratio(phi, r1, r2):
    din = reference_schatten_distance(r1, r2, 1)
    dout = reference_schatten_distance(phi.apply(r1), phi.apply(r2), 1)
    return None if din == 0.0 else dout / din


def reference_uhlmann_check(phi, r1, r2):
    tol = phi.tol
    for name, r in (("r1", r1), ("r2", r2)):
        if not positive_domain_membership(phi, r):
            raise ValueError(f"{name} is not in the map's positive domain")
        if r.min_eigenvalue() <= tol.entropy_support_tol:
            raise ValueError(f"{name} must be full rank for the relative-entropy check")
    s_in = reference_relative_entropy(r1, r2, tol)
    s_out = reference_relative_entropy(phi.apply(r1), phi.apply(r2), tol)
    if math.isinf(s_in) or abs(s_in) <= 10 * tol.entropy_support_tol:
        return s_in, s_out, None
    return s_in, s_out, s_out / s_in


def reference_violation_sample(epsilon, pairs, rng, tol):
    phi, inverse = repolarizer(epsilon, tol), depolarizer(epsilon, tol)

    def ball(eps):
        return reference_ball_pair(rng, lambda g: eps * g.uniform(0.0, 1.0) ** (1.0 / 3.0))

    def interior():
        return reference_ball_pair(rng, lambda g: epsilon * 0.5 * g.uniform(0.3, 1.0))

    contraction = [reference_contractivity_ratio(phi, *ball(epsilon)) for _ in range(pairs)]
    checks = [reference_uhlmann_check(phi, *interior()) for _ in range(pairs)]
    control = [reference_contractivity_ratio(inverse, *ball(1.0)) for _ in range(pairs)]
    return (
        [r for r in contraction if r is not None],
        [ratio for _, _, ratio in checks if ratio is not None],
        not any(s_out > s_in + tol.residual_tol for s_in, s_out, _ in checks),
        [r for r in control if r is not None],
    )


_FLOOR = _smallest_state_checkable_epsilon(DEFAULT_TOL)


@pytest.mark.parametrize(
    "epsilon, pairs, seed",
    [
        (0.1, 5, 119253155),  # the `violations` argv of the cli benchmark workload at seed 7
        (0.5, 20, 0),
        (0.25, 1, 3),
        (1.0, 4, 11),
        (0.1, 0, 5),  # no pair: nothing drawn, no ratio, monotone
        (_FLOOR, 5, 0),  # every input entropy at noise level: no entropy ratio is defined
    ],
)
def test_violation_sample_matches_the_pair_by_pair_loop(epsilon, pairs, seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _violation_sample(epsilon, pairs, rng, DEFAULT_TOL)
    want = reference_violation_sample(epsilon, pairs, reference_rng, DEFAULT_TOL)
    for i in (0, 1, 3):  # the contraction, entropy and control ratios
        assert all(type(r) is float for r in got[i])
        assert [float.hex(r) for r in got[i]] == [float.hex(r) for r in want[i]]
    assert got[2] is want[2]
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    if epsilon == _FLOOR:
        assert got[1] == [] and len(got[0]) == len(got[3]) == pairs


@pytest.mark.parametrize("epsilon", [1e-7, 1e-300])  # below the floor, which callers refuse
def test_violation_sample_refuses_as_the_pair_by_pair_loop_does(epsilon):
    with pytest.raises(ValueError) as want:
        reference_violation_sample(epsilon, 5, np.random.default_rng(0), DEFAULT_TOL)
    with pytest.raises(ValueError) as got:
        _violation_sample(epsilon, 5, np.random.default_rng(0), DEFAULT_TOL)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_schatten_distance_matches_the_former_formula(rng, p):
    for dims in ((2,), (2, 2), (2, 3, 2)):
        for _ in range(5):
            r1, r2 = (_random_hermitian(dims, int(rng.integers(2**32))) for _ in "ab")
            assert float.hex(schatten_distance(r1, r2, p)) == float.hex(
                reference_schatten_distance(r1, r2, p)
            )


def test_relative_entropy_matches_the_former_formula(rng):
    for dims in (2, (2, 2)):
        pure = random_density(dims, rng, rank=1)
        states = [random_density(dims, rng) for _ in range(6)] + [pure]
        for t1 in states:
            for t2 in states:
                assert float.hex(relative_entropy(t1, t2)) == float.hex(
                    reference_relative_entropy(t1, t2, DEFAULT_TOL)
                )
