"""Catalog operators spelled from the Pauli-product table, against the spelled-out products.

The reference functions below build every two-qubit Pauli product with a fresh
``tensor`` call, as the catalog did before it read them from one table.  They
keep the same coefficients and the same order of operations, so the catalog
must agree with them bit for bit.  The thermal states are built the same way,
one ``Operator`` and one eigendecomposition at a time, against the stacked
``_gibbs_states`` and ``_gibbs_closed_forms``.
"""

import contextlib
import io
import json
import math

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
    span_from_generators,
    tensor,
    zero,
)
from beyondcp.catalog import (
    GibbsParams,
    RepolarizerParams,
    controlled_phase_generator,
    controlled_phase_unitary,
    gibbs_hamiltonian,
    gibbs_state_closed_form,
    gibbs_subspace,
    repolarizer_subspace,
    transpose_subspace,
)
from beyondcp.cli import run_cli
from beyondcp.config import DEFAULT_TOL

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
