"""Catalog operators spelled from the Pauli-product table, against the spelled-out products.

The reference functions below build every two-qubit Pauli product with a fresh
``tensor`` call, as the catalog did before it read them from one table.  They
keep the same coefficients and the same order of operations, so the catalog
must agree with them bit for bit.
"""

import math

import numpy as np
import pytest

from beyondcp import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, identity, span_from_generators, tensor
from beyondcp.catalog import (
    GibbsParams,
    RepolarizerParams,
    controlled_phase_generator,
    controlled_phase_unitary,
    gibbs_hamiltonian,
    gibbs_state_closed_form,
    repolarizer_subspace,
    transpose_subspace,
)
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
