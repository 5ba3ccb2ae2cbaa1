"""The float consistency code against the exact Q[i] oracle of ``exact.py``."""

import random

import numpy as np
import pytest

import exact
from beyondcp import SpaceLayout, UnitaryFamily, consistent_kernel, operator

Z_X = exact.kron(exact.matrix([[1, 0], [0, -1]]), exact.matrix([[0, 1], [1, 0]]))


def float_kernel_dim(dims, unitaries):
    family = UnitaryFamily(tuple(operator(exact.to_complex(u), dims) for u in unitaries))
    return consistent_kernel(family, SpaceLayout(dims)).dim


def test_the_oracle_takes_the_complex_rank():
    # the rows are proportional over C but not over R: complex rank 1, real rank 2
    assert exact.rank(exact.matrix([[1, 1j], [1j, -1]])) == 1
    assert exact.rank(exact.matrix([[1, 1j], [1, -1j]])) == 2
    assert exact.rank(exact.matrix([[0, 0], [0, 0]])) == 0


@pytest.mark.parametrize("n, seed", [(2, 1), (4, 11), (6, 12)])
def test_cayley_unitaries_are_exactly_unitary(n, seed):
    u = exact.cayley_unitary(n, random.Random(seed))
    assert exact.is_unitary(u)
    as_float = exact.to_complex(u)
    assert np.linalg.norm(as_float.conj().T @ as_float - np.eye(n)) <= 1e-14
    assert exact.dagger(u) != u  # not Hermitian: a generic draw, not an involution


@pytest.mark.parametrize(
    "dims, members, seed, expected",
    [((2, 2), 1, 11, 9), ((2, 2), 2, 11, 6), ((2, 2), 3, 11, 3), ((2, 3), 2, 12, 26)],
)
def test_consistent_kernel_dimension_is_the_exact_one(dims, members, seed, expected):
    # generic families: N^2 - (f + 1) m^2 + f
    rng = random.Random(seed)
    unitaries = [exact.cayley_unitary(dims[0] * dims[1], rng) for _ in range(members)]
    assert exact.consistent_kernel_dim(dims, unitaries) == expected
    assert float_kernel_dim(dims, unitaries) == expected


def test_a_local_member_keeps_the_larger_exact_kernel():
    # Tr_B(W X W^dag) = W_S Tr_B(X) W_S^dag for W = W_S (x) W_B, so the member adds no
    # constraint: the kernel is all of ker Tr_B, 16 - 4 = 12, above the generic 9
    rng = random.Random(5)
    w = exact.kron(exact.cayley_unitary(2, rng), exact.cayley_unitary(2, rng))
    assert exact.is_unitary(w)
    assert exact.consistent_kernel_dim((2, 2), [w]) == 12
    assert float_kernel_dim((2, 2), [w]) == 12


def test_the_near_cut_pair_is_exactly_inconsistent():
    # span{1/4, 1/4 + delta Z(x)X} has the trace kernel span{Z(x)X} for every delta != 0,
    # since Tr_B(Z(x)X) = Z Tr X = 0; it is consistent with U iff Tr_B(U Z(x)X U^dag) = 0
    u = exact.cayley_unitary(4, random.Random(11))
    zero = exact.matrix([[0, 0], [0, 0]])
    assert exact.bath_trace(Z_X, (2, 2)) == zero
    evolved = exact.matmul(exact.matmul(u, Z_X), exact.dagger(u))
    assert exact.bath_trace(evolved, (2, 2)) != zero
