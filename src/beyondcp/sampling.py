"""Seeded random generators for states, unitaries, and channels."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .operators import Operator, _as_layout, ket_projector

__all__ = [
    "haar_unitary",
    "random_pure_state",
    "random_density",
    "random_kraus_channel",
    "axis_grid_states",
]


def _ginibre(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)


def haar_unitary(dims: Sequence[int] | int, rng: np.random.Generator) -> Operator:
    """Haar-distributed random unitary on the given layout."""
    layout = _as_layout(dims)
    n = layout.total_dim
    q, r = np.linalg.qr(_ginibre(n, n, rng))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return Operator(layout, q * phases)


def random_pure_state(dims: Sequence[int] | int, rng: np.random.Generator) -> Operator:
    layout = _as_layout(dims)
    v = _ginibre(layout.total_dim, 1, rng)[:, 0]
    return ket_projector(v, layout)


def random_density(
    dims: Sequence[int] | int, rng: np.random.Generator, rank: int | None = None
) -> Operator:
    """Random full-rank (by default) density matrix, Hilbert-Schmidt style."""
    layout = _as_layout(dims)
    n = layout.total_dim
    g = _ginibre(n, rank if rank is not None else n, rng)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return Operator(layout, rho)


def random_kraus_channel(
    dim: int, n_ops: int, rng: np.random.Generator
) -> list[Operator]:
    """Random trace-preserving channel as a list of Kraus operators.

    Built from a Haar-random isometry, so sum_i M_i^dag M_i = 1 exactly up to
    floating-point error.
    """
    q, _ = np.linalg.qr(_ginibre(dim * n_ops, dim, rng))
    layout = _as_layout(dim)
    return [Operator(layout, q[i * dim : (i + 1) * dim, :]) for i in range(n_ops)]


def axis_grid_states(dims: Sequence[int] | int) -> list[Operator]:
    """Deterministic pure-state grid: the projectors of the basis vectors, then of |i> + p |j>
    for each pair i < j and p in (1, -1, i, -i), pair-major.  For a qubit this is exactly the
    six Bloch-axis states."""
    layout = _as_layout(dims)
    n = layout.total_dim
    i, j = np.nonzero(np.less.outer(range(n), range(n)))  # the pairs i < j, row-major
    amps = np.eye(n, dtype=complex)[[*range(n), *np.repeat(i, 4)]]
    amps[range(n, len(amps)), np.repeat(j, 4)] = [1.0, -1.0, 1j, -1j] * len(i)
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return [Operator(layout, p) for p in amps[:, :, None] * amps.conj()[:, None, :]]
