"""Seeded random generators for states, unitaries, and channels."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .operators import Operator, _as_layout

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
    return Operator(layout, _random_pure_states(layout.total_dim, 1, rng)[0])


def _random_pure_states(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k random pure states on C^n as one (k, n, n) stack; ``random_pure_state`` is its
    one-state call.  One standard_normal((k, 2, n)) call reads the generator as k calls of one
    state do, each state's real then imaginary parts in ``_ginibre``'s order, and each norm is
    a dot per row, as ``np.linalg.norm`` takes it for one vector."""
    z = rng.standard_normal((k, 2, n))
    v = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2)
    re, im = v.real[:, None], v.imag[:, None]
    v = v / np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
    return v[:, :, None] * v.conj()[:, None, :]


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
    return [Operator(layout, p) for p in _axis_grid_projectors(layout.total_dim)]


def _axis_grid_projectors(n: int) -> np.ndarray:
    """The states of ``axis_grid_states`` on C^n as one (k, n, n) stack."""
    i, j = np.nonzero(np.less.outer(range(n), range(n)))  # the pairs i < j, row-major
    amps = np.eye(n, dtype=complex)[[*range(n), *np.repeat(i, 4)]]
    amps[range(n, len(amps)), np.repeat(j, 4)] = [1.0, -1.0, 1j, -1j] * len(i)
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return amps[:, :, None] * amps.conj()[:, None, :]
