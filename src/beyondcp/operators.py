"""Dense complex operator algebra on small multipartite Hilbert spaces.

Operators are square complex matrices tagged with an ordered tensor-factor
layout.  The convention throughout the package: factor 0 is the system, factor
1 the bath, factor 2 (when present) a witness.  Vectorization is column
stacking (Fortran order) and the inner product is Hilbert-Schmidt,
``<A, B> = Tr(A^dag B)``; coordinates produced anywhere in the package are
interchangeable because both conventions are fixed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "SpaceLayout",
    "Operator",
    "operator",
    "identity",
    "zero",
    "matrix_unit",
    "ket_projector",
    "bell_projector",
    "swap_unitary",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "vec",
    "unvec",
    "tensor",
    "partial_trace",
    "trace_out",
    "adjoint_action",
    "gibbs_state",
    "schatten_distance",
    "relative_entropy",
]


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered tensor-factor dimensions of a multipartite operator space."""

    dims: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dimensions must be positive integers, got {dims}")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != len(dims):
                raise ValueError("labels must match the number of factors")
            object.__setattr__(self, "labels", labels)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def concat(self, other: "SpaceLayout") -> "SpaceLayout":
        labels = None
        if self.labels is not None and other.labels is not None:
            labels = self.labels + other.labels
        return SpaceLayout(self.dims + other.dims, labels)

    def subset(self, keep: Sequence[int]) -> "SpaceLayout":
        labels = tuple(self.labels[i] for i in keep) if self.labels is not None else None
        return SpaceLayout(tuple(self.dims[i] for i in keep), labels)


def _as_layout(layout: SpaceLayout | Sequence[int] | int) -> SpaceLayout:
    if isinstance(layout, SpaceLayout):
        return layout
    if isinstance(layout, int):
        return SpaceLayout((layout,))
    return SpaceLayout(tuple(layout))


@dataclass(frozen=True, eq=False)
class Operator:
    """A square complex matrix together with its tensor-factor layout.

    Values are immutable: the entries are stored as a read-only column-major copy
    (:func:`_stored`), so operators can be shared freely across threads.
    """

    layout: SpaceLayout
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = _stored(self.entries)
        n = self.layout.total_dim
        if entries.shape != (n, n):
            raise ValueError(
                f"entries shape {entries.shape} does not match layout dimension {n}"
            )
        object.__setattr__(self, "entries", entries)

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def hs_norm(self) -> float:
        """Hilbert-Schmidt (Frobenius) norm."""
        return float(np.linalg.norm(self.entries))

    def hs_inner(self, other: "Operator") -> complex:
        """Hilbert-Schmidt inner product Tr(self^dag other)."""
        _check_same_layout(self, other)
        return complex(np.vdot(self.entries, other.entries))

    def dagger(self) -> "Operator":
        return Operator(self.layout, self.entries.conj().T)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the Hermitian part."""
        return float(_min_eigenvalues(self.entries))

    # -- tolerance-parameterized predicates ---------------------------------

    def is_hermitian(self, tol: float = DEFAULT_TOL.residual_tol) -> bool:
        return float(_hermiticity_residuals(self.entries)) <= tol

    def is_unitary(self, tol: float = DEFAULT_TOL.residual_tol) -> bool:
        return self.unitarity_residual() <= tol

    def is_density(self, tol: float = DEFAULT_TOL.residual_tol) -> bool:
        return bool(_density_mask(self.entries[None], tol, tol)[0])

    def unitarity_residual(self) -> float:
        return float(_unitarity_residuals(self.entries))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Operator") -> "Operator":
        _check_same_layout(self, other)
        return Operator(self.layout, self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        _check_same_layout(self, other)
        return Operator(self.layout, self.entries - other.entries)

    def __neg__(self) -> "Operator":
        return Operator(self.layout, -self.entries)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.layout, self.entries * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "Operator":
        return Operator(self.layout, self.entries / complex(scalar))

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_same_layout(self, other)
        return Operator(self.layout, self.entries @ other.entries)


def _stored(values) -> np.ndarray:
    """A read-only complex column-major copy.  Every stored matrix is one, because BLAS
    rounds differently by memory order and results must not depend on the producer's."""
    m = np.array(values, dtype=complex, order="F")
    m.setflags(write=False)
    return m


def _min_eigenvalues(entries: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each matrix of an (..., n, n) stack.

    One eigvalsh call; each matrix gets the arithmetic it gets alone.
    """
    return np.linalg.eigvalsh((entries + entries.conj().swapaxes(-1, -2)) / 2)[..., 0]


def _hermiticity_residuals(stack: np.ndarray) -> np.ndarray:
    """||A - A^dag|| of each matrix of an (..., n, n) stack, the same bits alone or stacked."""
    return np.linalg.norm(stack - stack.conj().swapaxes(-1, -2), axis=(-2, -1))


def _unitarity_residuals(stack: np.ndarray) -> np.ndarray:
    """||W^dag W - 1|| of each matrix of an (..., m, n) stack, the same bits alone or stacked;
    for a stacked Kraus column W = [M_0; M_1; ...], the completeness residual."""
    gram = stack.conj().swapaxes(-1, -2) @ stack
    return np.linalg.norm(gram - np.eye(stack.shape[-1]), axis=(-2, -1))


def _density_mask(
    stack: np.ndarray, tol: float, slack: float, lowest: np.ndarray | None = None
) -> np.ndarray:
    """Which matrices of a (k, n, n) stack are states, as a (k,) bool array: Hermitian and
    of unit trace within ``tol``, no eigenvalue below ``-slack``.  NaN gives False.
    ``lowest`` is the stack's ``_min_eigenvalues`` when the caller has taken them."""
    hermitian = _hermiticity_residuals(stack) <= tol
    unit_trace = np.abs(np.trace(stack, axis1=-2, axis2=-1) - 1.0) <= tol
    lowest = _min_eigenvalues(stack) if lowest is None else lowest
    return hermitian & unit_trace & (lowest >= -slack)


def _check_same_layout(a, b) -> None:
    """The one test of layout agreement; an operand is a SpaceLayout or has one as ``layout``."""
    a, b = getattr(a, "layout", a).dims, getattr(b, "layout", b).dims
    if a != b:
        raise ValueError(f"layout mismatch: {a} vs {b}")


# -- constructors ------------------------------------------------------------


def operator(entries: np.ndarray, dims: Sequence[int] | int, labels=None) -> Operator:
    layout = _as_layout(dims)
    if labels is not None:
        layout = SpaceLayout(layout.dims, tuple(labels))
    return Operator(layout, np.asarray(entries, dtype=complex))


def identity(dims: Sequence[int] | int) -> Operator:
    layout = _as_layout(dims)
    return Operator(layout, np.eye(layout.total_dim, dtype=complex))


def zero(dims: Sequence[int] | int) -> Operator:
    layout = _as_layout(dims)
    n = layout.total_dim
    return Operator(layout, np.zeros((n, n), dtype=complex))


def matrix_unit(i: int, j: int, dims: Sequence[int] | int) -> Operator:
    """|i><j| in the computational basis of the given layout."""
    layout = _as_layout(dims)
    n = layout.total_dim
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return Operator(layout, m)


def ket_projector(amplitudes: Sequence[complex], dims: Sequence[int] | int) -> Operator:
    """Normalized pure-state projector |psi><psi| from raw amplitudes."""
    v = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot build a projector from the zero vector")
    v = v / norm
    return operator(np.outer(v, v.conj()), dims)


def bell_projector() -> Operator:
    """Projector onto (|00> + |11>)/sqrt(2) on a qubit pair."""
    return ket_projector([1, 0, 0, 1], (2, 2))


def swap_unitary(d: int) -> Operator:
    """The SWAP unitary exchanging two factors of equal dimension d: the identity with the
    two row factors of its (d, d, d, d) reshape exchanged, so row (b, a) holds column (a, b)."""
    s = np.eye(d * d, dtype=complex).reshape(d, d, d, d).swapaxes(0, 1).reshape(d * d, d * d)
    return Operator(SpaceLayout((d, d)), s)


PAULI_I = identity(2)
PAULI_X = operator([[0, 1], [1, 0]], 2)
PAULI_Y = operator([[0, -1j], [1j, 0]], 2)
PAULI_Z = operator([[1, 0], [0, -1]], 2)
_PAULI_STACK = np.array([p.entries for p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)])


# -- vectorization -----------------------------------------------------------


def vec(entries: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization, fixed project-wide."""
    return np.asarray(entries, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((n, n), order="F")


def _vec_stack(stack: np.ndarray) -> np.ndarray:
    """vec of each matrix of a (k, n, n) stack, as a (k, n^2, 1) stack of columns.

    A product with such a stack is one matrix-vector product per column, so a
    column gets the same arithmetic as when it is the only one.
    """
    k, n, _ = stack.shape
    return stack.swapaxes(-1, -2).reshape(k, n * n, 1)


def _columns(stack: np.ndarray) -> np.ndarray:
    """vec of each matrix of a (k, n, n) stack, as the columns of an (n^2, k) block; k may be 0."""
    return _vec_stack(stack)[:, :, 0].T


def _stacked(ops: Sequence[Operator]) -> np.ndarray:
    """The entries of operators that share one layout, as one (k, N, N) array."""
    for op in ops[1:]:
        _check_same_layout(ops[0], op)
    return np.array([op.entries for op in ops])


def _unvec_stack(cols: np.ndarray, n: int) -> np.ndarray:
    """The (k, n, n) matrices of a (k, n^2, 1) stack of vectorized columns."""
    return cols.reshape(-1, n, n).swapaxes(-1, -2)


def _transposed_columns(cols: np.ndarray, n: int) -> np.ndarray:
    """K cols: vec(X^T) for each column vec X of an (n^2, k) block, the one part of the
    isometry M = Re X + Im X from Hermitian onto real n x n matrices that is not entrywise.
    Back, M gives X = (M + K M)/2 + i (M - K M)/2.  Forward, a C-linear map A (p, n^2) that
    sends Hermitian matrices to Hermitian ones is the real Re A + Im A K, with A's singular
    values."""
    return cols.reshape(n, n, -1).swapaxes(0, 1).reshape(n * n, -1)


# -- operations ---------------------------------------------------------------


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product with concatenated layouts."""
    return Operator(a.layout.concat(b.layout), np.kron(a.entries, b.entries))


def partial_trace(a: Operator, keep: Sequence[int] | int) -> Operator:
    """Trace out every factor not listed in ``keep``.

    The kept factors retain their original order; the trace of the result
    equals the trace of the input.
    """
    n = a.layout.n_factors
    if isinstance(keep, int):
        keep = (keep,)
    keep = tuple(sorted({int(k) for k in keep}))
    if not keep:
        raise ValueError("keep must name at least one factor")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"factor index out of range for {n} factors: {keep}")
    reduced = _reduced_evolution(vec(a.entries)[:, None], a.layout.dims, keep)
    m = math.prod(a.layout.dims[k] for k in keep)
    return Operator(a.layout.subset(keep), unvec(reduced[:, 0], m))


def _reduced_evolution(cols: np.ndarray, dims: tuple, keep: tuple, u=None) -> np.ndarray:
    """vec Tr_{not keep}(U X U^dag) for each column vec X of ``cols`` (N^2, k).

    Without ``u`` (U = 1) one einsum sums the traced axes of each X, read with
    axes ``dims + dims``, giving (m^2, k).  Otherwise ``cols`` is multiplied by
    :func:`_reduced_evolution_matrix`: (m^2, k) for one (N, N) unitary, (f, m^2, k)
    for a stack (f, N, N).
    """
    if u is not None:
        return _reduced_evolution_matrix(dims, keep, u) @ cols
    f, k = len(dims), cols.shape[1]  # axis labels: column factor i is i, row factor f + i
    rows = [f + i if i in keep else i for i in range(f)]
    out = [*keep, *(f + i for i in keep), 2 * f]
    m2 = math.prod(dims[i] for i in keep) ** 2  # not -1, which k = 0 leaves undetermined
    return np.einsum(cols.reshape(dims * 2 + (k,)), [*range(f), *rows, 2 * f], out).reshape(m2, k)


def _reduced_evolution_matrix(dims: tuple, keep: tuple, u: np.ndarray) -> np.ndarray:
    """The matrix of vec X -> vec Tr_{not keep}(U X U^dag), built from U alone.

    Entry [a + m b, k + N l] is sum_t U[(a,t), k] conj(U[(b,t), l]), with a, b
    over the kept factors and t over the traced ones (Watrous, ch. 2:
    vec(U X U^dag) = (conj(U) (x) U) vec X).  One (N, N) unitary gives
    (m^2, N^2); a stack (f, N, N) gives (f, m^2, N^2).
    """
    n = math.prod(dims)
    f = len(dims)  # axis labels: row factor i of U is i, of conj(U) is f + i or i if traced
    rows = [f + i if i in keep else i for i in range(f)]
    out = [*(f + i for i in keep), *keep, 2 * f + 1, 2 * f]
    t = u.reshape(u.shape[:-2] + dims + (n,))
    mat = np.einsum(t, [..., *range(f), 2 * f], t.conj(), [..., *rows, 2 * f + 1], [..., *out])
    m = math.prod(dims[k] for k in keep)
    return mat.reshape(u.shape[:-2] + (m * m, n * n))


def trace_out(a: Operator, drop: Sequence[int] | int) -> Operator:
    """Complement form of :func:`partial_trace`: trace out the listed factors."""
    if isinstance(drop, int):
        drop = (drop,)
    dropped = {int(d) for d in drop}
    keep = tuple(i for i in range(a.layout.n_factors) if i not in dropped)
    return partial_trace(a, keep)


def adjoint_action(u: Operator, a: Operator, tol: float = DEFAULT_TOL.residual_tol) -> Operator:
    """Unitary conjugation U A U^dag; refuses non-unitary U."""
    _check_same_layout(u, a)
    residual = u.unitarity_residual()
    if not (residual <= tol):
        raise ValueError(
            f"adjoint_action requires a unitary operator; ||U^dag U - 1|| = {residual:.3e}"
        )
    return Operator(a.layout, u.entries @ a.entries @ u.entries.conj().T)


def gibbs_state(h: Operator, beta: float, tol: float = DEFAULT_TOL.residual_tol) -> Operator:
    """Thermal state exp(-beta H) / Tr exp(-beta H); the one-element :func:`_gibbs_states`."""
    return Operator(h.layout, _gibbs_states(h.entries[None], [beta], tol)[0])


def _gibbs_states(h: np.ndarray, betas: Sequence[float], tol: float) -> np.ndarray:
    """Thermal states of a (k, N, N) stack of Hamiltonians at k betas: one eigh, each spectrum
    shifted so that its exponentials never overflow.  One bad member refuses the whole stack."""
    for beta in betas:
        if not math.isfinite(beta):
            raise ValueError(f"beta must be finite, got {beta!r}")
    for herm_residual in _hermiticity_residuals(h):
        if not (herm_residual <= tol):
            raise ValueError(
                f"gibbs_state requires a Hermitian Hamiltonian; ||H - H^dag|| = {herm_residual:.3e}"
            )
    w, v = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2)
    b = np.asarray(betas, dtype=float)[:, None]
    x = -b * (w - np.where(b >= 0, w.min(axis=-1, keepdims=True), w.max(axis=-1, keepdims=True)))
    p = np.exp(x)
    p /= p.sum(axis=-1, keepdims=True)
    return (v * p[:, None, :]) @ v.conj().swapaxes(-1, -2)


def schatten_distance(t1: Operator, t2: Operator, p: float) -> float:
    """Normalized Schatten distance 2^(-1/p) ||t1 - t2||_p via singular values; the one-pair
    :func:`_schatten_distances`.

    p = inf uses the largest singular value with normalization factor 1.
    """
    _check_same_layout(t1, t2)
    return _schatten_distances(t1.entries[None], t2.entries[None], p)[0]


def _require_schatten_p(p: float) -> None:
    """Refuse a Schatten exponent below 1; inf is the operator norm."""
    if not (p == math.inf or p >= 1):
        raise ValueError(f"p must be >= 1 or inf, got {p!r}")


def _schatten_distances(t1: np.ndarray, t2: np.ndarray, p: float) -> list[float]:
    """:func:`schatten_distance` of each pair of matrices of two (k, n, n) stacks: one svd, then
    each distance from its own row of singular values, with the arithmetic of one pair alone."""
    _require_schatten_p(p)
    s = np.linalg.svd(t1 - t2, compute_uv=False)
    if p == math.inf:
        return s[:, 0].tolist()
    scale = 2.0 ** (-1.0 / p)
    return [float(scale * total ** (1.0 / p)) for total in np.sum(s**p, axis=-1)]


def _refuse_first(*checks: tuple[np.ndarray, str]) -> None:
    """Raise ValueError with the message of the first failing check: each check is a (k,) bool
    array with its message, and the checks of pair 0 come first, in the order given, as in a
    loop that checks one pair at a time."""
    ok = np.array([mask for mask, _ in checks], dtype=bool)
    failed = np.flatnonzero(~ok.T)  # pair-major
    if failed.size:
        raise ValueError(checks[failed[0] % len(checks)][1])


def _require_states(t1: np.ndarray, t2: np.ndarray, tol: ToleranceConfig) -> None:
    """Refuse two (k, N, N) stacks unless every matrix is a state at ``tol.state_tol``; the
    message names t1 or t2, as :func:`relative_entropy` names its arguments."""
    _refuse_first(
        *(
            (_density_mask(t, tol.state_tol, tol.state_tol),
             f"relative_entropy requires density matrices; {name} is not one")
            for name, t in (("t1", t1), ("t2", t2))
        )
    )


def relative_entropy(
    t1: Operator, t2: Operator, tol: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Relative entropy S(t1 || t2) = Tr t1 (log t1 - log t2), natural log; the one-pair
    :func:`_relative_entropies`.

    Evaluated in the eigenbases of both states with eigenvalues below
    ``entropy_support_tol`` treated as zero.  Returns ``math.inf`` when the
    support of t1 is not contained in the support of t2.
    """
    _require_states(t1.entries[None], t2.entries[None], tol)
    _check_same_layout(t1, t2)
    return _relative_entropies(t1.entries[None], t2.entries[None], tol)[0]


def _relative_entropies(t1: np.ndarray, t2: np.ndarray, tol: ToleranceConfig) -> list[float]:
    """S(t1 || t2) for each pair of states of two (k, N, N) stacks that
    :func:`_require_states` accepts: one eigh of both stacks, then each pair's
    support-masked sums alone, with the arithmetic of one pair alone."""
    k, cut = len(t1), tol.entropy_support_tol
    both = np.concatenate([t1, t2])
    w, v = np.linalg.eigh((both + both.conj().swapaxes(-1, -2)) / 2)
    w = np.clip(w, 0.0, None)
    overlaps = np.abs(v[:k].conj().swapaxes(-1, -2) @ v[k:]) ** 2  # [i, j] = |<u_i | v_j>|^2
    entropies = []
    for p, q, overlap in zip(w[:k], w[k:], overlaps):
        mass_outside = float(p @ overlap[:, q <= cut].sum(axis=1)) if np.any(q <= cut) else 0.0
        if mass_outside > tol.residual_tol:
            entropies.append(math.inf)
            continue
        p_supp = p > cut
        q_supp = q > cut
        s1 = float(np.sum(p[p_supp] * np.log(p[p_supp])))
        cross = float(p[p_supp] @ overlap[np.ix_(p_supp, q_supp)] @ np.log(q[q_supp]))
        entropies.append(s1 - cross)
    return entropies
