"""Linear-subspace machinery over operator spaces in Hilbert-Schmidt geometry.

Subspaces are stored as matrices of vectorized operators: the generators and an
orthonormal basis from their SVD; the ``basis`` and ``generators`` tuples of
``Operator`` are built from the columns on first read.  Rank decisions are
relative: singular values at or below ``rank_cut`` times the largest singular
value are discarded, because generator scales can vary wildly (for example
across inverse temperatures in a thermal family).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .operators import (
    Operator,
    SpaceLayout,
    _as_layout,
    _check_same_layout,
    _columns,
    _min_eigenvalues,
    _reduced_evolution,
    _stacked,
    _stored,
    _unvec_stack,
    tensor,
    unvec,
    vec,
)

__all__ = [
    "OperatorSubspace",
    "span_from_generators",
    "full_operator_space",
    "subspace_sum",
    "subspace_intersection",
    "subspace_leq",
    "subspaces_equal",
    "kernel_of_partial_trace",
    "symmetric_sector",
    "check_state_spanned",
]


@dataclass(frozen=True, eq=False)
class OperatorSubspace:
    """A subspace of an operator space with an orthonormal basis.

    ``_basis_matrix`` (N^2, dim) holds the vectorized basis, orthonormal under the
    Hilbert-Schmidt inner product; ``_generator_matrix`` (N^2, g) the spanning set
    the subspace was built from, by default the basis.  Both are read-only copies.
    """

    layout: SpaceLayout
    _basis_matrix: np.ndarray
    _generator_matrix: np.ndarray | None = None
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self) -> None:
        b = self._frozen(self._basis_matrix)
        g = b if self._generator_matrix is None else self._frozen(self._generator_matrix)
        object.__setattr__(self, "_basis_matrix", b)
        object.__setattr__(self, "_generator_matrix", g)
        gram = b.conj().T @ b
        if not (float(np.linalg.norm(gram - np.eye(b.shape[1]))) <= self.tol.residual_tol):
            raise ValueError("basis is not orthonormal within residual_tol")
        if g is not b and not self._contains_columns(g):  # a basis lies in its own span
            raise ValueError("a generator lies outside the span of the basis")

    def _frozen(self, cols) -> np.ndarray:
        m = _stored(cols)
        if m.ndim != 2 or m.shape[0] != self.layout.total_dim**2:
            raise ValueError(f"subspace columns of shape {m.shape} do not match the layout")
        return m

    @cached_property
    def basis(self) -> tuple[Operator, ...]:
        return _operators(self.layout, self._basis_matrix)

    @cached_property
    def generators(self) -> tuple[Operator, ...]:
        g = self._generator_matrix
        return self.basis if g is self._basis_matrix else _operators(self.layout, g)

    @property
    def dim(self) -> int:
        return self._basis_matrix.shape[1]

    def basis_matrix(self) -> np.ndarray:
        """Columns are the vectorized basis operators, shape (N^2, dim)."""
        return self._basis_matrix

    def _coordinates_of(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinates of vectorized operators, their out-of-span residuals, and
        whether each lies in the span: residual <= residual_tol * max(1, norm).

        ``cols`` is an (N^2, k) block, giving (dim, k), (k,) and (k,), or a
        (k, N^2, 1) stack of columns, giving (k, dim, 1), (k, 1) and (k, 1).
        """
        b = self.basis_matrix()
        coeffs = b.conj().T @ cols
        residuals = np.linalg.norm(cols - b @ coeffs, axis=-2)
        bound = self.tol.residual_tol * np.maximum(1.0, np.linalg.norm(cols, axis=-2))
        return coeffs, residuals, residuals <= bound

    def _column(self, a: Operator) -> np.ndarray:
        """vec(a) as an (N^2, 1) block, refusing a layout mismatch."""
        _check_same_layout(a, self)
        return vec(a.entries)[:, None]

    def coordinates(self, a: Operator) -> tuple[np.ndarray, float]:
        """Coordinates of ``a`` in the basis plus the out-of-span residual."""
        coeffs, residual, _ = self._coordinates_of(self._column(a))
        return coeffs[:, 0], float(residual[0])

    def project(self, a: Operator) -> Operator:
        coeffs, _ = self.coordinates(a)
        return Operator(self.layout, unvec(self.basis_matrix() @ coeffs, self.layout.total_dim))

    def contains(self, a: Operator) -> bool:
        """True iff ||A - proj(A)|| <= residual_tol * max(1, ||A||)."""
        return self._contains_columns(self._column(a))

    def _contains_columns(self, cols: np.ndarray) -> bool:
        """``contains`` for every column of an (N^2, k) block or (k, N^2, 1) stack."""
        return bool(np.all(self._coordinates_of(cols)[2]))


def _numerical_rank(s: np.ndarray, cut: float, floor: float | None = None) -> int:
    if s.size == 0:
        return 0
    scale = float(s[0])
    if floor is not None:
        scale = max(scale, floor)
    return int(np.sum(s > cut * scale))


_QR_NULL_SPACE_COLUMNS = 100  # from here on the QR route below beats a full SVD


def _null_space(a: np.ndarray, cut: float) -> np.ndarray:
    """Orthonormal columns spanning the null space of ``a`` (k, n).

    The rank r counts the singular values of ``a`` above ``cut`` times the
    largest, with that scale floored at 1 so that the cutoff stays meaningful
    when ``a`` is numerically zero.  Below ``_QR_NULL_SPACE_COLUMNS`` columns
    the basis is the tail of a full SVD's right factor.  From there on that
    n x n factor costs more than the route that skips it: Householder QR gives
    a^dag = H [R; 0], where H = 1 - V T V^dag holds m = min(k, n) reflectors and
    T^-1 is the strict upper triangle of V^dag V plus diag(1 / tau).  R has the
    singular values of ``a``, and the null space is H applied to the last m - r
    left singular vectors of R and to the trailing n - m unit vectors.  At a
    (80, 256) consistent-kernel stack that takes a third less time, at
    (80, 1024) a quarter of it; the two bases differ by a unitary rotation.
    """
    k, n = a.shape
    if n < _QR_NULL_SPACE_COLUMNS:
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        return vh[_numerical_rank(s, cut, floor=1.0) :].conj().T
    m = min(k, n)
    h, tau = np.linalg.qr(a.conj().T, mode="raw")  # h.T packs R and V, as LAPACK's geqrf
    packed = h.T
    u, s, _ = np.linalg.svd(np.triu(packed[:m]), full_matrices=False)
    r = _numerical_rank(s, cut, floor=1.0)
    v = np.tril(packed[:, :m], -1) + np.eye(n, m)
    unit = tau == 0  # such a reflector is the identity, so it is dropped
    v[:, unit] = 0
    t_inv = np.triu(v.conj().T @ v, 1) + np.diag(1 / np.where(unit, 1, tau))
    small = u[:, r:]
    c = np.zeros((n, n - r), dtype=complex)
    c[:m, : m - r] = small
    c[m:, m - r :] = np.eye(n - m)
    v_dag_c = np.hstack([v[:m].conj().T @ small, v[m:].conj().T])
    return c - v @ (np.linalg.inv(t_inv) @ v_dag_c)


def _dagger_columns(cols: np.ndarray, n: int) -> np.ndarray:
    """vec(X^dag) for each column vec(X) of ``cols``."""
    return _columns(_unvec_stack(cols.T, n).conj().swapaxes(-1, -2))


def _operators(layout: SpaceLayout, cols: np.ndarray) -> tuple[Operator, ...]:
    """The operators whose vectorizations are the columns of ``cols``."""
    n = layout.total_dim
    return tuple(Operator(layout, unvec(c, n)) for c in cols.T)


def _span_of_columns(
    layout: SpaceLayout, cols: np.ndarray, tol: ToleranceConfig, floor: float | None = None
) -> OperatorSubspace:
    """The span of the vectorized operators ``cols`` (N^2, g), which become its generators."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return OperatorSubspace(layout, u[:, : _numerical_rank(s, tol.rank_cut, floor)], cols, tol)


def span_from_generators(
    generators, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorSubspace:
    """Orthonormalize a spanning set by SVD with relative rank cutoff."""
    generators = tuple(generators)
    if not generators:
        raise ValueError("span_from_generators requires at least one generator")
    return _span_of_columns(generators[0].layout, _columns(_stacked(generators)), tol)


def full_operator_space(dims, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSubspace:
    """The whole operator algebra, with the matrix units as basis."""
    layout = _as_layout(dims)
    return OperatorSubspace(layout, np.eye(layout.total_dim**2), tol=tol)


def subspace_sum(v: OperatorSubspace, w: OperatorSubspace) -> OperatorSubspace:
    _check_same_layout(v, w)
    return _span_of_columns(v.layout, np.hstack([v.basis_matrix(), w.basis_matrix()]), v.tol)


def subspace_intersection(v: OperatorSubspace, w: OperatorSubspace) -> OperatorSubspace:
    """B_w times the null space of (1 - P_v) B_w, whose singular values are the sines
    of the principal angles between w and v (Bjorck & Golub, 1973)."""
    _check_same_layout(v, w)
    bv, bw = v.basis_matrix(), w.basis_matrix()
    residual = bw - bv @ (bv.conj().T @ bw)
    return OperatorSubspace(v.layout, bw @ _null_space(residual, v.tol.rank_cut), tol=v.tol)


def subspace_leq(v: OperatorSubspace, w: OperatorSubspace) -> bool:
    """True iff every basis element of v lies in w."""
    _check_same_layout(v, w)
    return w._contains_columns(v.basis_matrix().T[:, :, None])  # one product per element


def subspaces_equal(v: OperatorSubspace, w: OperatorSubspace) -> bool:
    return v.dim == w.dim and subspace_leq(v, w) and subspace_leq(w, v)


def _keep_indices(layout: SpaceLayout, bath_factor: int) -> tuple[int, ...]:
    """The factors left after tracing out the bath factor, the one check that it names
    one of two or more factors."""
    if layout.n_factors < 2:
        raise ValueError("a bath trace needs at least two tensor factors")
    if not 0 <= bath_factor < layout.n_factors:
        raise ValueError(f"bath factor {bath_factor} out of range")
    return tuple(i for i in range(layout.n_factors) if i != bath_factor)


def kernel_of_partial_trace(
    v: OperatorSubspace, bath_factor: int = 1
) -> OperatorSubspace:
    """The elements of v whose bath partial trace vanishes.

    Computed as the basis times the null space of the bath traces of the
    whole basis stack, taken at once.  The returned basis is orthonormal.
    """
    b = v.basis_matrix()
    t = _reduced_evolution(b, v.layout.dims, _keep_indices(v.layout, bath_factor))
    return OperatorSubspace(v.layout, b @ _null_space(t, v.tol.rank_cut), tol=v.tol)


def symmetric_sector(r: OperatorSubspace) -> OperatorSubspace:
    """Span{B_i x B_j + B_j x B_i : i <= j} on the doubled layout.

    This is the +1 eigenspace of conjugation by SWAP inside the doubled
    subspace; its dimension is d(d+1)/2 for d = dim r.
    """
    if r.layout.n_factors != 1:
        raise ValueError("symmetric_sector expects a single-factor operator subspace")
    gens = [tensor(bi, bj) + tensor(bj, bi) for i, bi in enumerate(r.basis) for bj in r.basis[i:]]
    doubled = r.layout.concat(r.layout)
    m = doubled.total_dim  # the reshape keeps an empty list a (0, m, m) stack
    return _span_of_columns(doubled, _columns(_stacked(gens).reshape(-1, m, m)), r.tol)


def check_state_spanned(
    v: OperatorSubspace, positive_witness: Operator | None = None
) -> bool:
    """Sufficient check that a subspace is spanned by density matrices.

    Verifies (a) closure under adjoints and (b) presence of a strictly
    positive element: the identity if it lies in v, the supplied witness, or
    the projection of the identity into v.  A dagger-closed subspace
    containing a strictly positive element is spanned by states (small
    Hermitian perturbations of that element stay positive).  ``False`` means
    "not verified", not "disproved".
    """
    if v.dim == 0:
        return False
    n = v.layout.total_dim
    if not v._contains_columns(_dagger_columns(v.basis_matrix(), n)):
        return False
    ident = vec(np.eye(n, dtype=complex))[:, None]
    if v._contains_columns(ident):
        return True
    if positive_witness is not None:
        if v.contains(positive_witness) and positive_witness.min_eigenvalue() > v.tol.psd_slack:
            return True
    projected = unvec(v.basis_matrix() @ v._coordinates_of(ident)[0][:, 0], n)
    h = (projected + projected.conj().T) * complex(0.5)
    return v._contains_columns(vec(h)[:, None]) and float(_min_eigenvalues(h)) > v.tol.psd_slack
