"""Linear-subspace machinery over operator spaces in Hilbert-Schmidt geometry.

Subspaces are stored as orthonormal bases obtained from an SVD of the stacked,
vectorized generators.  Rank decisions are relative: singular values at or
below ``rank_cut`` times the largest singular value are discarded, because
generator scales can vary wildly (for example across inverse temperatures in a
thermal family).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .operators import (
    Operator,
    SpaceLayout,
    _reduced_evolution,
    identity,
    matrix_unit,
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

    ``basis`` is orthonormal under the Hilbert-Schmidt inner product;
    ``generators`` records the spanning set the subspace was built from.
    """

    layout: SpaceLayout
    basis: tuple[Operator, ...]
    generators: tuple[Operator, ...]
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self) -> None:
        basis = tuple(self.basis)
        generators = tuple(self.generators)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "generators", generators)
        for op in basis + generators:
            if op.layout.dims != self.layout.dims:
                raise ValueError("all subspace members must share the subspace layout")
        b = _vec_columns(basis, self.layout.total_dim)
        b.setflags(write=False)
        object.__setattr__(self, "_basis_matrix", b)
        gram = b.conj().T @ b
        if not (float(np.linalg.norm(gram - np.eye(len(basis)))) <= self.tol.residual_tol):
            raise ValueError("basis is not orthonormal within residual_tol")
        if generators is basis:  # an orthonormal basis lies in its own span
            return
        g = _vec_columns(generators, self.layout.total_dim)
        _, residuals = self._coordinates_of(g)
        bound = self.tol.residual_tol * np.maximum(1.0, np.linalg.norm(g, axis=0))
        if not np.all(residuals <= bound):
            raise ValueError("a generator lies outside the span of the basis")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> np.ndarray:
        """Columns are the vectorized basis operators, shape (N^2, dim).

        Built once: the subspace is immutable so the stacked matrix never changes.
        """
        return self._basis_matrix

    def _coordinates_of(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of vectorized operators and their out-of-span residuals.

        ``cols`` is an (N^2, k) block, giving (dim, k) and (k,), or a (k, N^2, 1)
        stack of columns, giving (k, dim, 1) and (k, 1).
        """
        b = self.basis_matrix()
        coeffs = b.conj().T @ cols
        return coeffs, np.linalg.norm(cols - b @ coeffs, axis=-2)

    def coordinates(self, a: Operator) -> tuple[np.ndarray, float]:
        """Coordinates of ``a`` in the basis plus the out-of-span residual."""
        if a.layout.dims != self.layout.dims:
            raise ValueError(f"layout mismatch: {a.layout.dims} vs {self.layout.dims}")
        coeffs, residual = self._coordinates_of(vec(a.entries)[:, None])
        return coeffs[:, 0], float(residual[0])

    def project(self, a: Operator) -> Operator:
        coeffs, _ = self.coordinates(a)
        return Operator(self.layout, unvec(self.basis_matrix() @ coeffs, self.layout.total_dim))

    def contains(self, a: Operator) -> bool:
        """True iff ||A - proj(A)|| <= residual_tol * max(1, ||A||)."""
        _, residual = self.coordinates(a)
        return residual <= self.tol.residual_tol * max(1.0, a.hs_norm())

    def from_coordinates(self, coeffs: np.ndarray) -> Operator:
        return Operator(self.layout, unvec(self.basis_matrix() @ np.asarray(coeffs), self.layout.total_dim))


def _numerical_rank(s: np.ndarray, cut: float, floor: float | None = None) -> int:
    if s.size == 0:
        return 0
    scale = float(s[0])
    if floor is not None:
        scale = max(scale, floor)
    return int(np.sum(s > cut * scale))


def _null_space(a: np.ndarray, cut: float) -> np.ndarray:
    """Orthonormal columns spanning the null space of ``a``.

    The floor keeps the cutoff meaningful when ``a`` is numerically zero.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return vh[_numerical_rank(s, cut, floor=1.0) :].conj().T


def _dagger_columns(cols: np.ndarray, n: int) -> np.ndarray:
    """vec(X^dag) for each column vec(X) of ``cols``."""
    stack = cols.reshape(n, n, -1, order="F")
    return stack.transpose(1, 0, 2).conj().reshape(n * n, -1, order="F")


def _vec_columns(ops, n: int) -> np.ndarray:
    return np.array([vec(op.entries) for op in ops], dtype=complex).reshape(len(ops), n * n).T


def _operators(layout: SpaceLayout, cols: np.ndarray) -> tuple[Operator, ...]:
    """The operators whose vectorizations are the columns of ``cols``."""
    n = layout.total_dim
    return tuple(Operator(layout, unvec(c, n)) for c in cols.T)


def span_from_generators(
    generators, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorSubspace:
    """Orthonormalize a spanning set by SVD with relative rank cutoff."""
    generators = tuple(generators)
    if not generators:
        raise ValueError("span_from_generators requires at least one generator")
    layout = generators[0].layout
    for g in generators[1:]:
        if g.layout.dims != layout.dims:
            raise ValueError("generators must share a single layout")
    m = _vec_columns(generators, layout.total_dim)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    basis = _operators(layout, u[:, : _numerical_rank(s, tol.rank_cut)])
    return OperatorSubspace(layout, basis, generators, tol)


def full_operator_space(dims, tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSubspace:
    """The whole operator algebra, with the matrix units as basis."""
    probe = identity(dims)
    n = probe.layout.total_dim
    units = tuple(matrix_unit(i, j, probe.layout) for j in range(n) for i in range(n))
    return OperatorSubspace(probe.layout, units, units, tol)


def subspace_sum(v: OperatorSubspace, w: OperatorSubspace) -> OperatorSubspace:
    if v.layout.dims != w.layout.dims:
        raise ValueError("subspace_sum requires matching layouts")
    gens = v.basis + w.basis
    if not gens:
        return OperatorSubspace(v.layout, (), (), v.tol)
    return span_from_generators(gens, v.tol)


def subspace_intersection(v: OperatorSubspace, w: OperatorSubspace) -> OperatorSubspace:
    """Intersection via the nullspace of the stacked projector complements."""
    if v.layout.dims != w.layout.dims:
        raise ValueError("subspace_intersection requires matching layouts")
    if v.dim == 0 or w.dim == 0:
        return OperatorSubspace(v.layout, (), (), v.tol)
    bv = v.basis_matrix()
    bw = w.basis_matrix()
    eye = np.eye(v.layout.total_dim**2, dtype=complex)
    stacked = np.vstack([eye - bv @ bv.conj().T, eye - bw @ bw.conj().T])
    # Vectors with singular value ~0 lie in both spaces.
    basis = _operators(v.layout, _null_space(stacked, v.tol.rank_cut))
    return OperatorSubspace(v.layout, basis, basis, v.tol)


def subspace_leq(v: OperatorSubspace, w: OperatorSubspace) -> bool:
    """True iff every basis element of v lies in w."""
    return all(w.contains(b) for b in v.basis)


def subspaces_equal(v: OperatorSubspace, w: OperatorSubspace) -> bool:
    return v.dim == w.dim and subspace_leq(v, w) and subspace_leq(w, v)


def kernel_of_partial_trace(
    v: OperatorSubspace, bath_factor: int = 1
) -> OperatorSubspace:
    """The elements of v whose bath partial trace vanishes.

    Computed as the nullspace of the partial-trace matrix applied to the
    whole basis stack at once.  The returned basis is orthonormal.
    """
    if v.layout.n_factors < 2:
        raise ValueError("kernel_of_partial_trace needs at least two tensor factors")
    if not 0 <= bath_factor < v.layout.n_factors:
        raise ValueError(f"bath factor {bath_factor} out of range")
    if v.dim == 0:
        return OperatorSubspace(v.layout, (), (), v.tol)
    keep = tuple(i for i in range(v.layout.n_factors) if i != bath_factor)
    b = v.basis_matrix()
    t = _reduced_evolution(b, v.layout.dims, keep)
    basis = _operators(v.layout, b @ _null_space(t, v.tol.rank_cut))
    return OperatorSubspace(v.layout, basis, basis, v.tol)


def symmetric_sector(r: OperatorSubspace) -> OperatorSubspace:
    """Span{B_i x B_j + B_j x B_i : i <= j} on the doubled layout.

    This is the +1 eigenspace of conjugation by SWAP inside the doubled
    subspace; its dimension is d(d+1)/2 for d = dim r.
    """
    if r.layout.n_factors != 1:
        raise ValueError("symmetric_sector expects a single-factor operator subspace")
    gens = []
    for i, bi in enumerate(r.basis):
        for bj in r.basis[i:]:
            gens.append(tensor(bi, bj) + tensor(bj, bi))
    if not gens:
        doubled = r.layout.concat(r.layout)
        return OperatorSubspace(doubled, (), (), r.tol)
    return span_from_generators(gens, r.tol)


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
    # The basis is orthonormal, so each residual bound is residual_tol itself.
    _, residuals = v._coordinates_of(_dagger_columns(v.basis_matrix(), v.layout.total_dim))
    if not np.all(residuals <= v.tol.residual_tol):
        return False
    ident = identity(v.layout)
    if v.contains(ident):
        return True
    if positive_witness is not None:
        if v.contains(positive_witness) and positive_witness.min_eigenvalue() > v.tol.psd_slack:
            return True
    projected = v.project(ident)
    hermitized = (projected + projected.dagger()) * 0.5
    return v.contains(hermitized) and hermitized.min_eigenvalue() > v.tol.psd_slack
