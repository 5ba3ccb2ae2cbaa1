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
    the subspace was built from, by default the basis.  Both are read-only copies,
    except a basis that its producer hands over through :meth:`_taking`.
    ``_hermitian`` is set only by a producer that builds every basis element
    bitwise Hermitian, so that ``_gram`` need not test it.
    """

    layout: SpaceLayout
    _basis_matrix: np.ndarray
    _generator_matrix: np.ndarray | None = None
    tol: ToleranceConfig = DEFAULT_TOL
    _hermitian: bool = False

    def __post_init__(self) -> None:
        b = self._frozen(self._basis_matrix)
        g = b if self._generator_matrix is None else self._frozen(self._generator_matrix)
        object.__setattr__(self, "_basis_matrix", b)
        object.__setattr__(self, "_generator_matrix", g)
        self._check_orthonormal_span(b, g)

    @classmethod
    def _taking(
        cls, layout: SpaceLayout, basis: np.ndarray, tol: ToleranceConfig, hermitian: bool
    ) -> OperatorSubspace:
        """The subspace of ``basis``, which becomes its basis matrix and is not copied: for a
        producer that hands over a fresh complex column-major (N^2, dim) array and keeps no
        other reference to it.  The Gram check runs as in the constructor."""
        basis.setflags(write=False)
        subspace = object.__new__(cls)  # the frozen fields, set as __post_init__ sets them
        vars(subspace).update(
            layout=layout, _basis_matrix=basis, _generator_matrix=basis, tol=tol,
            _hermitian=hermitian,
        )
        subspace._check_orthonormal_span(basis, basis)
        return subspace

    @np.errstate(invalid="ignore", over="ignore")  # an inf or NaN entry: a NaN residual, refused
    def _check_orthonormal_span(self, b: np.ndarray, g: np.ndarray) -> None:
        gram = _gram(b, self.layout.total_dim, self._hermitian)
        gram.reshape(-1)[:: b.shape[1] + 1] -= 1  # B^dag B - 1 in place, on a diagonal view
        residual = float(np.linalg.norm(gram))
        if not residual <= self.tol.residual_tol:
            raise ValueError(
                f"basis is not orthonormal within residual_tol (||B^dag B - 1|| = "
                f"{residual!r}; residual_tol {self.tol.residual_tol!r})"
            )
        if g is not b:  # a basis lies in its own span
            _, residuals, inside = self._coordinates_of(g)
            if not np.all(inside):
                raise ValueError(
                    f"a generator lies outside the span of the basis (worst residual "
                    f"{np.max(residuals):.3e}; relative rank cut {self.tol.rank_cut!r})"
                )

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
    """How many of the descending singular values ``s`` are kept: s_i is kept iff
    s_i > cut * max(s_0, floor), the scale being s_0 alone when there is no floor."""
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
    left singular vectors of R and to the trailing n - m unit vectors.  At the
    real (80, 256) full stack of a (4,4) consistent kernel that takes a quarter to
    two fifths less time, at (80, 1024) about a sixth of it; the two bases
    differ by a unitary rotation.  R (m, p) keeps all m singular values when G - tau 1
    has a finite Cholesky factor, G = R R^dag, F = ||R||_F, S = max(F, 1) and
    tau = (cut S)^2 + 4 (p + 2) eps F^2: rounding in G, the shift and the factor moves
    the eigenvalues by less than 2 (p + 2) eps F^2 (Higham, Accuracy and Stability,
    Thm 10.5; Rump, BIT 46, 2006).  So a pass proves s_m^2 > (cut S)^2 + 2 (p + 2)
    eps F^2, hence the margin s_m - cut S > (p + 2) eps F, with cut S >= cut max(s_0, 1)
    as s_0 <= F.  That clears LAPACK's error f eps s_0 for f <= (p + 2) / (1 + cut),
    so the SVD's rank is m too; no NaN or inf passes.  Then no SVD runs and the null
    space is H applied to the trailing n - m unit vectors (none for a tall ``a``);
    otherwise R takes one SVD with left vectors, and ``_numerical_rank`` decides.
    The basis keeps the input's dtype: a real ``a`` gives real columns, with about a
    quarter of the complex flops.
    """
    k, n = a.shape
    if n < _QR_NULL_SPACE_COLUMNS:
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        return vh[_numerical_rank(s, cut, floor=1.0) :].conj().T
    m = min(k, n)
    h, tau = np.linalg.qr(a.conj().T, mode="raw")  # h.T packs R and V, as LAPACK's geqrf
    packed = h.T
    triangle = np.triu(packed[:m])
    if _certified_full_rank(triangle, cut):
        r, small = m, triangle[:, :0]  # no left singular vector is needed
    else:
        u, s, _ = np.linalg.svd(triangle, full_matrices=False)
        r = _numerical_rank(s, cut, floor=1.0)
        small = u[:, r:]
    v = np.tril(packed[:, :m], -1)
    np.fill_diagonal(v, 1)  # the reflectors' unit diagonal
    unit = tau == 0  # such a reflector is the identity, so it is dropped
    v[:, unit] = 0
    t_inv = np.triu(v.conj().T @ v, 1) + np.diag(1 / np.where(unit, 1, tau))
    v_dag_c = np.hstack([v[:m].conj().T @ small, v[m:].conj().T])
    # H c = c - V T V^dag c, with c = [small, 0; 0, 1] added in place to the column-major
    # product (0 - x keeps the difference's signed zeros)
    basis = np.empty((n, n - r), dtype=v.dtype, order="F")
    np.subtract(0, np.matmul(v, np.linalg.inv(t_inv) @ v_dag_c, out=basis), out=basis)
    basis[:m, : m - r] += small
    trailing = np.arange(n - m)  # the trailing unit vectors
    basis[m + trailing, m - r + trailing] += 1
    return basis


@np.errstate(invalid="ignore", over="ignore")  # a NaN or inf R: a non-finite factor, refused
def _certified_full_rank(triangle: np.ndarray, cut: float) -> bool:
    """Whether ``_null_space``'s Cholesky certificate proves that R keeps all its rows."""
    norm = float(np.linalg.norm(triangle))
    tau = (cut * max(norm, 1.0)) ** 2 + 4 * (triangle.shape[1] + 2) * np.finfo(float).eps * norm**2
    g = triangle @ triangle.conj().T
    g.reshape(-1)[:: g.shape[0] + 1] -= tau  # G - tau 1 in place, on a diagonal view
    try:  # numpy returns a non-finite factor for a NaN or inf G rather than raising
        return bool(np.all(np.isfinite(np.diagonal(np.linalg.cholesky(g)))))
    except np.linalg.LinAlgError:
        return False


def _gram(b: np.ndarray, n: int, hermitian: bool = False) -> np.ndarray:
    """B^dag B, as the real M^T M, M = Re X + Im X (``operators._transposed_columns``), when
    the columns are bitwise Hermitian X: vouched for by ``hermitian``, or tested when 64 or
    more (fewer cost more to test than that saves)."""
    if not hermitian and b.shape[1] >= 64:
        stack = _unvec_stack(b.T, n)
        hermitian = np.array_equal(stack, stack.conj().swapaxes(-1, -2))
    if hermitian:  # only then M^T M = B^dag B
        m = b.real + b.imag
        return m.T @ m
    return b.conj().T @ b


def _dagger_columns(cols: np.ndarray, n: int) -> np.ndarray:
    """vec(X^dag) for each column vec(X) of ``cols``."""
    return _columns(_unvec_stack(cols.T, n).conj().swapaxes(-1, -2))


def _operators(layout: SpaceLayout, cols: np.ndarray) -> tuple[Operator, ...]:
    """The operators whose vectorizations are the columns of ``cols``."""
    n = layout.total_dim
    return tuple(Operator(layout, unvec(c, n)) for c in cols.T)


def _span_of_columns(
    layout: SpaceLayout, cols: np.ndarray, tol: ToleranceConfig
) -> OperatorSubspace:
    """The span of the vectorized operators ``cols`` (N^2, g), which become its generators."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return OperatorSubspace(layout, u[:, : _numerical_rank(s, tol.rank_cut)], cols, tol)


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


def _outside(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(1 - P) c, P the projection onto the orthonormal b.  For orthonormal c its singular values
    are the sines of the principal angles between c and b (Bjorck & Golub, 1973)."""
    return c - b @ (b.conj().T @ c)


def subspace_sum(v: OperatorSubspace, w: OperatorSubspace) -> OperatorSubspace:
    """The larger basis B, then the left singular vectors of the other's ``_outside`` residual at
    the sines ``subspace_intersection`` does not share, projected out again: one at sine s
    leans on B by eps / s (twice is enough: Giraud, Langou & Rozloznik, 2005)."""
    _check_same_layout(v, w)
    bv, bw = v.basis_matrix(), w.basis_matrix()
    b, c = (bv, bw) if v.dim >= w.dim else (bw, bv)
    u, s, _ = np.linalg.svd(_outside(b, c), full_matrices=False)
    added = _outside(b, u[:, : _numerical_rank(s, v.tol.rank_cut, floor=1.0)])
    return OperatorSubspace(v.layout, np.hstack([b, added]), np.hstack([bv, bw]), v.tol)


def subspace_intersection(v: OperatorSubspace, w: OperatorSubspace) -> OperatorSubspace:
    """B_w times the null space of w's ``_outside`` residual against v."""
    _check_same_layout(v, w)
    bw = w.basis_matrix()
    null = _null_space(_outside(v.basis_matrix(), bw), v.tol.rank_cut)
    return OperatorSubspace(v.layout, bw @ null, tol=v.tol)


def subspace_leq(v: OperatorSubspace, w: OperatorSubspace) -> bool:
    """True iff every basis element of v lies in w.  A w of dimension N^2 holds every
    operator with no product: its basis B is square, so ||(1 - B B^dag) x|| <=
    ||B^dag B - 1|| ||x||, within the residual_tol ||x|| that its Gram check allows."""
    _check_same_layout(v, w)
    if w.dim == w.layout.total_dim**2:
        return True
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
    "not verified", not "disproved".  The adjoints of the basis and the
    identity are tested in one membership product, whose identity column
    also gives the projection.
    """
    if v.dim == 0:
        return False
    n = v.layout.total_dim
    ident = vec(np.eye(n, dtype=complex))[:, None]
    coeffs, _, inside = v._coordinates_of(np.hstack([_dagger_columns(v.basis_matrix(), n), ident]))
    if not np.all(inside[:-1]):
        return False
    if inside[-1]:
        return True
    if positive_witness is not None:
        if v.contains(positive_witness) and positive_witness.min_eigenvalue() > v.tol.psd_slack:
            return True
    projected = unvec(v.basis_matrix() @ coeffs[:, -1], n)
    h = (projected + projected.conj().T) * complex(0.5)
    return v._contains_columns(vec(h)[:, None]) and float(_min_eigenvalues(h)) > v.tol.psd_slack
