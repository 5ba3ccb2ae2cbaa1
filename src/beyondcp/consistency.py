"""Decision procedures for consistent subspaces of a system-bath algebra.

A subspace is consistent with a joint unitary when operators with equal bath
partial traces keep equal partial traces after conjugation, which is exactly
the condition that the reduced evolution is well defined.  All residuals are
Hilbert-Schmidt norms normalized by the input norm; verdicts are deterministic
regardless of the order family members are checked in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, SelfCheckError, ToleranceConfig
from .operators import (
    Operator,
    SpaceLayout,
    _check_same_layout,
    _columns,
    _reduced_evolution,
    _reduced_evolution_matrix,
    _stacked,
    _transposed_columns,
    _unitarity_residuals,
    _unvec_stack,
    adjoint_action,
    identity,
    partial_trace,
    schatten_distance,
    swap_unitary,
    tensor,
    unvec,
)
from .subspaces import (
    OperatorSubspace,
    _keep_indices,
    _null_space,
    kernel_of_partial_trace,
    span_from_generators,
    subspace_sum,
)

__all__ = [
    "UnitaryFamily",
    "ConsistencyVerdict",
    "is_unitary_consistent",
    "is_family_consistent",
    "consistent_kernel",
    "transformation_space",
    "extension_is_consistent",
    "witness_extension_consistent",
    "witness_factorization_gap",
    "WitnessFactorizationReport",
    "lie_generator_check",
]


@dataclass(frozen=True)
class UnitaryFamily:
    """A finite family of joint unitaries sharing one layout."""

    members: tuple[Operator, ...]
    description: str = ""

    def __post_init__(self) -> None:
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        for u in members[1:]:
            _check_same_layout(members[0], u)


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Outcome of a consistency check.

    ``violating_pair`` is the (kernel element, unitary) pair realizing the
    worst residual, present only when a kernel element was actually tested.
    """

    consistent: bool
    worst_residual: float
    violating_pair: tuple[Operator, Operator] | None = None


def _unitary_stack(members, layout: SpaceLayout, tol: float) -> np.ndarray:
    """The members as one (f, N, N) array, refusing a layout mismatch or a non-unitary."""
    _check_same_layout(members[0], layout)
    u = _stacked(members)
    residual = np.max(_unitarity_residuals(u))
    if not (residual <= tol):
        raise ValueError(f"operator is not unitary; ||U^dag U - 1|| = {residual:.3e}")
    return u


def _kernel_residuals(v: OperatorSubspace, members, keep: tuple):
    """The consistency decision on v's orthonormal basis B: the reduced-evolution
    matrices S (f, m^2, N^2) of the checked unitaries, R = T B (m^2, k),
    E = S B (f, m^2, k), the null space n of R and the residuals ||E n||
    (f, kernel dim).  B n is an orthonormal basis of the trace kernel, so a
    member is consistent when its largest residual is at most residual_tol,
    with no normalization; a NaN residual makes it inconsistent.
    """
    u = _unitary_stack(members, v.layout, v.tol.residual_tol)
    evolution = _reduced_evolution_matrix(v.layout.dims, keep, u)
    b = v.basis_matrix()
    reduced, evolved = _reduced_evolution(b, v.layout.dims, keep), evolution @ b
    n = _null_space(reduced, v.tol.rank_cut)
    return evolution, reduced, evolved, n, np.linalg.norm(evolved @ n, axis=-2)


def _verdict(
    v: OperatorSubspace, members, n: np.ndarray, residuals: np.ndarray
) -> ConsistencyVerdict:
    """The verdict of ``_kernel_residuals``' null space n and residuals (f, kernel dim)."""
    if n.shape[1] == 0:
        return ConsistencyVerdict(True, 0.0, None)
    member, element = np.unravel_index(np.argmax(residuals), residuals.shape)
    worst = float(residuals[member, element])  # argmax stops at the first NaN
    x = unvec(v.basis_matrix() @ n[:, element], v.layout.total_dim)
    pair = (Operator(v.layout, x), members[member])
    return ConsistencyVerdict(worst <= v.tol.residual_tol, worst, pair)


def is_unitary_consistent(
    v: OperatorSubspace, u: Operator, bath_factor: int = 1
) -> ConsistencyVerdict:
    """Check that the reduced evolution of v under u is well defined.

    Every orthonormal kernel element X with vanishing bath trace must keep a
    vanishing bath trace after conjugation by u; the verdict records the worst
    Hilbert-Schmidt residual over the kernel basis.
    """
    return is_family_consistent(v, UnitaryFamily((u,)), bath_factor)


def is_family_consistent(
    v: OperatorSubspace, family: UnitaryFamily, bath_factor: int = 1
) -> ConsistencyVerdict:
    """Conjunction of per-unitary checks, reporting the worst violating pair."""
    keep = _keep_indices(v.layout, bath_factor)  # checked even with no member to test
    if not family.members:
        return ConsistencyVerdict(True, 0.0, None)
    *_, n, residuals = _kernel_residuals(v, family.members, keep)
    return _verdict(v, family.members, n, residuals)


def consistent_kernel(
    family: UnitaryFamily,
    layout: SpaceLayout,
    tol: ToleranceConfig = DEFAULT_TOL,
    bath_factor: int = 1,
) -> OperatorSubspace:
    """Operators whose reduced evolution vanishes under {1} union the family.

    This is the null space of the stacked constraints [T; T S_1; ...; T S_f],
    where T is the bath trace on vectorized operators and S = conj(U) (x) U is
    conjugation by a member.  With the identity in front of the member stack,
    ``_reduced_evolution_matrix`` builds all the rows in one call, T first.
    Adding members can only shrink the result.  A member off ``layout``, or a
    ``bath_factor`` that names none of its two or more factors, raises
    ValueError.

    Each member block drops the row of the last diagonal entry (m-1, m-1) of the
    reduced operator (m the kept dimension): the diagonal rows of T S sum to
    Tr(U X U^dag) = Tr X, as T's do, so the stack of (f+1) m^2 - f rows keeps the
    row space and null space, with full row rank for a generic family.  For a
    member with ||U^dag U - 1|| = e <= residual_tol (``_unitary_stack``), that
    holds only up to the row of Tr((U^dag U - 1) X), of norm e; by Weyl's
    inequality the full stack gives such a direction a singular value of at most
    sqrt(f) e, below its cut rank_cut max(s_0, 1) >= rank_cut sqrt((f+1) N / m) at
    the default tolerances, so it would count that direction null too.  The
    stack is far wider than tall: from N^2 = 100 on ``_null_space`` takes it by
    QR, and with full row rank it needs R's singular values only.

    The constraints commute with ^dag, so the null space is taken in the real
    coordinates of ``operators._transposed_columns``, where the stack keeps its
    singular values and so its rank cut.  Each real null vector comes back as a
    bitwise Hermitian element of an orthonormal basis, which the subspace records
    (``_hermitian``), so its constructor Gram-checks it in the same coordinates,
    as the real M^T M, with no bitwise test: for Hermitian X and Y,
    Tr(X^dag Y) = <M X, M Y> exactly, so it is the check ||B^dag B - 1|| <=
    residual_tol that every basis gets, at about a quarter of the flops.
    """
    if not family.members:
        raise ValueError("consistent_kernel requires a nonempty family")
    n = layout.total_dim
    u = _unitary_stack(family.members, layout, tol.residual_tol)
    keep = _keep_indices(layout, bath_factor)
    a = _reduced_evolution_matrix(layout.dims, keep, np.array([np.eye(n), *u]))
    a = np.vstack([a[0], a[1:, :-1].reshape(-1, n * n)])  # drop each Tr X repeat, free the rest
    a = a.real + _transposed_columns(a.imag.T, n).T  # the real stack; the complex one is freed
    h = _null_space(a, tol.rank_cut)
    del a
    h *= 0.5
    # X = (M + K M)/2 + i (M - K M)/2, written straight into the stored layout: in the
    # (n, n, k) column-major views of h and the basis, K swaps the first two axes
    basis = np.empty(h.shape, dtype=complex, order="F")
    x, m = basis.reshape(n, n, -1, order="F"), h.reshape(n, n, -1, order="F")
    np.add(m, m.swapaxes(0, 1), out=x.real)
    np.subtract(m, m.swapaxes(0, 1), out=x.imag)
    del h, m  # free before the Gram check
    return OperatorSubspace._taking(layout, basis, tol, hermitian=True)


def transformation_space(
    v: OperatorSubspace, family: UnitaryFamily, bath_factor: int = 1
) -> OperatorSubspace:
    """The operators evolving exactly like their representatives in v.

    Returns v + (consistent kernel of the family); every basis element of the
    result is verified to evolve, under each family member, to the same
    reduced operator as its representative in v.
    """
    vhat = consistent_kernel(family, v.layout, v.tol, bath_factor)  # refuses an empty family
    from .maps import InconsistentPairError, _derive, _relation_residual  # maps imports this module

    keep = _keep_indices(v.layout, bath_factor)
    derivation = _derive(v, family.members, keep)
    if derivation.maps is None:  # maps are built only for a consistent family
        raise InconsistentPairError(
            f"subspace is not consistent for the family (worst residual {derivation.residual:.3e})",
            _verdict(v, family.members, derivation.kernel, derivation.residuals),
        )
    vprime = subspace_sum(v, vhat)
    b = vprime.basis_matrix()  # orthonormal, so residuals need no normalization
    reduced = _reduced_evolution(b, v.layout.dims, keep)
    evolved = _reduced_evolution_matrix(v.layout.dims, keep, _stacked(family.members)) @ b
    residual = _relation_residual(derivation.maps, reduced, evolved)
    if not (residual <= v.tol.residual_tol):
        raise SelfCheckError(f"transformation-space self-check failed with residual {residual:.3e}")
    return vprime


def extension_is_consistent(
    v: OperatorSubspace, rho: Operator, family: UnitaryFamily, bath_factor: int = 1
) -> bool:
    """Would adjoining the state rho to v keep the family consistent?

    This is a per-state probe; it does not certify that v is maximal.
    """
    if not rho.is_density(v.tol.state_tol):
        raise ValueError("extension probe requires a density matrix")
    extended = subspace_sum(v, span_from_generators([rho], v.tol))
    return is_family_consistent(extended, family, bath_factor).consistent


def witness_extension_consistent(
    v: OperatorSubspace, family: UnitaryFamily, d_w: int, bath_factor: int = 1
) -> ConsistencyVerdict:
    """Consistency of v tensored with a full witness algebra.

    v (x) B(H_W) is consistent with {U (x) 1_W} exactly when v is consistent
    with {U}: its trace kernel is ker(v) (x) B(H_W), and the bath trace
    commutes with (x) E for every witness operator E.  So the verdict is the
    plain family verdict for every d_w >= 1.
    """
    if d_w < 1:
        raise ValueError(f"witness dimension must be >= 1, got {d_w}")
    return is_family_consistent(v, family, bath_factor)


@dataclass(frozen=True)
class WitnessFactorizationReport:
    """Two evolutions of a system-witness state that need not agree."""

    evolved_true: Operator
    evolved_factored: Operator
    mismatch: float


def witness_factorization_gap(
    rho_s: Operator, rho_bw: Operator, tol: ToleranceConfig = DEFAULT_TOL
) -> WitnessFactorizationReport:
    """Compare joint evolution against the factored map on a witness.

    The joint state rho_s (x) rho_bw evolves under SWAP (x) 1 between system
    and bath; tracing out the bath gives the true system-witness state.  The
    factored route applies (reduced map) (x) identity to the reduced
    system-witness state.  For correlated rho_bw the two can differ; the
    mismatch is their trace distance.
    """
    for name, rho in (("rho_s", rho_s), ("rho_bw", rho_bw)):
        if not rho.is_density(tol.state_tol):
            raise ValueError(f"{name} must be a density matrix")
    if rho_bw.layout.n_factors != 2:
        raise ValueError("rho_bw must live on a bath (x) witness layout")
    if rho_s.layout.n_factors != 1:
        raise ValueError("rho_s must live on a single-factor system layout")
    d_s = rho_s.dim
    d_b, d_w = rho_bw.layout.dims
    if d_s != d_b:
        raise ValueError("system and bath dimensions must match for the SWAP evolution")
    joint = tensor(rho_s, rho_bw)  # layout (S, B, W)
    u = tensor(swap_unitary(d_s), identity((d_w,)))
    evolved_true = partial_trace(adjoint_action(u, joint, tol=tol.residual_tol), keep=(0, 2))
    rho_b = partial_trace(rho_bw, keep=(0,))
    rho_w = partial_trace(rho_bw, keep=(1,))
    evolved_factored = tensor(rho_b, rho_w)
    mismatch = schatten_distance(evolved_true, evolved_factored, 1)
    return WitnessFactorizationReport(evolved_true, evolved_factored, mismatch)


def lie_generator_check(
    v: OperatorSubspace, k: Operator, order: int = 2, bath_factor: int = 1
) -> float:
    """Generator-level consistency probe for a one-parameter unitary family.

    For each kernel element X, nested commutators [K, X], [K, [K, X]], ... up
    to the given order must keep a vanishing bath trace.  Returns the worst
    normalized residual; 0 means the probe found no leakage.  An order below 1
    tests nothing, so it is refused.
    """
    if not order >= 1:
        raise ValueError(f"order must be at least 1, got {order!r}")
    _check_same_layout(k, v)
    if not k.is_hermitian(v.tol.residual_tol):
        raise ValueError("the family generator must be Hermitian")
    kernel = kernel_of_partial_trace(v, bath_factor)
    keep = _keep_indices(v.layout, bath_factor)
    cols = kernel.basis_matrix()
    worst = 0.0
    for _ in range(order):
        x = _unvec_stack(cols.T, v.layout.total_dim)
        cols = _columns(k.entries @ x - x @ k.entries)
        norms = np.linalg.norm(cols, axis=0)
        live = norms >= 1e-300  # a vanished commutator stays vanished
        cols = cols[:, live]
        reduced = np.linalg.norm(_reduced_evolution(cols, v.layout.dims, keep), axis=0)
        worst = np.max(reduced / norms[live], initial=worst)
    return float(worst)
