"""Synthesis and analysis of linear maps on operator domains.

A subsystem map is stored as a coordinate matrix over an orthonormal basis of
its domain subspace, not in Kraus form, because maps that are not completely
positive have no Kraus form with positive weights.  Positivity testing is
sampling based and its verdicts are explicit about not being proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOL, SelfCheckError, ToleranceConfig
from .consistency import ConsistencyVerdict, _kernel_residuals, _verdict
from .operators import (
    Operator,
    _PAULI_STACK,
    _check_same_layout,
    _columns,
    _density_mask,
    _min_eigenvalues,
    _reduced_evolution,
    _stacked,
    _stored,
    _unitarity_residuals,
    _unvec_stack,
    _vec_stack,
    identity,
    unvec,
)
from .sampling import _axis_grid_projectors, _random_pure_states
from .subspaces import (
    OperatorSubspace,
    _dagger_columns,
    _keep_indices,
    _numerical_rank,
    check_state_spanned,
    full_operator_space,
    subspaces_equal,
)

__all__ = [
    "SubsystemMap",
    "MapDomainError",
    "InconsistentPairError",
    "CpVerdict",
    "PositivityScanResult",
    "PositiveDomainSample",
    "derive_map",
    "map_from_kraus",
    "map_from_action",
    "identity_map",
    "map_residual",
    "compose",
    "choi_matrix",
    "is_cp",
    "positivity_scan",
    "positive_domain_membership",
    "sample_positive_domain",
]


class MapDomainError(ValueError):
    """An operator fed to a map lies outside the map's domain subspace."""


class InconsistentPairError(ValueError):
    """A (subspace, unitary) pair does not define a reduced map."""

    def __init__(self, message: str, verdict: ConsistencyVerdict):
        super().__init__(message)
        self.verdict = verdict


@dataclass(frozen=True, eq=False)
class SubsystemMap:
    """A linear map on a domain subspace, as coordinates-to-vector matrix.

    ``coord_matrix`` has shape (N^2, d): column i is the vectorized image of
    the i-th domain basis operator.
    """

    domain: OperatorSubspace
    coord_matrix: np.ndarray
    provenance: str = ""

    def __post_init__(self) -> None:
        mat = _stored(self.coord_matrix)
        n = self.domain.layout.total_dim
        if mat.shape != (n * n, self.domain.dim):
            raise ValueError(
                f"coord_matrix shape {mat.shape} does not match domain "
                f"(expected {(n * n, self.domain.dim)})"
            )
        object.__setattr__(self, "coord_matrix", mat)

    @property
    def dim(self) -> int:
        return self.domain.layout.total_dim

    @property
    def tol(self) -> ToleranceConfig:
        return self.domain.tol

    def apply(self, a: Operator) -> Operator:
        image = self._apply_columns(self.domain._column(a))
        return Operator(self.domain.layout, unvec(image[:, 0], self.dim))

    def _apply_columns(self, cols: np.ndarray) -> np.ndarray:
        """The map on vectorized operators (an (N^2, k) block or a (k, N^2, 1)
        stack of columns), refusing any outside the domain."""
        coeffs, residuals, inside = self.domain._coordinates_of(cols)
        if not np.all(inside):
            raise MapDomainError(
                f"operator lies outside the map's domain (residual {np.max(residuals):.3e})"
            )
        return self.coord_matrix @ coeffs

    def _apply_stack(self, stack: np.ndarray) -> np.ndarray:
        """The map on each matrix of a (k, N, N) stack, as a (k, N, N) stack; each matrix
        gets the arithmetic it gets alone (see ``_vec_stack``)."""
        return _unvec_stack(self._apply_columns(_vec_stack(stack)), self.dim)

    def linear_operator(self) -> np.ndarray:
        """The map as an (N^2, N^2) matrix on vectorized operators.

        Acts as the zero map on the orthogonal complement of the domain, which
        makes two maps comparable independently of their stored bases.
        """
        return self.coord_matrix @ self.domain.basis_matrix().conj().T

    def is_trace_preserving(self, tol: float | None = None) -> bool:
        tol = self.tol.residual_tol if tol is None else tol
        diag = slice(None, None, self.dim + 1)  # the diagonal of a vectorized operator
        drift = self.coord_matrix[diag].sum(axis=0) - self.domain.basis_matrix()[diag].sum(axis=0)
        return bool(np.all(np.abs(drift) <= tol))

    def is_hermiticity_preserving(self, tol: float | None = None) -> bool:
        """True iff the domain is dagger-closed and phi(B^dag) = phi(B)^dag on its basis."""
        tol = self.tol.residual_tol if tol is None else tol
        try:
            images = self._apply_columns(_dagger_columns(self.domain.basis_matrix(), self.dim))
        except MapDomainError:
            return False
        drift = images - _dagger_columns(self.coord_matrix, self.dim)
        return bool(np.max(np.linalg.norm(drift, axis=0), initial=0.0) <= tol)  # False on NaN

    # Linear combinations are used for analysis (for example Choi linearity);
    # they require the identical stored basis so coordinates line up.
    def _check_combinable(self, other: "SubsystemMap") -> None:
        _check_same_layout(self.domain, other.domain)
        if not np.array_equal(self.domain.basis_matrix(), other.domain.basis_matrix()):
            raise ValueError("maps must share the same stored domain basis")

    def __add__(self, other: "SubsystemMap") -> "SubsystemMap":
        self._check_combinable(other)
        return SubsystemMap(self.domain, self.coord_matrix + other.coord_matrix, "sum")

    def __sub__(self, other: "SubsystemMap") -> "SubsystemMap":
        self._check_combinable(other)
        return SubsystemMap(self.domain, self.coord_matrix - other.coord_matrix, "difference")

    def __mul__(self, scalar: complex) -> "SubsystemMap":
        return SubsystemMap(self.domain, self.coord_matrix * complex(scalar), "scaled")

    __rmul__ = __mul__


def derive_map(
    v: OperatorSubspace, u: Operator, bath_factor: int = 1
) -> SubsystemMap:
    """The unique reduced map induced by a consistent (subspace, unitary) pair.

    The domain is the span of the bath partial traces of v; the map sends the
    partial trace of each element of v to the partial trace of its conjugation
    by u, extended linearly.  Consistency of the pair is exactly
    well-definedness and is checked first; the construction then verifies the
    defining relation on every generator of v.  With B the orthonormal basis of
    v, R = Tr_B B and E = Tr_B(u B u^dag) as (N_S^2, dim v) matrices, and the
    thin SVD R = U S V^dag cut at the kernel's rank r = dim v - dim ker R (the
    one cut of the consistency check), the domain basis is U_r and the
    coordinate matrix is E V_r S_r^-1.
    """
    return _map_of(_derive_pair(v, u, bath_factor), v, u)


def _map_of(derivation: _Derivation, v: OperatorSubspace, u: Operator) -> SubsystemMap:
    """The derived map of (v, u), or InconsistentPairError with the verdict
    ``is_unitary_consistent`` gives, read off the derivation's own decision."""
    if derivation.map is None:
        raise InconsistentPairError(
            "the subspace is not consistent with the unitary "
            f"(worst kernel residual {derivation.residual:.3e}); "
            "the reduced map is not well defined",
            _verdict(v, (u,), derivation.kernel, derivation.residuals[None]),
        )
    return derivation.map


class _Derivation(NamedTuple):
    reduced: np.ndarray  # the basis of v, vectorized and bath-reduced
    evolved: np.ndarray  # the same, conjugated by u before the reduction
    domain: OperatorSubspace  # span of the reduced basis
    kernel: np.ndarray  # the null space n of the reduced basis, the consistency decision's
    residuals: np.ndarray  # ||E n|| under u, one per kernel column
    residual: float  # the worst kernel residual under u, as is_unitary_consistent's
    map: SubsystemMap | None  # the derived map; None unless the family is consistent
    spanned: bool  # check_state_spanned(v), taken for every derivation


def _derive_pair(v: OperatorSubspace, u: Operator, bath_factor: int = 1) -> _Derivation:
    """derive_map's derivation, consistent or not, refusing the zero subspace."""
    if v.dim == 0:
        raise ValueError("cannot derive a map from a zero-dimensional subspace")
    (derivation,) = _derive(v, [u], _keep_indices(v.layout, bath_factor))
    return derivation


def _derive(v: OperatorSubspace, unitaries: Sequence[Operator], keep: tuple) -> list[_Derivation]:
    """derive_map for each unitary at once, on any v (the zero subspace too): the reduced
    stacks, their span and the state-spanned check once, each member's consistency
    residual, and the checked maps only for a consistent family.  Both CLI pair commands
    act on this call, so a failed defining relation refuses both.
    """
    evolution, reduced, evolved, n, residuals = _kernel_residuals(v, unitaries, keep)
    worst = np.max(residuals, axis=1, initial=0.0)
    # the domain is the range of R = U S V^dag, whose rank the kernel's cut already decided
    # (rank-nullity), and V S^-1 inverts R on it
    u, s, vh = np.linalg.svd(reduced, full_matrices=False)
    r = v.dim - n.shape[1]
    domain = OperatorSubspace(v.layout.subset(keep), u[:, :r], reduced, v.tol)
    phis, spanned = [None] * len(evolved), check_state_spanned(v)
    if np.all(worst <= v.tol.residual_tol):  # False on NaN
        provenance = (
            f"derived from a consistent pair (subspace dim {v.dim}; "
            f"state-spanned check: {'verified' if spanned else 'not verified'})"
        )
        p_inv = vh[:r].conj().T / s[:r]  # U_r^dag R = S_r V_r^dag, inverted on the domain
        b, g = v.basis_matrix(), v._generator_matrix  # where the relation is checked
        ops = b if g is b else np.hstack([g, b])
        lhs, rhs = _reduced_evolution(ops, v.layout.dims, keep), evolution @ ops
        scale = np.maximum(1.0, np.linalg.norm(ops, axis=0))
        phis = [SubsystemMap(domain, e @ p_inv, provenance) for e in evolved]
        for phi, target in zip(phis, rhs):
            mismatch = np.linalg.norm(phi._apply_columns(lhs) - target, axis=0)
            residual = float(np.max(mismatch / scale, initial=0.0))
            if not (residual <= v.tol.residual_tol):
                raise SelfCheckError(
                    f"derived map fails its defining relation with residual {residual:.3e}"
                )
    return [
        _Derivation(reduced, e, domain, n, res, float(w), phi, spanned)
        for e, res, w, phi in zip(evolved, residuals, worst, phis)
    ]


def map_from_kraus(
    kraus: Sequence[Operator], tol: ToleranceConfig = DEFAULT_TOL
) -> SubsystemMap:
    """Full-domain map A -> sum_i M_i A M_i^dag from a trace-preserving Kraus list."""
    kraus = list(kraus)
    if not kraus:
        raise ValueError("at least one Kraus operator is required")
    m = _stacked(kraus)
    completeness = float(_unitarity_residuals(m.reshape(-1, m.shape[-1])))
    if not (completeness <= tol.residual_tol):
        raise ValueError(
            f"Kraus list is not trace preserving; ||sum M^dag M - 1|| = {completeness:.3e}"
        )
    domain = full_operator_space(kraus[0].layout, tol)
    # vec(M A M^dag) = (conj(M) (x) M) vec A, and the domain basis is the matrix units; the
    # builtin sum adds the Kronecker products in order (an axis sum is pairwise: other bits)
    n = m.shape[-1]
    superop = sum(m.conj()[:, :, None, :, None] * m[:, None, :, None, :]).reshape(n * n, n * n)
    return SubsystemMap(domain, superop @ domain.basis_matrix(), provenance=f"kraus({len(kraus)})")


def map_from_action(
    action: Callable[[np.ndarray], np.ndarray],
    domain: OperatorSubspace,
    provenance: str = "action",
) -> SubsystemMap:
    """Build a map by applying a matrix-level action to each domain basis element."""
    n = domain.layout.total_dim
    images = [action(x) for x in _unvec_stack(domain.basis_matrix().T, n)]
    stack = np.array(images, dtype=complex).reshape(-1, n, n)  # (0, n, n) on the zero domain
    return SubsystemMap(domain, _columns(stack), provenance)


def identity_map(dims, tol: ToleranceConfig = DEFAULT_TOL) -> SubsystemMap:
    domain = full_operator_space(dims, tol)
    return SubsystemMap(domain, domain.basis_matrix(), provenance="identity")


def map_residual(phi1: SubsystemMap, phi2: SubsystemMap) -> float:
    """Relative Frobenius distance between two maps on the same domain."""
    if not subspaces_equal(phi1.domain, phi2.domain):
        raise ValueError("map_residual requires maps with equal domains")
    l1 = phi1.linear_operator()
    l2 = phi2.linear_operator()
    return float(np.linalg.norm(l1 - l2) / max(1.0, np.linalg.norm(l1)))


def compose(outer: SubsystemMap, inner: SubsystemMap) -> SubsystemMap:
    """Composition outer(inner(.)) for full-domain maps on one layout only.

    Layouts (4,) and (2, 2) differ.  Experimental helper: composing maps on
    proper subspaces is deliberately unsupported because the intermediate
    operator can leave the outer domain and the chained physical
    interpretation needs extra care.
    """
    _check_same_layout(outer.domain, inner.domain)
    n = inner.dim
    if inner.domain.dim != n * n or outer.domain.dim != n * n:
        raise ValueError("compose is only defined for maps on the full operator algebra")
    l = outer.linear_operator() @ inner.linear_operator()
    return SubsystemMap(
        inner.domain, l @ inner.domain.basis_matrix(), provenance="composition"
    )


def choi_matrix(phi: SubsystemMap) -> Operator:
    """Unnormalized Choi operator sum_ij |i><j| (x) phi(|i><j|).

    Only defined when the domain is the full operator algebra; this package
    refuses to pick a CP convention for maps on proper subspaces.
    """
    n = phi.dim
    if phi.domain.dim != n * n:
        raise MapDomainError(
            "the Choi matrix is undefined for a map whose domain is a proper "
            "subspace of the operator algebra"
        )
    images = phi.linear_operator().reshape(n, n, n, n)  # [b, a, j, i] = phi(|i><j|)[a, b]
    c = images.transpose(3, 1, 2, 0).reshape(n * n, n * n)
    return Operator(phi.domain.layout.concat(phi.domain.layout), c)


@dataclass(frozen=True)
class CpVerdict:
    """Complete-positivity verdict with the witnessing Choi eigenvalue."""

    cp: bool
    min_choi_eigenvalue: float
    choi_hermitian: bool


def _require_finite(phi: SubsystemMap, caller: str) -> None:
    """Refuse a map whose coordinates are not finite (eigvalsh gives finite garbage on NaN)
    or have a norm that overflows, since the Hermitian part of an image then can too."""
    with np.errstate(over="ignore"):  # NaN and inf entries give a NaN or inf norm as well
        if not np.isfinite(np.linalg.norm(phi.coord_matrix)):
            raise ValueError(
                f"{caller}: the map's coordinates must be finite and their norm must not overflow"
            )


def is_cp(phi: SubsystemMap) -> CpVerdict:
    """CP iff the (unnormalized) Choi operator is positive within psd_slack."""
    _require_finite(phi, "is_cp")
    c = choi_matrix(phi)
    hermitian = c.is_hermitian(phi.tol.residual_tol)
    min_eig = c.min_eigenvalue()
    return CpVerdict(hermitian and min_eig >= -phi.tol.psd_slack, min_eig, hermitian)


@dataclass(frozen=True)
class PositivityScanResult:
    """Outcome of a sampling scan for positivity violations.

    ``violation_found`` False only means no counterexample was found among the
    ``n_tested`` states; it is not a positivity proof.
    """

    violation_found: bool
    counterexample: Operator | None
    min_eigenvalue: float | None
    n_tested: int

    def summary(self) -> str:
        if self.violation_found:
            return (
                f"counterexample found: output eigenvalue {self.min_eigenvalue:.6g}"
            )
        return (
            f"no violation found among {self.n_tested} sampled states "
            "(not a positivity certificate)"
        )


def _grid_domain_states(phi: SubsystemMap) -> np.ndarray:
    """The deterministic axis-grid states that lie in the domain, as a (k, N, N) stack."""
    grid = _axis_grid_projectors(phi.dim)
    if phi.domain.dim == phi.dim**2:
        return grid
    return grid[phi.domain._coordinates_of(_vec_stack(grid))[2][:, 0]]


_SCAN_BLOCK = 64  # random states per stacked draw or test


def _random_domain_states(
    phi: SubsystemMap, n_samples: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Yield at most ``n_samples`` random domain states, drawn in order from ``rng``, as
    (k, N, N) stacks of at most ``_SCAN_BLOCK`` states, one stack per draw.

    Each draw is one ``_random_pure_states`` call for no more states than are still
    wanted or left in the budget, so the generator is read as a one-state loop reads
    it.  A full domain takes every candidate.  A proper domain projects the candidates
    into the domain and keeps those whose Hermitian part, over its trace, is again a
    domain state; it stops after 50 n + 200 candidates.
    """
    full = phi.domain.dim == phi.dim**2
    budget = n_samples if full else 50 * n_samples + 200
    b = phi.domain.basis_matrix()
    tol = phi.tol.state_tol
    produced = 0
    attempts = 0
    while produced < n_samples and attempts < budget:
        k = min(_SCAN_BLOCK, n_samples - produced, budget - attempts)
        attempts += k
        states = _random_pure_states(phi.dim, k, rng)
        if not full:
            # each state gets the bits of Operator.project, dagger, + and / on it alone
            projected = _unvec_stack(b @ (b.conj().T @ _vec_stack(states)), phi.dim)
            hermitized = (projected + projected.conj().swapaxes(-1, -2)) * complex(0.5)
            tr = np.trace(hermitized, axis1=-2, axis2=-1).real
            wide = np.abs(tr) >= 0.1
            states = hermitized[wide] / tr[wide, None, None]
            inside = phi.domain._coordinates_of(_vec_stack(states))[2][:, 0]
            states = states[inside & _density_mask(states, tol, tol)]
        produced += len(states)
        yield states


def _bloch_form(phi: SubsystemMap) -> tuple[np.ndarray, np.ndarray]:
    """The real (M, b) with phi((1 + r.sigma)/2) = (1 + (M r + b).sigma)/2 (Carteret, Terno &
    Zyczkowski, PRA 77, 042113, 2008), read off the images of 1/2 and sigma_i/2, for a trace-
    and Hermiticity-preserving qubit map on the full domain; any other map is refused."""
    full_qubit = phi.dim == 2 and phi.domain.dim == 4
    if not (full_qubit and phi.is_trace_preserving() and phi.is_hermiticity_preserving()):
        raise ValueError("not a trace- and Hermiticity-preserving qubit map on the full domain")
    # coords[l, k] = Tr(phi(s_k / 2) s_l), with s_0 = 1
    coords = np.einsum("kij,lji->lk", phi._apply_stack(_PAULI_STACK / 2), _PAULI_STACK).real
    return coords[1:, 1:], coords[1:, 0]


def _positive_domain_mask(
    phi: SubsystemMap, states: np.ndarray, lowest: np.ndarray | None = None
) -> np.ndarray:
    """positive_domain_membership of each matrix of a (k, N, N) stack, as a (k,) bool array.

    One containment test (the domain check of the map as well), one state
    test on the whole stack, then one eigvalsh on the images.  Every product is
    taken per state (see ``_vec_stack``), so a state's verdict does not depend
    on the rest of the stack.  ``lowest``, the states' ``_min_eigenvalues`` when
    the caller has taken them, spares the state test its eigvalsh.
    """
    tol = phi.tol
    coeffs, _, inside = phi.domain._coordinates_of(_vec_stack(states))
    images = _unvec_stack(phi.coord_matrix @ coeffs, phi.dim)
    return (
        inside[:, 0]
        & _density_mask(states, tol.residual_tol, tol.psd_slack, lowest)
        & (_min_eigenvalues(images) >= -tol.psd_slack)
    )


def positivity_scan(
    phi: SubsystemMap, n_samples: int, seed: int
) -> PositivityScanResult:
    """Search for a domain state mapped to a non-positive operator.

    Evaluates the map on a deterministic axis grid plus uniformly sampled pure
    states (projected into proper domains), reporting the first state whose
    image has an eigenvalue below -psd_slack.  States are tested in blocks:
    the grid, then random states, with the draws, the counterexample, the
    count tested and the eigenvalues of a one-state-at-a-time scan.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    _require_finite(phi, "positivity_scan")
    rng = np.random.default_rng(seed)
    blocks = chain([_grid_domain_states(phi)], _random_domain_states(phi, n_samples, rng))
    worst: float | None = None
    tested = 0
    for block in blocks:
        if not len(block):
            continue
        mins = _min_eigenvalues(phi._apply_stack(block))
        violations = np.flatnonzero(mins < -phi.tol.psd_slack)
        seen = mins[: violations[0] + 1] if violations.size else mins
        tested += seen.size
        lowest = float(np.min(seen))
        worst = lowest if worst is None else min(worst, lowest)
        if violations.size:
            counterexample = Operator(phi.domain.layout, block[violations[0]])
            return PositivityScanResult(True, counterexample, float(seen[-1]), tested)
    return PositivityScanResult(False, None, worst, tested)


def positive_domain_membership(phi: SubsystemMap, rho: Operator) -> bool:
    """True iff rho is a domain state whose image is a state within slack."""
    _require_finite(phi, "positive_domain_membership")
    return bool(_positive_domain_mask(phi, _domain_entries(phi, rho))[0])


def _domain_entries(phi: SubsystemMap, rho: Operator) -> np.ndarray:
    """rho's entries as a one-matrix stack for :func:`_positive_domain_mask`; for an operator
    on another layout, an all-NaN matrix of phi's size, which no state test passes."""
    if rho.layout.dims != phi.domain.layout.dims:
        return np.full((1, phi.dim, phi.dim), np.nan, dtype=complex)
    return rho.entries[None]


@dataclass(frozen=True)
class PositiveDomainSample:
    """Accepted positive-domain states and the dimension they span."""

    members: tuple[Operator, ...]
    span_dim: int


# weights of the maximally mixed state in the retries of a rejected candidate
_CENTER_WEIGHTS = (0.5, 0.75, 0.9, 0.99, 0.999, 1.0)


def sample_positive_domain(
    phi: SubsystemMap, n: int, seed: int
) -> PositiveDomainSample:
    """Rejection-sample the positive domain and report its sampled span.

    Candidates are domain states; rejected candidates are retried as mixtures
    pulled toward the maximally mixed point whenever that point itself belongs
    to the positive domain.  An empty sample after the budget is reported as
    such (members empty, span 0) rather than raised.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    _require_finite(phi, "sample_positive_domain")
    rng = np.random.default_rng(seed)
    nn = phi.dim
    layout = phi.domain.layout
    center = identity(layout) / nn
    center_ok = positive_domain_membership(phi, center)
    randoms = _random_domain_states(phi, 60 * n + 300, rng)
    candidates = chain(_grid_domain_states(phi), chain.from_iterable(randoms))
    members: list[np.ndarray] = []  # an Operator is built only for each member at the end
    while len(members) < n:
        # Each candidate gives at most one member, so a block of the number still
        # needed holds only candidates that a one-at-a-time loop would also test.
        block = list(islice(candidates, n - len(members)))
        if not block:
            break
        states = np.array(block)
        found = [rho if ok else None for rho, ok in zip(states, _positive_domain_mask(phi, states))]
        retry = [j for j, rho in enumerate(found) if rho is None] if center_ok else []
        if retry:
            # (1 - t) rho + t center for every t, with the arithmetic of Operator
            t = np.array(_CENTER_WEIGHTS, dtype=complex)[:, None, None]
            mixed = states[retry, None] * (1 - t) + center.entries * t
            accepted = _positive_domain_mask(phi, mixed.reshape(-1, nn, nn))
            for j, row, mixtures in zip(retry, accepted.reshape(mixed.shape[:2]), mixed):
                if row.any():
                    found[j] = mixtures[row.argmax()]
        members += [rho for rho in found if rho is not None]
    if not members:
        return PositiveDomainSample((), 0)
    s = np.linalg.svd(_columns(np.array(members)), compute_uv=False)
    return PositiveDomainSample(
        tuple(Operator(layout, rho) for rho in members), _numerical_rank(s, phi.tol.rank_cut)
    )
