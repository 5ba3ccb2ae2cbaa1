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

from .config import DEFAULT_TOL, ToleranceConfig
from .consistency import ConsistencyVerdict, is_unitary_consistent
from .operators import (
    Operator,
    _columns,
    _density_mask,
    _min_eigenvalues,
    _reduced_evolution,
    _stacked,
    _stored,
    _unvec_stack,
    _vec_stack,
    identity,
    unvec,
)
from .sampling import axis_grid_states, random_pure_state
from .subspaces import (
    OperatorSubspace,
    _dagger_columns,
    _keep_indices,
    _numerical_rank,
    _span_of_columns,
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
    defining relation on every generator of v.
    """
    if v.dim == 0:
        raise ValueError("cannot derive a map from a zero-dimensional subspace")
    verdict = is_unitary_consistent(v, u, bath_factor)
    if not verdict.consistent:
        raise InconsistentPairError(
            "the subspace is not consistent with the unitary "
            f"(worst kernel residual {verdict.worst_residual:.3e}); "
            "the reduced map is not well defined",
            verdict,
        )
    return _derive(v, [u], _keep_indices(v.layout, bath_factor), consistent=True)[0].map


class _Derivation(NamedTuple):
    reduced: np.ndarray  # the basis of v, vectorized and bath-reduced
    evolved: np.ndarray  # the same, conjugated by u before the reduction
    domain: OperatorSubspace  # span of the reduced basis
    map: SubsystemMap | None  # the derived map; None unless the pair is consistent


def _derive(
    v: OperatorSubspace, unitaries: Sequence[Operator], keep: tuple, consistent: bool
) -> list[_Derivation]:
    """derive_map past its consistency verdict, which the caller holds, for each
    unitary: the reduced stacks and their span for any pair, the checked map only
    for a consistent one.  What does not depend on the unitary (the reduced
    stacks, their span, the state-spanned check) is computed once.
    """
    ops = np.hstack([v._generator_matrix, v.basis_matrix()])
    reduced = _reduced_evolution(ops, v.layout.dims, keep)
    basis = slice(v._generator_matrix.shape[1], None)
    # reduced orthonormal columns: a floor of 1 keeps rounding noise from spanning anything
    domain = _span_of_columns(v.layout.subset(keep), reduced[:, basis], v.tol, floor=1.0)
    if consistent:
        spanned = check_state_spanned(v)
        provenance = (
            f"derived from a consistent pair (subspace dim {v.dim}; "
            f"state-spanned check: {'verified' if spanned else 'not verified'})"
        )
        p = domain._coordinates_of(reduced[:, basis])[0]
        p_inv = np.linalg.pinv(p, rcond=v.tol.rank_cut)
        scale = np.maximum(1.0, np.linalg.norm(ops, axis=0))
    derivations = []
    for u in unitaries:
        evolved = _reduced_evolution(ops, v.layout.dims, keep, u.entries)
        phi = None
        if consistent:
            phi = SubsystemMap(domain, evolved[:, basis] @ p_inv, provenance)
            mismatch = np.linalg.norm(phi._apply_columns(reduced) - evolved, axis=0)
            residual = float(np.max(mismatch / scale))
            if not (residual <= v.tol.residual_tol):
                raise RuntimeError(
                    f"derived map fails its defining relation with residual {residual:.3e}"
                )
        derivations.append(_Derivation(reduced[:, basis], evolved[:, basis], domain, phi))
    return derivations


def map_from_kraus(
    kraus: Sequence[Operator], tol: ToleranceConfig = DEFAULT_TOL
) -> SubsystemMap:
    """Full-domain map A -> sum_i M_i A M_i^dag from a trace-preserving Kraus list."""
    kraus = list(kraus)
    if not kraus:
        raise ValueError("at least one Kraus operator is required")
    m = _stacked(kraus)
    acc = (m.conj().swapaxes(-1, -2) @ m).sum(axis=0)
    completeness = float(np.linalg.norm(acc - np.eye(m.shape[-1])))
    if not (completeness <= tol.residual_tol):
        raise ValueError(
            f"Kraus list is not trace preserving; ||sum M^dag M - 1|| = {completeness:.3e}"
        )
    domain = full_operator_space(kraus[0].layout, tol)
    # vec(M A M^dag) = (conj(M) (x) M) vec A, and the domain basis is the matrix units
    superop = sum(np.kron(mi.conj(), mi) for mi in m)
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
    """Composition outer(inner(.)) for full-domain maps only.

    Experimental helper: composing maps on proper subspaces is deliberately
    unsupported because the intermediate operator can leave the outer domain
    and the chained physical interpretation needs extra care.
    """
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
    """Refuse a map with a non-finite coordinate: eigvalsh gives finite garbage on NaN."""
    if not np.all(np.isfinite(phi.coord_matrix)):
        raise ValueError(f"{caller}: the map's coordinates must be finite")


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


def _grid_domain_states(phi: SubsystemMap) -> list[Operator]:
    """The deterministic axis-grid states that lie in the domain."""
    full = phi.domain.dim == phi.dim**2
    return [rho for rho in axis_grid_states(phi.domain.layout) if full or phi.domain.contains(rho)]


def _random_domain_states(
    phi: SubsystemMap, n_samples: int, rng: np.random.Generator
) -> Iterator[Operator]:
    """Yield at most ``n_samples`` random domain states, drawn in order from ``rng``.

    Random pure states are projected into proper domains and kept only when
    the projection is again a state.
    """
    full = phi.domain.dim == phi.dim**2
    produced = 0
    attempts = 0
    budget = 50 * n_samples + 200
    while produced < n_samples and attempts < budget:
        attempts += 1
        rho = random_pure_state(phi.domain.layout, rng)
        if not full:
            projected = phi.domain.project(rho)
            hermitized = (projected + projected.dagger()) * 0.5
            tr = hermitized.trace().real
            if abs(tr) < 0.1:
                continue
            rho = hermitized / tr
            if not (phi.domain.contains(rho) and rho.is_density(phi.tol.state_tol)):
                continue
        produced += 1
        yield rho


def _positive_domain_mask(phi: SubsystemMap, states: np.ndarray) -> np.ndarray:
    """positive_domain_membership of each matrix of a (k, N, N) stack, as a (k,) bool array.

    One containment test (the domain check of the map as well), one state
    test on the whole stack, then one eigvalsh on the images.  Every product is
    taken per state (see ``_vec_stack``), so a state's verdict does not depend
    on the rest of the stack.
    """
    tol = phi.tol
    coeffs, _, inside = phi.domain._coordinates_of(_vec_stack(states))
    images = _unvec_stack(phi.coord_matrix @ coeffs, phi.dim)
    return (
        inside[:, 0]
        & _density_mask(states, tol.residual_tol, tol.psd_slack)
        & (_min_eigenvalues(images) >= -tol.psd_slack)
    )


_SCAN_BLOCK = 64  # random states per stacked test in positivity_scan


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
    randoms = _random_domain_states(phi, n_samples, rng)
    blocks = chain(
        [_grid_domain_states(phi)], iter(lambda: list(islice(randoms, _SCAN_BLOCK)), [])
    )
    worst: float | None = None
    tested = 0
    for block in blocks:
        if not block:
            continue
        images = phi._apply_columns(_vec_stack(_stacked(block)))
        mins = _min_eigenvalues(_unvec_stack(images, phi.dim))
        violations = np.flatnonzero(mins < -phi.tol.psd_slack)
        seen = mins[: violations[0] + 1] if violations.size else mins
        tested += seen.size
        lowest = float(np.min(seen))
        worst = lowest if worst is None else min(worst, lowest)
        if violations.size:
            return PositivityScanResult(True, block[violations[0]], float(seen[-1]), tested)
    return PositivityScanResult(False, None, worst, tested)


def positive_domain_membership(phi: SubsystemMap, rho: Operator) -> bool:
    """True iff rho is a domain state whose image is a state within slack."""
    _require_finite(phi, "positive_domain_membership")
    if rho.layout.dims != phi.domain.layout.dims:
        return False
    return bool(_positive_domain_mask(phi, rho.entries[None])[0])


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
    candidates = chain(_grid_domain_states(phi), _random_domain_states(phi, 60 * n + 300, rng))
    members: list[Operator] = []
    while len(members) < n:
        # Each candidate gives at most one member, so a block of the number still
        # needed holds only candidates that a one-at-a-time loop would also test.
        block = list(islice(candidates, n - len(members)))
        if not block:
            break
        states = _stacked(block)
        found = [rho if ok else None for rho, ok in zip(block, _positive_domain_mask(phi, states))]
        retry = [j for j, rho in enumerate(found) if rho is None] if center_ok else []
        if retry:
            # (1 - t) rho + t center for every t, with the arithmetic of Operator
            mixed = np.stack(
                [
                    states[retry] * complex(1.0 - t) + center.entries * complex(t)
                    for t in _CENTER_WEIGHTS
                ],
                axis=1,
            )
            accepted = _positive_domain_mask(phi, mixed.reshape(-1, nn, nn))
            for j, row, mixtures in zip(retry, accepted.reshape(mixed.shape[:2]), mixed):
                if row.any():
                    found[j] = Operator(layout, mixtures[row.argmax()])
        members += [rho for rho in found if rho is not None]
    if not members:
        return PositiveDomainSample((), 0)
    s = np.linalg.svd(_columns(_stacked(members)), compute_uv=False)
    return PositiveDomainSample(tuple(members), _numerical_rank(s, phi.tol.rank_cut))
