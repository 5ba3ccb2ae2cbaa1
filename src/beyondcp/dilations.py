"""Constructive dilations: realizing maps as reduced unitary dynamics.

Every representation is a triple (bath dimension, joint unitary, subspace of
joint operators) whose induced reduced map reproduces a target map on its
domain.  The SWAP construction handles any trace- and Hermiticity-preserving
map whose positive domain spans the domain; Kraus lists dilate to a unitary by
isometry completion; invertible maps inherit a representation for the inverse
by conjugating the subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .consistency import ConsistencyVerdict, is_unitary_consistent
from .maps import (
    SubsystemMap,
    _derive,
    _Derivation,
    _positive_domain_mask,
    derive_map,
    map_from_kraus,
    map_residual,
    sample_positive_domain,
)
from .operators import (
    Operator,
    SpaceLayout,
    _columns,
    _density_mask,
    _reduced_evolution,
    _stacked,
    _unvec_stack,
    swap_unitary,
)
from .subspaces import (
    OperatorSubspace,
    _numerical_rank,
    _span_of_columns,
    full_operator_space,
    span_from_generators,
    subspaces_equal,
)

__all__ = [
    "Representation",
    "RepresentationVerdict",
    "swap_representation",
    "restrict_to_physical",
    "inverse_representation",
    "kraus_dilation",
    "verify_representation",
]


@dataclass(frozen=True, eq=False)
class Representation:
    """A (bath, unitary, joint subspace) triple claimed to realize a reduced map.

    Construction checks the structural shape: the unitary and the subspace
    share one (system, bath) layout whose bath factor has ``bath_dim``.  The
    semantic invariants, consistency of the subspace with the unitary and
    equality of the reduced subspace with the target domain, are enforced by
    every factory in this module and re-checkable with
    :func:`verify_representation`; the dataclass itself can hold an unverified
    claim so that externally supplied or perturbed triples can be graded.  The
    triple is immutable, so its derivation (consistency verdict, reduced
    stacks, their span, derived map) is computed once, on first use.
    """

    bath_dim: int
    unitary: Operator
    subspace: OperatorSubspace
    target_domain: OperatorSubspace

    def __post_init__(self) -> None:
        dims = self.subspace.layout.dims
        if self.unitary.layout.dims != dims:
            raise ValueError("unitary and subspace layouts differ")
        if len(dims) != 2:
            raise ValueError(f"layout {dims} is not a (system, bath) layout")
        if dims[1] != self.bath_dim:
            raise ValueError(
                f"layout {dims} does not carry a bath factor of dimension {self.bath_dim}"
            )

    @cached_property
    def _verdict(self) -> ConsistencyVerdict:
        return is_unitary_consistent(self.subspace, self.unitary)

    @cached_property
    def _derivation(self) -> _Derivation:
        return _derive(self.subspace, [self.unitary], (0,), self._verdict.consistent)[0]

    def derived_map(self) -> SubsystemMap:
        if self.subspace.dim == 0 or not self._verdict.consistent:
            return derive_map(self.subspace, self.unitary)  # raises: no map is defined
        return self._derivation.map

    def validate(self) -> None:
        """Raise unless the semantic invariants hold."""
        verdict = self._verdict
        if not verdict.consistent:
            raise ValueError(
                "the representation subspace is not consistent with its unitary "
                f"(worst residual {verdict.worst_residual:.3e})"
            )
        if not subspaces_equal(self._derivation.domain, self.target_domain):
            raise ValueError(
                "the bath partial trace of the subspace does not equal the target domain"
            )


@dataclass(frozen=True)
class RepresentationVerdict:
    """Residuals of the three representation checks and their maximum."""

    passed: bool
    consistency_residual: float
    domain_residual: float
    map_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.consistency_residual, self.domain_residual, self.map_residual)


def _self_check(rep: Representation, target: SubsystemMap, name: str) -> Representation:
    """Return rep if it represents target; a construction that does not is a bug."""
    check = verify_representation(rep, target)
    if not check.passed:
        raise RuntimeError(
            f"{name} failed its self-check with residual {check.max_residual:.3e}"
        )
    return rep


def swap_representation(
    phi: SubsystemMap, omega_gens: Sequence[Operator]
) -> Representation:
    """SWAP-based representation built on states of the positive domain.

    The joint subspace is spanned by rho (x) phi(rho) over the supplied
    positive-domain generators together with their pairwise midpoints; the
    midpoints make the span equal to the image of the symmetric sector of the
    doubled domain, so the construction is basis independent.  The bath copies
    the system and the joint unitary is SWAP.
    """
    omega_gens = list(omega_gens)
    tol = phi.tol
    if not phi.is_trace_preserving():
        raise ValueError("swap representation requires a trace-preserving map")
    if not phi.is_hermiticity_preserving():
        raise ValueError("swap representation requires a Hermiticity-preserving map")
    if not omega_gens:
        raise ValueError("at least one positive-domain generator is required")
    if any(w.layout.dims != phi.domain.layout.dims for w in omega_gens) or not np.all(
        _positive_domain_mask(phi, _stacked(omega_gens))
    ):
        raise ValueError(
            "a supplied generator is not a positive-domain member "
            "(state in the domain mapped to a state)"
        )
    d = phi.dim
    cols = _columns(_stacked(omega_gens))
    if not subspaces_equal(_span_of_columns(phi.domain.layout, cols, tol), phi.domain):
        raise ValueError(
            "the positive-domain generators do not span the map's domain; "
            "a spanning set is required for this construction"
        )
    i, j = np.triu_indices(len(omega_gens), 1)
    cols = np.hstack([cols, (cols[:, i] + cols[:, j]) * 0.5])  # states, then pairwise midpoints
    rho, image = (_unvec_stack(c.T, d) for c in (cols, phi._apply_columns(cols)))
    # rho (x) phi(rho) for every state at once: [(a, c), (b, e)] = rho[a, b] phi(rho)[c, e]
    joint = np.einsum("sab,sce->sacbe", rho, image).reshape(-1, d * d, d * d)
    layout = omega_gens[0].layout.concat(phi.domain.layout)
    v = _span_of_columns(layout, _columns(joint), tol)
    return _self_check(Representation(d, swap_unitary(d), v, phi.domain), phi, "swap representation")


def restrict_to_physical(phi: SubsystemMap, n: int, seed: int) -> SubsystemMap:
    """Restrict a map to the span of its sampled positive domain.

    The result keeps the action of the map but only on the physically
    relevant directions, the ones covered by states mapped to states.
    """
    sample = sample_positive_domain(phi, n, seed)
    if not sample.members:
        raise ValueError(
            f"positive domain not found within the sampling budget (n={n}); "
            "cannot restrict the map"
        )
    restricted = span_from_generators(sample.members, phi.tol)
    return SubsystemMap(
        restricted,
        phi._apply_columns(restricted.basis_matrix()),
        provenance=f"restriction to sampled positive domain (span {sample.span_dim})",
    )


def inverse_representation(rep: Representation, phi: SubsystemMap) -> Representation:
    """Representation of the inverse map: adjoint the unitary, conjugate the subspace.

    Requires phi to be an invertible linear map on the full operator algebra
    and rep to represent phi.  The physical domain of the result is the image
    under phi of the physical domain of rep, which the construction checks on
    sampled mixtures of the state generators.
    """
    tol = phi.tol
    check = verify_representation(rep, phi)
    if not check.passed:
        raise ValueError(
            f"the given triple does not represent the map (max residual {check.max_residual:.3e})"
        )
    n = phi.dim
    if phi.domain.dim != n * n:
        raise ValueError("inverse representations require a full-domain map")
    l = phi.linear_operator()
    if _numerical_rank(np.linalg.svd(l, compute_uv=False), tol.rank_cut) < n * n:
        raise ValueError("the map is numerically singular; no inverse representation")
    l_inv = np.linalg.inv(l)
    inv_map = SubsystemMap(
        phi.domain, l_inv @ phi.domain.basis_matrix(), provenance="inverse"
    )
    u, layout = rep.unitary.entries, rep.subspace.layout  # verify_representation checked u
    b = _unvec_stack(rep.subspace.basis_matrix().T, layout.total_dim)
    conjugated = _span_of_columns(layout, _columns(u @ b @ u.conj().T), tol)
    new_rep = Representation(rep.bath_dim, rep.unitary.dagger(), conjugated, phi.domain)
    _self_check(new_rep, inv_map, "inverse representation")
    _sampled_physical_domain_check(rep, new_rep, phi, tol)
    return new_rep


def _sampled_physical_domain_check(
    rep: Representation,
    new_rep: Representation,
    phi: SubsystemMap,
    tol: ToleranceConfig,
    n_samples: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Images of sampled physical-domain states must be covered by the new subspace.

    The samples are Dirichlet mixtures of the state generators of rep (those of
    its generators that are density matrices, tested as one stack), evolved,
    tested and mapped as one stack.  Raises at the first sample that escapes
    the new subspace or whose reduced image differs from phi of its reduced
    state; returns both residuals of every sample.
    """
    state_tol = tol.state_tol
    gens = _unvec_stack(rep.subspace._generator_matrix.T, rep.subspace.layout.total_dim)
    state_gens = gens[_density_mask(gens, state_tol, state_tol)]  # Operator.is_density(state_tol)
    if not len(state_gens):
        return np.zeros(0), np.zeros(0)
    rng = np.random.default_rng(20260811)
    weights = np.array([rng.dirichlet(np.ones(len(state_gens))) for _ in range(n_samples)])
    joint = np.tensordot(weights, state_gens, axes=1)
    u = rep.unitary.entries
    evolved = _columns(u @ joint @ u.conj().T)
    _, escaped, inside = new_rep.subspace._coordinates_of(evolved)
    dims = rep.subspace.layout.dims
    image = _reduced_evolution(evolved, dims, (0,))
    reference = phi._apply_columns(_reduced_evolution(_columns(joint), dims, (0,)))
    drift = np.linalg.norm(image - reference, axis=0)
    drift_bound = tol.residual_tol * np.maximum(1.0, np.linalg.norm(reference, axis=0))
    for covered, close in zip(inside, drift <= drift_bound):
        if not covered:
            raise RuntimeError("evolved physical state escaped the conjugated subspace")
        if not close:
            raise RuntimeError("physical-domain image check failed")
    return escaped, drift


def kraus_dilation(
    kraus: Sequence[Operator], tol: ToleranceConfig = DEFAULT_TOL
) -> Representation:
    """Dilate a trace-preserving Kraus list to a joint unitary model.

    The bath dimension equals the number of Kraus operators.  The unitary's
    block column for the bath reference state |0> stacks the Kraus operators
    (an isometry by trace preservation) and the remaining block columns are an
    orthonormal completion; any completion gives the same reduced map.  The
    joint subspace is the system algebra tensored with |0><0|, whose reduced
    dynamics under the dilated unitary is exactly the Kraus map.
    """
    kraus = list(kraus)
    if not kraus:
        raise ValueError("at least one Kraus operator is required")
    d = kraus[0].dim
    for m in kraus:
        if m.layout.n_factors != 1 or m.dim != d:
            raise ValueError("Kraus operators must act on a single system factor")
    target = map_from_kraus(kraus, tol)  # refuses a list that is not trace preserving
    k = len(kraus)
    n = d * k
    w = np.stack([m.entries for m in kraus], axis=1).reshape(n, d)  # isometry, <s,i|W = <s|M_i
    u_mat = np.zeros((n, n), dtype=complex)
    u_mat[:, 0::k] = w
    u_mat[:, np.arange(n) % k != 0] = np.linalg.svd(w.conj().T)[2][d:].conj().T  # completion
    u = Operator(SpaceLayout((d, k)), u_mat)
    system = full_operator_space((d,), tol)
    ref = np.eye(k)[0]  # the bath reference state |0>
    joint = np.kron(_unvec_stack(system.basis_matrix().T, d), np.outer(ref, ref))
    v = _span_of_columns(u.layout, _columns(joint), tol)
    return _self_check(Representation(k, u, v, system), target, "Kraus dilation")


def verify_representation(
    rep: Representation, phi: SubsystemMap
) -> RepresentationVerdict:
    """Check a claimed representation against a target map.

    Verifies (a) consistency of the subspace with the unitary, (b) equality of
    the reduced subspace with the map's domain, and (c) coordinate-wise
    equality of the derived map with the target, reporting each residual.
    """
    tol = phi.tol
    consistency = rep._verdict.worst_residual
    derivation = rep._derivation
    reduced = derivation.domain
    if reduced.layout.dims != phi.domain.layout.dims:
        raise ValueError(f"layout mismatch: {reduced.layout.dims} vs {phi.domain.layout.dims}")
    out_of_target = phi.domain._coordinates_of(reduced.basis_matrix())[1]
    out_of_reduced = reduced._coordinates_of(phi.domain.basis_matrix())[1]
    domain_residual = float(np.max(np.concatenate([out_of_target, out_of_reduced]), initial=0.0))
    # Grade the defining relation against the target directly; this stays
    # finite for perturbed unitaries where the derived map does not exist.
    # The subspace basis is orthonormal, so residuals need no normalization.
    try:
        drift = phi._apply_columns(derivation.reduced) - derivation.evolved
        residual_map = float(np.max(np.linalg.norm(drift, axis=0), initial=0.0))
    except ValueError:
        residual_map = float("inf")
    if (
        residual_map <= tol.residual_tol
        and domain_residual <= tol.residual_tol
        and consistency <= tol.residual_tol
    ):
        residual_map = max(residual_map, map_residual(phi, rep.derived_map()))
    passed = (
        consistency <= tol.residual_tol
        and domain_residual <= tol.residual_tol
        and residual_map <= tol.residual_tol
    )
    return RepresentationVerdict(passed, consistency, domain_residual, residual_map)
