"""Built-in model systems, named maps, and inequality stress checks.

Contents: the thermal qubit-pair family with its closed-form states and
controlled-phase evolution, the transpose and repolarizing maps together with
their 10-dimensional swap-consistent subspaces, the depolarizing Kraus list,
and the contractivity / relative-entropy comparisons that the repolarizer
breaks.  Pauli matrices follow the standard convention fixed in
``operators``; every printed coefficient below depends on that choice.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .consistency import UnitaryFamily
from .maps import (
    SubsystemMap,
    _domain_entries,
    _positive_domain_mask,
    _require_finite,
    map_from_action,
)
from .operators import (
    Operator,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _check_same_layout,
    _columns,
    _gibbs_states,
    _min_eigenvalues,
    _refuse_first,
    _relative_entropies,
    _require_schatten_p,
    _require_states,
    _schatten_distances,
    tensor,
)
from .subspaces import OperatorSubspace, _span_of_columns, full_operator_space, span_from_generators

__all__ = [
    "GibbsParams",
    "RepolarizerParams",
    "gibbs_hamiltonian",
    "gibbs_state_closed_form",
    "gibbs_subspace",
    "controlled_phase_generator",
    "controlled_phase_unitary",
    "controlled_phase_family",
    "controlled_phase_map",
    "controlled_phase_kraus",
    "transpose_map",
    "transpose_subspace",
    "repolarizer",
    "depolarizer",
    "repolarizer_subspace",
    "depolarizer_kraus",
    "axis_states",
    "interior_ball_pair",
    "ball_pair",
    "contractivity_ratio",
    "uhlmann_check",
    "UhlmannReport",
]


# The sixteen two-qubit Pauli products, keyed by their letters: "ZX" is Z (x) X.
_PAULIS = dict(zip("IXYZ", (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)))
_PAULI_PAIRS = {a + b: tensor(pa, pb) for a, pa in _PAULIS.items() for b, pb in _PAULIS.items()}


# -- thermal qubit-pair family -------------------------------------------------


@dataclass(frozen=True)
class GibbsParams:
    """Parameters of the thermal family: coupling angle and inverse temperature."""

    theta: float
    beta: float

    def __post_init__(self) -> None:
        for name, value in (("theta", self.theta), ("beta", self.beta)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    @property
    def lam(self) -> float:
        """sqrt(2 theta^2 + 2 theta + 1), always >= 1/sqrt(2)."""
        return math.sqrt(2 * self.theta**2 + 2 * self.theta + 1)

    @property
    def gam(self) -> float:
        """sqrt(2 theta^2 - 2 theta + 1), always >= 1/sqrt(2)."""
        return math.sqrt(2 * self.theta**2 - 2 * self.theta + 1)


def gibbs_hamiltonian(theta: float) -> Operator:
    """H(theta) = theta (X + Z) (x) 1 + X (x) X on a qubit pair; one :func:`_gibbs_hamiltonians`."""
    return Operator(_PAULI_PAIRS["II"].layout, _gibbs_hamiltonians([theta])[0])


def _gibbs_hamiltonians(thetas) -> np.ndarray:
    """H(theta) at each theta as a (k, 4, 4) stack: X (x) 1 + Z (x) 1, times theta as a complex
    multiplier, plus X (x) X, in the order of the former ``Operator`` chain."""
    coupling = _PAULI_PAIRS["XI"].entries + _PAULI_PAIRS["ZI"].entries
    return coupling * np.fromiter(thetas, complex)[:, None, None] + _PAULI_PAIRS["XX"].entries


def gibbs_state_closed_form(p: GibbsParams) -> Operator:
    """Closed-form thermal state of gibbs_hamiltonian; the one-element :func:`_gibbs_closed_forms`.

    Raises ValueError where the terms overflow: from |beta| lam of about 710 on.
    """
    return Operator(_PAULI_PAIRS["II"].layout, _gibbs_closed_forms([p])[0])


def _gibbs_closed_forms(params) -> np.ndarray:
    """Closed-form thermal states at a sequence of GibbsParams, as a (k, 4, 4) stack: scalar
    ``math`` coefficients for each point, then the six terms summed in one stack, in order."""
    coefficients = []
    for p in params:
        beta = p.beta
        try:
            lam, gam = p.lam, p.gam
            denom = math.cosh(beta * lam) + math.cosh(beta * gam)
        except OverflowError:  # from theta**2 or a cosh
            denom = math.inf
        if denom == math.inf:  # also where beta * lam is inf, of which cosh raises nothing
            raise ValueError(f"the closed form overflows at theta={p.theta!r}, beta={beta!r}")
        sl = math.sinh(beta * lam) / lam
        sg = math.sinh(beta * gam) / gam
        c_bath_x = (math.cosh(beta * lam) - math.cosh(beta * gam)) / denom
        c_z1 = -p.theta * (sl + sg) / denom
        c_x1 = -((p.theta + 1) * sl + (p.theta - 1) * sg) / denom
        c_xx = -((p.theta + 1) * sl - (p.theta - 1) * sg) / denom
        c_zx = -p.theta * (sl - sg) / denom
        coefficients.append((c_bath_x, c_z1, c_x1, c_xx, c_zx))
    state, c = _PAULI_PAIRS["II"].entries, np.array(coefficients, dtype=complex).reshape(-1, 5)
    for j, name in enumerate(("IX", "ZI", "XI", "XX", "ZX")):
        state = state + _PAULI_PAIRS[name].entries * c[:, j, None, None]
    return state / complex(4.0)


_DEFAULT_THETAS = tuple(np.linspace(-2.0, 2.0, 5))
_DEFAULT_BETAS = tuple(np.linspace(0.1, 2.0, 5))


def _gibbs_grid(thetas, betas, tol: float) -> np.ndarray:
    """The thermal states at each (theta, beta), theta-major, from one :func:`_gibbs_states`."""
    hams, betas = _gibbs_hamiltonians(thetas), list(betas)
    return _gibbs_states(np.repeat(hams, len(betas), axis=0), betas * len(hams), tol)


def gibbs_subspace(
    tol: ToleranceConfig = DEFAULT_TOL,
    thetas=_DEFAULT_THETAS,
    betas=_DEFAULT_BETAS,
) -> OperatorSubspace:
    """Span of the thermal family over a (theta, beta) grid; dimension 6."""
    states = _gibbs_grid(thetas, betas, tol.residual_tol)
    if not len(states):
        raise ValueError("gibbs_subspace requires at least one theta and one beta")
    return _span_of_columns(_PAULI_PAIRS["II"].layout, _columns(states), tol)


_CONTROLLED_PHASE_GENERATOR = (
    _PAULI_PAIRS["II"] + _PAULI_PAIRS["ZI"] + _PAULI_PAIRS["IZ"] - _PAULI_PAIRS["ZZ"]
) * 0.5


def controlled_phase_generator() -> Operator:
    """K = (1 + Z(x)1 + 1(x)Z - Z(x)Z) / 2, the controlled-phase generator."""
    return _CONTROLLED_PHASE_GENERATOR


def _cos_sin(t: float) -> tuple[float, float]:
    """(cos t, sin t), refusing a non-finite t for every controlled-phase construction."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    return math.cos(t), math.sin(t)


def controlled_phase_unitary(t: float) -> Operator:
    """U(t) = exp(-i t K); K squares to the identity so U = cos t - i sin t K."""
    c, s = _cos_sin(t)
    return c * _PAULI_PAIRS["II"] + (-1j * s) * _CONTROLLED_PHASE_GENERATOR


def controlled_phase_family(n: int = 16, t_max: float = 2 * math.pi) -> UnitaryFamily:
    """Finite sample grid of the one-parameter controlled-phase group.

    Continuous families are represented by grids; the generator-level probe in
    ``consistency.lie_generator_check`` complements this sampling.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max!r}")
    ts = [(i + 1) * t_max / (n + 1) for i in range(n)]
    return UnitaryFamily(
        tuple(controlled_phase_unitary(t) for t in ts),
        description=f"controlled-phase one-parameter family sampled at {n} points",
    )


def _span_1_x_z(tol: ToleranceConfig) -> OperatorSubspace:
    return span_from_generators([PAULI_I, PAULI_X, PAULI_Z], tol)


def controlled_phase_map(t: float, tol: ToleranceConfig = DEFAULT_TOL) -> SubsystemMap:
    """Reduced map of the thermal family under U(t), on span{1, X, Z}.

    Closed form: A -> cos^2(t) A + sin^2(t)(A + Z A Z)/2 + (i/2) sin t cos t [A, Z].
    """
    z = PAULI_Z.entries
    c, s = _cos_sin(t)

    def action(a: np.ndarray) -> np.ndarray:
        return c * c * a + 0.5 * s * s * (a + z @ a @ z) + 0.5j * s * c * (a @ z - z @ a)

    return map_from_action(action, _span_1_x_z(tol), provenance=f"controlled-phase(t={t})")


def controlled_phase_kraus(t: float) -> tuple[Operator, Operator]:
    """Kraus pair extending the controlled-phase reduced map to all of B(C^2).

    E1 = sqrt((1+cos t)/2) (cos(t/2) 1 - i sin(t/2) Z)
    E2 = sqrt((1-cos t)/2) (sin(t/2) 1 + i cos(t/2) Z)
    Completeness E1^dag E1 + E2^dag E2 = 1 holds identically.
    """
    c, _ = _cos_sin(t)
    half = t / 2.0
    w1 = math.sqrt(max(0.0, (1 + c) / 2))
    w2 = math.sqrt(max(0.0, (1 - c) / 2))
    e1 = w1 * (math.cos(half) * PAULI_I + (-1j * math.sin(half)) * PAULI_Z)
    e2 = w2 * (math.sin(half) * PAULI_I + (1j * math.cos(half)) * PAULI_Z)
    return e1, e2


# -- transpose and repolarizer constructions -----------------------------------


def transpose_map(tol: ToleranceConfig = DEFAULT_TOL) -> SubsystemMap:
    """The qubit transpose map A -> A^T; positive but not completely positive."""
    return map_from_action(
        lambda a: a.T.copy(), full_operator_space((2,), tol), provenance="transpose"
    )


def transpose_subspace(tol: ToleranceConfig = DEFAULT_TOL) -> OperatorSubspace:
    """The 10-dimensional swap-consistent subspace inducing the transpose map."""
    pp = _PAULI_PAIRS
    gens = [
        pp["II"],
        pp["XI"] + pp["IX"],
        pp["YI"] - pp["IY"],
        pp["ZI"] + pp["IZ"],
        pp["XX"],
        pp["YY"],
        pp["ZZ"],
        pp["XY"] - pp["YX"],
        pp["YZ"] - pp["ZY"],
        pp["ZX"] + pp["XZ"],
    ]
    return span_from_generators(gens, tol)


@dataclass(frozen=True)
class RepolarizerParams:
    """Strength of the (de/re)polarizing pair; the positive domain is the epsilon ball."""

    epsilon: float

    def __post_init__(self) -> None:
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon!r}")


def _smallest_state_checkable_epsilon(tol: ToleranceConfig) -> float:
    """Below this epsilon, repolarized states may fail their own state checks.

    They err by up to 0.99 machine epsilon / epsilon (seeded sweep), against the
    state checks' ``tol.state_tol``; the floor keeps a factor of 2.
    """
    return 2.0 * sys.float_info.epsilon / tol.state_tol if tol.state_tol > 0 else math.inf


def _require_checkable_epsilon(name: str, eps: float, floor: float, tol: ToleranceConfig) -> None:
    """Refuse 0 < eps < floor as an input error that names the input."""
    if 0 < eps < floor:
        raise ValueError(
            f"{name} {eps!r} is below {floor:.3g}, the smallest epsilon whose "
            f"constructions can be checked at residual tolerance {tol.residual_tol:g}"
        )


def repolarizer(epsilon: float, tol: ToleranceConfig = DEFAULT_TOL) -> SubsystemMap:
    """A -> (1/e) A - ((1-e)/(2e)) Tr(A) 1: linear, TP, HP, not positive."""
    p = RepolarizerParams(epsilon)
    eye = np.eye(2, dtype=complex)

    def action(a: np.ndarray) -> np.ndarray:
        return a / p.epsilon - ((1 - p.epsilon) / (2 * p.epsilon)) * np.trace(a) * eye

    return map_from_action(
        action, full_operator_space((2,), tol), provenance=f"repolarizer({epsilon})"
    )


def depolarizer(epsilon: float, tol: ToleranceConfig = DEFAULT_TOL) -> SubsystemMap:
    """A -> e A + (1-e) Tr(A) 1/2, the inverse of the repolarizer."""
    p = RepolarizerParams(epsilon)
    eye = np.eye(2, dtype=complex)

    def action(a: np.ndarray) -> np.ndarray:
        return p.epsilon * a + (1 - p.epsilon) * np.trace(a) * eye / 2

    return map_from_action(
        action, full_operator_space((2,), tol), provenance=f"depolarizer({epsilon})"
    )


def repolarizer_subspace(
    epsilon: float, tol: ToleranceConfig = DEFAULT_TOL
) -> OperatorSubspace:
    """The 10-dimensional swap-consistent subspace inducing the repolarizer.

    Single-sided Pauli terms carry relative weight 1/epsilon on the bath side.
    """
    p = RepolarizerParams(epsilon)
    w = 1.0 / p.epsilon
    pp = _PAULI_PAIRS
    gens = [
        pp["II"],
        pp["XI"] + w * pp["IX"],
        pp["YI"] + w * pp["IY"],
        pp["ZI"] + w * pp["IZ"],
        pp["XX"],
        pp["YY"],
        pp["ZZ"],
        pp["XY"] + pp["YX"],
        pp["YZ"] + pp["ZY"],
        pp["ZX"] + pp["XZ"],
    ]
    return span_from_generators(gens, tol)


def depolarizer_kraus(epsilon: float) -> list[Operator]:
    """Kraus list of the depolarizer: sqrt((1+3e)/4) 1 and sqrt((1-e)/4) sigma_i."""
    p = RepolarizerParams(epsilon)
    w0 = math.sqrt(1 + 3 * p.epsilon) / 2
    wi = math.sqrt(1 - p.epsilon) / 2
    return [w0 * PAULI_I, wi * PAULI_X, wi * PAULI_Y, wi * PAULI_Z]


def _bloch_states(directions, radii) -> np.ndarray:
    """(1 + r n.sigma)/2 for each row n of a (k, 3) array of directions and each of k radii r,
    as a (k, 2, 2) stack: n0 X + n1 Y + n2 Z, times r, plus 1, times 1/2, all in complex."""
    x, y, z = np.asarray(directions, dtype=complex).reshape(-1, 3).T[:, :, None, None]
    bloch = PAULI_X.entries * x + PAULI_Y.entries * y + PAULI_Z.entries * z
    return (PAULI_I.entries + bloch * np.asarray(radii, dtype=complex)[:, None, None]) * 0.5


def axis_states(radius: float = 1.0) -> list[Operator]:
    """The six Bloch-axis states (1 +/- r sigma)/2 at the given radius: +-x, +-y, +-z."""
    if not 0 <= radius <= 1:  # outside the Bloch ball they are not states; NaN is refused too
        raise ValueError(f"radius must lie in [0, 1], got {radius!r}")
    states = _bloch_states(np.kron(np.eye(3), [[1.0], [-1.0]]), [radius] * 6)
    return [Operator(PAULI_I.layout, s) for s in states]


def _ball_states(rng: np.random.Generator, radius, count: int) -> np.ndarray:
    """``count`` states (1 + r n.sigma)/2 as a (count, 2, 2) stack: each draws a uniform
    direction n, then r = radius(rng)."""
    n, r = [], []
    for _ in range(count):
        n.append(rng.standard_normal(3))
        r.append(radius(rng))
    return _bloch_states([v / np.linalg.norm(v) for v in n], r)


def _ball_pair(rng: np.random.Generator, radius) -> tuple[Operator, Operator]:
    """Two states of :func:`_ball_states`, as operators."""
    return tuple(Operator(PAULI_I.layout, s) for s in _ball_states(rng, radius, 2))


def _ball_radius(epsilon: float):
    """The radius of a uniform draw from the closed epsilon ball, epsilon in (0, 1]."""
    epsilon = RepolarizerParams(epsilon).epsilon
    return lambda g: epsilon * g.uniform(0.0, 1.0) ** (1.0 / 3.0)


def _interior_radius(epsilon: float, radius_fraction: float = 0.5):
    """The radius of a full-rank draw strictly inside the epsilon ball, both factors in (0, 1]."""
    epsilon = RepolarizerParams(epsilon).epsilon
    if not 0 < radius_fraction <= 1:
        raise ValueError(f"radius_fraction must lie in (0, 1], got {radius_fraction!r}")
    return lambda g: epsilon * radius_fraction * g.uniform(0.3, 1.0)


def interior_ball_pair(
    epsilon: float, rng: np.random.Generator, radius_fraction: float = 0.5
) -> tuple[Operator, Operator]:
    """Two random full-rank states strictly inside the epsilon ball."""
    return _ball_pair(rng, _interior_radius(epsilon, radius_fraction))


def ball_pair(epsilon: float, rng: np.random.Generator) -> tuple[Operator, Operator]:
    """Two distinct random states drawn from the closed epsilon ball."""
    return _ball_pair(rng, _ball_radius(epsilon))


# -- inequality checks ----------------------------------------------------------


def contractivity_ratio(
    phi: SubsystemMap, r1: Operator, r2: Operator, p: float
) -> float | None:
    """delta_p(phi r1, phi r2) / delta_p(r1, r2); None when the inputs coincide.  The one-pair
    :func:`_contractivity_ratios`."""
    _check_same_layout(r1, r2)
    _check_same_layout(r1, phi.domain)
    return _contractivity_ratios(phi, r1.entries[None], r2.entries[None], p)[0]


def _contractivity_ratios(
    phi: SubsystemMap, r1: np.ndarray, r2: np.ndarray, p: float
) -> list[float | None]:
    """:func:`contractivity_ratio` of each pair of two (k, N, N) stacks in phi's layout: phi
    applied once per stack, then one :func:`_schatten_distances` over the k input and the k
    output pairs."""
    _require_schatten_p(p)
    images = [phi._apply_stack(r) for r in (r1, r2)]
    k = len(r1)
    d = _schatten_distances(np.concatenate([r1, images[0]]), np.concatenate([r2, images[1]]), p)
    return [None if din == 0.0 else dout / din for din, dout in zip(d[:k], d[k:])]


@dataclass(frozen=True)
class UhlmannReport:
    """Relative entropies before and after a map, and their ratio."""

    entropy_in: float
    entropy_out: float
    ratio: float | None


def uhlmann_check(phi: SubsystemMap, r1: Operator, r2: Operator) -> UhlmannReport:
    """Compare S(r1 || r2) with S(phi r1 || phi r2); the one-pair :func:`_uhlmann_reports`.

    For trace-preserving CP maps the output entropy never exceeds the input
    entropy; the repolarizer instead amplifies it by at least 1/epsilon.
    Inputs must be full-rank states in the map's positive domain.
    """
    return _uhlmann_reports(phi, _domain_entries(phi, r1), _domain_entries(phi, r2))[0]


def _uhlmann_reports(phi: SubsystemMap, r1: np.ndarray, r2: np.ndarray) -> list[UhlmannReport]:
    """:func:`uhlmann_check` of each pair of two (k, N, N) stacks.

    One positive-domain test of all 2k states, whose smallest eigenvalues
    also give the rank test, refused pair by pair (r1 before r2, the domain
    before the rank), then phi once per stack and one
    :func:`_relative_entropies` over the k input and the k output pairs.
    Every pair's preconditions are checked before any pair's entropies.
    """
    tol, k = phi.tol, len(r1)
    _require_finite(phi, "positive_domain_membership")
    states = np.concatenate([r1, r2])
    lowest = _min_eigenvalues(states)  # for the state test and the rank test
    member = _positive_domain_mask(phi, states, lowest)
    deficient = lowest <= tol.entropy_support_tol
    _refuse_first(
        (member[:k], "r1 is not in the map's positive domain"),
        (~deficient[:k], "r1 must be full rank for the relative-entropy check"),
        (member[k:], "r2 is not in the map's positive domain"),
        (~deficient[k:], "r2 must be full rank for the relative-entropy check"),
    )
    images = [phi._apply_stack(r) for r in (r1, r2)]
    t1, t2 = np.concatenate([r1, images[0]]), np.concatenate([r2, images[1]])
    _require_states(t1, t2, tol)
    entropies = _relative_entropies(t1, t2, tol)
    reports = []
    for s_in, s_out in zip(entropies[:k], entropies[k:]):
        # A ratio against an input entropy at floating-point noise level is
        # meaningless; report it as undefined.
        if math.isinf(s_in) or abs(s_in) <= 10 * tol.entropy_support_tol:
            reports.append(UhlmannReport(s_in, s_out, None))
        else:
            reports.append(UhlmannReport(s_in, s_out, s_out / s_in))
    return reports


def _violation_sample(
    epsilon: float, pairs: int, rng: np.random.Generator, tol: ToleranceConfig
) -> tuple[list[float], list[float], bool, list[float]]:
    """The repolarizer's violations, as ``beyondcp violations`` reports them.

    Draws every state first, in this order: the ``pairs`` epsilon-ball pairs
    of the repolarizer's trace-norm ratios, the ``pairs`` interior pairs of its
    relative-entropy checks, then the ``pairs`` Bloch-ball pairs of the
    trace-norm ratios of its inverse, the depolarizer.  Each state draws
    ``standard_normal(3)`` for its direction, then the ``uniform`` of its
    radius, the two states of a pair one after the other.  Each experiment is
    then one stacked evaluation.  Returns (contraction ratios, entropy ratios,
    monotone, control ratios) with the undefined ratios dropped; ``monotone``
    says that no check's output entropy exceeds its input entropy by more than
    residual_tol.
    """
    phi, inverse = repolarizer(epsilon, tol), depolarizer(epsilon, tol)
    contraction = _ball_states(rng, _ball_radius(epsilon), 2 * pairs)
    interior = _ball_states(rng, _interior_radius(epsilon), 2 * pairs)
    control = _ball_states(rng, _ball_radius(1.0), 2 * pairs)
    ratios = _contractivity_ratios(phi, contraction[0::2], contraction[1::2], p=1)
    checks = _uhlmann_reports(phi, interior[0::2], interior[1::2])
    control_ratios = _contractivity_ratios(inverse, control[0::2], control[1::2], p=1)
    return (
        [r for r in ratios if r is not None],
        [c.ratio for c in checks if c.ratio is not None],
        not any(c.entropy_out > c.entropy_in + tol.residual_tol for c in checks),
        [r for r in control_ratios if r is not None],
    )
