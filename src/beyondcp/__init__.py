"""Consistent operator subspaces and the reduced dynamics they induce.

The package builds subspaces of correlated system-bath initial states, checks
when a joint unitary induces a well-defined reduced map on them, derives and
analyzes that map (trace/Hermiticity preservation, Choi spectrum, complete
positivity, positive domain), constructs dilation representations for general
trace- and Hermiticity-preserving maps, and exercises the named example
systems including the inequality violations of the repolarizing map.
"""

from .config import DEFAULT_TOL, SelfCheckError, ToleranceConfig
from .operators import (
    Operator,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SpaceLayout,
    adjoint_action,
    bell_projector,
    gibbs_state,
    identity,
    ket_projector,
    matrix_unit,
    operator,
    partial_trace,
    relative_entropy,
    schatten_distance,
    swap_unitary,
    tensor,
    trace_out,
    zero,
)
from .subspaces import (
    OperatorSubspace,
    check_state_spanned,
    full_operator_space,
    kernel_of_partial_trace,
    span_from_generators,
    subspace_intersection,
    subspace_leq,
    subspace_sum,
    subspaces_equal,
    symmetric_sector,
)
from .consistency import (
    ConsistencyVerdict,
    UnitaryFamily,
    WitnessFactorizationReport,
    consistent_kernel,
    extension_is_consistent,
    is_family_consistent,
    is_unitary_consistent,
    lie_generator_check,
    transformation_space,
    witness_extension_consistent,
    witness_factorization_gap,
)
from .maps import (
    CpVerdict,
    InconsistentPairError,
    MapDomainError,
    PositiveDomainSample,
    PositivityScanResult,
    SubsystemMap,
    choi_matrix,
    compose,
    derive_map,
    identity_map,
    is_cp,
    map_from_action,
    map_from_kraus,
    map_residual,
    positive_domain_membership,
    positivity_scan,
    sample_positive_domain,
)
from .dilations import (
    Representation,
    RepresentationVerdict,
    inverse_representation,
    kraus_dilation,
    restrict_to_physical,
    swap_representation,
    verify_representation,
)
from . import catalog, sampling, serialization

__version__ = "0.1.0"
