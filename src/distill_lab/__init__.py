"""distill-lab: constructive distillability analysis for bipartite states.

Numerically constructs 1-distillability witnesses for NPT states, the
two-parameter two-qutrit edge-state family with its rank-5 NPT
perturbation that admits no such witness, and n-copy (n <= 2) bounds for
the separable Werner projector.
"""

from .qcore import (
    BipartiteState,
    DimensionMismatchError,
    Dims,
    InvariantViolationError,
    NumericalFailureError,
    PureState,
    SpectralData,
    hermitian_eig,
    is_ppt,
    min_pt_eigenvalue,
    partial_trace,
    partial_transpose,
    rank_kernel_range,
    regroup_tensor_power,
    schmidt_decompose,
    schmidt_rank,
    tensor,
)
from .edgestate import (
    DEFAULT_GRID,
    EdgeBundle,
    EdgeParams,
    build_edge_bundle,
    edge_state,
    edge_state_pt,
    maximally_entangled_qutrits,
    min_positive_pt_eigenvalue,
    range_product_vector,
    undistillability_margin,
)
from .multicopy import (
    MulticopyReport,
    eps_threshold_for_copies,
    extremal_rank2_tensor_power,
    max_rank2_overlap_with_mes,
    undistillability_bound,
    verify_n_undistillable,
    werner_projector,
)
from .witness import (
    Rank2Ansatz,
    ScanHit,
    WitnessCertificate,
    best_rank2_witness,
    certify_1_distillable,
    kernel_product_witness,
    min_rank2_expectation,
    product_vector_in_subspace,
    pt_quadratic_form,
    submatrix_2x2_scan,
    two_nonpositive_witness,
    verify_certificate,
)
from .harness import EnsembleSpec, SuiteReport, random_state, run_suite, sample_ensemble

__version__ = "0.1.0"


def ToleranceConfig(seed: int = 2024) -> int:
    """Deprecated, outside ``__all__``: returns ``seed``, which no library routine reads."""
    return seed


__all__ = [
    "BipartiteState",
    "DEFAULT_GRID",
    "DimensionMismatchError",
    "Dims",
    "EdgeBundle",
    "EdgeParams",
    "EnsembleSpec",
    "InvariantViolationError",
    "MulticopyReport",
    "NumericalFailureError",
    "PureState",
    "Rank2Ansatz",
    "ScanHit",
    "SpectralData",
    "SuiteReport",
    "WitnessCertificate",
    "best_rank2_witness",
    "build_edge_bundle",
    "certify_1_distillable",
    "edge_state",
    "edge_state_pt",
    "eps_threshold_for_copies",
    "extremal_rank2_tensor_power",
    "hermitian_eig",
    "is_ppt",
    "kernel_product_witness",
    "max_rank2_overlap_with_mes",
    "maximally_entangled_qutrits",
    "min_positive_pt_eigenvalue",
    "min_pt_eigenvalue",
    "min_rank2_expectation",
    "partial_trace",
    "partial_transpose",
    "product_vector_in_subspace",
    "pt_quadratic_form",
    "random_state",
    "range_product_vector",
    "rank_kernel_range",
    "regroup_tensor_power",
    "run_suite",
    "sample_ensemble",
    "schmidt_decompose",
    "schmidt_rank",
    "submatrix_2x2_scan",
    "tensor",
    "two_nonpositive_witness",
    "undistillability_bound",
    "undistillability_margin",
    "verify_certificate",
    "verify_n_undistillable",
    "werner_projector",
]
