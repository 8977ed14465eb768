"""Correlation and non-Gaussian-correlation measures for two-mode bosonic
states in truncated Fock space.

The package computes entropic, geometric, and fidelity-based mutual
informations, their deltas against the Gaussian reference state with the
same first and second moments, and distance/fidelity measures of
non-Gaussian correlation built from averaged target/reference states,
together with covariance-matrix closed forms, two-qubit oracles for
lossy entangled coherent states, entanglement monotones, and a
beam-splitter/homodyne distillation protocol.
"""

from .channels import (
    apply_loss,
    beam_splitter,
    ecs_loss_analytic,
    ecs_loss_branches,
    ecs_weights,
    loss_kraus,
)
from .distill import DistillConfig, distill, quadrature_eigenvector
from .entanglement import (
    concurrence_two_qubit,
    eof_two_qubit,
    log_negativity_fock,
)
from .errors import (
    BadEta,
    BadModeIndex,
    BadSpec,
    CaseNotApplicable,
    ConvergenceFailure,
    DimMismatch,
    DomainError,
    InvalidCutoff,
    InvalidState,
    MeanMismatch,
    NGCorrError,
    SupportMismatch,
    TruncationError,
    UnphysicalCM,
    ZeroWeight,
)
from .fock import (
    FockState,
    distance,
    expect,
    fidelity,
    ladder_ops,
    overlap,
    partial_trace,
    partial_transpose,
    pure_state,
    tensor,
)
from .gaussian import (
    GaussianSpec,
    StandardFormCM,
    analytic_cm,
    compose_rule,
    extract_moments,
    gaussian_log_negativity,
    gaussian_mi,
    moments_from_fock,
    reference_gaussian_fock,
    standard_form,
    standard_form_symplectic_eigs,
    symplectic_eigs,
    williamson,
)
from .measures import (
    MeasureResult,
    averaged_states,
    delta_ng,
    mutual_information,
    ng_correlation,
    ng_lb2_fast,
    reference_state,
    sandwiched_relative_entropy,
    superfidelity_chain,
)
from .states import StateSpec, cat_basis, default_cutoff, displacement, make_state
from .xstate import (
    XStateParams,
    bell_params,
    ecs_to_xstate,
    pure_schmidt_mi,
    xstate_mi,
)

__version__ = "1.0.0"

__all__ = [
    "BadEta",
    "BadModeIndex",
    "BadSpec",
    "CaseNotApplicable",
    "ConvergenceFailure",
    "DimMismatch",
    "DistillConfig",
    "DomainError",
    "FockState",
    "GaussianSpec",
    "InvalidCutoff",
    "InvalidState",
    "MeanMismatch",
    "MeasureResult",
    "NGCorrError",
    "StandardFormCM",
    "StateSpec",
    "SupportMismatch",
    "TruncationError",
    "UnphysicalCM",
    "XStateParams",
    "ZeroWeight",
    "analytic_cm",
    "apply_loss",
    "averaged_states",
    "beam_splitter",
    "bell_params",
    "cat_basis",
    "compose_rule",
    "concurrence_two_qubit",
    "default_cutoff",
    "delta_ng",
    "displacement",
    "distance",
    "distill",
    "ecs_loss_analytic",
    "ecs_loss_branches",
    "ecs_to_xstate",
    "ecs_weights",
    "eof_two_qubit",
    "expect",
    "extract_moments",
    "fidelity",
    "gaussian_log_negativity",
    "gaussian_mi",
    "ladder_ops",
    "log_negativity_fock",
    "loss_kraus",
    "make_state",
    "moments_from_fock",
    "mutual_information",
    "ng_correlation",
    "ng_lb2_fast",
    "overlap",
    "partial_trace",
    "partial_transpose",
    "pure_schmidt_mi",
    "pure_state",
    "quadrature_eigenvector",
    "reference_gaussian_fock",
    "reference_state",
    "sandwiched_relative_entropy",
    "standard_form",
    "standard_form_symplectic_eigs",
    "superfidelity_chain",
    "symplectic_eigs",
    "tensor",
    "williamson",
    "xstate_mi",
]
