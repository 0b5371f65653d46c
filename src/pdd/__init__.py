"""Placebo-adjusted regression discontinuity estimation.

Local instrumented regression at a cutoff, a decomposition into the plain
discontinuity plus a placebo-outcome adjustment, robust bias-corrected
inference, and a structural simulator with a known true effect.
"""

from .errors import (
    EmptyAfterFiltering,
    EquivalenceBreach,
    MissingColumn,
    NonFiniteResult,
    ParseError,
    PddError,
    SingularSupport,
    WeakFirstStage,
    WeakInstrument,
)
from .estimator import DiscontinuityEstimate, estimate_fuzzy, estimate_sharp
from .inference import (
    RobustEstimate,
    SideCorrection,
    bias_corrected_estimate,
    rdd_robust_estimate,
    robust_variance,
    rule_of_thumb_bandwidth,
    side_correction,
    side_correction_from_weights,
)
from .io import (
    ColumnBindings,
    RunConfig,
    Sample,
    load_csv,
    parse_config_file,
    write_csv,
)
from .kernels import (
    KernelSpec,
    ScaledBasis,
    SidedWeights,
    kernel_value,
    scaled_basis,
    sided_weights,
)
from .local_fit import (
    IvFit,
    LocalFit,
    local_iv_fit,
    local_poly_fit,
)
from .simulate import DgpSpec, DgpTruth, McReport, dgp_truth, monte_carlo, simulate

__version__ = "0.1.0"

__all__ = [
    "ColumnBindings",
    "DgpSpec",
    "DgpTruth",
    "DiscontinuityEstimate",
    "EmptyAfterFiltering",
    "EquivalenceBreach",
    "IvFit",
    "KernelSpec",
    "LocalFit",
    "McReport",
    "MissingColumn",
    "NonFiniteResult",
    "ParseError",
    "PddError",
    "RobustEstimate",
    "RunConfig",
    "Sample",
    "ScaledBasis",
    "SideCorrection",
    "SidedWeights",
    "SingularSupport",
    "WeakFirstStage",
    "WeakInstrument",
    "bias_corrected_estimate",
    "dgp_truth",
    "estimate_fuzzy",
    "estimate_sharp",
    "kernel_value",
    "load_csv",
    "local_iv_fit",
    "local_poly_fit",
    "monte_carlo",
    "parse_config_file",
    "rdd_robust_estimate",
    "robust_variance",
    "rule_of_thumb_bandwidth",
    "scaled_basis",
    "side_correction",
    "side_correction_from_weights",
    "sided_weights",
    "simulate",
    "write_csv",
]
