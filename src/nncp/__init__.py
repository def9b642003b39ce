"""
Nonnegative CP decomposition toolkit for dense tensors.

Core pieces: dense tensors with the entrywise E/F/G norms, Kruskal models
with simplex normalization and the naive-Bayes reading, norm and KL proximity
measures, multiplicative-update and ALS solvers with per-iteration traces,
exact generators for the classic degenerate constructions, and detectors for
the diverging-component signature.
"""

from .diagnostics import (
    ContrastSummary,
    DegeneracyReport,
    DegeneracyThresholds,
    detect_degeneracy,
    run_contrast_experiment,
)
from .divergence import DivergenceKind, bregman_from_phi, distance, kl_phi
from .kruskal import (
    KruskalModel,
    NaiveBayesModel,
    delta_l1_equals_e_norm_check,
    l2_normalize,
    model_from_json,
    model_to_json,
    normalize,
    random_model,
    read_model,
    reconstruct,
    to_naive_bayes,
    write_model,
)
from .pathologies import (
    bclr_a_eps,
    bclr_limit,
    kl_counterexample,
    w_sequence,
)
from .solvers import (
    FitConfig,
    FitResult,
    FitTrace,
    Loss,
    fit_cp_unconstrained,
    fit_nncp,
    fit_seeds,
    objective,
)
from .tensor import (
    DenseTensor,
    add_scaled,
    inner,
    norm,
    outer_product,
    read_tensor,
    tensor_from_json,
    tensor_to_json,
    write_tensor,
)

__all__ = [
    "ContrastSummary",
    "DegeneracyReport",
    "DegeneracyThresholds",
    "DenseTensor",
    "DivergenceKind",
    "FitConfig",
    "FitResult",
    "FitTrace",
    "KruskalModel",
    "Loss",
    "NaiveBayesModel",
    "add_scaled",
    "bclr_a_eps",
    "bclr_limit",
    "bregman_from_phi",
    "delta_l1_equals_e_norm_check",
    "detect_degeneracy",
    "distance",
    "fit_cp_unconstrained",
    "fit_nncp",
    "fit_seeds",
    "inner",
    "kl_counterexample",
    "kl_phi",
    "l2_normalize",
    "model_from_json",
    "model_to_json",
    "norm",
    "normalize",
    "objective",
    "outer_product",
    "random_model",
    "read_model",
    "read_tensor",
    "reconstruct",
    "run_contrast_experiment",
    "tensor_from_json",
    "tensor_to_json",
    "to_naive_bayes",
    "w_sequence",
    "write_model",
    "write_tensor",
]

__version__ = "0.1.0"
