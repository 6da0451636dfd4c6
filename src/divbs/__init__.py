"""Diversity-aware budgeted batch selection.

Selects a maximally representative, redundancy-free subset of rows from a
feature matrix under a budget, by maximizing the projection of the batch
feature sum onto the span of the selected rows.
"""

from .errors import ContractViolationError, EnumerationCapError, LoadError
from .featfile import read_features, write_features
from .linalg import DEFAULT_EPS, FeatureMatrix, OrthonormalBasis
from .metrics import (
    DiversityReport,
    diversity_report,
    group_proportions,
    knn_cosine_distance,
    selection_rank,
)
from .objective import (
    ObjectiveValue,
    basis_of_subset,
    brute_force_optimum,
    representativeness,
)
from .selectors import (
    SelectionConfig,
    SelectionResult,
    pad_selection,
    select_divbs,
    select_greedy,
    select_kmeanspp,
    select_top_score,
    select_uniform,
)
from .toy import (
    MlpState,
    ToyDatasetSpec,
    ToyRunReport,
    adam_step,
    forward,
    generate_toy_dataset,
    init_mlp,
    last_layer_gradient_features,
    run_toy_experiment,
)

__version__ = "0.1.0"
