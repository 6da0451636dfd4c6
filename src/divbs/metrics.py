"""Diversity diagnostics for a selected subset of rows."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolationError
from .linalg import DEFAULT_EPS, FeatureMatrix, check_int
from .objective import _check_subset, basis_of_subset


@dataclass
class DiversityReport:
    knn_mean_cos_dist: dict[int, float]
    group_proportions: dict[int, float]
    selection_rank: int
    n_selected: int

    def to_json_dict(self) -> dict:
        return {
            "knn_mean_cos_dist": {str(k): v for k, v in self.knn_mean_cos_dist.items()},
            "group_proportions": {str(g): p for g, p in self.group_proportions.items()},
            "selection_rank": self.selection_rank,
            "n_selected": self.n_selected,
        }


def knn_cosine_distance(
    features: FeatureMatrix, selected: Sequence[int], ks: Sequence[int]
) -> dict[int, float]:
    """Mean cosine distance to the k nearest selected neighbors.

    Averaged over neighbors first, then over selected rows.  Which of
    several equally distant neighbors counts cannot change the mean.  Each k
    must be an integer (check_int) in [1, len(selected)).
    """
    sel = _check_subset(features.n_rows, selected)
    if not sel:
        raise ContractViolationError("selected index list is empty")
    X = features.values[sel]
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0.0):
        row = sel[int(np.argmin(norms))]
        raise ContractViolationError(f"selected row {row} is the zero vector")
    m = len(sel)
    ks = [check_int("k", k, 1) for k in ks]
    for k in ks:
        if k >= m:
            raise ContractViolationError(f"k={k} requires more than {m} selected rows")
    Xn = X / norms[:, None]
    dist = 1.0 - np.clip(Xn @ Xn.T, -1.0, 1.0)
    np.fill_diagonal(dist, np.inf)
    dist.sort(axis=1)
    return {k: float(dist[:, :k].mean(axis=1).mean()) for k in ks}


def group_proportions(row_labels, selected: Sequence[int]) -> dict[int, float]:
    """Empirical fraction of each group id among the selected rows."""
    labels = np.asarray(row_labels)
    sel = _check_subset(labels.shape[0], selected)
    if not sel:
        return {}
    groups, counts = np.unique(labels[sel], return_counts=True)
    return {int(g): float(c) / len(sel) for g, c in zip(groups, counts)}


def selection_rank(
    features: FeatureMatrix, selected: Sequence[int], eps: float = DEFAULT_EPS
) -> int:
    """Numerical rank of the selected rows under the shared dependence eps."""
    return len(basis_of_subset(features, selected, eps))


def diversity_report(
    features: FeatureMatrix,
    selected: Sequence[int],
    ks: Sequence[int],
    eps: float = DEFAULT_EPS,
) -> DiversityReport:
    props = (
        group_proportions(features.row_labels, selected)
        if features.row_labels is not None
        else {}
    )
    return DiversityReport(
        knn_mean_cos_dist=knn_cosine_distance(features, selected, ks),
        group_proportions=props,
        selection_rank=selection_rank(features, selected, eps),
        n_selected=len(list(selected)),
    )
