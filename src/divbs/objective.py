"""Orthogonalized-representativeness objective and its exhaustive maximizer.

For a subset S of batch rows, r_prime is the Euclidean norm of the
projection of the batch feature sum onto span(S); r is sqrt(|E|) times
r_prime, where |E| is the numerical rank of the selected rows.  The
brute-force maximizer enumerates every subset under the budget and is the
verification oracle for the greedy selectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, EnumerationCapError
from .linalg import DEFAULT_EPS, FeatureMatrix, OrthonormalBasis, batch_sum

DEFAULT_ENUMERATION_CAP = 2_000_000


@dataclass(frozen=True)
class ObjectiveValue:
    r: float
    r_prime: float
    basis_size: int


def _check_subset(n_rows: int, subset: Sequence[int]) -> list[int]:
    idx = [int(i) for i in subset]
    if len(set(idx)) != len(idx):
        raise ContractViolationError(f"subset contains duplicate indices: {idx}")
    for i in idx:
        if not 0 <= i < n_rows:
            raise ContractViolationError(f"index {i} out of range for {n_rows} rows")
    return idx


def _basis(values: np.ndarray, subset, eps: float) -> OrthonormalBasis:
    basis = OrthonormalBasis(values.shape[1], eps)
    for i in subset:
        basis.extend(values[i])
    return basis


def basis_of_subset(
    features: FeatureMatrix, subset: Sequence[int], eps: float = DEFAULT_EPS
) -> OrthonormalBasis:
    """Orthonormal basis spanning the selected rows, in subset order.

    Rows that are linearly dependent on the earlier ones are skipped.
    """
    idx = _check_subset(features.n_rows, subset)
    return _basis(features.values, idx, eps)


def _evaluate(values: np.ndarray, total: np.ndarray, subset, eps: float) -> ObjectiveValue:
    basis = _basis(values, subset, eps)
    size = len(basis)
    if size == 0:
        return ObjectiveValue(0.0, 0.0, 0)
    coeffs = basis.vectors @ total
    r_prime = float(np.linalg.norm(coeffs))
    return ObjectiveValue(math.sqrt(size) * r_prime, r_prime, size)


def representativeness(
    features: FeatureMatrix, subset: Sequence[int], eps: float = DEFAULT_EPS
) -> ObjectiveValue:
    """Objective value (r, r_prime, basis size) of a subset of rows."""
    idx = _check_subset(features.n_rows, subset)
    return _evaluate(features.values, batch_sum(features), idx, eps)


def brute_force_optimum(
    features: FeatureMatrix,
    budget: int,
    eps: float = DEFAULT_EPS,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[tuple[int, ...], ObjectiveValue]:
    """Exhaustive maximizer of r over all subsets of size <= budget.

    Ties are broken by the lexicographically smallest index tuple.  Refuses
    to run when the total number of subsets exceeds the cap.
    """
    if budget < 1:
        raise ContractViolationError(f"budget must be >= 1, got {budget}")
    n = features.n_rows
    total_subsets = sum(math.comb(n, k) for k in range(min(budget, n) + 1))
    if total_subsets > cap:
        raise EnumerationCapError(
            f"brute force would enumerate {total_subsets} subsets, "
            f"exceeding the cap of {cap}"
        )
    values = features.values
    total = batch_sum(features)
    best: tuple[int, ...] = ()
    best_obj = ObjectiveValue(0.0, 0.0, 0)
    for k in range(1, min(budget, n) + 1):
        for subset in combinations(range(n), k):
            obj = _evaluate(values, total, subset, eps)
            if obj.r > best_obj.r or (obj.r == best_obj.r and subset < best):
                best, best_obj = subset, obj
    return best, best_obj
