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
from .linalg import DEFAULT_EPS, FeatureMatrix, OrthonormalBasis, check_int

DEFAULT_ENUMERATION_CAP = 2_000_000


@dataclass(frozen=True)
class ObjectiveValue:
    r: float
    r_prime: float
    basis_size: int

    @classmethod
    def from_coefficients(cls, coeffs) -> ObjectiveValue:
        """The objective of picks whose orthonormal basis vectors e have
        coefficients e . Sum, one per vector (none gives (0.0, 0.0, 0))."""
        r_prime = float(np.linalg.norm(coeffs))
        return cls(math.sqrt(len(coeffs)) * r_prime, r_prime, len(coeffs))


def _check_subset(n_rows: int, subset: Sequence[int]) -> list[int]:
    """The subset as a list of Python ints, each an int or numpy integer (not
    a bool) in [0, n_rows), with no index twice."""
    idx = []
    for i in subset:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ContractViolationError(f"index {i!r} is not an integer")
        idx.append(int(i))
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
    return ObjectiveValue.from_coefficients(_basis(values, subset, eps).vectors @ total)


def representativeness(
    features: FeatureMatrix, subset: Sequence[int], eps: float = DEFAULT_EPS
) -> ObjectiveValue:
    """Objective value (r, r_prime, basis size) of a subset of rows."""
    idx = _check_subset(features.n_rows, subset)
    return _evaluate(features.values, features.values.sum(axis=0), idx, eps)


def brute_force_optimum(
    features: FeatureMatrix, budget: int, eps: float = DEFAULT_EPS
) -> tuple[tuple[int, ...], ObjectiveValue]:
    """Exhaustive maximizer of r over all subsets of size <= budget.

    Ties are broken by the lexicographically smallest index tuple among
    equal *computed* r: subsets whose r is equal in exact arithmetic may
    differ in the last bit, and then the larger computed r wins.  Raises
    EnumerationCapError, without enumerating, when the total number of
    subsets exceeds DEFAULT_ENUMERATION_CAP.
    """
    budget = check_int("budget", budget, 1)
    n = features.n_rows
    total_subsets = sum(math.comb(n, k) for k in range(min(budget, n) + 1))
    if total_subsets > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"brute force would enumerate {total_subsets} subsets, "
            f"exceeding the cap of {DEFAULT_ENUMERATION_CAP}"
        )
    values = features.values
    total = values.sum(axis=0)
    best: tuple[int, ...] = ()
    best_obj = ObjectiveValue(0.0, 0.0, 0)
    for k in range(1, min(budget, n) + 1):
        for subset in combinations(range(n), k):
            obj = _evaluate(values, total, subset, eps)
            if obj.r > best_obj.r or (obj.r == best_obj.r and subset < best):
                best, best_obj = subset, obj
    return best, best_obj
