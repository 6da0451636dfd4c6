"""Budgeted subset selectors.

select_greedy (exact greedy maximization of the representativeness
objective) and select_divbs (the fast approximation, which scores rows
against a deflated running batch sum) share one implicit Gram-Schmidt
kernel and differ only in one score normalization and divbs's early stop.
The remaining selectors are baselines.  All selectors are deterministic:
among equal computed scores the argmax takes the lowest row index (scores
that are equal in exact arithmetic may still differ by rounding), and
stochastic strategies are driven entirely by the config seed.  STRATEGIES
maps every strategy name to a call on (features, scores, cfg).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError
from .linalg import DEFAULT_EPS, FeatureMatrix, OrthonormalBasis, check_eps
from .objective import ObjectiveValue, representativeness

PAD_NONE = "none"
PAD_UNIFORM = "uniform-random"


@dataclass
class SelectionConfig:
    budget: int
    eps: float = DEFAULT_EPS
    pad_policy: str = PAD_UNIFORM
    seed: int = 0
    normalize_features: bool = False

    def __post_init__(self):
        if self.budget < 1:
            raise ContractViolationError(f"budget must be >= 1, got {self.budget}")
        check_eps(self.eps)
        if self.pad_policy not in (PAD_NONE, PAD_UNIFORM):
            raise ContractViolationError(f"unknown pad_policy {self.pad_policy!r}")


@dataclass
class SelectionResult:
    indices: list[int]
    padded: list[bool]
    objective: ObjectiveValue
    step_scores: list[float]
    wall_time: float


def _check_budget(features: FeatureMatrix, cfg: SelectionConfig):
    if cfg.budget > features.n_rows:
        raise ContractViolationError(
            f"budget {cfg.budget} exceeds the {features.n_rows} available rows"
        )


def _prepared_values(features: FeatureMatrix, cfg: SelectionConfig) -> np.ndarray:
    X = features.values
    if not cfg.normalize_features:
        return X
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0.0):
        row = int(np.argmin(norms))
        raise ContractViolationError(f"cannot normalize zero feature row {row}")
    return X / norms[:, None]


def _finish(features, cfg, indices, scores, t0, objective=None) -> SelectionResult:
    if objective is None:
        objective = representativeness(features, indices, cfg.eps)
    result = SelectionResult(
        indices=list(indices),
        padded=[False] * len(indices),
        objective=objective,
        step_scores=[float(s) for s in scores],
        wall_time=time.perf_counter() - t0,
    )
    return pad_selection(result, features, cfg)


# A downdated squared norm that has lost all but this fraction of its
# reference value has cancelled too far to be trusted (Drmac & Bujanovic,
# ACM TOMS 2008; the sqrt(ulp) scale of LAPACK xGEQP3).
_RECOMPUTE_TOL = 1e-8


def _select_by_projection(features: FeatureMatrix, cfg: SelectionConfig, exact: bool):
    """Greedy selection by implicit Gram-Schmidt, shared by greedy and divbs.

    With r_i the residual of row x_i against the selected span E and
    running = Sum - E'E Sum, the kernel keeps proj_i = r_i . Sum = x_i .
    running without forming r_i: after appending e it subtracts c (e . Sum)
    with c = X e.  Greedy (exact=True) scores |proj_i| / ||r_i|| with ||r_i||^2
    downdated by c^2; divbs scores |proj_i| and stops once running is
    numerically zero.  Downdated squared norms that cancel below
    _RECOMPUTE_TOL of their reference are recomputed from explicit residuals.
    A row is accepted only if its explicit residual passes the dependence
    rule.  The objective comes from the coefficients e . Sum.
    """
    _check_budget(features, cfg)
    t0 = time.perf_counter()
    X = _prepared_values(features, cfg)
    n, d = X.shape
    total = running = X.sum(axis=0)
    proj = X @ total
    sum2 = sum_ref = float(np.dot(total, total))
    sum_floor2 = (cfg.eps * max(1.0, math.sqrt(sum2))) ** 2
    basis = OrthonormalBasis(d, cfg.eps)
    alive = np.ones(n, dtype=bool)
    if exact:
        nrm2 = np.einsum("ij,ij->i", X, X)
        ref = nrm2.copy()
        floor2 = cfg.eps**2 * np.maximum(1.0, nrm2)
    indices: list[int] = []
    scores: list[float] = []
    coeffs: list[float] = []
    while len(indices) < min(cfg.budget, d):
        if sum2 < _RECOMPUTE_TOL * sum_ref:
            running = basis.residual(total)
            sum2 = sum_ref = float(np.dot(running, running))
            proj = X @ running
        if exact:
            stale = np.flatnonzero(alive & (nrm2 < _RECOMPUTE_TOL * ref))
            if stale.size:
                R = basis.residual(X[stale])
                nrm2[stale] = ref[stale] = np.einsum("ij,ij->i", R, R)
                proj[stale] = R @ running
            alive &= nrm2 > floor2
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.abs(proj) / np.sqrt(nrm2)
        elif sum2 > sum_floor2:
            s = np.abs(proj)
        else:
            break
        s[~alive] = -np.inf
        idx = int(np.argmax(s))
        while s[idx] > -np.inf:
            res = basis.residual(X[idx])
            norm = float(np.linalg.norm(res))
            if norm > cfg.eps * max(1.0, float(np.linalg.norm(X[idx]))):
                break
            alive[idx] = False
            s[idx] = -np.inf
            idx = int(np.argmax(s))
        else:
            break
        e = res / norm
        basis._append(e)
        # e . running = e . Sum (e is orthogonal to the span running was
        # deflated against), with less rounding once Sum is mostly covered
        coef = float(np.dot(e, running))
        c = X @ e
        proj -= c * coef
        sum2 -= coef * coef
        if exact:
            nrm2 -= c * c
        alive[idx] = False
        indices.append(idx)
        scores.append(abs(coef) if exact else s[idx])
        coeffs.append(coef)
    r_prime = float(np.linalg.norm(coeffs))
    objective = ObjectiveValue(math.sqrt(len(indices)) * r_prime, r_prime, len(indices))
    return _finish(features, cfg, indices, scores, t0, objective)


def select_greedy(features: FeatureMatrix, cfg: SelectionConfig) -> SelectionResult:
    """Exact greedy selection.

    Each step picks the remaining row whose unit residual against the
    selected span has the largest |unit residual . Sum|, with Sum the fixed
    full-batch feature sum.
    """
    return _select_by_projection(features, cfg, exact=True)


def select_divbs(features: FeatureMatrix, cfg: SelectionConfig) -> SelectionResult:
    """Fast approximate selection.

    Scores rows by |g . Sum| against a running Sum vector that is deflated
    by the component along each newly selected direction; stops early when
    Sum is driven to (numerical) zero.
    """
    return _select_by_projection(features, cfg, exact=False)


def select_uniform(features: FeatureMatrix, cfg: SelectionConfig) -> SelectionResult:
    """Seeded uniform sample of budget rows without replacement."""
    _check_budget(features, cfg)
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    indices = rng.choice(features.n_rows, size=cfg.budget, replace=False).tolist()
    return _finish(features, cfg, indices, [], t0)


def select_top_score(
    features: FeatureMatrix, scores, cfg: SelectionConfig
) -> SelectionResult:
    """Budget rows with the largest externally supplied scores.

    Pass scores=None for the gradient-norm convenience mode, which scores
    each row by its Euclidean norm.
    """
    _check_budget(features, cfg)
    t0 = time.perf_counter()
    if scores is None:
        scores = np.linalg.norm(features.values, axis=1)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (features.n_rows,):
        raise ContractViolationError(
            f"scores length {scores.shape} does not match {features.n_rows} rows"
        )
    if not np.isfinite(scores).all():
        raise ContractViolationError("scores contain NaN or Inf")
    order = np.lexsort((np.arange(features.n_rows), -scores))
    indices = order[: cfg.budget].tolist()
    step_scores = [float(scores[i]) for i in indices]
    return _finish(features, cfg, indices, step_scores, t0)


def select_kmeanspp(features: FeatureMatrix, cfg: SelectionConfig) -> SelectionResult:
    """k-means++ seeding as a selector.

    First row uniform; each next row sampled proportionally to its squared
    Euclidean distance to the nearest already-selected row.  When every
    remaining distance is zero (duplicate-only batches) the draw falls back
    to uniform among the unselected rows.
    """
    _check_budget(features, cfg)
    t0 = time.perf_counter()
    X = features.values
    n = features.n_rows
    rng = np.random.default_rng(cfg.seed)
    first = int(rng.integers(n))
    indices = [first]
    chosen = np.zeros(n, dtype=bool)
    chosen[first] = True
    d2 = np.sum((X - X[first]) ** 2, axis=1)
    while len(indices) < cfg.budget:
        d2[chosen] = 0.0
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.flatnonzero(~chosen)
            idx = int(remaining[rng.integers(remaining.size)])
        indices.append(idx)
        chosen[idx] = True
        d2 = np.minimum(d2, np.sum((X - X[idx]) ** 2, axis=1))
    return _finish(features, cfg, indices, [], t0)


def pad_selection(
    result: SelectionResult, features: FeatureMatrix, cfg: SelectionConfig
) -> SelectionResult:
    """Fill an undershooting selection to the budget with seeded uniform draws."""
    if len(set(result.indices)) != len(result.indices):
        raise ContractViolationError("selection contains duplicate indices")
    missing = cfg.budget - len(result.indices)
    if cfg.pad_policy != PAD_UNIFORM or missing <= 0:
        return result
    pool = np.setdiff1d(np.arange(features.n_rows), np.asarray(result.indices, dtype=int))
    # independent stream so padding never perturbs the selector's own draws
    rng = np.random.default_rng([cfg.seed, 0x9AD])
    extra = rng.choice(pool, size=missing, replace=False).tolist()
    return replace(
        result,
        indices=result.indices + [int(i) for i in extra],
        padded=result.padded + [True] * missing,
    )


# Each entry calls its selector through the module global, so a wrapper
# swapped into this module (a tracer, a test double) sees every dispatch.
STRATEGIES = {
    "uniform": lambda f, s, c: select_uniform(f, c),
    "top_score": lambda f, s, c: select_top_score(f, s, c),
    "grad_norm": lambda f, s, c: select_top_score(f, None, c),
    "greedy": lambda f, s, c: select_greedy(f, c),
    "divbs": lambda f, s, c: select_divbs(f, c),
    "kmeanspp": lambda f, s, c: select_kmeanspp(f, c),
}
