"""Test-only reference selectors.

reference_greedy and reference_divbs are the explicit-residual loops that
select_greedy and select_divbs replaced, kept verbatim as a differential
oracle: reference_greedy carries the full N x D residual
matrix R and re-derives every norm each step; reference_divbs scores rows
against an explicitly deflated running sum.  reference_divbs_direct is
divbs without any float32 screening or downdating: every step recomputes
the running sum from the selected basis and scores every row in float64.
These return (indices, step_scores).  reference_kmeanspp is the k-means++
loop that select_kmeanspp replaced, kept verbatim: every pick recomputes
every row's distance.  It returns the indices.
"""
import numpy as np

from divbs.linalg import FeatureMatrix, OrthonormalBasis
from divbs.selectors import SelectionConfig, _check_budget


def reference_greedy(features: FeatureMatrix, cfg: SelectionConfig):
    _check_budget(features, cfg)
    X = features.values
    n, _ = X.shape
    total = X.sum(axis=0)
    R = X.copy()
    orig_norms = np.linalg.norm(X, axis=1)
    thresholds = cfg.eps * np.maximum(1.0, orig_norms)
    alive = np.ones(n, dtype=bool)
    indices: list[int] = []
    scores: list[float] = []
    while len(indices) < cfg.budget:
        res_norms = np.linalg.norm(R, axis=1)
        alive &= res_norms > thresholds
        if not alive.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.abs(R @ total) / res_norms
        s[~alive] = -np.inf
        idx = int(np.argmax(s))
        e = R[idx] / res_norms[idx]
        indices.append(idx)
        scores.append(float(s[idx]))
        alive[idx] = False
        R -= np.outer(R @ e, e)
    return indices, scores


def reference_divbs(features: FeatureMatrix, cfg: SelectionConfig):
    _check_budget(features, cfg)
    X = features.values
    n, d = X.shape
    total = X.sum(axis=0)
    running = total.copy()
    sum_floor = cfg.eps * max(1.0, float(np.linalg.norm(total)))
    orig_norms = np.linalg.norm(X, axis=1)
    basis = OrthonormalBasis(d, cfg.eps)
    alive = np.ones(n, dtype=bool)
    indices: list[int] = []
    scores: list[float] = []
    while len(indices) < cfg.budget and float(np.linalg.norm(running)) > sum_floor:
        s = np.abs(X @ running)
        s[~alive] = -np.inf
        picked = None
        while alive.any():
            idx = int(np.argmax(s))
            res = basis.residual(X[idx])
            norm = float(np.linalg.norm(res))
            if norm <= cfg.eps * max(1.0, float(orig_norms[idx])):
                alive[idx] = False
                s[idx] = -np.inf
                continue
            picked = (idx, res / norm)
            break
        if picked is None:
            break
        idx, e = picked
        indices.append(idx)
        scores.append(float(s[idx]))
        alive[idx] = False
        basis._append(e)
        running -= np.dot(e, running) * e
        # scrub drift against the whole basis (a no-op in exact arithmetic)
        running -= basis.vectors.T @ (basis.vectors @ running)
    return indices, scores


def reference_divbs_direct(features: FeatureMatrix, cfg: SelectionConfig):
    """Float64 direct-score divbs: running = Sum minus its projection on the
    selected span, recomputed (two sweeps) every step; the pick is the
    argmax of |x_i . running| over every row not yet selected or rejected
    (lowest index on ties); stop at min(budget, D) picks or once
    ||running|| <= eps * max(1, ||Sum||)."""
    _check_budget(features, cfg)
    X = features.values
    n, d = X.shape
    total = X.sum(axis=0)
    sum_floor = cfg.eps * max(1.0, float(np.linalg.norm(total)))
    orig_norms = np.linalg.norm(X, axis=1)
    basis = OrthonormalBasis(d, cfg.eps)
    alive = np.ones(n, dtype=bool)
    indices: list[int] = []
    scores: list[float] = []
    while len(indices) < min(cfg.budget, d):
        running = basis.residual(total)
        if float(np.linalg.norm(running)) <= sum_floor:
            break
        s = np.abs((X * running).sum(axis=1))
        s[~alive] = -np.inf
        while alive.any():
            idx = int(np.argmax(s))
            res = basis.residual(X[idx])
            norm = float(np.linalg.norm(res))
            if norm > cfg.eps * max(1.0, float(orig_norms[idx])):
                break
            alive[idx] = False
            s[idx] = -np.inf
        else:
            break
        indices.append(idx)
        scores.append(float(s[idx]))
        alive[idx] = False
        basis._append(res / norm)
    return indices, scores


def reference_kmeanspp(features: FeatureMatrix, cfg: SelectionConfig):
    _check_budget(features, cfg)
    X = features.values
    n = features.n_rows
    rng = np.random.default_rng(cfg.seed)
    first = int(rng.integers(n))
    indices = [first]
    chosen = np.zeros(n, dtype=bool)
    chosen[first] = True
    d2 = np.sum((X - X[first]) ** 2, axis=1)
    while len(indices) < cfg.budget:
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.flatnonzero(~chosen)
            idx = int(remaining[rng.integers(remaining.size)])
        indices.append(idx)
        chosen[idx] = True
        d2 = np.minimum(d2, np.sum((X - X[idx]) ** 2, axis=1))
    return indices
