"""Budgeted subset selectors.

select_greedy (exact greedy maximization of the representativeness
objective) and select_divbs (the fast approximation, which scores rows
against a deflated running batch sum) each run their own implicit
Gram-Schmidt step loop and share only set-up (_prepare), the acceptance
rule (OrthonormalBasis.extend), the objective from their coefficients and
padding.  Greedy keeps its scores and residual norms downdated in float64
(one float64 pass over X per step).  Divbs screens every row in float32
against an explicit float64 running sum and certifies the pick in float64
(_Float32Screen).  Its pick is the float64 argmax, bitwise reproducible
whatever the BLAS thread split, from half the bytes per step; each divbs
call holds an extra N x D float32 copy of the features (N D 4 bytes).
Both raise ContractViolationError when no row clears the dependence floor
eps * max(1, ||x||) or a squared norm overflows.  The remaining selectors
are baselines: they reject normalize_features, which they would ignore, and
leave their objective to be evaluated on first read (SelectionResult), so
their wall_time excludes it.  All selectors are deterministic: among equal
computed scores the argmax takes the lowest row index (scores that are
equal in exact arithmetic may still differ by rounding), and stochastic
strategies are driven entirely by the config seed.  STRATEGIES maps every
strategy name to a call on (features, scores, cfg).
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
    """A selection and its objective, r, r_prime and basis size of the
    unpadded picks (the rows whose padded flag is False).

    Greedy and divbs fill objective from their coefficients.  The baselines
    defer it: the first read of result.objective evaluates representativeness
    over the unpadded picks and stores the value in place of the deferred
    object, dropping its reference to the features.  So the objective, and the
    basis of the picks it builds, cost nothing until something reads them.
    wall_time is the selector's own time, without padding or a deferred
    objective.
    """

    indices: list[int]
    padded: list[bool]
    objective: ObjectiveValue
    step_scores: list[float]
    wall_time: float


class _DeferredObjective:
    """The objective of a baseline's picks, for SelectionResult to evaluate on
    first read.  It looks representativeness up in this module when called, so
    a wrapper swapped in here sees the call.  A class, not a closure, so that
    a result stays picklable."""

    def __init__(self, features: FeatureMatrix, indices: list[int], cfg: SelectionConfig):
        self.args = (features, indices, cfg.eps)

    def __call__(self) -> ObjectiveValue:
        return representativeness(*self.args)


def _read_objective(result: SelectionResult) -> ObjectiveValue:
    if isinstance(result._objective, _DeferredObjective):
        result._objective = result._objective()
    return result._objective


def _write_objective(result: SelectionResult, value) -> None:
    result._objective = value


# Set after @dataclass, which would otherwise take the property for the field's
# default; the generated __init__ stores through the setter.
SelectionResult.objective = property(_read_objective, _write_objective)


def _check_budget(features: FeatureMatrix, cfg: SelectionConfig):
    if cfg.budget > features.n_rows:
        raise ContractViolationError(
            f"budget {cfg.budget} exceeds the {features.n_rows} available rows"
        )


def _reject_normalize(cfg: SelectionConfig, strategy: str):
    if cfg.normalize_features:
        raise ContractViolationError(f"{strategy} does not support normalize_features")


def _prepared_values(features: FeatureMatrix, cfg: SelectionConfig) -> np.ndarray:
    X = features.values
    if not cfg.normalize_features:
        return X
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0.0):
        row = int(np.argmin(norms))
        raise ContractViolationError(f"cannot normalize zero feature row {row}")
    return X / norms[:, None]


def _finish(features, cfg, indices, scores, t0, objective) -> SelectionResult:
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

_U32 = 2.0**-24  # unit roundoff of float32
# Smallest normal numbers: every float operation whose result underflows is
# off by less than these, with gradual underflow or flushed to zero.
_TINY32 = 2.0**-126
_TINY64 = 2.0**-1022


def _pow2_scale(norm: float) -> float:
    """Power of two s with norm * s in [0.5, 1) (s = 1 for norm = 0)."""
    return math.ldexp(1.0, -min(max(math.frexp(norm)[1], -1000), 1000))


def _f64_scores(rows: np.ndarray, running: np.ndarray) -> np.ndarray:
    """|x_i . running| for a 2-D block of rows, by numpy's elementwise product
    and pairwise sum, which no BLAS thread split affects."""
    return np.abs((rows * running).sum(axis=1))


class _Float32Screen:
    """Float32 copy of the rows that encloses every |x_i . running| in an interval.

    X32 = fl32(sx X) and r32 = fl32(sr running), with powers of two sx and sr:
    sx = 1 (X32 is then a plain cast) unless the largest row norm M lies
    outside [2^-40, 2^40], else it brings M to [0.5, 1); sr brings
    sx M ||sr running|| to [0.5, 1).  So no float32 entry, product or partial
    sum can overflow.  For s_i = |X32_i . r32|,

        |s_i - sx sr |x_i . running|| <= kappa ||sx x_i|| ||sr running|| + a,

    with kappa = (1 + u)^2 (1 + gamma_d) - 1 for the rounding of both vectors
    to float32 (u each) and the dot product in any order (gamma_d = d u /
    (1 - d u), Higham 2002, sec. 3.1), and a = (1 + gamma_d) tiny32 (2 sqrt(d)
    (sx M + ||sr running||) + 3 d) for entries and results that underflow.
    The factor 1 + 2^-20 on kappa and the tiny64 terms also cover the float64
    rounding of the norms, of the bound and of the float64 re-score.  kappa
    is +inf once d u >= 1, which makes every row a candidate.

    The screen owns its float32 buffers (r32 and the scores s, reused by every
    step) and a float32 penalty row: 0 for a live row, -inf for a dead one
    (retire).  Adding the penalty to the scores puts every dead row below
    every live one, so a leader at -inf means that every row is dead.
    """

    def __init__(self, X: np.ndarray, nrm2: np.ndarray):
        n, d = X.shape
        gamma = d * _U32 / (1.0 - d * _U32) if d * _U32 < 1.0 else math.inf
        kappa = (2.0 * _U32 + _U32 * _U32 + gamma * (1.0 + _U32) ** 2) * (1.0 + 2.0**-20)
        nx = np.sqrt(nrm2 + 2 * d * _TINY64)
        top = float(nx.max())
        self.sx = 1.0 if 2.0**-40 <= top <= 2.0**40 else _pow2_scale(top)
        self.m = top * self.sx  # largest scaled row norm
        self.X = X
        if self.sx == 1.0:
            self.X32 = X.astype(np.float32)
        else:  # the float64 product by a power of two is exact; one rounding
            X32 = np.empty((n, d), np.float32)
            self.X32 = np.multiply(X, self.sx, out=X32, casting="same_kind")
        self.kx = kappa * self.sx * nx
        self.kx_max = float(self.kx.max())
        self.a32 = (1.0 + gamma) * _TINY32
        self.a64 = 4 * d * _TINY64 * self.sx
        self.r32 = np.empty(d, np.float32)
        self.s = np.empty(n, np.float32)
        self.penalty = np.zeros(n, np.float32)

    def retire(self, rows):
        """Mark rows (an index or a boolean mask) dead: best never returns them."""
        self.penalty[rows] = -np.inf

    def scores(self, running: np.ndarray):
        """Return (s, nrs, a, scale): float32 scores s_i and the terms of
        bound_i = kx_i nrs + a, so that s_i - bound_i <= scale |x_i . running|
        <= s_i + bound_i, with |x_i . running| exact or as evaluated in float64.
        s is the screen's own buffer, overwritten by the next call."""
        d = running.shape[0]
        nr = math.sqrt(float(running.dot(running)) + 2 * d * _TINY64)
        sr = _pow2_scale(nr * self.m)
        # the float64 product by a power of two is exact; one rounding to float32
        r32 = np.multiply(running, sr, out=self.r32, casting="same_kind")
        s = np.abs(np.dot(self.X32, r32, out=self.s), out=self.s)
        nrs = nr * sr
        a = self.a32 * (2.0 * math.sqrt(d) * (self.m + nrs) + 3 * d) + self.a64 * sr
        return s, nrs, a, self.sx * sr

    def best(self, running: np.ndarray):
        """The live row with the largest float64 |x_i . running| (lowest index
        on ties) and that score, or (None, None) when every row is dead.  Only
        rows whose upper bound reaches the leader's lower bound can win, and
        only they are re-scored in float64 (_f64_scores)."""
        s, nrs, a, _ = self.scores(running)
        np.add(s, self.penalty, out=s)
        lead = int(s.argmax())
        top = float(s[lead])
        if top == -math.inf:
            return None, None
        # s_i + bound_i >= s_lead - bound_lead, first against the widest bound
        floor = top - self.kx[lead] * nrs - 2.0 * a
        wide = floor - self.kx_max * nrs
        s[lead] = -np.inf
        if float(s[s.argmax()]) < wide:  # the leader is the only candidate
            return lead, float(_f64_scores(self.X[lead : lead + 1], running)[0])
        s[lead] = top
        # Compared in float32: the nearest float32 to wide is at most the least
        # float32 >= wide, so the window can only grow.  Live rows score >= 0,
        # so a threshold of at least -1 keeps the dead rows (-inf) out of it.
        rows = (s >= np.float32(max(wide, -1.0))).nonzero()[0]
        rows = rows[s[rows] + self.kx[rows] * nrs >= floor]
        exact = _f64_scores(self.X.take(rows, axis=0), running)
        k = int(exact.argmax())
        return int(rows[k]), float(exact[k])


def _prepare(features: FeatureMatrix, cfg: SelectionConfig):
    """Set-up shared by greedy and divbs: the prepared rows X, their sum Sum,
    ||Sum||^2, the squared row norms, the dependence floor on them and the
    mask of rows above it.  Raises ContractViolationError when the budget
    exceeds the rows, a squared norm overflows or no row clears the floor."""
    _check_budget(features, cfg)
    X = _prepared_values(features, cfg)
    with np.errstate(over="ignore"):
        total = X.sum(axis=0)
        sum2 = float(np.dot(total, total))
        nrm2 = np.einsum("ij,ij->i", X, X)
    if not (math.isfinite(sum2) and np.isfinite(nrm2).all()):
        raise ContractViolationError(
            "feature scale out of range: a squared row norm or ||Sum||^2 overflows"
        )
    floor2 = cfg.eps**2 * np.maximum(1.0, nrm2)
    alive = nrm2 > floor2
    if not alive.any():
        raise ContractViolationError(
            f"no row clears the dependence floor eps * max(1, ||x||) with eps={cfg.eps}; "
            "the features are too small for this eps"
        )
    return X, total, sum2, nrm2, floor2, alive


def _objective(coeffs: list[float]) -> ObjectiveValue:
    """The objective of picks whose basis vectors e have coefficients e . Sum."""
    r_prime = float(np.linalg.norm(coeffs))
    return ObjectiveValue(math.sqrt(len(coeffs)) * r_prime, r_prime, len(coeffs))


def select_greedy(features: FeatureMatrix, cfg: SelectionConfig) -> SelectionResult:
    """Exact greedy selection.

    Each step picks the remaining row whose unit residual against the
    selected span has the largest |unit residual . Sum|, with Sum the fixed
    full-batch feature sum.  For the residual r_i of row x_i, proj_i =
    r_i . Sum and ||r_i||^2 are downdated without forming r_i: appending e
    subtracts c (e . Sum) and c^2 with c = X e.  Squared norms that cancel
    below _RECOMPUTE_TOL of their reference are recomputed from explicit
    residuals, which is why rejected rows stay dead in the alive mask.
    Step scores are |e . Sum|.
    """
    t0 = time.perf_counter()
    X, total, sum2, nrm2, floor2, alive = _prepare(features, cfg)
    sum_ref = sum2
    running = total
    basis = OrthonormalBasis(X.shape[1], cfg.eps)
    proj = X @ total
    ref = nrm2.copy()
    indices: list[int] = []
    scores: list[float] = []
    coeffs: list[float] = []
    while len(indices) < min(cfg.budget, X.shape[1]):
        if sum2 < _RECOMPUTE_TOL * sum_ref:
            running = basis.residual(total)
            sum2 = sum_ref = float(np.dot(running, running))
            proj = X @ running
        stale = np.flatnonzero(alive & (nrm2 < _RECOMPUTE_TOL * ref))
        if stale.size:
            R = basis.residual(X[stale])
            nrm2[stale] = ref[stale] = np.einsum("ij,ij->i", R, R)
            proj[stale] = R @ running
        alive &= nrm2 > floor2
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.abs(proj) / np.sqrt(nrm2)
        s[~alive] = -np.inf
        idx = int(s.argmax())
        while s[idx] > -np.inf:
            # picked, or dependent on the picks: dead either way
            alive[idx] = False
            s[idx] = -np.inf
            e = basis.extend(X[idx])
            if e is not None:
                break
            idx = int(s.argmax())
        else:
            break
        # e . running = e . Sum (e is orthogonal to the span running was
        # deflated against), with less rounding once Sum is mostly covered
        coef = float(e.dot(running))
        sum2 -= coef * coef
        c = X @ e
        proj -= c * coef
        nrm2 -= c * c
        indices.append(idx)
        scores.append(abs(coef))
        coeffs.append(coef)
    return _finish(features, cfg, indices, scores, t0, _objective(coeffs))


def select_divbs(features: FeatureMatrix, cfg: SelectionConfig) -> SelectionResult:
    """Fast approximate selection.

    Scores rows by |g . Sum| against a running Sum vector that is deflated
    by the component along each newly selected direction; stops early when
    Sum is driven to (numerical) zero.  Each step screens the live rows in
    float32 and re-scores in float64 those that can win (_Float32Screen);
    picked and rejected rows are retired from the screen.
    """
    t0 = time.perf_counter()
    X, total, sum2, nrm2, _, alive = _prepare(features, cfg)
    sum_ref = sum2
    sum_floor2 = (cfg.eps * max(1.0, math.sqrt(sum2))) ** 2
    running = total.copy()
    basis = OrthonormalBasis(X.shape[1], cfg.eps)
    screen = _Float32Screen(X, nrm2)
    screen.retire(~alive)
    indices: list[int] = []
    scores: list[float] = []
    coeffs: list[float] = []
    while len(indices) < min(cfg.budget, X.shape[1]):
        if sum2 < _RECOMPUTE_TOL * sum_ref:
            running = basis.residual(total)
            sum2 = sum_ref = float(np.dot(running, running))
        if sum2 <= sum_floor2:
            break
        idx, score = screen.best(running)
        while idx is not None:
            screen.retire(idx)
            e = basis.extend(X[idx])
            if e is not None:
                break
            idx, score = screen.best(running)
        else:
            break
        # e . running = e . Sum (e is orthogonal to the span running was
        # deflated against), with less rounding once Sum is mostly covered
        coef = float(e.dot(running))
        sum2 -= coef * coef
        running -= coef * e
        indices.append(idx)
        scores.append(score)
        coeffs.append(coef)
    return _finish(features, cfg, indices, scores, t0, _objective(coeffs))


def select_uniform(features: FeatureMatrix, cfg: SelectionConfig) -> SelectionResult:
    """Seeded uniform sample of budget rows without replacement."""
    _check_budget(features, cfg)
    _reject_normalize(cfg, "uniform")
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    indices = rng.choice(features.n_rows, size=cfg.budget, replace=False).tolist()
    return _finish(features, cfg, indices, [], t0, _DeferredObjective(features, indices, cfg))


def select_top_score(
    features: FeatureMatrix, scores, cfg: SelectionConfig
) -> SelectionResult:
    """Budget rows with the largest externally supplied scores.

    Pass scores=None for the gradient-norm convenience mode, which scores
    each row by its Euclidean norm.
    """
    _check_budget(features, cfg)
    _reject_normalize(cfg, "top_score" if scores is not None else "grad_norm")
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
    return _finish(
        features, cfg, indices, step_scores, t0, _DeferredObjective(features, indices, cfg)
    )


def select_kmeanspp(features: FeatureMatrix, cfg: SelectionConfig) -> SelectionResult:
    """k-means++ seeding as a selector.

    First row uniform; each next row sampled proportionally to its squared
    Euclidean distance to the nearest already-selected row.  When every
    remaining distance is zero (duplicate-only batches) the draw falls back
    to uniform among the unselected rows.
    """
    _check_budget(features, cfg)
    _reject_normalize(cfg, "kmeanspp")
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
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.flatnonzero(~chosen)
            idx = int(remaining[rng.integers(remaining.size)])
        indices.append(idx)
        chosen[idx] = True
        d2 = np.minimum(d2, np.sum((X - X[idx]) ** 2, axis=1))
    return _finish(features, cfg, indices, [], t0, _DeferredObjective(features, indices, cfg))


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
    # objective passed through unread: replace would read every field it is not given
    return replace(
        result,
        indices=result.indices + [int(i) for i in extra],
        padded=result.padded + [True] * missing,
        objective=result._objective,
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
