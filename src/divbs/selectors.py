"""Budgeted subset selectors.

select_greedy (exact greedy maximization of the representativeness
objective) and select_divbs (the fast approximation, which scores rows
against a deflated running batch sum) each run their own implicit
Gram-Schmidt step loop and share only set-up (_prepare), the acceptance
rule (OrthonormalBasis.extend) and ObjectiveValue.from_coefficients.
Greedy keeps its scores and residual norms downdated in float64 (one
float64 pass over X per step).  Divbs screens every row in float32
against an explicit float64 running sum and certifies the pick in float64
(_Float32Screen).  Its pick is the float64 argmax, bitwise reproducible
whatever the BLAS thread split, from half the bytes per step; each divbs
call holds an extra N x D float32 copy of the features (N D 4 bytes).
Both raise ContractViolationError when no row clears the dependence floor
eps * max(1, ||x||) or a squared norm overflows.  The remaining selectors
are baselines: they hand SelectionResult the arguments of
representativeness, evaluated on first read, so their wall_time excludes
it.  SelectionConfig is frozen, so the checks it makes at construction
hold for its whole life (dataclasses.replace derives a changed copy).
k-means++ updates its distances through a certified screen
(_DistanceScreen): one BLAS product
per pick bounds every row's distance to the pick, and only the rows whose
distance may drop are recomputed directly, so the distances keep the bits
of a full recomputation whatever the BLAS thread split.  Every selector
reads features.values as given.  No selector pads: a selection that stops
short of the budget is returned short, and a caller that wants a full
batch fills it with pad_selection.  All selectors are deterministic: among
equal computed scores the argmax takes the lowest row index (scores that are
equal in exact arithmetic may still differ by rounding), and stochastic
strategies are driven entirely by the config seed.  STRATEGIES maps every
strategy name to a call on (features, scores, cfg).
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .errors import ContractViolationError
from .linalg import DEFAULT_EPS, FeatureMatrix, OrthonormalBasis, check_eps, check_int
from .objective import ObjectiveValue, _check_subset, representativeness


@dataclass(frozen=True)
class SelectionConfig:
    budget: int
    eps: float = DEFAULT_EPS
    # Not a field: a construction keyword kept only because perfbench passes
    # pad_policy="none".  Selectors never pad.
    pad_policy: InitVar[str] = "none"
    seed: int = 0

    def __post_init__(self, pad_policy):
        object.__setattr__(self, "budget", check_int("budget", self.budget, 1))
        check_eps(self.eps)
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))
        if pad_policy != "none":
            raise ContractViolationError(f"pad_policy {pad_policy!r} refused: use pad_selection")


@dataclass
class SelectionResult:
    """A selection and its objective, r, r_prime and basis size of the
    unpadded picks (the rows whose padded flag is False).  A selector returns
    only its own picks, all unpadded; pad_selection appends the padded rows.

    The third argument, _objective, is the ObjectiveValue itself (greedy and
    divbs, from their coefficients) or, for a baseline, the arguments
    (features, picks, eps) of representativeness.  The first read of
    result.objective evaluates such a tuple, through this module's global
    representativeness, and stores the value in its place, dropping the
    reference to the features.  So the objective, and the basis of the picks
    it builds, cost nothing until something reads them; repr and == never
    read it.  wall_time is the selector's own time, without a deferred
    objective; pad_selection keeps it as it is.  == compares neither, so two
    results of the same selection compare equal.
    """

    indices: list[int]
    padded: list[bool]
    _objective: ObjectiveValue | tuple = field(repr=False, compare=False)
    step_scores: list[float]
    wall_time: float = field(compare=False)

    @property
    def objective(self) -> ObjectiveValue:
        if isinstance(self._objective, tuple):
            self._objective = representativeness(*self._objective)
        return self._objective


def _check_budget(features: FeatureMatrix, cfg: SelectionConfig):
    if cfg.budget > features.n_rows:
        raise ContractViolationError(
            f"budget {cfg.budget} exceeds the {features.n_rows} available rows"
        )


def budget_from_ratio(name: str, ratio: float, n_rows: int, least: int) -> int:
    """int(ratio * n_rows), the budget a ratio gives on n_rows rows.  A bool,
    anything that is not a real number, and a ratio outside (0, 1], NaN
    included, are refused before the budget is formed, and so is a budget
    below least; name is the ratio's name in the message."""
    if isinstance(ratio, bool) or not isinstance(ratio, numbers.Real):
        raise ContractViolationError(f"{name} must be a real number, got {ratio!r}")
    if not 0.0 < ratio <= 1.0:
        raise ContractViolationError(f"{name} must be in (0, 1], got {ratio}")
    budget = int(ratio * n_rows)
    if budget < least:
        raise ContractViolationError(
            f"{name} {ratio} gives a budget of {budget} of {n_rows} rows; at least {least} needed"
        )
    return budget


def _finish(indices, scores, t0, objective) -> SelectionResult:
    return SelectionResult(
        indices=list(indices),
        padded=[False] * len(indices),
        _objective=objective,
        step_scores=[float(s) for s in scores],
        wall_time=time.perf_counter() - t0,
    )


# A downdated squared norm that has lost all but this fraction of its
# reference value has cancelled too far to be trusted (Drmac & Bujanovic,
# ACM TOMS 2008; the sqrt(ulp) scale of LAPACK xGEQP3).
_RECOMPUTE_TOL = 1e-8

_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64
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


class _DistanceScreen:
    """Finds the rows whose k-means++ distance d2 a new pick c may lower.

    One BLAS product X @ c and the squared row norms n2, computed once
    (inf where they overflow), give
    est_i = fl(n2_i - 2 x_i . c + n2_c).  For any summation order, est_i is
    within gamma_{d+2} (||x_i|| + ||c||)^2 of ||x_i - c||^2, and the direct
    distance fl(np.sum((x_i - c)**2)) is at least (1 - gamma_{d+2})
    ||x_i - c||^2 (gamma_k = k u / (1 - k u), u = 2^-53; Higham 2002,
    sec. 3.1).  So the direct distance is at least d2_i, and np.minimum
    leaves d2_i as it is, wherever

        est_i >= fl(fl(d2_i + k_i) + k_c),  k_i = kappa n2_i + 24 d tiny64,
        kappa = 4 gamma / (1 - gamma) (1 + 2^-20),  gamma = gamma_{d+4}.

    (||x|| + ||c||)^2 <= 2 ||x||^2 + 2 ||c||^2 turns the two gamma_{d+2}
    terms into 4 gamma_{d+2} (||x_i||^2 + ||c||^2); gamma_{d+4} in their
    place covers the rounding of the test, 1 / (1 - gamma) that of n2,
    1 + 2^-20 that of k, and the tiny64 terms every product or sum that
    underflows.  Only the rows that fail the test (a NaN fails it) get the
    direct distance.  No row passes when (d + 4) u >= 0.1, or when some n2
    exceeds 2^1016, so that est_i could overflow.
    """

    def __init__(self, X: np.ndarray):
        n, d = X.shape
        g = (d + 4) * _U64
        with np.errstate(over="ignore"):
            nrm2 = np.einsum("ij,ij->i", X, X)
        self.X = X
        self.nrm2 = nrm2
        self.all_rows = None
        if g >= 0.1 or float(nrm2.max()) > 2.0**1016:
            self.all_rows = np.arange(n)
            return
        gamma = g / (1.0 - g)
        kappa = 4.0 * gamma / (1.0 - gamma) * (1.0 + 2.0**-20)
        self.k = kappa * nrm2 + 24 * d * _TINY64
        self.est = np.empty(n)
        self.floor = np.empty(n)

    def uncertified(self, d2: np.ndarray, idx: int) -> np.ndarray:
        """Indices of the rows whose direct distance to row idx may fall below d2."""
        if self.all_rows is not None:
            return self.all_rows
        est = np.dot(self.X, self.X[idx], out=self.est)
        est *= -2.0
        est += self.nrm2
        est += self.nrm2[idx]
        floor = np.add(d2, self.k, out=self.floor)
        floor += self.k[idx]
        return np.flatnonzero(~(est >= floor))


def _prepare(features: FeatureMatrix, cfg: SelectionConfig):
    """Set-up shared by greedy and divbs: the rows X, their sum Sum,
    ||Sum||^2, the squared row norms, the dependence floor on them, the mask
    of rows above it and the empty basis.  Raises ContractViolationError when
    the budget exceeds the rows, the basis refuses eps (before eps**2 is
    formed), a squared norm overflows or no row clears the floor."""
    _check_budget(features, cfg)
    basis = OrthonormalBasis(features.dim, cfg.eps)
    X = features.values
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
    return X, total, sum2, nrm2, floor2, alive, basis


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
    X, total, sum2, nrm2, floor2, alive, basis = _prepare(features, cfg)
    sum_ref = sum2
    running = total
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
    return _finish(indices, scores, t0, ObjectiveValue.from_coefficients(coeffs))


def select_divbs(features: FeatureMatrix, cfg: SelectionConfig) -> SelectionResult:
    """Fast approximate selection.

    Scores rows by |g . Sum| against a running Sum vector that is deflated
    by the component along each newly selected direction; stops early when
    Sum is driven to (numerical) zero.  Each step screens the live rows in
    float32 and re-scores in float64 those that can win (_Float32Screen);
    picked and rejected rows are retired from the screen.
    """
    t0 = time.perf_counter()
    X, total, sum2, nrm2, _, alive, basis = _prepare(features, cfg)
    sum_ref = sum2
    sum_floor2 = (cfg.eps * max(1.0, math.sqrt(sum2))) ** 2
    running = total.copy()
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
    return _finish(indices, scores, t0, ObjectiveValue.from_coefficients(coeffs))


def select_uniform(features: FeatureMatrix, cfg: SelectionConfig) -> SelectionResult:
    """Seeded uniform sample of budget rows without replacement."""
    _check_budget(features, cfg)
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    indices = rng.choice(features.n_rows, size=cfg.budget, replace=False).tolist()
    return _finish(indices, [], t0, (features, indices, cfg.eps))


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
    order = np.argsort(-scores, kind="stable")
    indices = order[: cfg.budget].tolist()
    step_scores = [float(scores[i]) for i in indices]
    return _finish(indices, step_scores, t0, (features, indices, cfg.eps))


def select_kmeanspp(features: FeatureMatrix, cfg: SelectionConfig) -> SelectionResult:
    """k-means++ seeding as a selector.

    First row uniform; each next row sampled proportionally to its squared
    Euclidean distance d2 to the nearest already-selected row.  When every
    remaining distance is zero (duplicate-only batches) the draw falls back
    to uniform among the unselected rows.  After each pick only the rows the
    _DistanceScreen cannot certify get the direct distance
    np.sum((x_i - c)**2), so d2 holds the same bits as recomputing every row.
    Raises ContractViolationError when a draw is due and a squared distance
    to the first pick or their sum overflows, since the draw is not defined
    then; a later distance that overflows is +inf, which np.minimum never
    takes.
    """
    _check_budget(features, cfg)
    t0 = time.perf_counter()
    X = features.values
    n = features.n_rows
    rng = np.random.default_rng(cfg.seed)
    first = int(rng.integers(n))
    indices = [first]
    with np.errstate(over="ignore"):
        d2 = np.sum((X - X[first]) ** 2, axis=1)
        # every later d2 is at most this one, so no later sum overflows
        overflow = not math.isfinite(float(d2.sum()))
    if overflow and cfg.budget > 1:
        raise ContractViolationError(
            "feature scale out of range: a squared distance to the first pick "
            "or their sum overflows"
        )
    screen = _DistanceScreen(X)
    while len(indices) < cfg.budget:
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(n), indices)
            idx = int(remaining[rng.integers(remaining.size)])
        indices.append(idx)
        if len(indices) == cfg.budget:
            break
        rows = screen.uncertified(d2, idx)
        with np.errstate(over="ignore"):
            near = np.sum((X.take(rows, axis=0) - X[idx]) ** 2, axis=1)
        d2[rows] = np.minimum(d2[rows], near)
    return _finish(indices, [], t0, (features, indices, cfg.eps))


def pad_selection(
    result: SelectionResult, features: FeatureMatrix, cfg: SelectionConfig
) -> SelectionResult:
    """Fill a short selection of distinct row indices to cfg.budget with
    seeded uniform draws from the other rows, flagged padded; a full selection
    is returned as it is.  A budget above the row count is refused, as the
    selectors refuse it.  The objective and wall_time are passed through."""
    _check_budget(features, cfg)
    _check_subset(features.n_rows, result.indices)
    missing = cfg.budget - len(result.indices)
    if missing <= 0:
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
