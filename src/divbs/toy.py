"""Self-contained 2-D imbalanced four-class experiment.

Four Gaussian clusters with heavily skewed counts, a two-layer 2-100-4 ReLU
MLP trained with Adam, and online batch selection each epoch using the
per-sample gradients of the final layer as selection features.  Each epoch
runs one full-batch forward pass, whose hidden activations and
probabilities feed the accuracy, the losses and the selection features; the
Adam step's gradients come from a forward pass over the selected rows only.
The forward pass reduces the 4-long class axis column by column, which is
faster than numpy's axis-1 max and sum at that width and gives the same
bits, and it works in place on arrays of its own: no array outlives a call
in a buffer, because an epoch's features keep its hidden activations and
probabilities until they are read.
An epoch's N x (4*100 + 4) gradient features are built only when something
reads their values or labels: greedy, divbs and kmeanspp read them every
epoch, while uniform and top_loss read only the row count (and the losses),
so their runs build the matrix once, for the final diversity report.  A run
is checked whole before its first epoch: its dataset spec (counts and seed
by linalg.check_int), its budget ratio (selectors.budget_from_ratio, with a
floor of 2 rows, since the final diversity report needs two), its epochs
(check_int) and one SelectionConfig.  Each epoch derives its own seed from
that config's seed, which the config stores as a Python int, so a numpy
integer seed runs and reports as the same int.  Adam moments start at zero
without being stored.  The network shape, the Adam hyperparameters and the
cluster means are constants.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractViolationError
from .linalg import DEFAULT_EPS, FeatureMatrix, check_int
from .metrics import DiversityReport, diversity_report
from .selectors import STRATEGIES, SelectionConfig, budget_from_ratio, pad_selection

DEFAULT_MEANS = ((0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (5.0, 5.0))
DEFAULT_COUNTS = (1000, 300, 150, 20)

TOY_STRATEGIES = ("uniform", "top_loss", "greedy", "divbs", "kmeanspp")


@dataclass(frozen=True)
class ToyDatasetSpec:
    """Cluster sizes, one per cluster in DEFAULT_MEANS order, and the data
    seed.  counts may be any iterable; each count must be an integer of at
    least 0 and the seed one of at least 0 (check_int); the counts are stored
    as a tuple of Python ints."""

    counts: tuple = DEFAULT_COUNTS
    seed: int = 0

    def __post_init__(self):
        try:
            counts = tuple(self.counts)
        except TypeError:
            raise ContractViolationError(
                f"counts must be a sequence of integers, got {self.counts!r}"
            ) from None
        object.__setattr__(self, "counts", tuple(check_int("count", c, 0) for c in counts))
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))


def generate_toy_dataset(spec: ToyDatasetSpec) -> tuple[FeatureMatrix, np.ndarray]:
    """Seeded unit-variance Gaussian clusters; labels 0..3 by cluster.  More
    counts than the four cluster means are refused."""
    if len(spec.counts) > len(DEFAULT_MEANS):
        raise ContractViolationError(
            f"{len(spec.counts)} cluster counts given, the toy has {len(DEFAULT_MEANS)} clusters"
        )
    rng = np.random.default_rng(spec.seed)
    points = []
    labels = []
    for cls, (mean, count) in enumerate(zip(DEFAULT_MEANS, spec.counts)):
        points.append(rng.normal(loc=mean, scale=1.0, size=(count, 2)))
        labels.append(np.full(count, cls, dtype=np.int32))
    x = np.vstack(points)
    y = np.concatenate(labels)
    return FeatureMatrix(x, row_labels=y), y


@dataclass
class MlpState:
    """Two-layer ReLU MLP parameters plus Adam optimizer state: the moments
    m and v by parameter name (adam_step reads a missing one as zero) and the
    step count.  The Adam hyperparameters are class constants."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    lr = 0.001
    beta1 = 0.9
    beta2 = 0.999
    adam_eps = 1e-8
    PARAMS = ("w1", "b1", "w2", "b2")


def init_mlp(seed: int) -> MlpState:
    n_in, n_hidden, n_classes = 2, 100, 4
    rng = np.random.default_rng(seed)
    w1 = rng.normal(scale=math.sqrt(2.0 / n_in), size=(n_hidden, n_in))
    w2 = rng.normal(scale=math.sqrt(2.0 / n_hidden), size=(n_classes, n_hidden))
    return MlpState(w1=w1, b1=np.zeros(n_hidden), w2=w2, b2=np.zeros(n_classes))


def forward(model: MlpState, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU hidden activations and softmax class probabilities, row per sample.

    The class axis is only 4 long, where numpy's axis-1 max and sum cost
    more per row than a loop over the 4 class columns, so the row maximum
    and the softmax denominator are folded column by column, in class order.
    A maximum is exact, and numpy sums a 4-long row as ((p0+p1)+p2)+p3, so
    the probabilities are bit for bit those of max(axis=1) and sum(axis=1).
    Every step after the two products works in place on arrays made by this
    call, and both returned arrays are new on every call: nothing is kept
    from one call to the next.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    hidden = x @ model.w1.T
    hidden += model.b1
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ model.w2.T
    logits += model.b2
    cols = logits.T
    top = cols[0].copy()
    for col in cols[1:]:
        np.maximum(top, col, out=top)
    logits -= top[:, None]
    np.exp(logits, out=logits)
    total = cols[0].copy()
    for col in cols[1:]:
        total += col
    logits /= total[:, None]
    return hidden, logits


def per_sample_loss(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Cross-entropy of each sample against its integer label."""
    n = probs.shape[0]
    p = probs[np.arange(n), labels]
    return -np.log(np.maximum(p, 1e-300))


def _gradient_features(
    hidden: np.ndarray, probs: np.ndarray, labels: np.ndarray
) -> FeatureMatrix:
    """last_layer_gradient_features from a forward pass already made."""
    n, c = probs.shape
    h = hidden.shape[1]
    feats = np.empty((n, c * h + c))
    delta = feats[:, c * h :]
    delta[:] = probs
    delta[np.arange(n), labels] -= 1.0
    np.einsum("nc,nh->nch", delta, hidden, out=feats[:, : c * h].reshape(n, c, h))
    return FeatureMatrix(feats, row_labels=labels)


class _EpochFeatures:
    """An epoch's gradient features, read by the selectors as a FeatureMatrix.
    n_rows and dim come from the forward pass; the matrix is built by
    _gradient_features (and validated) on the first read of values or
    row_labels, then kept.  So a strategy that reads only the shape builds
    nothing, and neither does repr."""

    def __init__(self, hidden: np.ndarray, probs: np.ndarray, labels: np.ndarray):
        self._forward = (hidden, probs, labels)
        self.n_rows, n_classes = probs.shape
        self.dim = n_classes * (hidden.shape[1] + 1)

    @functools.cached_property
    def _matrix(self) -> FeatureMatrix:
        return _gradient_features(*self._forward)

    @property
    def values(self) -> np.ndarray:
        return self._matrix.values

    @property
    def row_labels(self) -> np.ndarray:
        return self._matrix.row_labels


def last_layer_gradient_features(
    model: MlpState, inputs: np.ndarray, labels: np.ndarray
) -> FeatureMatrix:
    """Per-sample cross-entropy gradient w.r.t. the output layer.

    Row layout: the 4x100 weight gradient flattened row-major, then the
    4 bias gradients; equals (p - onehot(y)) outer hidden for the weight
    block and (p - onehot(y)) for the bias block.
    """
    return _gradient_features(*forward(model, inputs), labels)


def loss_and_gradients(
    model: MlpState, inputs: np.ndarray, labels: np.ndarray
) -> tuple[float, dict]:
    """Mean cross-entropy and its gradient w.r.t. every parameter."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    hidden, probs = forward(model, x)
    n = x.shape[0]
    loss = float(per_sample_loss(probs, labels).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grads = {
        "w2": dlogits.T @ hidden,
        "b2": dlogits.sum(axis=0),
    }
    dhidden = dlogits @ model.w2
    dpre = dhidden * (hidden > 0.0)
    grads["w1"] = dpre.T @ x
    grads["b1"] = dpre.sum(axis=0)
    return loss, grads


def adam_step(model: MlpState, grads: dict) -> MlpState:
    """One bias-corrected Adam update; returns a new state."""
    t = model.step + 1
    new_params = {}
    new_m = {}
    new_v = {}
    for name in MlpState.PARAMS:
        g = grads[name]
        p = getattr(model, name)
        if g.shape != p.shape:
            raise ContractViolationError(f"gradient shape mismatch for {name}")
        m = model.beta1 * model.m.get(name, 0.0) + (1.0 - model.beta1) * g
        v = model.beta2 * model.v.get(name, 0.0) + (1.0 - model.beta2) * g * g
        m_hat = m / (1.0 - model.beta1**t)
        v_hat = v / (1.0 - model.beta2**t)
        new_params[name] = p - model.lr * m_hat / (np.sqrt(v_hat) + model.adam_eps)
        new_m[name] = m
        new_v[name] = v
    return replace(model, **new_params, m=new_m, v=new_v, step=t)


@dataclass
class ToyRunReport:
    strategy: str
    seed: int
    accuracy: list[float]
    final_indices: list[int]
    final_padded: list[bool]
    cluster_counts: list[int]
    diversity: DiversityReport
    # raw data for scatter output, not part of the JSON report
    points: np.ndarray
    labels: np.ndarray
    selected_mask: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "accuracy": self.accuracy,
            "final_indices": self.final_indices,
            "final_padded": self.final_padded,
            "cluster_counts": self.cluster_counts,
            "diversity": self.diversity.to_json_dict(),
        }


def run_toy_experiment(
    strategy: str,
    budget_ratio: float = 0.1,
    epochs: int = 100,
    seed: int = 0,
    dataset: ToyDatasetSpec | None = None,
    eps: float = DEFAULT_EPS,
) -> ToyRunReport:
    """Train the toy MLP with per-epoch batch selection.

    Each epoch runs one forward pass over the whole dataset, selects
    floor(budget_ratio * N) samples with the given strategy, fills a
    selection that stops short (greedy or divbs) to the budget with
    pad_selection's seeded uniform draws, and takes one Adam step on the
    mean loss over the selected subset.  final_padded flags the padded rows
    of the last epoch's batch.  Before the first epoch, budget_from_ratio
    refuses a ratio outside (0, 1] and a budget below 2 rows, check_int
    refuses epochs that are not an integer of at least 1, and SelectionConfig
    refuses a seed that is not an integer of at least 0 and a bad eps.
    """
    if strategy not in TOY_STRATEGIES:
        raise ContractViolationError(f"unknown strategy {strategy!r}")
    spec = dataset if dataset is not None else ToyDatasetSpec(seed=seed)
    n = sum(spec.counts)
    budget = budget_from_ratio("budget_ratio", budget_ratio, n, 2)
    check_int("epochs", epochs, 1)
    base = SelectionConfig(budget=budget, eps=eps, seed=seed)
    data, labels = generate_toy_dataset(spec)
    x = data.values
    model = init_mlp(base.seed)
    select = STRATEGIES["top_score" if strategy == "top_loss" else strategy]
    accuracy: list[float] = []
    for epoch in range(epochs):
        hidden, probs = forward(model, x)
        accuracy.append(float(np.mean(probs.argmax(axis=1) == labels)))
        feats = _EpochFeatures(hidden, probs, labels)
        losses = per_sample_loss(probs, labels)
        cfg = replace(base, seed=(base.seed * 1_000_003 + epoch) % 2**63)
        result = select(feats, losses, cfg)
        if len(result.indices) < budget:
            result = pad_selection(result, feats, cfg)
        sel = result.indices
        _, grads = loss_and_gradients(model, x[sel], labels[sel])
        model = adam_step(model, grads)
    counts = [int(np.sum(labels[sel] == c)) for c in range(len(spec.counts))]
    mask = np.zeros(n, dtype=bool)
    mask[sel] = True
    return ToyRunReport(
        strategy=strategy,
        seed=base.seed,
        accuracy=accuracy,
        final_indices=[int(i) for i in sel],
        final_padded=list(result.padded),
        cluster_counts=counts,
        diversity=diversity_report(feats, sel, ks=[1], eps=eps),
        points=x,
        labels=labels,
        selected_mask=mask,
    )
