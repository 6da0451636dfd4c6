"""In-memory spans around calls into divbs, and the per-layer metrics made from them.

A span is (name, start, end, parent id, note).  Spans are recorded only while
a Tracer is active; activating it swaps every traced function for a timing
wrapper in *every* divbs module that holds a reference to it (so
``divbs.toy.select_divbs`` and ``divbs.cli.read_features`` are traced, not only
the defining module), and deactivating it puts the originals back.  The
benchmark's own checks therefore run untraced.
"""
from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from contextlib import contextmanager


def _selection_note(args, result):
    features = args[0]
    return {
        "steps": len(result.step_scores),
        "padded": sum(result.padded),
        "n": features.n_rows,
        "d": features.dim,
    }


def _file_note(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _written_note(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _toy_note(args, result):
    return {"epochs": len(result.accuracy)}


# (defining module, function name, span name, note); the note reads the
# call's arguments and result after the span has ended.
FUNCTIONS = [
    ("featfile", "read_features", "featfile.read", None),
    ("featfile", "read_features_binary", "featfile.read_bin", _file_note),
    ("featfile", "read_features_csv", "featfile.read_csv", _file_note),
    ("featfile", "write_features_binary", "featfile.write_bin", _written_note),
    ("featfile", "write_features_csv", "featfile.write_csv", _written_note),
    ("cli", "cmd_select", "cli.select", None),
    ("cli", "_emit", "cli.emit", None),
    ("selectors", "select_greedy", "selectors.greedy", _selection_note),
    ("selectors", "select_divbs", "selectors.divbs", _selection_note),
    ("selectors", "select_uniform", "selectors.uniform", _selection_note),
    ("selectors", "select_top_score", "selectors.top_score", _selection_note),
    ("selectors", "select_kmeanspp", "selectors.kmeanspp", _selection_note),
    ("selectors", "pad_selection", "selectors.pad", None),
    ("objective", "representativeness", "objective.representativeness", None),
    ("metrics", "diversity_report", "metrics.diversity_report", None),
    ("toy", "run_toy_experiment", "toy.run", _toy_note),
    ("toy", "forward", "toy.forward", None),
    ("toy", "last_layer_gradient_features", "toy.features", None),
    ("toy", "per_sample_loss", "toy.loss", None),
    ("toy", "loss_and_gradients", "toy.loss_and_gradients", None),
    ("toy", "adam_step", "toy.adam_step", None),
]
# (defining module, class, method, span name)
METHODS = [
    ("linalg", "FeatureMatrix", "__post_init__", "linalg.validate"),
    ("linalg", "OrthonormalBasis", "extend", "linalg.basis_extend"),
]

SELECTORS = (
    "selectors.greedy",
    "selectors.divbs",
    "selectors.uniform",
    "selectors.top_score",
    "selectors.kmeanspp",
)
KERNELS = ("selectors.greedy", "selectors.divbs")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches = self._plan()

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid][1:3] = t0, t1
            if note is not None:
                spans[sid][4] = note(args, result)
            return result

        return traced

    def _plan(self):
        """Every (holder, attribute, original, wrapper) to swap while active."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "divbs" or k.startswith("divbs.")]
        patches = []
        for mod_name, attr, span, note in FUNCTIONS:
            original = getattr(sys.modules["divbs." + mod_name], attr)
            wrapper = self._wrap(span, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules["divbs." + mod_name], cls_name)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original, self._wrap(span, original, None)))
        return patches

    @contextmanager
    def active(self, op_name: str):
        """Trace one benchmark op; its spans hang under a root span ``op.<op_name>``."""
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)
        try:
            sid = len(self.spans)
            self.spans.append(["op." + op_name, time.perf_counter(), 0.0, -1, None])
            self._stack.append(sid)
            try:
                yield
            finally:
                self._stack.pop()
                self.spans[sid][2] = time.perf_counter()
        finally:
            for holder, key, original, _ in self._patches:
                setattr(holder, key, original)

    def to_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": a, "end": b, "parent": p, "note": note}
            for i, (n, a, b, p, note) in enumerate(self.spans)
        ]


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics computed from the recorded spans.

    Means are per call unless the name says otherwise; a layer the workload
    never calls reads 0.
    """
    dur = [b - a for _, a, b, _, _ in spans]
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)

    def ids(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else ""

    def in_selector(i):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in SELECTORS:
                return True
            p = spans[p][3]
        return False

    def self_time(i):
        return dur[i] - sum(dur[c] for c in children.get(i, ()))

    def ms(idx):
        return 1e3 * _mean([dur[i] for i in idx])

    def mb_s(idx):
        return _ratio(sum(spans[i][4]["bytes"] for i in idx), sum(dur[i] for i in idx)) / 1e6

    sel = ids(*SELECTORS)
    kern = ids(*KERNELS)
    divbs = ids("selectors.divbs")
    finish = [i for i in ids("objective.representativeness") if parent_name(i) in SELECTORS]
    x_bytes = [8 * spans[i][4]["steps"] * spans[i][4]["n"] * spans[i][4]["d"] for i in divbs]
    divbs_self = [self_time(i) for i in divbs]
    runs = ids("toy.run")
    epochs = sum(spans[i][4]["epochs"] for i in runs)

    def per_epoch_ms(*names):
        idx = [i for i in ids(*names) if parent_name(i) == "toy.run"]
        return 1e3 * _ratio(sum(dur[i] for i in idx), epochs)

    return {
        "cli.emit_ms": ms(ids("cli.emit")),
        "featfile.read_bin_ms": ms(ids("featfile.read_bin")),
        "featfile.read_csv_ms": ms(ids("featfile.read_csv")),
        "featfile.write_bin_ms": ms(ids("featfile.write_bin")),
        "featfile.write_csv_ms": ms(ids("featfile.write_csv")),
        "featfile.read_bin_mb_s": mb_s(ids("featfile.read_bin")),
        "featfile.read_csv_mb_s": mb_s(ids("featfile.read_csv")),
        "linalg.validate_ms": ms(ids("linalg.validate")),
        "linalg.feature_matrix_per_select": _ratio(
            sum(in_selector(i) for i in ids("linalg.validate")), len(sel)
        ),
        "linalg.basis_extend_per_select": _ratio(
            sum(in_selector(i) for i in ids("linalg.basis_extend")), len(sel)
        ),
        "selectors.greedy.self_ms": 1e3 * _mean([self_time(i) for i in ids("selectors.greedy")]),
        "selectors.divbs.self_ms": 1e3 * _mean(divbs_self),
        "selectors.uniform_ms": ms(ids("selectors.uniform")),
        "selectors.grad_norm_ms": ms(ids("selectors.top_score")),
        "selectors.kmeanspp_ms": ms(ids("selectors.kmeanspp")),
        "selectors.steps_per_select": _mean([spans[i][4]["steps"] for i in kern]),
        "selectors.padded_per_select": _mean([spans[i][4]["padded"] for i in kern]),
        "selectors.divbs.x_bytes_per_select": _mean(x_bytes),
        "selectors.divbs.gb_s": _ratio(sum(x_bytes), sum(divbs_self)) / 1e9,
        "objective.finish_ms": ms(finish),
        "objective.finish_frac": _ratio(sum(dur[i] for i in finish), sum(dur[i] for i in sel)),
        "metrics.diversity_ms": ms(ids("metrics.diversity_report")),
        "toy.forward_ms": per_epoch_ms("toy.forward"),
        "toy.features_ms": per_epoch_ms("toy.features"),
        "toy.loss_ms": per_epoch_ms("toy.loss"),
        "toy.select_ms": per_epoch_ms(*SELECTORS),
        "toy.step_ms": per_epoch_ms("toy.loss_and_gradients", "toy.adam_step"),
    }
