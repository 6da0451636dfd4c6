"""Command-line entry points.

Subcommands: select, oracle-check, metrics, toy, bench.  Every report is
JSON; exit codes are 0 for success, 2 for usage errors, 3 for data or
contract errors.  --eps sets the dependence tolerance of every subcommand.
The --budget-ratio of select and of toy goes through one rule,
selectors.budget_from_ratio: a ratio in (0, 1] whose int(ratio * rows)
reaches 1 row for select and 2 for toy.  oracle-check and bench check their
sizes and seed, then build one SelectionConfig, before the first trial.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

import numpy as np

from .errors import ContractViolationError, EnumerationCapError, LoadError
from .featfile import atomic_write_text, read_features, read_scores, read_text
from .linalg import DEFAULT_EPS, FeatureMatrix, check_eps, check_int
from .metrics import diversity_report
from .objective import brute_force_optimum
from .selectors import STRATEGIES, SelectionConfig, budget_from_ratio, pad_selection
from .toy import TOY_STRATEGIES, run_toy_experiment

GREEDY_BOUND = 1.0 - math.exp(-1.0)
KERNELS = ("greedy", "divbs")  # the two selectors oracle-check and bench compare
PAD_NONE = "none"
PAD_UNIFORM = "uniform"


def _emit(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _gaussian_batches(args):
    """The trials of oracle-check and bench: args.trials standard normal
    n x d batches drawn, one per trial, from a generator seeded with
    args.seed.  Sizes below 1 and a negative seed are refused by check_int
    at the call, before any batch is drawn."""
    for name, least in (("n", 1), ("d", 1), ("trials", 1), ("seed", 0)):
        check_int(name, getattr(args, name), least)
    rng = np.random.default_rng(args.seed)
    return (FeatureMatrix(rng.standard_normal((args.n, args.d))) for _ in range(args.trials))


def cmd_select(args) -> int:
    # bad flag combinations are refused before any file is read
    if (args.scores is None) == (args.strategy == "top_score"):
        if args.scores is None:
            raise UsageError("--strategy top_score requires --scores")
        raise UsageError(f"--scores is read only by --strategy top_score, not {args.strategy}")
    # unit rows suit only the two strategies that score directions
    if args.normalize_features and args.strategy not in KERNELS:
        raise ContractViolationError(f"{args.strategy} does not support normalize_features")
    features = read_features(args.features)
    budget = args.budget
    if budget is None:
        budget = budget_from_ratio("budget ratio", args.budget_ratio, features.n_rows, 1)
    cfg = SelectionConfig(budget=budget, eps=args.eps, seed=args.seed)
    scores = None if args.scores is None else read_scores(args.scores)
    if args.normalize_features:
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(features.values, axis=1)
        if np.any(norms == 0.0):
            raise ContractViolationError(f"cannot normalize zero feature row {np.argmin(norms)}")
        if np.any(np.isinf(norms)):
            row = np.argmax(norms)
            raise ContractViolationError(f"cannot normalize feature row {row}: its norm overflows")
        features = FeatureMatrix(features.values / norms[:, None], features.row_labels)
    result = STRATEGIES[args.strategy](features, scores, cfg)
    if args.pad == PAD_UNIFORM:
        result = pad_selection(result, features, cfg)
    report = {
        "indices": result.indices,
        "padded": result.padded,
        "r": result.objective.r,
        "r_prime": result.objective.r_prime,
        "basis_size": result.objective.basis_size,
        "step_scores": result.step_scores,
        "wall_time_seconds": result.wall_time,
        "config_echo": {
            "strategy": args.strategy,
            "budget": budget,
            "eps": args.eps,
            "seed": args.seed,
            "pad": args.pad,
            "normalize_features": args.normalize_features,
        },
    }
    _emit(report, args.out)
    return 0


def cmd_oracle_check(args) -> int:
    batches = _gaussian_batches(args)
    cfg = SelectionConfig(budget=args.budget, eps=args.eps)
    ratios = {name: [] for name in KERNELS}
    for features in batches:
        _, opt = brute_force_optimum(features, args.budget, eps=args.eps)
        for name in KERNELS:
            ratios[name].append(STRATEGIES[name](features, None, cfg).objective.r / opt.r)
    report = {
        "n": args.n,
        "d": args.d,
        "budget": args.budget,
        "trials": args.trials,
        "seed": args.seed,
        "bound": GREEDY_BOUND,
    }
    for name, values in ratios.items():
        report[f"{name}_ratio_min"] = min(values)
        report[f"{name}_ratio_median"] = statistics.median(values)
    _emit(report, args.out)
    if report["greedy_ratio_min"] < GREEDY_BOUND - 1e-9:
        return 1
    return 0


def cmd_metrics(args) -> int:
    try:
        ks = [int(k) for k in args.ks.split(",") if k.strip()]
    except ValueError:
        raise UsageError(f"--ks must be comma-separated integers, got {args.ks!r}") from None
    features = read_features(args.features)
    text = read_text(args.selection)  # outside the try: a LoadError is a ValueError
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise LoadError(f"{args.selection}: selection file is not JSON: {exc}") from None
    if not isinstance(payload, dict) or "indices" not in payload:
        raise LoadError(f"{args.selection}: selection file has no 'indices' key")
    selected = payload["indices"]
    if not isinstance(selected, list):
        raise LoadError(f"{args.selection}: 'indices' is not a list")
    report = diversity_report(features, selected, ks, eps=args.eps).to_json_dict()
    _emit(report, args.out)
    return 0


def _svg_scatter(points: np.ndarray, labels: np.ndarray, selected: np.ndarray) -> str:
    palette = ["#d62728", "#1f77b4", "#2ca02c", "#e8b800", "#9467bd", "#8c564b"]
    size = 640
    margin = 30.0
    lo = points.min(axis=0)
    span = np.maximum(points.max(axis=0) - lo, 1e-12)
    scale = (size - 2 * margin) / span
    cx = margin + (points[:, 0] - lo[0]) * scale[0]
    cy = size - margin - (points[:, 1] - lo[1]) * scale[1]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    styles = {False: (2, 'fill-opacity="0.35"'), True: (4, 'stroke="black" stroke-width="1.2"')}
    order = np.argsort(selected, kind="stable")  # draw selected on top
    for x, y, label, chosen in zip(*(a[order].tolist() for a in (cx, cy, labels, selected))):
        radius, style = styles[chosen]
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius}" '
            f'fill="{palette[label % len(palette)]}" {style}/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_toy(args) -> int:
    report = run_toy_experiment(
        strategy=args.strategy,
        budget_ratio=args.budget_ratio,
        epochs=args.epochs,
        seed=args.seed,
        eps=args.eps,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    _emit(report.to_json_dict(), os.path.join(args.out_dir, "toy_report.json"))
    rows = ["x,y,label,selected"] + [
        f"{x!r},{y!r},{label},{int(chosen)}"
        for (x, y), label, chosen in zip(
            report.points.tolist(), report.labels.tolist(), report.selected_mask.tolist()
        )
    ]
    atomic_write_text(os.path.join(args.out_dir, "toy_scatter.csv"), "\n".join(rows) + "\n")
    atomic_write_text(
        os.path.join(args.out_dir, "toy_scatter.svg"),
        _svg_scatter(report.points, report.labels, report.selected_mask),
    )
    return 0


def cmd_bench(args) -> int:
    batches = _gaussian_batches(args)
    cfg = SelectionConfig(budget=args.budget, eps=args.eps)
    times = {name: [] for name in KERNELS}
    for features in batches:
        for name in KERNELS:
            t0 = time.perf_counter()
            STRATEGIES[name](features, None, cfg)
            times[name].append(time.perf_counter() - t0)
    report = {"n": args.n, "d": args.d, "budget": args.budget, "trials": args.trials}
    for name, values in times.items():
        report[f"{name}_mean_seconds"] = statistics.fmean(values)
        report[f"{name}_median_seconds"] = statistics.median(values)
        report[f"{name}_std_seconds"] = statistics.pstdev(values)
    report["speedup"] = report["greedy_mean_seconds"] / report["divbs_mean_seconds"]
    _emit(report, args.out)
    return 0


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divbs", description="Diversity-aware budgeted batch selection."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eps(p):
        p.add_argument("--eps", type=float, default=DEFAULT_EPS, help="dependence tolerance")

    p = sub.add_parser("select", help="select a subset from a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--strategy", required=True, choices=tuple(STRATEGIES))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget", type=int)
    group.add_argument("--budget-ratio", type=float, dest="budget_ratio")
    p.add_argument("--scores", default=None)
    p.add_argument("--seed", type=int, default=0)
    add_eps(p)
    p.add_argument("--pad", choices=(PAD_NONE, PAD_UNIFORM), default=PAD_NONE)
    p.add_argument("--normalize-features", action="store_true", dest="normalize_features")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("oracle-check", help="compare greedy selectors to brute force")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_eps(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("metrics", help="diversity report for a selection")
    p.add_argument("--features", required=True)
    p.add_argument("--selection", required=True, help="JSON file with an 'indices' list")
    p.add_argument("--ks", default="1", help="comma-separated neighbor counts")
    add_eps(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("toy", help="run the 2-D four-cluster experiment")
    p.add_argument("--strategy", required=True, choices=TOY_STRATEGIES)
    p.add_argument("--budget-ratio", type=float, default=0.1, dest="budget_ratio")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_eps(p)
    p.add_argument("--out-dir", default=".", dest="out_dir")
    p.set_defaults(func=cmd_toy)

    p = sub.add_parser("bench", help="time greedy vs divbs on synthetic batches")
    p.add_argument("--n", type=int, default=320)
    p.add_argument("--d", type=int, default=512)
    p.add_argument("--budget", type=int, default=32)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    add_eps(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        check_eps(args.eps)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolationError, EnumerationCapError, LoadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
