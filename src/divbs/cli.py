"""Command-line entry points.

Subcommands: select, oracle-check, metrics, toy, bench.  Every report is
JSON; exit codes are 0 for success, 2 for usage errors, 3 for data or
contract errors.  The environment variable DIVBS_EPS overrides the default
dependence tolerance; the --eps flag wins over both.
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
from .featfile import atomic_write_text, read_features
from .linalg import DEFAULT_EPS, FeatureMatrix, check_eps
from .metrics import diversity_report
from .objective import brute_force_optimum
from .selectors import (
    PAD_NONE,
    PAD_UNIFORM,
    STRATEGIES,
    SelectionConfig,
    SelectionResult,
    select_divbs,
    select_greedy,
)
from .toy import TOY_STRATEGIES, run_toy_experiment

GREEDY_BOUND = 1.0 - math.exp(-1.0)


def _default_eps() -> float:
    raw = os.environ.get("DIVBS_EPS")
    if raw is None:
        return DEFAULT_EPS
    try:
        return float(raw)
    except ValueError:
        raise LoadError(f"DIVBS_EPS is not a number: {raw!r}") from None


def _emit(report: dict, out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _read_scores(path: str) -> np.ndarray:
    try:
        with open(path) as f:
            vals = [float(line) for line in f if line.strip()]
    except ValueError as exc:
        raise LoadError(f"{path}: bad score value: {exc}") from None
    return np.array(vals)


def _resolve_budget(args, n_rows: int) -> int:
    if args.budget is not None:
        return args.budget
    if not math.isfinite(args.budget_ratio):
        raise ContractViolationError(f"budget ratio must be finite, got {args.budget_ratio}")
    budget = int(args.budget_ratio * n_rows)
    if budget < 1:
        raise ContractViolationError(
            f"budget ratio {args.budget_ratio} yields an empty budget on {n_rows} rows"
        )
    return budget


def _check_trials(args):
    if args.trials < 1:
        raise ContractViolationError(f"trials must be >= 1, got {args.trials}")


def _selection_report(result: SelectionResult, config_echo: dict) -> dict:
    return {
        "indices": result.indices,
        "padded": result.padded,
        "r": result.objective.r,
        "r_prime": result.objective.r_prime,
        "basis_size": result.objective.basis_size,
        "step_scores": result.step_scores,
        "wall_time_seconds": result.wall_time,
        "config_echo": config_echo,
    }


def cmd_select(args) -> int:
    features = read_features(args.features)
    budget = _resolve_budget(args, features.n_rows)
    cfg = SelectionConfig(
        budget=budget,
        eps=args.eps,
        pad_policy=PAD_UNIFORM if args.pad == "uniform" else PAD_NONE,
        seed=args.seed,
        normalize_features=args.normalize_features,
    )
    scores = None
    if args.strategy == "top_score":
        if args.scores is None:
            raise UsageError("--strategy top_score requires --scores")
        scores = _read_scores(args.scores)
    result = STRATEGIES[args.strategy](features, scores, cfg)
    echo = {
        "strategy": args.strategy,
        "budget": budget,
        "eps": args.eps,
        "seed": args.seed,
        "pad": args.pad,
        "normalize_features": args.normalize_features,
    }
    _emit(_selection_report(result, echo), args.out)
    return 0


def cmd_oracle_check(args) -> int:
    _check_trials(args)
    rng = np.random.default_rng(args.seed)
    greedy_ratios = []
    divbs_ratios = []
    for _ in range(args.trials):
        features = FeatureMatrix(rng.standard_normal((args.n, args.d)))
        _, opt = brute_force_optimum(features, args.budget, eps=args.eps)
        cfg = SelectionConfig(budget=args.budget, eps=args.eps, pad_policy=PAD_NONE)
        g = select_greedy(features, cfg).objective.r
        a = select_divbs(features, cfg).objective.r
        greedy_ratios.append(g / opt.r)
        divbs_ratios.append(a / opt.r)
    report = {
        "n": args.n,
        "d": args.d,
        "budget": args.budget,
        "trials": args.trials,
        "seed": args.seed,
        "bound": GREEDY_BOUND,
        "greedy_ratio_min": min(greedy_ratios),
        "greedy_ratio_median": statistics.median(greedy_ratios),
        "divbs_ratio_min": min(divbs_ratios),
        "divbs_ratio_median": statistics.median(divbs_ratios),
    }
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
    try:
        with open(args.selection) as f:
            payload = json.load(f)
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
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    scale = (size - 2 * margin) / span

    def sx(x):
        return margin + (x - lo[0]) * scale[0]

    def sy(y):
        return size - margin - (y - lo[1]) * scale[1]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    order = np.argsort(selected, kind="stable")  # draw selected on top
    for i in order:
        color = palette[int(labels[i]) % len(palette)]
        if selected[i]:
            parts.append(
                f'<circle cx="{sx(points[i, 0]):.2f}" cy="{sy(points[i, 1]):.2f}" '
                f'r="4" fill="{color}" stroke="black" stroke-width="1.2"/>'
            )
        else:
            parts.append(
                f'<circle cx="{sx(points[i, 0]):.2f}" cy="{sy(points[i, 1]):.2f}" '
                f'r="2" fill="{color}" fill-opacity="0.35"/>'
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
    rows = ["x,y,label,selected"]
    for i in range(report.points.shape[0]):
        rows.append(
            f"{report.points[i, 0]!r},{report.points[i, 1]!r},"
            f"{int(report.labels[i])},{int(report.selected_mask[i])}"
        )
    atomic_write_text(os.path.join(args.out_dir, "toy_scatter.csv"), "\n".join(rows) + "\n")
    atomic_write_text(
        os.path.join(args.out_dir, "toy_scatter.svg"),
        _svg_scatter(report.points, report.labels, report.selected_mask),
    )
    return 0


def cmd_bench(args) -> int:
    _check_trials(args)
    rng = np.random.default_rng(args.seed)
    greedy_times = []
    divbs_times = []
    cfg = SelectionConfig(budget=args.budget, eps=args.eps, pad_policy=PAD_NONE)
    for _ in range(args.trials):
        features = FeatureMatrix(rng.standard_normal((args.n, args.d)))
        t0 = time.perf_counter()
        select_greedy(features, cfg)
        greedy_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        select_divbs(features, cfg)
        divbs_times.append(time.perf_counter() - t0)
    g_mean = statistics.fmean(greedy_times)
    a_mean = statistics.fmean(divbs_times)
    report = {
        "n": args.n,
        "d": args.d,
        "budget": args.budget,
        "trials": args.trials,
        "greedy_mean_seconds": g_mean,
        "greedy_std_seconds": statistics.pstdev(greedy_times),
        "divbs_mean_seconds": a_mean,
        "divbs_std_seconds": statistics.pstdev(divbs_times),
        "speedup": g_mean / a_mean,
    }
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
        p.add_argument("--eps", type=float, default=None, help="dependence tolerance")

    p = sub.add_parser("select", help="select a subset from a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--strategy", required=True, choices=tuple(STRATEGIES))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget", type=int)
    group.add_argument("--budget-ratio", type=float, dest="budget_ratio")
    p.add_argument("--scores", default=None)
    p.add_argument("--seed", type=int, default=0)
    add_eps(p)
    p.add_argument("--pad", choices=("none", "uniform"), default="none")
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
        if args.eps is None:
            args.eps = _default_eps()
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
