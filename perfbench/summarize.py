"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/summarize.py --seeds 1-10 [--trace 0|1] [--out FILE]

Runs run.py once per (workload, seed) for every workload of BENCHMARK.json,
one run at a time and each for its run_seconds, and prints for
every metric its median, its quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound.  With --out the
per-run values, the summary and the environment line are saved as one
JSON record of the BENCH trajectory.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"seed": seed, "wall_s": time.perf_counter() - t0, "env": env, **json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": None, "q3": None, "spread": None}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    record = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.trace))
            print(f"{workload} seed={seed} wall={runs[-1]['wall_s']:.1f}s failed={runs[-1]['failed']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            s = summary([r["metrics"][name]["value"] for r in runs])
            bound = bounds[name]
            metrics[name] = dict(s, unit=runs[0]["metrics"][name]["unit"], bound=bound)
            line = f"  {name:38s} median={s['median']:.6g}"
            if s["spread"] is not None:
                line += f" q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f} bound={bound}"
                if bound is not None and s["spread"] > bound:
                    line += "  OVER BOUND"
            print(line)
        record["workloads"][workload] = {
            "env": runs[-1]["env"],
            "metrics": metrics,
            "runs": [{k: r[k] for k in ("seed", "wall_s", "correct", "attempted", "failed", "metrics")} for r in runs],
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
