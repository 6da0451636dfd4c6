"""Layered benchmark for divbs.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1 [--smoke]

Runs one workload (see workloads.py) closed-loop for S seconds (by default
run_seconds of BENCHMARK.json) against the divbs sources in ./src, checks
every output, and prints the workload's metrics by name with their units,
the environment and a digest of the selected rows.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, where metrics holds the end_to_end metrics of BENCHMARK.json
with --trace 0 and its per_layer metrics with --trace 1.  A traced run is a separate run; its spans are
written to perfbench/out/ when it ends.  --smoke shrinks every shape so a
run takes seconds, and exits 1 if any op failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9  # fresh set-ups timed per run; setup_s is their median
STARTUP_PROBES = 5


def load_divbs():
    """Import divbs from the checkout's ./src, never from anywhere else."""
    pkg = ROOT / "src" / "divbs"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no divbs sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import divbs
    import divbs.cli  # not imported by the package itself

    if Path(divbs.__file__).resolve().parent != pkg:
        sys.exit(f"perfbench: imported divbs from {divbs.__file__}, not {pkg}")
    return divbs


def environment(workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), "")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches["L" + (index / "level").read_text().strip()] = (index / "size").read_text().strip()
    kib = 1024
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "largest_input_bytes": workload.largest_input_bytes,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * kib,
        "peak_child_rss_bytes": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * kib,
    }


def digest(workload) -> dict:
    """sha256 of the rows each op kind picked on its first ops: a record, not a gate."""
    return {
        kind: {"ops": len(rows), "sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]}
        for kind, rows in sorted(workload.picked.items())
    }


def setup_seconds(args) -> float:
    """Median wall time of a set-up in a fresh interpreter: import divbs, make inputs."""
    argv = [sys.executable, __file__, "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(2 if args.smoke else SETUP_PROBES):
        t0 = time.perf_counter()
        # captured output makes run() wait through communicate(), which wakes when the
        # child exits; a bare wait(timeout) polls in steps of up to 50 ms
        subprocess.run(argv + ["--smoke"] * args.smoke, capture_output=True, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    divbs = load_divbs()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    make = workloads.WORKLOADS[args.workload]

    if args.setup_only:  # the set-up probe: load nothing of the harness it does not need
        with workloads.scratch_dir() as work:
            make(divbs, args.seed, sizes, Path(work)).setup()
        return 0

    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    setup_s = setup_seconds(args)
    tracer = tracing.Tracer() if args.trace else None
    with workloads.scratch_dir() as work:
        wl = make(divbs, args.seed, sizes, Path(work), tracer)
        wl.setup()
        wl.run(args.seconds)
    failed = len(wl.failures)
    for failure in wl.failures[:5]:
        print(f"perfbench: failed op {failure}", file=sys.stderr)

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(wl), sort_keys=True))
    print("digest " + json.dumps(digest(wl), sort_keys=True))
    named = dict(wl.named(), failed_frac=(failed / wl.attempted, "frac"), setup_s=(setup_s, "s"))
    for name, (value, unit) in named.items():
        print(f"metric {name} {value!r} {unit}")

    if args.trace:
        values = tracing.layer_metrics(tracer.spans)
        interp, imported = (0.0, 0.0)
        if wl.name == "cold-cli":
            interp, imported = workloads.startup_seconds(1 if args.smoke else STARTUP_PROBES)
        values.update({
            "cli.interp_s": interp,
            "cli.import_s": imported,
            "trace.overhead_frac": statistics.median(wl.overhead) - 1.0,
        })
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{wl.name}-seed{args.seed}.json").write_text(json.dumps(tracer.to_records()))
        wanted = spec["per_layer"]
    else:
        values = dict(wl.end_to_end(), setup_s=setup_s)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        sys.exit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": wl.attempted, "failed": failed, "metrics": metrics}))
    return 1 if args.smoke and failed else 0


if __name__ == "__main__":
    sys.exit(main())
