"""The three benchmark workloads and the checks on every output they produce.

Each workload is a closed loop with one caller: a cycle makes fresh inputs
from the workload's seeded generator, then runs its ops one after another,
each starting when the previous one has returned.  The program sees only
the generated inputs.

  stream-320  a fresh 320x512 Gaussian batch per cycle, budget 32, through
              select_greedy, select_divbs, select_uniform,
              select_top_score(None) (grad_norm) and select_kmeanspp.
  toy-1470    run_toy_experiment with divbs, then with uniform: 25 epochs,
              budget ratio 0.1, a fresh dataset/model seed per cycle.
  cold-cli    write a fresh matrix with write_features, then run
              `divbs select --strategy divbs` on it in a new process:
              binary 4096x1024 budget 256, then CSV 320x512 budget 32.

In a traced run every op runs twice on the same input, untraced and
traced, the traced call first in every other cycle so that warm-up favours
neither; the untraced time is what the op costs, the ratio is the tracing
overhead, and both calls must pick the same rows.  A traced cold-cli op runs
`divbs.cli.main` in-process so its read, select, finish and emit show as
spans.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "divbs" / "schemas" / "report.schema.json"
DIGEST_OPS = 8  # ops per kind whose selected rows make the digest
CLI_MAIN = "import sys; from divbs.cli import main; sys.exit(main())"  # the `divbs` script


def child_env() -> dict:
    """Environment for a child interpreter that imports divbs from ./src."""
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


@dataclass(frozen=True)
class Sizes:
    stream: tuple  # (rows, dim, budget)
    toy_counts: tuple | None  # cluster sizes; None is the package default (1470 rows)
    toy_epochs: int
    cold: tuple  # ((op name, rows, dim, budget, file format), ...)


FULL = Sizes(
    stream=(320, 512, 32),
    toy_counts=None,
    toy_epochs=25,  # runs of 0.2-1 s, about 20 per strategy in a run, for a steady median
    cold=(("bin-4096", 4096, 1024, 256, "binary"), ("csv-320", 320, 512, 32, "csv")),
)
SMOKE = Sizes(
    stream=(40, 24, 4),
    toy_counts=(60, 20, 10, 4),
    toy_epochs=3,
    cold=(("bin-4096", 64, 32, 8, "binary"), ("csv-320", 40, 24, 4, "csv")),
)


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def check_indices(indices, n_rows: int, budget: int):
    require(len(indices) == budget, f"{len(indices)} indices for budget {budget}")
    require(len(set(indices)) == len(indices), "duplicate indices")
    require(all(0 <= i < n_rows for i in indices), "index out of range")


def check_objective(divbs, features, indices, padded, r: float):
    """The reported r must match a recomputation over the unpadded rows."""
    kept = [i for i, p in zip(indices, padded) if not p]
    ref = divbs.representativeness(features, kept).r
    require(math.isclose(r, ref, rel_tol=1e-9), f"reported r {r!r} != recomputed {ref!r}")


class Workload:
    name = ""
    divbs_op = ""  # the op whose time is divbs_op_s
    peer_op = ""  # the op whose time is peer_op_s
    # How a run's op and cycle times are summarised.  Ops that last a large part
    # of a second each average over the shared host's short slow spells, so their
    # median is steady once a run holds about 20 of them.
    typical = staticmethod(statistics.median)

    def __init__(self, divbs, seed: int, sizes: Sizes, workdir: Path, tracer=None):
        self.divbs = divbs
        self.rng = np.random.default_rng(seed)
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = tracer
        self.times = defaultdict(list)  # op kind -> seconds per successful op
        self.cycles: list[float] = []  # summed op seconds of each failure-free cycle
        self.quality: list[float] = []
        self.overhead: list[float] = []  # traced / untraced seconds, per op
        self.picked = defaultdict(list)  # op kind -> selected rows of its first ops
        self.attempted = 0
        self.failures: list[str] = []
        self.traced_first = True  # flipped at the start of every cycle
        self.largest_input_bytes = 0
        self._schema = None

    def setup(self):
        """What a caller does before its first op: make inputs, touch every path once."""
        raise NotImplementedError

    def cycle(self):
        raise NotImplementedError

    def named(self) -> dict:
        """The workload's metrics under their own names: name -> (value, unit)."""
        raise NotImplementedError

    def run(self, seconds: float):
        deadline = time.perf_counter() + seconds
        while True:
            self._cycle_s = 0.0
            self.traced_first = not self.traced_first
            failures = len(self.failures)
            self.cycle()
            if len(self.failures) == failures:
                self.cycles.append(self._cycle_s)
            if time.perf_counter() >= deadline:
                return

    def op(self, kind: str, call, check):
        """Time call(), then check its output; check returns the selected rows."""
        self.attempted += 1
        order = (False,) if self.tracer is None else (self.traced_first, not self.traced_first)
        done = {}  # traced? -> (output, rows, seconds)
        try:
            for traced in order:
                with self.tracer.active(kind) if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    out = call()
                    seconds = time.perf_counter() - t0
                done[traced] = (out, check(out), seconds)
            out, rows, dt = done[False]
            if self.tracer is not None:
                require(done[True][1] == rows, "traced call picked other rows")
                self.overhead.append(done[True][2] / dt)
        except Exception as exc:  # a raise or failed check fails this op; the run goes on
            self.failures.append(f"{kind}: {exc!r}")
            return None
        self.times[kind].append(dt)
        self._cycle_s += dt
        if len(self.picked[kind]) < DIGEST_OPS:
            self.picked[kind].append(rows)
        return out

    def matrix(self, rows: int, dim: int):
        self.largest_input_bytes = max(self.largest_input_bytes, 8 * rows * dim)
        return self.divbs.FeatureMatrix(self.rng.standard_normal((rows, dim)))

    def validate_report(self, report: dict):
        if self._schema is None:
            import jsonschema  # here, so that the set-up probe does not time its import

            self._schema = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
        errors = [e.message for e in self._schema.iter_errors(report)]
        require(not errors, f"report fails the schema: {errors[:1]}")

    def end_to_end(self) -> dict:
        return {
            "divbs_op_s": self.typical(self.times[self.divbs_op]),
            "peer_op_s": self.typical(self.times[self.peer_op]),
            "ops_per_s": len(self.times) / self.typical(self.cycles),
            "divbs_quality": statistics.fmean(self.quality),
        }


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1]


class Stream(Workload):
    name = "stream-320"
    divbs_op = "divbs"
    peer_op = "greedy"
    # Ops of a few ms fall inside the host's slow spells or between them, and
    # the share of slow ops swings a run's median by up to 25 %; the fastest of
    # several hundred ops per run is hit only by a spell that spans the run.
    typical = staticmethod(min)
    STRATEGIES = (
        ("greedy", lambda d, f, c: d.select_greedy(f, c)),
        ("divbs", lambda d, f, c: d.select_divbs(f, c)),
        ("uniform", lambda d, f, c: d.select_uniform(f, c)),
        ("grad_norm", lambda d, f, c: d.select_top_score(f, None, c)),
        ("kmeanspp", lambda d, f, c: d.select_kmeanspp(f, c)),
    )

    def inputs(self):
        rows, dim, budget = self.sizes.stream
        features = self.matrix(rows, dim)
        cfg = self.divbs.SelectionConfig(budget=budget, seed=int(self.rng.integers(2**31)))
        return features, cfg

    def setup(self):
        features, cfg = self.inputs()
        for _, select in self.STRATEGIES:
            select(self.divbs, features, cfg)

    def check(self, features, cfg, kind, result):
        check_indices(result.indices, features.n_rows, cfg.budget)
        if kind in ("greedy", "divbs"):
            require(not any(result.padded), f"{kind} padded a full-rank batch")
        check_objective(self.divbs, features, result.indices, result.padded, result.objective.r)
        return result.indices

    def cycle(self):
        features, cfg = self.inputs()
        r = {}
        for kind, select in self.STRATEGIES:
            result = self.op(
                kind,
                lambda: select(self.divbs, features, cfg),
                lambda res: self.check(features, cfg, kind, res),
            )
            r[kind] = result and result.objective.r
        if r["greedy"] and r["divbs"]:
            self.quality.append(r["divbs"] / r["greedy"])

    def named(self) -> dict:
        t = self.times
        return {
            "greedy_ms_p50": (1e3 * statistics.median(t["greedy"]), "ms"),
            "greedy_ms_p90": (1e3 * _p90(t["greedy"]), "ms"),
            "divbs_ms_p50": (1e3 * statistics.median(t["divbs"]), "ms"),
            "divbs_ms_p90": (1e3 * _p90(t["divbs"]), "ms"),
            "selections_per_s": (len(t) / statistics.median(self.cycles), "1/s"),
            "divbs_r_ratio": (statistics.fmean(self.quality), "ratio"),
        }


class Toy(Workload):
    name = "toy-1470"
    divbs_op = "divbs"
    peer_op = "uniform"
    BUDGET_RATIO = 0.1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.uniform_accuracy: list[float] = []  # paired with self.quality, cycle by cycle

    def train(self, strategy: str, seed: int, epochs: int):
        counts = self.sizes.toy_counts
        spec = None if counts is None else self.divbs.ToyDatasetSpec(counts=counts, seed=seed)
        return self.divbs.run_toy_experiment(
            strategy, budget_ratio=self.BUDGET_RATIO, epochs=epochs, seed=seed, dataset=spec
        )

    def check(self, report):
        epochs = self.sizes.toy_epochs
        self.validate_report(report.to_json_dict())
        require(len(report.accuracy) == epochs, f"{len(report.accuracy)} accuracies for {epochs} epochs")
        n = report.points.shape[0]
        check_indices(report.final_indices, n, max(1, int(self.BUDGET_RATIO * n)))
        return report.final_indices

    def setup(self):
        seed = int(self.rng.integers(2**31))
        for strategy in (self.divbs_op, self.peer_op):
            self.train(strategy, seed, epochs=1)

    def cycle(self):
        seed = int(self.rng.integers(2**31))
        rows = sum(self.sizes.toy_counts or self.divbs.toy.DEFAULT_COUNTS)
        # selection features: 4 x 100 output-layer weights + 4 biases per row
        self.largest_input_bytes = max(self.largest_input_bytes, 8 * rows * 404)
        accuracy = {}
        for strategy in (self.divbs_op, self.peer_op):
            report = self.op(
                strategy,
                lambda: self.train(strategy, seed, self.sizes.toy_epochs),
                self.check,
            )
            if report is not None:
                accuracy[strategy] = report.accuracy[-1]
        if len(accuracy) == 2:
            self.quality.append(accuracy[self.divbs_op])
            self.uniform_accuracy.append(accuracy[self.peer_op])

    def end_to_end(self) -> dict:
        # final accuracy varies by 0.13 between seeds at 25 epochs, but divbs and
        # uniform on one seed move together (correlation 0.95), so their ratio is steady
        ratio = statistics.fmean(self.quality) / statistics.fmean(self.uniform_accuracy)
        return dict(super().end_to_end(), divbs_quality=ratio)

    def named(self) -> dict:
        return {
            "toy_divbs_s": (statistics.median(self.times["divbs"]), "s"),
            "toy_uniform_s": (statistics.median(self.times["uniform"]), "s"),
            "toy_divbs_acc": (statistics.fmean(self.quality), "ratio"),
            "toy_uniform_acc": (statistics.fmean(self.uniform_accuracy), "ratio"),
        }


class Cold(Workload):
    name = "cold-cli"
    divbs_op = "bin-4096"
    peer_op = "csv-320"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.env = child_env()
        self.report_path = self.workdir / "selection.json"

    def write(self, name: str, rows: int, dim: int, fmt: str):
        """Write a fresh rows x dim matrix for op `name`; returns (features, path)."""
        features = self.matrix(rows, dim)
        path = self.workdir / (name + (".csv" if fmt == "csv" else ".bin"))
        if self.tracer is None:
            self.divbs.write_features(features, str(path), fmt=fmt)
        else:
            with self.tracer.active("write"):
                self.divbs.write_features(features, str(path), fmt=fmt)
        return features, path

    def setup(self):
        for name, rows, dim, _, fmt in self.sizes.cold:
            self.write(name, rows, dim, fmt)

    def select(self, argv: list[str]) -> Path:
        """One `divbs select`: a new process, or divbs.cli.main in a traced run."""
        self.report_path.unlink(missing_ok=True)
        if self.tracer is None:
            proc = subprocess.run(
                [sys.executable, "-c", CLI_MAIN, *argv],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=170,
            )
            code, err = proc.returncode, proc.stderr[-300:]
        else:
            code, err = self.divbs.cli.main(argv), ""
        require(code == 0, f"divbs select exited {code}: {err}")
        return self.report_path

    def check(self, features, budget, path):
        report = json.loads(path.read_text())
        self.validate_report(report)
        check_indices(report["indices"], features.n_rows, budget)
        require(not any(report["padded"]), "divbs padded a full-rank batch")
        check_objective(self.divbs, features, report["indices"], report["padded"], report["r"])
        return report["indices"]

    def cycle(self):
        for kind, rows, dim, budget, fmt in self.sizes.cold:
            features, path = self.write(kind, rows, dim, fmt)
            argv = ["select", "--features", str(path), "--strategy", "divbs",
                    "--budget", str(budget), "--out", str(self.report_path)]
            report = self.op(
                kind, lambda: self.select(argv), lambda out: self.check(features, budget, out)
            )
            if report is not None and kind == self.peer_op:
                cfg = self.divbs.SelectionConfig(budget=budget, pad_policy="none")
                greedy = self.divbs.select_greedy(features, cfg).objective.r
                self.quality.append(json.loads(report.read_text())["r"] / greedy)

    def named(self) -> dict:
        return {
            "cold_bin_s_p50": (statistics.median(self.times["bin-4096"]), "s"),
            "cold_csv_s_p50": (statistics.median(self.times["csv-320"]), "s"),
        }


WORKLOADS = {w.name: w for w in (Stream, Toy, Cold)}


def startup_seconds(repeats: int) -> tuple[float, float]:
    """Median wall seconds of `python -c pass` and of `import divbs` beyond it."""
    env = child_env()
    bare, imported = [], []
    for _ in range(repeats):
        for code, out in (("pass", bare), ("import divbs", imported)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60)
            out.append(time.perf_counter() - t0)
    interp = statistics.median(bare)
    return interp, statistics.median(imported) - interp


def scratch_dir():
    """Working directory for written inputs, inside the benchmark's own directory."""
    return tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).resolve().parent)
