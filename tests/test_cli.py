import csv
import json
import os
import re
import stat
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from divbs import cli
from divbs.cli import _svg_scatter, main
from divbs.featfile import write_features_binary, write_features_csv
from divbs.linalg import FeatureMatrix
from divbs.toy import run_toy_experiment


@pytest.fixture(scope="module")
def schema():
    text = resources.files("divbs").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def validate(path, schema):
    with open(path) as f:
        report = json.load(f)
    jsonschema.validate(report, schema)
    return report


@pytest.fixture()
def hand_features(tmp_path):
    fm = FeatureMatrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    path = str(tmp_path / "hand.csv")
    write_features_csv(fm, path)
    return path


class TestSelect:
    def test_hand_example_divbs(self, hand_features, tmp_path, schema):
        out = str(tmp_path / "sel.json")
        code = main(
            [
                "select",
                "--features",
                hand_features,
                "--strategy",
                "divbs",
                "--budget",
                "2",
                "--out",
                out,
            ]
        )
        assert code == 0
        report = validate(out, schema)
        assert report["indices"] == [0, 2]

    def test_out_report_mode_follows_umask(self, hand_features, tmp_path, set_umask):
        """The report gets 0o666 less the umask, as a plain open would give it."""
        set_umask(0o022)
        out = tmp_path / "sel.json"
        argv = ["select", "--features", hand_features, "--strategy", "divbs", "--budget", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_out_report_mode_without_reading_umask(
        self, hand_features, tmp_path, set_umask, monkeypatch
    ):
        """The report is written without setting the umask to read it."""
        set_umask(0o022)

        def refuse(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        monkeypatch.setattr(os, "umask", refuse)
        out = tmp_path / "sel.json"
        argv = ["select", "--features", hand_features, "--strategy", "divbs", "--budget", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_budget_ratio(self, tmp_path, schema):
        rng = np.random.default_rng(60)
        fm = FeatureMatrix(rng.standard_normal((1470, 4)))
        feat = str(tmp_path / "f.bin")
        write_features_binary(fm, feat)
        out = str(tmp_path / "sel.json")
        code = main(
            [
                "select",
                "--features",
                feat,
                "--strategy",
                "uniform",
                "--budget-ratio",
                "0.1",
                "--out",
                out,
            ]
        )
        assert code == 0
        report = validate(out, schema)
        assert len(report["indices"]) == 147
        assert report["config_echo"]["budget"] == 147

    def test_invalid_strategy_usage_error(self, hand_features):
        code = main(
            ["select", "--features", hand_features, "--strategy", "nope", "--budget", "1"]
        )
        assert code == 2

    def test_top_score_requires_scores(self, hand_features):
        code = main(
            [
                "select",
                "--features",
                hand_features,
                "--strategy",
                "top_score",
                "--budget",
                "1",
            ]
        )
        assert code == 2

    def test_top_score_with_scores(self, hand_features, tmp_path, schema):
        scores = tmp_path / "scores.txt"
        scores.write_text("3.0\n1.0\n2.0\n")
        out = str(tmp_path / "sel.json")
        code = main(
            [
                "select",
                "--features",
                hand_features,
                "--strategy",
                "top_score",
                "--scores",
                str(scores),
                "--budget",
                "2",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert validate(out, schema)["indices"] == [0, 2]

    def test_nan_score_data_error(self, hand_features, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("3.0\nnan\n2.0\n")
        code = main(
            [
                "select",
                "--features",
                hand_features,
                "--strategy",
                "top_score",
                "--scores",
                str(scores),
                "--budget",
                "2",
            ]
        )
        assert code == 3

    def test_bad_score_value_names_line(self, hand_features, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("3.0\n\nx\n")
        argv = ["select", "--features", hand_features, "--strategy", "top_score"]
        assert main(argv + ["--scores", str(scores), "--budget", "2"]) == 3
        assert f"{scores}: bad score value at line 3:" in capsys.readouterr().err

    def test_scores_not_utf8_names_byte_offset(self, hand_features, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_bytes(b"3.0\n\xff\n2.0\n")
        argv = ["select", "--features", hand_features, "--strategy", "top_score"]
        assert main(argv + ["--scores", str(scores), "--budget", "2"]) == 3
        assert f"{scores}: not UTF-8 text at byte offset 4" in capsys.readouterr().err

    def test_whole_float_labels(self, tmp_path, schema):
        path = tmp_path / "labelled.csv"
        path.write_text("f0,f1,label\n1.0,0.0,2.0\n0.0,1.0,1\n")
        out = str(tmp_path / "sel.json")
        args = ["select", "--features", str(path), "--strategy", "divbs", "--budget", "2"]
        assert main(args + ["--out", out]) == 0
        assert validate(out, schema)["indices"] == [0, 1]

    def test_pad_uniform_echoed_as_given(self, tmp_path, schema):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]]))
        feat = str(tmp_path / "f.bin")
        write_features_binary(fm, feat)
        out = str(tmp_path / "sel.json")
        argv = ["select", "--features", feat, "--strategy", "divbs", "--budget", "2"]
        assert main(argv + ["--pad", "uniform", "--out", out]) == 0
        report = validate(out, schema)
        assert report["config_echo"]["pad"] == "uniform"
        assert report["padded"] == [False, True]

    @pytest.mark.parametrize(
        "lines", ["3.0\n1.0\n2.0\n", "nan\nnan\nnan\n", "3.0\n1.0\n"],
        ids=["valid", "all-nan", "wrong-length"],
    )
    def test_scores_with_other_strategy_usage_error(self, hand_features, tmp_path, lines):
        """Only top_score reads --scores; any other strategy refuses the
        file, whatever it holds, instead of ignoring it."""
        scores = tmp_path / "scores.txt"
        scores.write_text(lines)
        out = tmp_path / "sel.json"
        code = main(
            [
                "select",
                "--features",
                hand_features,
                "--strategy",
                "divbs",
                "--scores",
                str(scores),
                "--budget",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["nan", "-1e-3", "inf", "-5", "1", "1e200"])
    def test_bad_eps_data_error(self, hand_features, tmp_path, flag):
        eps = [f"--eps={flag}"]  # "=" so argparse takes "-1e-3" as a value
        out = tmp_path / "sel.json"
        argv = ["select", "--features", hand_features, "--strategy", "divbs", "--budget", "2"]
        assert main(argv + ["--pad", "uniform", "--out", str(out)] + eps) == 3
        assert not out.exists()
        # checked once for every subcommand, not only by the selectors
        argv = ["oracle-check", "--n", "4", "--d", "2", "--budget", "1", "--trials", "1"]
        assert main(argv + eps) == 3

    def test_negative_exponent_eps_needs_equals(self, hand_features):
        """argparse reads a bare "-1e-3" as an option, a usage error (2);
        written "--eps=-1e-3" it is a value, and a negative eps exits 3."""
        argv = ["select", "--features", hand_features, "--strategy", "divbs", "--budget", "2"]
        assert main(argv + ["--eps", "-1e-3"]) == 2
        assert main(argv + ["--eps=-1e-3"]) == 3

    @pytest.mark.parametrize("strategy", ["divbs", "greedy"])
    @pytest.mark.parametrize("scale", [1e-11, 1e160])
    def test_out_of_range_scale_data_error(self, tmp_path, strategy, scale):
        feat = str(tmp_path / "f.bin")
        X = scale * np.random.default_rng(61).standard_normal((20, 5))
        write_features_binary(FeatureMatrix(X), feat)
        out = tmp_path / "sel.json"
        argv = ["select", "--features", feat, "--strategy", strategy, "--budget", "3"]
        assert main(argv + ["--pad", "uniform", "--out", str(out)]) == 3
        assert not out.exists()

    def test_kmeanspp_overflowing_scale_data_error(self, tmp_path, capsys):
        feat = str(tmp_path / "f.bin")
        X = 1e160 * np.random.default_rng(61).standard_normal((20, 5))
        write_features_binary(FeatureMatrix(X), feat)
        out = tmp_path / "sel.json"
        argv = ["select", "--features", feat, "--strategy", "kmeanspp", "--budget", "3"]
        assert main(argv + ["--out", str(out)]) == 3
        assert not out.exists()
        assert "feature scale out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["uniform", "top_score", "grad_norm", "kmeanspp"])
    def test_normalize_features_rejected_by_baselines(self, hand_features, tmp_path, strategy):
        scores = tmp_path / "scores.txt"
        scores.write_text("3.0\n1.0\n2.0\n")
        argv = ["select", "--features", hand_features, "--strategy", strategy, "--budget", "2"]
        argv += ["--scores", str(scores)] if strategy == "top_score" else []
        assert main(argv) == 0
        assert main(argv + ["--normalize-features"]) == 3

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("strategy", ["greedy", "divbs"])
    def test_normalize_features_reads_unit_rows(self, tmp_path, strategy, fmt):
        rng = np.random.default_rng(62)
        X = rng.standard_normal((40, 6)) * rng.uniform(0.1, 10.0, size=(40, 1))
        labels = np.arange(40) % 3
        unit = X / np.linalg.norm(X, axis=1)[:, None]
        reports = []
        for name, values, flag in (("raw", X, ["--normalize-features"]), ("unit", unit, [])):
            feat = str(tmp_path / f"{name}.{fmt}")
            write = write_features_csv if fmt == "csv" else write_features_binary
            write(FeatureMatrix(values, labels), feat)
            out = tmp_path / f"{name}.json"
            argv = ["select", "--features", feat, "--strategy", strategy, "--budget", "5"]
            assert main(argv + ["--pad", "uniform", "--out", str(out)] + flag) == 0
            report = json.loads(out.read_text())
            del report["wall_time_seconds"], report["config_echo"]["normalize_features"]
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("strategy", ["greedy", "divbs"])
    def test_normalize_features_zero_row_data_error(self, tmp_path, capsys, strategy):
        feat = str(tmp_path / "f.bin")
        X = np.random.default_rng(63).standard_normal((10, 4))
        X[6] = 0.0
        write_features_binary(FeatureMatrix(X), feat)
        argv = ["select", "--features", feat, "--strategy", strategy, "--budget", "3"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--normalize-features"]) == 3
        assert "zero feature row 6" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["greedy", "divbs"])
    def test_normalize_features_overflowing_norm_data_error(self, tmp_path, capsys, strategy):
        """A finite row whose norm overflows is refused like a zero row,
        instead of becoming a row of zeros that is never picked."""
        X = np.array([[1e150, 1e150, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        feat = str(tmp_path / "f.csv")
        write_features_csv(FeatureMatrix(X), feat)
        argv = ["select", "--features", feat, "--strategy", strategy, "--budget", "3"]
        assert main(argv + ["--normalize-features"]) == 0
        X[0, :2] = 1e200
        write_features_csv(FeatureMatrix(X), feat)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--normalize-features"]) == 3
        err = capsys.readouterr().err
        assert "cannot normalize feature row 0: its norm overflows" in err
        assert "Warning" not in err

    def test_missing_file_data_error(self, tmp_path):
        code = main(
            [
                "select",
                "--features",
                str(tmp_path / "missing.bin"),
                "--strategy",
                "divbs",
                "--budget",
                "1",
            ]
        )
        assert code == 3

    def test_budget_too_large_data_error(self, hand_features):
        code = main(
            ["select", "--features", hand_features, "--strategy", "divbs", "--budget", "9"]
        )
        assert code == 3

    def test_eps_env_override(self, hand_features, tmp_path, schema, monkeypatch):
        """DIVBS_EPS overrides nothing: only --eps sets the tolerance."""
        monkeypatch.setenv("DIVBS_EPS", "nan")
        out = str(tmp_path / "sel.json")
        code = main(
            [
                "select",
                "--features",
                hand_features,
                "--strategy",
                "divbs",
                "--budget",
                "2",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert validate(out, schema)["config_echo"]["eps"] == 1e-10
        code = main(
            [
                "select",
                "--features",
                hand_features,
                "--strategy",
                "divbs",
                "--budget",
                "2",
                "--eps",
                "1e-12",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert validate(out, schema)["config_echo"]["eps"] == 1e-12


class TestOracleCheck:
    def test_small_run(self, tmp_path, schema):
        out = str(tmp_path / "oracle.json")
        code = main(
            [
                "oracle-check",
                "--n",
                "6",
                "--d",
                "3",
                "--budget",
                "2",
                "--trials",
                "20",
                "--seed",
                "1",
                "--out",
                out,
            ]
        )
        assert code == 0
        report = validate(out, schema)
        assert report["greedy_ratio_min"] >= report["bound"] - 1e-9

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            assert (
                main(
                    [
                        "oracle-check",
                        "--n",
                        "5",
                        "--d",
                        "3",
                        "--budget",
                        "2",
                        "--trials",
                        "10",
                        "--seed",
                        "7",
                        "--out",
                        out,
                    ]
                )
                == 0
            )
            with open(out) as f:
                outs.append(f.read())
        assert outs[0] == outs[1]


class TestMetrics:
    def test_report(self, tmp_path, schema):
        rng = np.random.default_rng(61)
        fm = FeatureMatrix(rng.standard_normal((12, 3)), rng.integers(0, 2, 12))
        feat = str(tmp_path / "f.bin")
        write_features_binary(fm, feat)
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"indices": [0, 2, 4, 6]}))
        out = str(tmp_path / "metrics.json")
        code = main(
            ["metrics", "--features", feat, "--selection", str(sel), "--ks", "1,2", "--out", out]
        )
        assert code == 0
        report = validate(out, schema)
        assert report["n_selected"] == 4

    def test_k_too_large(self, tmp_path):
        rng = np.random.default_rng(62)
        fm = FeatureMatrix(rng.standard_normal((5, 3)))
        feat = str(tmp_path / "f.bin")
        write_features_binary(fm, feat)
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"indices": [0, 1]}))
        code = main(["metrics", "--features", feat, "--selection", str(sel), "--ks", "5"])
        assert code == 3


class TestToy:
    def test_outputs(self, tmp_path, schema):
        out_dir = str(tmp_path / "toy")
        code = main(
            [
                "toy",
                "--strategy",
                "uniform",
                "--budget-ratio",
                "0.1",
                "--epochs",
                "2",
                "--seed",
                "5",
                "--out-dir",
                out_dir,
            ]
        )
        assert code == 0
        report = validate(os.path.join(out_dir, "toy_report.json"), schema)
        assert len(report["accuracy"]) == 2
        assert len(report["final_indices"]) == 147
        csv_text = open(os.path.join(out_dir, "toy_scatter.csv")).read()
        assert csv_text.startswith("x,y,label,selected\n")
        assert len(csv_text.strip().splitlines()) == 1471
        svg_text = open(os.path.join(out_dir, "toy_scatter.svg")).read()
        assert svg_text.startswith("<svg") and svg_text.rstrip().endswith("</svg>")

    def test_scatter_csv_rows_parse_to_the_report(self, tmp_path):
        """Every data row of toy_scatter.csv reads back, with csv and float/int,
        to the run's points (bit for bit), labels and selected flags."""
        out_dir = str(tmp_path / "toy")
        argv = ["toy", "--strategy", "uniform", "--epochs", "1", "--seed", "3"]
        assert main(argv + ["--out-dir", out_dir]) == 0
        report = run_toy_experiment(strategy="uniform", budget_ratio=0.1, epochs=1, seed=3)
        with open(os.path.join(out_dir, "toy_scatter.csv"), newline="") as f:
            reader = csv.reader(f)
            assert next(reader) == ["x", "y", "label", "selected"]
            rows = [(float(x), float(y), int(label), int(sel)) for x, y, label, sel in reader]
        assert [(x.hex(), y.hex()) for x, y, _, _ in rows] == [
            (x.hex(), y.hex()) for x, y in report.points.tolist()
        ]
        assert [row[2] for row in rows] == report.labels.tolist()
        assert [row[3] for row in rows] == report.selected_mask.astype(int).tolist()

    def test_svg_scatter_draws_each_point_once(self):
        """One circle per point at margin + (x - lo) * scale and
        size - margin - (y - lo) * scale, the selected ones last and larger."""
        points = np.array([[0.0, 0.0], [2.0, 1.0], [0.5, 4.0]])
        labels = np.array([0, 1, 2], dtype=np.int32)
        svg = _svg_scatter(points, labels, np.array([False, True, False]))
        circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="(\d)" fill="([^"]+)"', svg)
        assert circles == [
            ("30.00", "610.00", "2", "#d62728"),
            ("175.00", "30.00", "2", "#2ca02c"),
            ("610.00", "465.00", "4", "#1f77b4"),
        ]
        assert svg.count('stroke="black"') == 1 and svg.count('fill-opacity="0.35"') == 2

    def test_reproducible_accuracy(self, tmp_path):
        reports = []
        for name in ("t1", "t2"):
            out_dir = str(tmp_path / name)
            assert (
                main(
                    [
                        "toy",
                        "--strategy",
                        "uniform",
                        "--epochs",
                        "2",
                        "--seed",
                        "9",
                        "--out-dir",
                        out_dir,
                    ]
                )
                == 0
            )
            with open(os.path.join(out_dir, "toy_report.json")) as f:
                reports.append(json.load(f))
        assert reports[0]["accuracy"] == reports[1]["accuracy"]


class TestBench:
    def test_small_bench(self, tmp_path, schema):
        out = str(tmp_path / "bench.json")
        code = main(
            [
                "bench",
                "--n",
                "64",
                "--d",
                "32",
                "--budget",
                "8",
                "--trials",
                "3",
                "--out",
                out,
            ]
        )
        assert code == 0
        report = validate(out, schema)
        assert report["speedup"] > 0


class TestBadInputExitCodes:
    @pytest.fixture()
    def twenty_rows(self, tmp_path):
        fm = FeatureMatrix(np.random.default_rng(63).standard_normal((20, 3)))
        path = str(tmp_path / "f.bin")
        write_features_binary(fm, path)
        return path

    def metrics(self, features, tmp_path, indices, ks="1"):
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"indices": indices}))
        return main(["metrics", "--features", features, "--selection", str(sel), "--ks", ks])

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_budget_ratio(self, hand_features, ratio):
        args = ["select", "--features", hand_features, "--strategy", "divbs"]
        assert main(args + [f"--budget-ratio={ratio}"]) == 3

    @pytest.mark.parametrize("ratio", ["1.5", "1e300"])
    def test_budget_ratio_above_one(self, hand_features, capsys, ratio):
        """Refused before the budget is formed: no 301-digit budget in the message."""
        args = ["select", "--features", hand_features, "--strategy", "divbs"]
        assert main(args + [f"--budget-ratio={ratio}"]) == 3
        assert capsys.readouterr().err == f"error: budget ratio must be in (0, 1], got {float(ratio)}\n"

    def test_budget_ratio_empty_budget(self, hand_features, capsys):
        args = ["select", "--features", hand_features, "--strategy", "divbs"]
        assert main(args + ["--budget-ratio=0.2"]) == 3
        assert "gives a budget of 0 of" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, code, message",
        [
            (["--strategy", "top_score"], 2, "--strategy top_score requires --scores"),
            (["--strategy", "uniform", "--normalize-features"], 3, "uniform does not support"),
            (["--strategy", "divbs", "--scores", "s.txt"], 2, "read only by --strategy top_score"),
        ],
        ids=["top-score-without-scores", "normalize-uniform", "scores-with-divbs"],
    )
    def test_flag_combination_refused_before_reading(self, tmp_path, capsys, extra, code, message):
        """A bad flag combination is named even when the features file is
        missing too: the flags are checked before any file is read."""
        missing = str(tmp_path / "missing.bin")
        assert main(["select", "--features", missing, "--budget", "2"] + extra) == code
        err = capsys.readouterr().err
        assert message in err and "missing.bin" not in err

    def test_label_outside_int32(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,3000000000\n")
        args = ["select", "--features", str(path), "--strategy", "uniform", "--budget", "1"]
        assert main(args) == 3
        assert "line 3" in capsys.readouterr().err

    def test_oracle_check_zero_trials(self):
        args = ["oracle-check", "--n", "4", "--d", "2", "--budget", "2", "--trials", "0"]
        assert main(args) == 3

    def test_oracle_check_bad_budget_before_enumerating(self, monkeypatch, capsys):
        """The one config is built before the first trial, so a budget of 0
        is refused without a single brute-force enumeration."""
        calls = []
        monkeypatch.setattr(cli, "brute_force_optimum", lambda *args, **kw: calls.append(args))
        args = ["oracle-check", "--n", "4", "--d", "2", "--budget", "0", "--trials", "3"]
        assert main(args) == 3
        assert capsys.readouterr().err == "error: budget must be >= 1, got 0\n"
        assert calls == []

    def test_bench_zero_trials(self):
        assert main(["bench", "--n", "8", "--d", "4", "--budget", "2", "--trials", "0"]) == 3

    def test_toy_zero_epochs(self, tmp_path):
        args = ["toy", "--strategy", "uniform", "--epochs", "0", "--out-dir", str(tmp_path)]
        assert main(args) == 3

    @pytest.mark.parametrize(
        "extra",
        [
            ["--strategy", "uniform", "--budget", "3"],
            ["--strategy", "kmeanspp", "--budget", "3"],
            ["--strategy", "divbs", "--budget", "3"],
            ["--strategy", "greedy", "--budget", "5", "--pad", "uniform"],
        ],
        ids=["uniform", "kmeanspp", "divbs", "padded"],
    )
    def test_select_negative_seed(self, twenty_rows, capsys, extra):
        assert main(["select", "--features", twenty_rows, "--seed", "-1"] + extra) == 3
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_toy_budget_below_two(self, tmp_path, capsys):
        """Refused before the first epoch: the run's final diversity report
        needs two rows."""
        args = ["toy", "--strategy", "uniform", "--budget-ratio", "0.001", "--epochs", "1"]
        assert main(args + ["--out-dir", str(tmp_path / "toy")]) == 3
        err = capsys.readouterr().err
        assert "budget_ratio 0.001 gives a budget of 1 of 1470 rows" in err
        assert not (tmp_path / "toy").exists()

    def test_toy_negative_seed(self, tmp_path):
        args = ["toy", "--strategy", "uniform", "--epochs", "1", "--seed", "-1"]
        assert main(args + ["--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle-check", "--n", "4", "--d", "2", "--budget", "2", "--trials=1", "--seed=-1"],
            ["oracle-check", "--n", "-2", "--d", "3", "--budget", "1", "--trials", "1"],
            ["bench", "--n", "8", "--d", "4", "--budget", "2", "--trials", "1", "--seed=-1"],
            ["bench", "--d", "-1", "--trials", "1"],
        ],
        ids=["oracle-seed", "oracle-n", "bench-seed", "bench-d"],
    )
    def test_synthetic_negative_size_or_seed(self, capsys, argv):
        assert main(argv) == 3
        assert "must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("ks", ["0", "-1", "1,0"])
    def test_metrics_k_below_one(self, twenty_rows, tmp_path, capsys, ks):
        assert self.metrics(twenty_rows, tmp_path, [0, 1, 2], ks) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("bad", [99, -1])
    def test_metrics_index_out_of_range(self, twenty_rows, tmp_path, capsys, bad):
        assert self.metrics(twenty_rows, tmp_path, [0, 1, bad]) == 3
        assert "out of range" in capsys.readouterr().err

    def test_metrics_non_integer_ks_usage_error(self, twenty_rows, tmp_path):
        assert self.metrics(twenty_rows, tmp_path, [0, 1, 2], "x") == 2

    def test_metrics_selection_not_json(self, twenty_rows, tmp_path):
        sel = tmp_path / "sel.json"
        sel.write_text("indices: [0, 1]\n")
        assert main(["metrics", "--features", twenty_rows, "--selection", str(sel)]) == 3

    def test_metrics_selection_not_utf8_names_byte_offset(self, twenty_rows, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        sel.write_bytes(b'{"indices": [0, 1], "note": "\xff"}\n')
        assert main(["metrics", "--features", twenty_rows, "--selection", str(sel)]) == 3
        assert f"{sel}: not UTF-8 text at byte offset 29" in capsys.readouterr().err

    def test_metrics_selection_without_indices(self, twenty_rows, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"x": 1}))
        assert main(["metrics", "--features", twenty_rows, "--selection", str(sel)]) == 3
        assert "has no 'indices' key" in capsys.readouterr().err


class TestMetricsIndexTypes:
    """A selection file's indices must be JSON integers: floats, booleans and
    strings exit 3 instead of being truncated, coerced or crashing."""

    def metrics(self, tmp_path, indices):
        features = str(tmp_path / "f.bin")
        fm = FeatureMatrix(np.random.default_rng(64).standard_normal((20, 3)))
        write_features_binary(fm, features)
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"indices": indices}))
        return main(["metrics", "--features", features, "--selection", str(sel), "--ks", "1"])

    @pytest.mark.parametrize("indices", [[0.7, 1.2, 2.9], [True, 2, 3], ["a", 1, 2]])
    def test_non_integer_index_exits_3(self, tmp_path, capsys, indices):
        assert self.metrics(tmp_path, indices) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not an integer" in captured.err

    @pytest.mark.parametrize("indices", [5, None, "012"])
    def test_indices_not_a_list_exits_3(self, tmp_path, capsys, indices):
        assert self.metrics(tmp_path, indices) == 3
        assert "'indices' is not a list" in capsys.readouterr().err
