import json
import os
from importlib import resources

import jsonschema
import numpy as np
import pytest

from divbs.cli import main
from divbs.featfile import write_features_binary, write_features_csv
from divbs.linalg import FeatureMatrix


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

    @pytest.mark.parametrize(
        "env,flag", [("nan", None), ("-1e-3", None), ("inf", None), (None, "-5")]
    )
    def test_bad_eps_data_error(self, hand_features, tmp_path, monkeypatch, env, flag):
        if env is not None:
            monkeypatch.setenv("DIVBS_EPS", env)
        eps = [] if flag is None else ["--eps", flag]
        out = tmp_path / "sel.json"
        argv = ["select", "--features", hand_features, "--strategy", "divbs", "--budget", "2"]
        assert main(argv + ["--pad", "uniform", "--out", str(out)] + eps) == 3
        assert not out.exists()
        # checked once for every subcommand, not only by the selectors
        argv = ["oracle-check", "--n", "4", "--d", "2", "--budget", "1", "--trials", "1"]
        assert main(argv + eps) == 3

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

    @pytest.mark.parametrize("strategy", ["uniform", "top_score", "grad_norm", "kmeanspp"])
    def test_normalize_features_rejected_by_baselines(self, hand_features, tmp_path, strategy):
        scores = tmp_path / "scores.txt"
        scores.write_text("3.0\n1.0\n2.0\n")
        argv = ["select", "--features", hand_features, "--strategy", strategy, "--budget", "2"]
        argv += ["--scores", str(scores)] if strategy == "top_score" else []
        assert main(argv) == 0
        assert main(argv + ["--normalize-features"]) == 3

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
        monkeypatch.setenv("DIVBS_EPS", "1e-6")
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
        assert validate(out, schema)["config_echo"]["eps"] == 1e-6
        # the flag wins over the environment
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

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-inf"])
    def test_non_finite_budget_ratio(self, hand_features, ratio):
        args = ["select", "--features", hand_features, "--strategy", "divbs"]
        assert main(args + [f"--budget-ratio={ratio}"]) == 3

    def test_oracle_check_zero_trials(self):
        args = ["oracle-check", "--n", "4", "--d", "2", "--budget", "2", "--trials", "0"]
        assert main(args) == 3

    def test_bench_zero_trials(self):
        assert main(["bench", "--n", "8", "--d", "4", "--budget", "2", "--trials", "0"]) == 3

    def test_toy_zero_epochs(self, tmp_path):
        args = ["toy", "--strategy", "uniform", "--epochs", "0", "--out-dir", str(tmp_path)]
        assert main(args) == 3

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
