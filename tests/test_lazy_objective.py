"""The objective of a selection: deferred for the baselines, eager for the kernel.

Baselines (uniform, top_score/grad_norm, kmeanspp) leave their objective to
the first read of result.objective, which evaluates representativeness over
the unpadded picks once.  Greedy and divbs report the objective from their
coefficients.  Either way the value is representativeness of the unpadded
picks, in the library and in the CLI report.
"""
import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divbs.selectors as selectors
from divbs.cli import main
from divbs.featfile import write_features_binary
from divbs.linalg import FeatureMatrix
from divbs.objective import ObjectiveValue, representativeness
from divbs.selectors import (
    STRATEGIES,
    SelectionConfig,
    pad_selection,
    select_kmeanspp,
    select_top_score,
    select_uniform,
)
from divbs.toy import run_toy_experiment

KERNELS = ("greedy", "divbs")


@pytest.fixture()
def calls(monkeypatch):
    """Count the calls to representativeness made through the selectors module."""
    made = []

    def counted(*args, **kwargs):
        made.append(args)
        return representativeness(*args, **kwargs)

    monkeypatch.setattr(selectors, "representativeness", counted)
    return made


def unpadded(result):
    return [i for i, p in zip(result.indices, result.padded) if not p]


def gaussian(n, d, seed):
    return FeatureMatrix(np.random.default_rng(seed).standard_normal((n, d)))


@pytest.mark.parametrize("strategy", ["uniform", "top_loss"])
def test_toy_run_never_evaluates_a_baseline_objective(calls, strategy):
    report = run_toy_experiment(strategy, epochs=3, seed=0)
    assert len(report.accuracy) == 3
    assert calls == []


@pytest.mark.parametrize(
    "select",
    [
        select_uniform,
        select_kmeanspp,
        lambda f, c: select_top_score(f, None, c),
        lambda f, c: select_top_score(f, np.arange(f.n_rows, dtype=float), c),
    ],
    ids=["uniform", "kmeanspp", "grad_norm", "top_score"],
)
def test_objective_evaluated_once_on_first_read(calls, select):
    fm = gaussian(30, 6, 70)
    result = select(fm, SelectionConfig(budget=4, seed=3))
    assert calls == []
    first = result.objective
    assert result.objective is first
    assert len(calls) == 1
    assert first == representativeness(fm, result.indices)


def test_objective_drops_features_once_read():
    result = select_uniform(gaussian(30, 6, 71), SelectionConfig(budget=4, seed=1))
    assert not isinstance(result._objective, ObjectiveValue)
    value = result.objective
    assert result._objective is value


@pytest.mark.parametrize("select", [select_uniform, select_kmeanspp], ids=["uniform", "kmeanspp"])
def test_repr_and_eq_leave_objective_unread(calls, select):
    result = select(gaussian(30, 6, 75), SelectionConfig(budget=4, seed=2))
    text = repr(result)
    assert str(result.indices) in text and "objective" not in text
    assert result == dataclasses.replace(result)
    assert result != dataclasses.replace(result, indices=result.indices[::-1])
    assert calls == []


@pytest.mark.parametrize(
    "select",
    [select_uniform, select_kmeanspp, lambda f, c: select_top_score(f, None, c)],
    ids=["uniform", "kmeanspp", "grad_norm"],
)
def test_eq_means_the_same_selection(calls, select):
    """== compares what was selected, not how long it took."""
    fm = gaussian(30, 6, 77)
    first, second = (select(fm, SelectionConfig(budget=4, seed=5)) for _ in range(2))
    assert first == second
    assert first == dataclasses.replace(first, wall_time=first.wall_time + 1.0)
    assert calls == []


@pytest.mark.parametrize("select", [select_uniform, select_kmeanspp], ids=["uniform", "kmeanspp"])
def test_unread_objective_survives_pickle(calls, select):
    fm = gaussian(30, 6, 76)
    result = select(fm, SelectionConfig(budget=4, seed=6))
    back = pickle.loads(pickle.dumps(result))
    assert calls == []
    assert (back.indices, back.padded, back.wall_time) == (
        result.indices,
        result.padded,
        result.wall_time,
    )
    assert back.objective == representativeness(fm, result.indices)
    assert len(calls) == 1


def test_pad_selection_leaves_objective_unread(calls):
    fm = gaussian(20, 5, 72)
    result = select_uniform(fm, SelectionConfig(budget=3, seed=4))
    padded = pad_selection(result, fm, SelectionConfig(budget=8, seed=4))
    assert padded.padded == [False] * 3 + [True] * 5
    assert calls == []
    assert padded.objective is not None
    assert len(calls) == 1


def test_padded_baseline_objective_covers_unpadded_rows_only(calls):
    fm = gaussian(20, 5, 73)
    result = select_kmeanspp(fm, SelectionConfig(budget=2, seed=5))
    padded = pad_selection(result, fm, SelectionConfig(budget=6, seed=5))
    assert calls == []
    kept = unpadded(padded)
    assert kept == result.indices and len(padded.indices) == 6
    assert padded.objective == representativeness(fm, kept)
    assert padded.objective.basis_size == 2
    assert representativeness(fm, padded.indices).basis_size == 5


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 24),
    d=st.integers(1, 12),
    budget=st.integers(1, 24),
    pad=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_objective_is_representativeness_of_unpadded_picks(n, d, budget, pad, seed):
    rng = np.random.default_rng(seed)
    fm = FeatureMatrix(rng.standard_normal((n, d)))
    scores = rng.standard_normal(n)
    cfg = SelectionConfig(budget=min(budget, n), seed=seed)
    for name, select in STRATEGIES.items():
        result = select(fm, scores, cfg)
        if pad:
            result = pad_selection(result, fm, cfg)
        ref = representativeness(fm, unpadded(result), cfg.eps)
        if name in KERNELS:
            assert result.objective.basis_size == ref.basis_size
            assert result.objective.r == pytest.approx(ref.r, rel=1e-9)
            assert result.objective.r_prime == pytest.approx(ref.r_prime, rel=1e-9)
        else:
            assert result.objective == ref


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_cli_select_report_objective(tmp_path, strategy):
    rng = np.random.default_rng(74)
    fm = FeatureMatrix(rng.standard_normal((40, 6)))
    features = str(tmp_path / "f.bin")
    write_features_binary(fm, features)
    scores = tmp_path / "scores.txt"
    scores.write_text("\n".join(repr(float(s)) for s in rng.standard_normal(40)) + "\n")
    out = tmp_path / "sel.json"
    args = ["select", "--features", features, "--strategy", strategy, "--budget", "9"]
    if strategy == "top_score":  # the only strategy that reads --scores
        args += ["--scores", str(scores)]
    assert main(args + ["--pad", "uniform", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    kept = [i for i, p in zip(report["indices"], report["padded"]) if not p]
    ref = representativeness(fm, kept)
    got = (report["r"], report["r_prime"], report["basis_size"])
    if strategy in KERNELS:
        assert got == (pytest.approx(ref.r, rel=1e-9), pytest.approx(ref.r_prime, rel=1e-9), 6)
    else:
        assert got == (ref.r, ref.r_prime, ref.basis_size)
