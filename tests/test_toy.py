import dataclasses
import json

import numpy as np
import pytest

from divbs import toy
from divbs.errors import ContractViolationError
from divbs.selectors import STRATEGIES
from divbs.toy import (
    MlpState,
    ToyDatasetSpec,
    adam_step,
    forward,
    generate_toy_dataset,
    init_mlp,
    last_layer_gradient_features,
    loss_and_gradients,
    per_sample_loss,
    run_toy_experiment,
)


class TestDataset:
    def test_default_counts(self):
        data, labels = generate_toy_dataset(ToyDatasetSpec(seed=0))
        assert data.n_rows == 1470
        hist = [int(np.sum(labels == c)) for c in range(4)]
        assert hist == [1000, 300, 150, 20]

    def test_tiny_counts(self):
        data, labels = generate_toy_dataset(ToyDatasetSpec(counts=(1, 1, 1, 1), seed=1))
        assert data.n_rows == 4
        assert list(labels) == [0, 1, 2, 3]

    def test_rejects_more_counts_than_clusters(self):
        """A fifth count has no cluster mean, so it is refused rather than
        dropped, and a run's row count is always sum(counts)."""
        spec = ToyDatasetSpec(counts=(30, 10, 5, 5, 5), seed=3)
        with pytest.raises(ContractViolationError, match="5 cluster counts given"):
            generate_toy_dataset(spec)
        with pytest.raises(ContractViolationError, match="5 cluster counts given"):
            run_toy_experiment("uniform", 0.2, epochs=1, seed=3, dataset=spec)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"counts": (30, 10, 5, 2.5)}, "count must be an integer"),
            ({"counts": (30, 10, 5, True)}, "count must be an integer"),
            ({"counts": (30, 10, 5, -5)}, "count must be >= 0, got -5"),
            ({"counts": (30, 10, 5, "5")}, "count must be an integer"),
            ({"counts": 5}, "counts must be a sequence of integers, got 5"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"seed": 2.5}, "seed must be an integer"),
        ],
        ids=[
            "count-2.5",
            "count-True",
            "count-negative",
            "count-text",
            "counts-int",
            "seed-1",
            "seed-2.5",
        ],
    )
    def test_spec_refuses_bad_counts_and_seed(self, kwargs, message):
        """Checked when the spec is built, instead of a raw TypeError or
        ValueError from numpy once the data is drawn."""
        with pytest.raises(ContractViolationError, match=message):
            ToyDatasetSpec(**kwargs)

    def test_spec_stores_python_ints(self):
        spec = ToyDatasetSpec(counts=[np.int64(30), 10, 5, 5], seed=np.int32(4))
        assert spec.counts == (30, 10, 5, 5) and type(spec.counts[0]) is int
        for counts in (np.array([30, 10, 5, 5]), iter([30, 10, 5, 5])):
            assert ToyDatasetSpec(counts=counts).counts == (30, 10, 5, 5)
        assert type(spec.seed) is int
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 5
        data, _ = generate_toy_dataset(spec)
        same, _ = generate_toy_dataset(ToyDatasetSpec(counts=(30, 10, 5, 5), seed=4))
        assert data.values.tobytes() == same.values.tobytes()

    def test_cluster_zero_mean(self):
        spec = ToyDatasetSpec(counts=(100_000, 1, 1, 1), seed=2)
        data, labels = generate_toy_dataset(spec)
        mean = data.values[labels == 0].mean(axis=0)
        assert np.all(np.abs(mean) <= 0.02)


class TestForward:
    def test_zero_weights_uniform(self):
        model = MlpState(
            w1=np.zeros((100, 2)),
            b1=np.zeros(100),
            w2=np.zeros((4, 100)),
            b2=np.zeros(4),
        )
        _, probs = forward(model, np.array([[1.0, -2.0]]))
        np.testing.assert_allclose(probs, 0.25)

    def test_probabilities_normalized(self):
        model = init_mlp(seed=3)
        rng = np.random.default_rng(3)
        _, probs = forward(model, rng.normal(size=(50, 2)))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_loss_nonnegative(self):
        model = init_mlp(seed=4)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        y = rng.integers(0, 4, size=20)
        _, probs = forward(model, x)
        assert np.all(per_sample_loss(probs, y) >= 0.0)


def reference_forward(model, inputs):
    """The formula forward is pinned to: numpy's axis-1 max and sum over the
    class axis, on fresh arrays."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    hidden = np.maximum(x @ model.w1.T + model.b1, 0.0)
    logits = hidden @ model.w2.T + model.b2
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    return hidden, exp / exp.sum(axis=1, keepdims=True)


class TestForwardBits:
    """forward folds the class columns in place; its outputs are bit for bit
    those of reference_forward."""

    @staticmethod
    def sharp_model(seed):
        """init_mlp's weights x50 and random biases, so that logits span
        hundreds and the max shift decides whether exp overflows."""
        model = init_mlp(seed)
        rng = np.random.default_rng(100 + seed)
        return dataclasses.replace(
            model,
            w1=50.0 * model.w1,
            b1=rng.normal(size=model.b1.shape),
            w2=50.0 * model.w2,
            b2=rng.normal(size=model.b2.shape),
        )

    @pytest.mark.parametrize("rows", [1, 2, 147, 1470])
    def test_equals_reference(self, rows):
        for seed in range(5):
            model = self.sharp_model(seed)
            x = np.random.default_rng(seed).normal(loc=2.5, scale=3.0, size=(rows, 2))
            hidden, probs = forward(model, x)
            want_hidden, want_probs = reference_forward(model, x)
            assert hidden.tobytes() == want_hidden.tobytes()
            assert probs.tobytes() == want_probs.tobytes()

    def test_sum_order_witness(self):
        """With w2 = 0 the logits are exactly b2, and the exps are 1, two
        values just above 2^-53 and 0. Summed in class order they make
        1 + 2^-51; summed as p0 + ((p1 + p2) + p3) they make 1 + 2^-52."""
        tiny = np.log(2.0**-53)
        model = dataclasses.replace(
            init_mlp(0), w2=np.zeros((4, 100)), b2=np.array([0.0, tiny, tiny, -1000.0])
        )
        _, probs = forward(model, np.array([[0.5, -0.5]]))
        assert probs[0, 0] == 1.0 / (1.0 + 2.0**-51) != 1.0 / (1.0 + 2.0**-52)
        assert probs.tobytes() == reference_forward(model, np.array([[0.5, -0.5]]))[1].tobytes()

    def test_outputs_outlive_the_next_call(self):
        """An epoch's features keep its hidden and probs until read, so a
        later call must not write into them."""
        model = self.sharp_model(1)
        rng = np.random.default_rng(1)
        hidden, probs = forward(model, rng.normal(size=(147, 2)))
        kept = hidden.tobytes(), probs.tobytes()
        again = forward(model, rng.normal(size=(147, 2)))
        assert (hidden.tobytes(), probs.tobytes()) == kept
        assert not any(np.shares_memory(a, b) for a in (hidden, probs) for b in again)

    @pytest.mark.parametrize("strategy", toy.TOY_STRATEGIES)
    def test_runs_equal_reference_runs(self, monkeypatch, strategy):
        """Every forward of a run (the full batch, the Adam step's rows)
        through the reference gives the same report and accuracy bits."""
        spec = ToyDatasetSpec(counts=(60, 20, 10, 4), seed=22)

        def report():
            rep = run_toy_experiment(strategy, 0.2, epochs=4, seed=22, dataset=spec)
            return rep.to_json_dict(), [a.hex() for a in rep.accuracy]

        got = report()
        monkeypatch.setattr(toy, "forward", reference_forward)
        assert report() == got


def fd_loss(model, x, y, name, flat_index, h=1e-5):
    """Central finite difference of the mean loss w.r.t. one parameter."""
    out = []
    for sign in (+1.0, -1.0):
        p = getattr(model, name).copy()
        p.ravel()[flat_index] += sign * h
        bumped = dataclasses.replace(model, **{name: p})
        _, probs = forward(bumped, x)
        out.append(float(per_sample_loss(probs, y).mean()))
    return (out[0] - out[1]) / (2 * h)


class TestGradients:
    def test_full_gradient_matches_finite_differences(self):
        model = init_mlp(seed=5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 2))
        y = rng.integers(0, 4, size=8)
        _, grads = loss_and_gradients(model, x, y)
        for name in ("w1", "b1", "w2", "b2"):
            g = grads[name].ravel()
            for _ in range(5):
                i = int(rng.integers(g.size))
                fd = fd_loss(model, x, y, name, i)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_last_layer_features_shape(self):
        model = init_mlp(seed=6)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 2))
        y = rng.integers(0, 4, size=5)
        feats = last_layer_gradient_features(model, x, y)
        assert feats.dim == 4 * 100 + 4

    def test_last_layer_features_match_finite_differences(self):
        model = init_mlp(seed=7)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 2))
        y = rng.integers(0, 4, size=4)
        feats = last_layer_gradient_features(model, x, y)
        w2_size = model.w2.size
        for s in range(4):
            xs, ys = x[s : s + 1], y[s : s + 1]
            for _ in range(5):
                j = int(rng.integers(feats.dim))
                if j < w2_size:
                    fd = fd_loss(model, xs, ys, "w2", j)
                else:
                    fd = fd_loss(model, xs, ys, "b2", j - w2_size)
                assert feats.values[s, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_confident_sample_has_near_zero_feature(self):
        model = init_mlp(seed=8)
        x = np.array([[0.3, -0.1]])
        _, probs = forward(model, x)
        y = np.array([int(probs.argmax())])
        feats = last_layer_gradient_features(model, x, y)
        hidden, _ = forward(model, x)
        delta = probs[0].copy()
        delta[y[0]] -= 1.0
        expected = np.concatenate([np.outer(delta, hidden[0]).ravel(), delta])
        np.testing.assert_allclose(feats.values[0], expected, atol=1e-15)
        # feature row vanishes exactly when the model is perfectly confident
        assert np.linalg.norm(feats.values[0]) <= np.linalg.norm(delta) * (
            1.0 + np.linalg.norm(hidden[0])
        )


class TestAdam:
    def test_zero_gradient_no_move(self):
        model = init_mlp(seed=9)
        zero = {n: np.zeros_like(getattr(model, n)) for n in MlpState.PARAMS}
        after = adam_step(model, zero)
        for n in MlpState.PARAMS:
            np.testing.assert_array_equal(getattr(after, n), getattr(model, n))
        assert after.step == 1

    def test_constant_gradient_limit(self):
        model = init_mlp(seed=10)
        g = {n: np.ones_like(getattr(model, n)) for n in MlpState.PARAMS}
        prev = model
        for _ in range(2000):
            prev = adam_step(prev, g)
        step_size = np.abs(prev.w1 - adam_step(prev, g).w1)
        np.testing.assert_allclose(step_size, model.lr, rtol=1e-3)

    def test_deterministic(self):
        grads = {
            n: np.random.default_rng(11).normal(size=getattr(init_mlp(0), n).shape)
            for n in MlpState.PARAMS
        }
        a = adam_step(init_mlp(seed=12), grads)
        b = adam_step(init_mlp(seed=12), grads)
        for n in MlpState.PARAMS:
            np.testing.assert_array_equal(getattr(a, n), getattr(b, n))

    def test_missing_moments_read_as_zero(self):
        """A state built without moments takes the same step, bit for bit, as
        one given explicit zero moments."""
        model = init_mlp(seed=14)
        rng = np.random.default_rng(14)
        grads = {n: rng.normal(size=getattr(model, n).shape) for n in MlpState.PARAMS}
        grads["b1"][:3] = [0.0, -0.0, 1e-300]
        zeros = {n: np.zeros_like(getattr(model, n)) for n in MlpState.PARAMS}
        bare = adam_step(MlpState(model.w1, model.b1, model.w2, model.b2), grads)
        explicit = adam_step(
            MlpState(model.w1, model.b1, model.w2, model.b2, m=dict(zeros), v=dict(zeros)), grads
        )
        for n in MlpState.PARAMS:
            for got, want in [
                (getattr(bare, n), getattr(explicit, n)),
                (bare.m[n], explicit.m[n]),
                (bare.v[n], explicit.v[n]),
            ]:
                assert got.tobytes() == want.tobytes()
        assert bare.step == explicit.step == 1

    def test_rejects_misshaped_gradient(self):
        model = init_mlp(seed=13)
        grads = {n: np.zeros_like(getattr(model, n)) for n in MlpState.PARAMS}
        grads["b2"] = np.zeros(grads["b2"].size + 1)
        with pytest.raises(ContractViolationError, match="gradient shape mismatch for b2"):
            adam_step(model, grads)


class TestExperiment:
    def test_full_budget_matches_full_batch_training(self):
        spec = ToyDatasetSpec(counts=(30, 10, 5, 5), seed=13)
        rep = run_toy_experiment("uniform", 1.0, epochs=5, seed=13, dataset=spec)
        data, labels = generate_toy_dataset(spec)
        model = init_mlp(13)
        manual = []
        for _ in range(5):
            _, probs = forward(model, data.values)
            manual.append(float(np.mean(probs.argmax(axis=1) == labels)))
            _, grads = loss_and_gradients(model, data.values, labels)
            model = adam_step(model, grads)
        np.testing.assert_allclose(rep.accuracy, manual, atol=1e-9)

    def test_deterministic_runs(self):
        spec = ToyDatasetSpec(counts=(30, 10, 5, 5), seed=14)
        a = run_toy_experiment("divbs", 0.2, epochs=3, seed=14, dataset=spec)
        b = run_toy_experiment("divbs", 0.2, epochs=3, seed=14, dataset=spec)
        assert a.final_indices == b.final_indices
        assert a.accuracy == b.accuracy

    def test_short_selection_padded_to_budget(self):
        """At ratio 0.3 the budget (441 rows) exceeds the rank of the gradient
        features, so divbs stops short and the toy pads its batch."""
        rep = run_toy_experiment("divbs", 0.3, epochs=1, seed=0)
        assert len(rep.final_indices) == 441
        assert len(set(rep.final_indices)) == 441
        kept = rep.final_padded.count(False)
        assert 0 < kept < 441
        assert rep.final_padded == [False] * kept + [True] * (441 - kept)

    @pytest.mark.parametrize("strategy", ["uniform", "top_loss", "greedy", "divbs", "kmeanspp"])
    def test_smoke_all_strategies(self, strategy):
        spec = ToyDatasetSpec(counts=(30, 10, 5, 5), seed=15)
        rep = run_toy_experiment(strategy, 0.2, epochs=3, seed=15, dataset=spec)
        assert len(rep.accuracy) == 3
        assert all(0.0 <= a <= 1.0 for a in rep.accuracy)
        assert len(rep.final_indices) == 10
        assert sum(rep.cluster_counts) == 10


class TestSingleForwardPass:
    def test_one_full_batch_forward_per_epoch(self, monkeypatch):
        spec = ToyDatasetSpec(counts=(30, 10, 5, 5), seed=16)
        rows = []
        original = toy.forward

        def counting(model, inputs):
            rows.append(np.atleast_2d(inputs).shape[0])
            return original(model, inputs)

        monkeypatch.setattr(toy, "forward", counting)
        run_toy_experiment("divbs", 0.2, epochs=3, seed=16, dataset=spec)
        assert rows.count(50) == 3

    def test_features_equal_outer_product_layout(self):
        model = init_mlp(seed=17)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(50, 2))
        y = rng.integers(0, 4, size=50)
        hidden, probs = forward(model, x)
        delta = probs.copy()
        delta[np.arange(50), y] -= 1.0
        expected = np.hstack([np.einsum("nc,nh->nch", delta, hidden).reshape(50, -1), delta])
        got = last_layer_gradient_features(model, x, y).values
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "strategy, ratio, message",
        [
            ("nope", 0.2, "unknown strategy 'nope'"),
            ("uniform", 0.0, r"budget_ratio must be in \(0, 1\], got 0.0"),
            ("uniform", 1.5, r"budget_ratio must be in \(0, 1\], got 1.5"),
            ("uniform", "0.1", "budget_ratio must be a real number, got '0.1'"),
        ],
        ids=["unknown-strategy", "ratio-0", "ratio-1.5", "ratio-text"],
    )
    def test_rejects_bad_arguments(self, strategy, ratio, message):
        spec = ToyDatasetSpec(counts=(30, 10, 5, 5), seed=18)
        with pytest.raises(ContractViolationError, match=message):
            run_toy_experiment(strategy, ratio, epochs=1, seed=18, dataset=spec)

    @pytest.mark.parametrize(
        "ratio, counts, budget",
        [(0.001, None, 1), (0.02, (30, 10, 5, 5), 1), (0.01, (30, 10, 5, 5), 0)],
        ids=["default-1", "small-1", "small-0"],
    )
    def test_rejects_budget_below_two_before_training(self, monkeypatch, ratio, counts, budget):
        """The final diversity report needs two rows, so a smaller budget is
        refused before the first forward pass, naming the ratio and budget."""
        spec = None if counts is None else ToyDatasetSpec(counts=counts, seed=18)
        rows = 1470 if counts is None else sum(counts)
        calls = []
        monkeypatch.setattr(toy, "forward", lambda *args: calls.append(args))
        message = rf"budget_ratio {ratio} gives a budget of {budget} of {rows} rows"
        with pytest.raises(ContractViolationError, match=message):
            run_toy_experiment("uniform", ratio, epochs=1, seed=18, dataset=spec)
        assert calls == []

    def test_budget_of_two_runs(self):
        spec = ToyDatasetSpec(counts=(30, 10, 5, 5), seed=18)
        rep = run_toy_experiment("divbs", 0.05, epochs=2, seed=18, dataset=spec)
        assert len(rep.final_indices) == 2

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"seed": -1}, "seed must be >= 0, got -1"), ({"eps": 1.0}, r"eps must be in \[0, 1\)")],
        ids=["negative-seed", "eps-1"],
    )
    def test_config_refused_before_training(self, monkeypatch, kwargs, message):
        """The run's one SelectionConfig checks the seed and eps before any
        data is drawn."""
        spec = ToyDatasetSpec(counts=(30, 10, 5, 5), seed=18)
        calls = []
        monkeypatch.setattr(toy, "generate_toy_dataset", lambda spec: calls.append(spec))
        with pytest.raises(ContractViolationError, match=message):
            run_toy_experiment("uniform", 0.2, epochs=1, dataset=spec, **kwargs)
        assert calls == []

    @pytest.mark.parametrize("epochs", [0, -1, 2.5, True])
    def test_rejects_fewer_than_one_epoch(self, epochs):
        spec = ToyDatasetSpec(counts=(30, 10, 5, 5), seed=18)
        with pytest.raises(ContractViolationError, match="epochs"):
            run_toy_experiment("uniform", 0.2, epochs=epochs, seed=18, dataset=spec)

    def test_numpy_integer_seed_runs_as_its_int(self):
        """The config stores the seed as a Python int, so each epoch's seed
        is computed in Python and the report's seed is JSON-serializable."""
        spec = ToyDatasetSpec(counts=(30, 10, 5, 5))
        report = run_toy_experiment("uniform", 0.2, epochs=2, seed=np.int64(3), dataset=spec)
        expected = run_toy_experiment("uniform", 0.2, epochs=2, seed=3, dataset=spec)
        assert type(report.seed) is int
        assert report.to_json_dict() == expected.to_json_dict()
        json.dumps(report.to_json_dict())


class TestLazyFeatures:
    """An epoch's gradient features are built only when something reads them:
    the selector (greedy, divbs, kmeanspp) or the final diversity report."""

    SPECS = [(seed, ToyDatasetSpec(counts=(200, 60, 30, 4), seed=seed)) for seed in (0, 1)]

    @pytest.fixture()
    def builds(self, monkeypatch):
        made = []
        original = toy._gradient_features

        def counting(hidden, probs, labels):
            made.append(probs.shape[0])
            return original(hidden, probs, labels)

        monkeypatch.setattr(toy, "_gradient_features", counting)
        return made

    @pytest.mark.parametrize("strategy", toy.TOY_STRATEGIES)
    def test_builds_per_run(self, builds, strategy):
        spec = ToyDatasetSpec(counts=(30, 10, 5, 5), seed=19)
        run_toy_experiment(strategy, 0.2, epochs=4, seed=19, dataset=spec)
        expected = 1 if strategy in ("uniform", "top_loss") else 4
        assert builds == [50] * expected

    def test_shape_read_without_build(self, builds):
        model = init_mlp(seed=20)
        data, labels = generate_toy_dataset(ToyDatasetSpec(counts=(30, 10, 5, 5), seed=20))
        hidden, probs = forward(model, data.values)
        feats = toy._EpochFeatures(hidden, probs, labels)
        assert (feats.n_rows, feats.dim) == (50, 404)
        assert builds == []
        assert feats.values.shape == (feats.n_rows, feats.dim)
        feats.row_labels  # the matrix is built once and kept
        assert builds == [50]
        eager = last_layer_gradient_features(model, data.values, labels)
        assert feats.values.tobytes() == eager.values.tobytes()
        assert feats.row_labels.tobytes() == eager.row_labels.tobytes()

    def test_repr_builds_nothing(self, builds):
        model = init_mlp(seed=21)
        data, labels = generate_toy_dataset(ToyDatasetSpec(counts=(30, 10, 5, 5), seed=21))
        feats = toy._EpochFeatures(*forward(model, data.values), labels)
        repr(feats)
        assert builds == []

    @staticmethod
    def report_json(report):
        d = report.to_json_dict()
        d["accuracy"] = [a.hex() for a in report.accuracy]
        return json.dumps(d, sort_keys=True)

    @pytest.mark.parametrize("strategy", toy.TOY_STRATEGIES)
    def test_reports_equal_eager_builds(self, monkeypatch, strategy):
        """A run whose strategy reads the features every epoch reports the
        same bits as the run that builds them only when read."""
        def runs():
            return [
                self.report_json(run_toy_experiment(strategy, epochs=10, seed=seed, dataset=spec))
                for seed, spec in self.SPECS
            ]

        lazy = runs()
        name = "top_score" if strategy == "top_loss" else strategy
        original = STRATEGIES[name]

        def reading(features, scores, cfg):
            features.values  # builds this epoch's matrix
            return original(features, scores, cfg)

        monkeypatch.setitem(STRATEGIES, name, reading)
        assert runs() == lazy
