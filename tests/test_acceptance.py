"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line when its assertions hold; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""
import json
import math
import time

import numpy as np
import pytest

from divbs.cli import main
from divbs.featfile import write_features_binary, write_features_csv
from divbs.linalg import FeatureMatrix
from divbs.objective import basis_of_subset, brute_force_optimum, representativeness
from divbs.selectors import (
    SelectionConfig,
    select_divbs,
    select_greedy,
    select_kmeanspp,
    select_top_score,
    select_uniform,
)
from divbs.toy import run_toy_experiment

GREEDY_BOUND = 1.0 - math.exp(-1.0)


def cfg(budget, **kw):
    kw.setdefault("pad_policy", "none")
    return SelectionConfig(budget=budget, **kw)


def random_rotation(k, rng):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def test_criterion_1_basis_invariance():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 9))
        fm = FeatureMatrix(rng.standard_normal((n, d)))
        size = int(rng.integers(1, min(5, n) + 1))
        subset = list(rng.permutation(n)[:size])
        obj = representativeness(fm, subset)
        basis = basis_of_subset(fm, subset)
        k = len(basis)
        if k == 0:
            continue
        total = fm.values.sum(axis=0)
        for _ in range(5):
            rotated = random_rotation(k, rng) @ basis.vectors
            r = math.sqrt(k) * float(np.linalg.norm(rotated @ total))
            assert r == pytest.approx(obj.r, rel=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 1: basis invariance over 200 instances ({elapsed:.2f}s)")


def test_criterion_2_submodularity_suite():
    """Weak submodularity, normalization and monotonicity of the objective.

    The objective is not submodular (see the README and
    tests/test_objective.py::test_diminishing_returns_counterexample), so
    plain diminishing returns is not checked; the bound it does obey is.
    Let f = r_prime**2, the squared norm of the projection of the batch sum
    t onto the span of the selected rows.  For rows j, k and a set S, let
    u_j, u_k be their unit residuals against span(S), c = u_j . u_k and
    b = (u_j . t, u_k . t).  The single gains are g_j = b_1**2 and
    g_k = b_2**2, and the joint gain f(S+j+k) - f(S) is b' G^-1 b with the
    residual Gram matrix G = [[1, c], [c, 1]].  Since b' G^-1 b <=
    |b|**2 / lambda_min(G) and lambda_min(G) = 1 - |c| =: gamma,

        g_j + g_k >= gamma * (f(S+j+k) - f(S)),

    a two-element submodularity ratio in the sense of Das & Kempe,
    "Submodular meets Spectral" (ICML 2011), on which greedy's 1 - e^-gamma
    guarantee rests.  A dependent residual adds nothing to the span, so the
    bound then holds with gamma = 1; gamma = 1 throughout would be plain
    submodularity.  Equality holds when b is the eigenvector of lambda_min,
    so the bound is tight.
    """
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()

    def rp(fm, subset):
        return representativeness(fm, subset).r_prime

    def f(fm, subset):
        return rp(fm, subset) ** 2

    def unit_residual(basis, v):
        # None when OrthonormalBasis.extend would reject v as dependent.
        r = basis.residual(v)
        norm = float(np.linalg.norm(r))
        floor = basis.eps * max(1.0, float(np.linalg.norm(v)))
        if len(basis) >= basis.dim or norm <= floor:
            return None
        return r / norm

    plain_violations = 0
    for _ in range(500):
        n = int(rng.integers(3, 11))
        d = int(rng.integers(2, 7))
        fm = FeatureMatrix(rng.standard_normal((n, d)))
        perm = list(rng.permutation(n))
        s = perm[: int(rng.integers(0, n - 2))]
        j, k = perm[-2], perm[-1]
        lhs = rp(fm, s + [k]) - rp(fm, s)
        rhs = rp(fm, s + [j, k]) - rp(fm, s + [j])
        plain_violations += lhs - rhs < -1e-9

        basis = basis_of_subset(fm, s)
        u_j = unit_residual(basis, fm.values[j])
        u_k = unit_residual(basis, fm.values[k])
        gamma = 1.0 if u_j is None or u_k is None else 1.0 - abs(float(u_j @ u_k))
        f_s = f(fm, s)
        single = (f(fm, s + [j]) - f_s) + (f(fm, s + [k]) - f_s)
        joint = f(fm, s + [j, k]) - f_s
        tol = 1e-9 * max(1.0, f(fm, range(n)))
        assert single >= gamma * joint - tol, (
            f"weak submodularity violated for S={[int(i) for i in s]}, j={j}, k={k}: "
            f"single gains sum to {single:.6g} < gamma {gamma:.6g} * joint gain {joint:.6g}"
        )

    fm = FeatureMatrix(np.random.default_rng(0).standard_normal((5, 3)))
    assert representativeness(fm, []).r_prime == 0.0

    for _ in range(500):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(2, 7))
        fm = FeatureMatrix(rng.standard_normal((n, d)))
        full = list(rng.permutation(n)[: int(rng.integers(1, n + 1))])
        sub = full[: int(rng.integers(0, len(full)))]
        assert rp(fm, sub) <= rp(fm, full) + 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        "PASS criterion 2: weakly submodular (gamma = 1 - |u_j.u_k|)/normalized/monotone, "
        f"plain diminishing returns fails on {plain_violations}/500 ({elapsed:.2f}s)"
    )


def test_criterion_3_greedy_bound(tmp_path):
    t0 = time.perf_counter()
    out = str(tmp_path / "oracle.json")
    code = main(
        [
            "oracle-check",
            "--n",
            "10",
            "--d",
            "6",
            "--budget",
            "4",
            "--trials",
            "200",
            "--seed",
            "103",
            "--out",
            out,
        ]
    )
    assert code == 0
    with open(out) as f:
        report = json.load(f)
    assert report["greedy_ratio_min"] >= GREEDY_BOUND - 1e-9

    out1 = str(tmp_path / "oracle_b1.json")
    code = main(
        [
            "oracle-check",
            "--n",
            "10",
            "--d",
            "6",
            "--budget",
            "1",
            "--trials",
            "200",
            "--seed",
            "104",
            "--out",
            out1,
        ]
    )
    assert code == 0
    with open(out1) as f:
        report1 = json.load(f)
    assert report1["greedy_ratio_min"] == 1.0
    assert report1["greedy_ratio_median"] == 1.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        "PASS criterion 3: greedy >= 1-1/e on 200 instances, budget-1 ratios exactly 1.0 "
        f"({elapsed:.2f}s, min ratio {report['greedy_ratio_min']:.4f})"
    )


def test_criterion_4_divbs_fidelity():
    rng = np.random.default_rng(105)
    ratios = []
    for _ in range(200):
        n = int(rng.integers(4, 11))
        d = int(rng.integers(2, 7))
        b = int(rng.integers(1, min(4, n) + 1))
        fm = FeatureMatrix(rng.standard_normal((n, d)))
        g = select_greedy(fm, cfg(b)).objective.r
        a = select_divbs(fm, cfg(b)).objective.r
        ratios.append(a / g)
    median = float(np.median(ratios))
    assert median >= 0.9

    hand = FeatureMatrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert select_greedy(hand, cfg(2)).indices == [0, 2]
    assert select_divbs(hand, cfg(2)).indices == [0, 2]
    print(f"PASS criterion 4: median divbs/greedy ratio {median:.4f} >= 0.9, hand example [0, 2]")


def test_criterion_5_scale_and_determinism():
    rng = np.random.default_rng(106)
    feature_selectors = {
        "greedy": select_greedy,
        "divbs": select_divbs,
        "kmeanspp": select_kmeanspp,
    }
    for _ in range(20):
        X = rng.standard_normal((30, 8))
        for name, selector in feature_selectors.items():
            base = selector(FeatureMatrix(X), cfg(6, seed=1)).indices
            for c in (2.0**-3, 2.0**5):
                scaled = selector(FeatureMatrix(c * X), cfg(6, seed=1)).indices
                assert scaled == base, f"{name} selection changed under scaling by {c}"
    X = rng.standard_normal((30, 8))
    fm = FeatureMatrix(X)
    all_selectors = {
        "greedy": lambda: select_greedy(fm, cfg(6, seed=2)).indices,
        "divbs": lambda: select_divbs(fm, cfg(6, seed=2)).indices,
        "uniform": lambda: select_uniform(fm, cfg(6, seed=2)).indices,
        "kmeanspp": lambda: select_kmeanspp(fm, cfg(6, seed=2)).indices,
        "top_score": lambda: select_top_score(fm, None, cfg(6, seed=2)).indices,
    }
    for name, run in all_selectors.items():
        runs = [run() for _ in range(3)]
        assert runs[0] == runs[1] == runs[2], f"{name} is not reproducible"
    print("PASS criterion 5: power-of-two scale invariance and 3-run bitwise reproducibility")


def test_criterion_6_gradient_correctness():
    import dataclasses

    from divbs.toy import forward, init_mlp, last_layer_gradient_features, per_sample_loss

    model = init_mlp(seed=107)
    rng = np.random.default_rng(107)
    x = rng.normal(size=(10, 2)) * 2.0
    y = rng.integers(0, 4, size=10)
    feats = last_layer_gradient_features(model, x, y)
    w2_size = model.w2.size
    h = 1e-5
    checked = 0
    for s in range(10):
        for _ in range(20):
            j = int(rng.integers(feats.dim))
            vals = []
            for sign in (+1.0, -1.0):
                if j < w2_size:
                    p = model.w2.copy()
                    p.ravel()[j] += sign * h
                    bumped = dataclasses.replace(model, w2=p)
                else:
                    p = model.b2.copy()
                    p.ravel()[j - w2_size] += sign * h
                    bumped = dataclasses.replace(model, b2=p)
                _, probs = forward(bumped, x[s : s + 1])
                vals.append(float(per_sample_loss(probs, y[s : s + 1])[0]))
            fd = (vals[0] - vals[1]) / (2 * h)
            assert feats.values[s, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)
            checked += 1
    print(f"PASS criterion 6: {checked} analytic gradient coordinates match finite differences")


def test_criterion_7_toy_experiment():
    t0 = time.perf_counter()
    seeds = range(20)
    coverage_hits = 0
    yellow_hits = 0
    knn_hits = 0
    base_yellow = 20.0 / 1470.0
    for seed in seeds:
        divbs_rep = run_toy_experiment("divbs", 0.1, epochs=100, seed=seed)
        top_rep = run_toy_experiment("top_loss", 0.1, epochs=100, seed=seed)
        counts = divbs_rep.cluster_counts
        if all(c > 0 for c in counts):
            coverage_hits += 1
        if counts[3] / sum(counts) > base_yellow:
            yellow_hits += 1
        if (
            divbs_rep.diversity.knn_mean_cos_dist[1]
            > top_rep.diversity.knn_mean_cos_dist[1]
        ):
            knn_hits += 1
    elapsed = time.perf_counter() - t0
    assert coverage_hits >= 19, f"cluster coverage only {coverage_hits}/20"
    assert yellow_hits >= 19, f"yellow over-representation only {yellow_hits}/20"
    assert knn_hits >= 19, f"divbs 1-NN distance above top_loss only {knn_hits}/20"
    assert elapsed < 300.0
    print(
        f"PASS criterion 7: coverage {coverage_hits}/20, yellow {yellow_hits}/20, "
        f"1-NN ordering {knn_hits}/20 ({elapsed:.1f}s)"
    )


def test_criterion_8_timing_direction(tmp_path):
    out = str(tmp_path / "bench.json")
    code = main(
        [
            "bench",
            "--n",
            "320",
            "--d",
            "512",
            "--budget",
            "32",
            "--trials",
            "50",
            "--seed",
            "108",
            "--out",
            out,
        ]
    )
    assert code == 0
    with open(out) as f:
        report = json.load(f)
    # medians, not means: one stall from outside load inflates a mean
    assert report["divbs_median_seconds"] < report["greedy_median_seconds"]
    print(
        f"PASS criterion 8: divbs median {report['divbs_median_seconds'] * 1e3:.2f}ms < "
        f"greedy median {report['greedy_median_seconds'] * 1e3:.2f}ms per call "
        f"(means {report['divbs_mean_seconds'] * 1e3:.2f}ms and "
        f"{report['greedy_mean_seconds'] * 1e3:.2f}ms; "
        f"speedup {report['speedup']:.2f}x, reported not asserted against any target)"
    )


def test_criterion_9_format_roundtrips(tmp_path):
    from divbs.featfile import read_features_binary, read_features_csv

    rng = np.random.default_rng(109)
    shapes = [(1, 1), (1470, 404)]
    while len(shapes) < 100:
        shapes.append((int(rng.integers(1, 40)), int(rng.integers(1, 12))))
    for i, (n, d) in enumerate(shapes):
        labelled = bool(rng.integers(2))
        labels = rng.integers(0, 5, size=n).astype(np.int32) if labelled else None
        fm = FeatureMatrix(rng.standard_normal((n, d)), labels)
        bin_path = str(tmp_path / f"m{i}.bin")
        write_features_binary(fm, bin_path)
        back = read_features_binary(bin_path)
        assert back.values.tobytes() == fm.values.tobytes()
        if labelled:
            np.testing.assert_array_equal(back.row_labels, fm.row_labels)
        csv_path = str(tmp_path / f"m{i}.csv")
        write_features_csv(fm, csv_path)
        back = read_features_csv(csv_path)
        np.testing.assert_array_equal(back.values, fm.values)
        if labelled:
            np.testing.assert_array_equal(back.row_labels, fm.row_labels)
    print("PASS criterion 9: binary bit-exact and CSV value-exact over 100 matrices")
