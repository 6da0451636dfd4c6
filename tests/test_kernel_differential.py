"""The shared selection kernel against the explicit-residual reference loops.

On tie-free instances (Gaussian rows, so no duplicates, and budget below
the rank) both implementations must pick the same rows, greedy step scores
must agree to rel 1e-9 and every kernel objective must equal a
recomputation by representativeness.  The other tests say what they relax.

On the toy gradient features (step scores fall from ~1e4 to <1) the
reference's one-sweep deflation of R loses orthogonality: against an 80-bit
re-orthogonalised recomputation its step scores are off by up to 1.0e-6
relative (seeds 0-3), the kernel's by 2.6e-11.  There the step scores are
compared with the reference at rel 1e-5; everywhere they must equal the
coefficients of the batch sum on the objective's own basis to rel 1e-9
(plus 1e-13 ||Sum|| absolute).
"""
import numpy as np
import pytest

from divbs.linalg import FeatureMatrix
from divbs.objective import basis_of_subset, representativeness
from divbs.selectors import SelectionConfig, select_divbs, select_greedy
from divbs.toy import (
    ToyDatasetSpec,
    generate_toy_dataset,
    init_mlp,
    last_layer_gradient_features,
)

from reference_selectors import reference_divbs, reference_greedy


def assert_matches_reference(fm, cfg, score_rtol=1e-9):
    greedy = select_greedy(fm, cfg)
    ref_indices, ref_scores = reference_greedy(fm, cfg)
    assert greedy.indices == ref_indices
    if score_rtol is not None:
        np.testing.assert_allclose(greedy.step_scores, ref_scores, rtol=score_rtol, atol=0.0)
    total = fm.values.sum(axis=0)
    coeffs = basis_of_subset(fm, greedy.indices, cfg.eps).vectors @ total
    # e . Sum carries an absolute rounding error of a few ulp of ||Sum||
    atol = 1e-13 * np.linalg.norm(total)
    np.testing.assert_allclose(greedy.step_scores, np.abs(coeffs), rtol=1e-9, atol=atol)
    divbs = select_divbs(fm, cfg)
    assert divbs.indices == reference_divbs(fm, cfg)[0]
    for result in (greedy, divbs):
        obj = representativeness(fm, result.indices, cfg.eps)
        assert result.objective.basis_size == obj.basis_size == len(result.indices)
        assert result.objective.r == pytest.approx(obj.r, rel=1e-9)
        assert result.objective.r_prime == pytest.approx(obj.r_prime, rel=1e-9)


@pytest.mark.parametrize("n,d,budget", [(320, 512, 32), (200, 64, 48), (100, 30, 29)])
def test_fixed_shapes(n, d, budget):
    rng = np.random.default_rng(n + d + budget)
    fm = FeatureMatrix(rng.standard_normal((n, d)))
    assert_matches_reference(fm, SelectionConfig(budget=budget, pad_policy="none"))


def test_random_instances_across_scales():
    rng = np.random.default_rng(109)
    for trial in range(200):
        n = int(rng.integers(4, 61))
        d = int(rng.integers(2, 21))
        budget = int(rng.integers(1, min(n, d)))
        scale = 2.0 ** int(rng.integers(-6, 7))
        mean = rng.standard_normal(d) * rng.uniform(0.0, 2.0)
        X = scale * (rng.standard_normal((n, d)) + mean)
        if trial % 5 == 0:  # unit rows, as divbs select --normalize-features reads them
            X = X / np.linalg.norm(X, axis=1)[:, None]
        cfg = SelectionConfig(budget=budget, pad_policy="none")
        assert_matches_reference(FeatureMatrix(X), cfg)


def test_near_duplicate_rows():
    """Pairs x, x + delta n with delta in [1e-7, 1e-3]: once x is picked the
    downdated ||r||^2 of its twin cancels to ~delta^2 ||x||^2, the case the
    stale-norm recomputation exists for.  The reference's step scores are not
    compared: on the late picks, whose scores are ~1e-6 of the first, its R
    has drifted out of orthogonality and they are off by up to 13 % relative
    to an 80-bit recomputation (the kernel's by 4.9e-9)."""
    rng = np.random.default_rng(111)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        d = int(rng.integers(3, 50))
        base = rng.standard_normal((n, d))
        delta = 10.0 ** rng.uniform(-7, -3)
        fm = FeatureMatrix(np.vstack([base, base + delta * rng.standard_normal((n, d))]))
        budget = int(rng.integers(1, min(2 * n, d)))
        assert_matches_reference(fm, SelectionConfig(budget=budget, pad_policy="none"), None)


def test_divbs_stops_on_exhausted_sum():
    """The last row makes the batch sum a combination of rows 0 and 1, so
    divbs must stop once the sum lies in the selected span, although the
    downdated ||running||^2 has then cancelled to rounding level."""
    rng = np.random.default_rng(112)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        d = int(rng.integers(3, 40))
        X = rng.standard_normal((n, d))
        a, b = rng.uniform(0.5, 3.0, size=2)
        X = np.vstack([X, a * X[0] + b * X[1] - X.sum(axis=0)])
        fm = FeatureMatrix(X)
        cfg = SelectionConfig(budget=int(rng.integers(1, min(n + 1, d) + 1)), pad_policy="none")
        divbs = select_divbs(fm, cfg)
        assert divbs.indices == reference_divbs(fm, cfg)[0]
        divbs_r = representativeness(fm, divbs.indices).r
        assert divbs.objective.r == pytest.approx(divbs_r, rel=1e-9)


def test_rank_deficient_instances():
    """Budgets at and beyond the rank exercise the stale-norm recomputation
    and divbs's stop on an exhausted sum.  Greedy's pick at position rank-1
    is a mathematical tie (every remaining unit residual is +-u), settled by
    rounding, so only the picks before it and the objective must agree."""
    rng = np.random.default_rng(110)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(3, 20))
        rank = int(rng.integers(1, min(n, d) + 1))
        scale = 2.0 ** int(rng.integers(-6, 7))
        fm = FeatureMatrix(scale * rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d)))
        cfg = SelectionConfig(budget=int(rng.integers(1, n + 1)), pad_policy="none")
        greedy = select_greedy(fm, cfg)
        ref_indices, _ = reference_greedy(fm, cfg)
        assert len(greedy.indices) == len(ref_indices)
        assert greedy.indices[: rank - 1] == ref_indices[: rank - 1]
        ref_r = representativeness(fm, ref_indices).r
        assert greedy.objective.r == pytest.approx(ref_r, rel=1e-9)
        divbs = select_divbs(fm, cfg)
        assert divbs.indices == reference_divbs(fm, cfg)[0]
        divbs_r = representativeness(fm, divbs.indices).r
        assert divbs.objective.r == pytest.approx(divbs_r, rel=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_toy_gradient_features(seed):
    data, labels = generate_toy_dataset(ToyDatasetSpec(seed=seed))
    fm = last_layer_gradient_features(init_mlp(seed), data.values, labels)
    assert_matches_reference(fm, SelectionConfig(budget=147, pad_policy="none"), score_rtol=1e-5)
