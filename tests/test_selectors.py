import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import divbs.selectors as selectors
from divbs.errors import ContractViolationError
from divbs.linalg import FeatureMatrix, OrthonormalBasis, batch_sum
from divbs.metrics import selection_rank
from divbs.objective import basis_of_subset, representativeness
from divbs.selectors import (
    SelectionConfig,
    SelectionResult,
    pad_selection,
    select_divbs,
    select_greedy,
    select_kmeanspp,
    select_top_score,
    select_uniform,
)

from reference_selectors import reference_greedy

HAND = FeatureMatrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def cfg(budget, **kw):
    kw.setdefault("pad_policy", "none")
    return SelectionConfig(budget=budget, **kw)


class TestConfig:
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-12, -5.0])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ContractViolationError, match="eps"):
            SelectionConfig(budget=1, eps=eps)

    def test_accepts_zero_eps(self):
        assert SelectionConfig(budget=1, eps=0.0).eps == 0.0


class TestScaleContract:
    """Out-of-range feature scales are contract errors, not silent uniform
    padding: at 1e-11 no row clears the dependence floor eps * max(1, ||x||),
    and at 1e160 the squared norms overflow.  A sum that merely cancels is
    not a scale error (TestDivbs.test_zero_sum_terminates_empty)."""

    @pytest.mark.parametrize("select", [select_greedy, select_divbs])
    def test_tiny_scale_rejected(self, select):
        fm = FeatureMatrix(1e-11 * np.random.default_rng(30).standard_normal((20, 5)))
        with pytest.raises(ContractViolationError, match="dependence floor"):
            select(fm, SelectionConfig(budget=3))

    @pytest.mark.parametrize("select", [select_greedy, select_divbs])
    @pytest.mark.parametrize(
        "X",
        [1e160 * np.random.default_rng(31).standard_normal((20, 5)), np.full((20, 5), 1e153)],
        ids=["row-norms", "sum-only"],
    )
    def test_overflowing_scale_rejected(self, select, X):
        with pytest.raises(ContractViolationError, match="overflows"):
            select(FeatureMatrix(X), SelectionConfig(budget=3))


class TestNormalizeFeatures:
    """Only greedy and divbs read normalize_features; the baselines reject it
    instead of echoing a setting they ignore."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda fm, c: select_uniform(fm, c),
            lambda fm, c: select_top_score(fm, np.arange(40.0), c),
            lambda fm, c: select_top_score(fm, None, c),
            lambda fm, c: select_kmeanspp(fm, c),
        ],
        ids=["uniform", "top_score", "grad_norm", "kmeanspp"],
    )
    def test_baselines_reject_normalize(self, call):
        rng = np.random.default_rng(32)
        fm = FeatureMatrix(rng.standard_normal((40, 6)) * rng.uniform(0.1, 10.0, size=(40, 1)))
        with pytest.raises(ContractViolationError, match="normalize_features"):
            call(fm, cfg(4, normalize_features=True))
        call(fm, cfg(4))


class TestGreedy:
    def test_hand_example(self):
        result = select_greedy(HAND, cfg(2))
        assert result.indices == [0, 2]
        assert result.step_scores == [2.0, 1.0]

    def test_single_row(self):
        fm = FeatureMatrix(np.array([[2.0, 3.0]]))
        assert select_greedy(fm, cfg(1)).indices == [0]

    def test_budget_exceeds_rows(self):
        with pytest.raises(ContractViolationError):
            select_greedy(HAND, cfg(4))

    def test_duplicate_rows_excluded(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
        result = select_greedy(fm, cfg(3))
        assert result.indices == [0]

    def test_step_scores_compose_r_prime(self):
        rng = np.random.default_rng(20)
        fm = FeatureMatrix(rng.standard_normal((20, 8)))
        result = select_greedy(fm, cfg(6))
        for t in range(1, len(result.indices) + 1):
            prefix_rp = representativeness(fm, result.indices[:t]).r_prime
            composed = math.sqrt(sum(s * s for s in result.step_scores[:t]))
            assert prefix_rp == pytest.approx(composed, rel=1e-9)

    def test_selected_rows_independent(self):
        rng = np.random.default_rng(21)
        base = rng.standard_normal((4, 6))
        # batch with deliberate duplicates
        X = np.vstack([base, base[0:2]])
        fm = FeatureMatrix(X)
        result = select_greedy(fm, cfg(6))
        obj = representativeness(fm, result.indices)
        assert obj.basis_size == len(result.indices)


class TestDivbs:
    def test_hand_example(self):
        result = select_divbs(HAND, cfg(2))
        assert result.indices == [0, 2]

    def test_zero_sum_terminates_empty(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        result = select_divbs(fm, cfg(1))
        assert result.indices == []
        assert result.objective.r == 0.0

    def test_running_sum_stays_orthogonal(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((30, 10))
        fm = FeatureMatrix(X)
        result = select_divbs(fm, cfg(8))
        total0 = np.linalg.norm(batch_sum(fm))
        basis = OrthonormalBasis(10)
        running = batch_sum(fm)
        for idx in result.indices:
            e = basis.extend(X[idx])
            running = running - np.dot(e, running) * e
            assert np.all(np.abs(basis.vectors @ running) <= 1e-9 * total0)

    def test_median_ratio_vs_greedy(self):
        rng = np.random.default_rng(23)
        ratios = []
        for _ in range(200):
            fm = FeatureMatrix(rng.standard_normal((64, 16)))
            c = cfg(8)
            g = select_greedy(fm, c).objective.r
            a = select_divbs(fm, c).objective.r
            ratios.append(a / g)
        assert float(np.median(ratios)) >= 0.9


class TestUniform:
    def test_deterministic(self):
        fm = FeatureMatrix(np.random.default_rng(0).standard_normal((10, 3)))
        a = select_uniform(fm, cfg(4, seed=99))
        b = select_uniform(fm, cfg(4, seed=99))
        assert a.indices == b.indices

    def test_full_budget(self):
        fm = FeatureMatrix(np.eye(5))
        result = select_uniform(fm, cfg(5, seed=1))
        assert sorted(result.indices) == list(range(5))

    def test_frequency(self):
        fm = FeatureMatrix(np.random.default_rng(1).standard_normal((10, 2)))
        counts = np.zeros(10)
        trials = 100_000
        rng_seeds = range(trials)
        for s in rng_seeds:
            idx = np.random.default_rng(s).choice(10, size=3, replace=False)
            counts[idx] += 1
        # sanity-check the rng itself, then spot-check the selector on a slice
        np.testing.assert_allclose(counts / trials, 0.3, atol=0.01)
        for s in range(50):
            assert (
                select_uniform(fm, cfg(3, seed=s)).indices
                == list(np.random.default_rng(s).choice(10, size=3, replace=False))
            )


class TestTopScore:
    def test_hand_example(self):
        fm = FeatureMatrix(np.zeros((3, 2)) + 1.0)
        result = select_top_score(fm, [3.0, 1.0, 2.0], cfg(2))
        assert result.indices == [0, 2]

    def test_tie_break(self):
        fm = FeatureMatrix(np.ones((3, 2)))
        result = select_top_score(fm, [1.0, 1.0, 1.0], cfg(2))
        assert result.indices == [0, 1]

    def test_grad_norm_mode(self):
        fm = FeatureMatrix(np.array([[3.0, 0.0], [1.0, 1.0]]))
        result = select_top_score(fm, None, cfg(1))
        assert result.indices == [0]

    def test_length_mismatch(self):
        fm = FeatureMatrix(np.ones((3, 2)))
        with pytest.raises(ContractViolationError):
            select_top_score(fm, [1.0, 2.0], cfg(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_scores(self, bad):
        fm = FeatureMatrix(np.ones((3, 2)))
        with pytest.raises(ContractViolationError, match="NaN or Inf"):
            select_top_score(fm, [1.0, bad, 2.0], cfg(1))


class TestKmeanspp:
    def test_deterministic(self):
        fm = FeatureMatrix(np.random.default_rng(2).standard_normal((12, 3)))
        a = select_kmeanspp(fm, cfg(4, seed=7))
        b = select_kmeanspp(fm, cfg(4, seed=7))
        assert a.indices == b.indices

    def test_duplicate_only_batch(self):
        fm = FeatureMatrix(np.tile([2.0, -1.0], (3, 1)))
        result = select_kmeanspp(fm, cfg(2, seed=3))
        assert len(result.indices) == 2
        assert len(set(result.indices)) == 2

    def test_separated_clusters(self):
        rng = np.random.default_rng(4)
        X = np.vstack(
            [rng.normal(0.0, 0.01, size=(4, 2)), rng.normal(100.0, 0.01, size=(4, 2))]
        )
        fm = FeatureMatrix(X)
        hits = 0
        runs = 10_000
        for s in range(runs):
            idx = select_kmeanspp(fm, cfg(2, seed=s)).indices
            if (idx[0] < 4) != (idx[1] < 4):
                hits += 1
        assert hits / runs >= 0.99


class TestPadding:
    def test_full_selection_unchanged(self):
        fm = FeatureMatrix(np.eye(3))
        c = SelectionConfig(budget=2, pad_policy="uniform-random", seed=5)
        result = select_greedy(fm, c)
        assert len(result.indices) == 2
        assert result.padded == [False, False]

    def test_empty_selection_padded(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]))
        base = SelectionResult([], [], representativeness(fm, []), [], 0.0)
        c = SelectionConfig(budget=2, pad_policy="uniform-random", seed=5)
        padded = pad_selection(base, fm, c)
        assert len(padded.indices) == 2
        assert padded.padded == [True, True]

    def test_padded_rows_never_duplicate(self):
        rng = np.random.default_rng(6)
        fm = FeatureMatrix(rng.standard_normal((10, 2)))
        base = SelectionResult([1, 4], [False, False], representativeness(fm, [1, 4]), [], 0.0)
        c = SelectionConfig(budget=7, pad_policy="uniform-random", seed=8)
        padded = pad_selection(base, fm, c)
        assert len(padded.indices) == 7
        assert len(set(padded.indices)) == 7
        assert padded.padded == [False, False] + [True] * 5

    def test_divbs_early_stop_pads_to_budget(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]]))
        c = SelectionConfig(budget=2, pad_policy="uniform-random", seed=0)
        result = select_divbs(fm, c)
        assert len(result.indices) == 2


class TestDeterminismAndScaling:
    @pytest.mark.parametrize("selector", [select_greedy, select_divbs])
    def test_power_of_two_scaling(self, selector):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((24, 6))
        base = selector(FeatureMatrix(X), cfg(5)).indices
        for c in (2.0**-3, 2.0**5):
            assert selector(FeatureMatrix(c * X), cfg(5)).indices == base

    def test_repeat_runs_bitwise(self):
        rng = np.random.default_rng(31)
        fm = FeatureMatrix(rng.standard_normal((20, 5)))
        for selector in (select_greedy, select_divbs, select_uniform, select_kmeanspp):
            runs = [selector(fm, cfg(4, seed=11)).indices for _ in range(3)]
            assert runs[0] == runs[1] == runs[2]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 30),
    d=st.integers(1, 16),
    rank=st.integers(1, 16),
    duplicates=st.integers(0, 8),
    zeros=st.integers(0, 8),
    budget=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    exact=st.booleans(),
)
def test_rank_deficient_batches_select_independent_rows(
    n, d, rank, duplicates, zeros, budget, seed, exact
):
    """Duplicate rows, zero rows and a rank below the budget: every pick must
    pass the dependence rule, so the picks are distinct, nonzero and linearly
    independent, and the objective the kernel reports from its own
    coefficients agrees with one rebuilt from the picked rows."""
    rng = np.random.default_rng(seed)
    rank = min(rank, n, d)
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    for _ in range(duplicates):
        X[rng.integers(n)] = X[rng.integers(n)]
    X[rng.integers(n, size=zeros)] = 0.0
    assume(np.any(X != 0.0))
    fm = FeatureMatrix(X)
    select = select_greedy if exact else select_divbs
    result = select(fm, cfg(min(budget, n)))
    idx = result.indices
    assert len(set(idx)) == len(idx)
    assert all(np.any(X[i] != 0.0) for i in idx)
    assert selection_rank(fm, idx) == len(idx)
    assert result.objective.r == pytest.approx(representativeness(fm, idx).r, rel=1e-9)


def offset_gaussian(n, d, scale, offset, seed):
    """Gaussian rows around a shared random mean offset (rows nearly parallel
    when the offset is large), times scale."""
    rng = np.random.default_rng(seed)
    return FeatureMatrix(scale * (rng.standard_normal((n, d)) + offset * rng.standard_normal(d)))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 60),
    d=st.integers(2, 24),
    budget=st.integers(1, 23),
    scale=st.sampled_from([2.0**-8, 0.37, 1.0, 3.0, 2.0**9, 1e5]),
    offset=st.sampled_from([0.0, 1.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
# nearly parallel rows, where the reference's last step scores are off by
# ~1.4e-9 and ~1.1e-9 relative (60-digit Gram-Schmidt) and greedy's by < 1e-11
@example(n=51, d=14, budget=13, scale=2.0**-8, offset=10.0, seed=10)
@example(n=52, d=14, budget=13, scale=2.0**-8, offset=10.0, seed=369270)
def test_greedy_matches_reference_on_random_shapes(n, d, budget, scale, offset, seed):
    """Greedy picks the rows the explicit-residual reference loop picks,
    below the rank of a Gaussian batch (so no exact ties), and its step
    scores are |e . Sum| over the basis of its picks to rel 1e-9."""
    budget = min(budget, n - 1, d - 1)
    assume(budget >= 1)
    fm = offset_gaussian(n, d, scale, offset, seed)
    config = cfg(budget)
    result = select_greedy(fm, config)
    assert result.indices == reference_greedy(fm, config)[0]
    total = fm.values.sum(axis=0)
    coeffs = basis_of_subset(fm, result.indices, config.eps).vectors @ total
    # e . Sum carries an absolute rounding error of a few ulp of ||Sum||
    atol = 1e-13 * np.linalg.norm(total)
    np.testing.assert_allclose(result.step_scores, np.abs(coeffs), rtol=1e-9, atol=atol)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 60),
    d=st.integers(1, 24),
    budget=st.integers(1, 60),
    scale=st.sampled_from([2.0**-8, 0.37, 1.0, 3.0, 2.0**9, 1e5]),
    offset=st.sampled_from([0.0, 1.0, 10.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
    exact=st.booleans(),
)
def test_kernel_basis_stays_orthonormal(n, d, budget, scale, offset, seed, exact):
    """The basis the kernel accepts its picks into has max |E E' - I| within
    16 d u, also for nearly parallel rows, where Gram-Schmidt cancels most."""
    bases = []

    class Recorded(OrthonormalBasis):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            bases.append(self)

    fm = offset_gaussian(n, d, scale, offset, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selectors, "OrthonormalBasis", Recorded)
        result = (select_greedy if exact else select_divbs)(fm, cfg(min(budget, n)))
    (basis,) = bases
    assert len(basis) == sum(not p for p in result.padded)
    err = np.abs(basis.gram() - np.eye(len(basis))).max(initial=0.0)
    assert err <= 16 * d * 2.0**-53


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 40),
    d=st.integers(2, 24),
    rank=st.integers(1, 24),
    duplicates=st.integers(0, 4),
    offset=st.sampled_from([0.0, 1.0, 10.0]),
    base=st.integers(0, 20),
    k=st.integers(-40, 40),
    budget=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_power_of_two_scale_invariance(n, d, rank, duplicates, offset, base, k, budget, seed):
    """Scaling X by 2^k rounds nothing, so greedy and divbs pick the same rows
    and their step scores scale exactly: |e . running| by 2^k (greedy),
    |x . running| by 4^k (divbs).  The dependence floor eps max(1, ||x||) and
    the running-sum floor eps max(1, ||Sum||) are relative only above unit
    norm, so every row and Sum has norm >= 1 at both scales.  Rank-deficient
    batches with exact duplicates exercise the rejected rows and the
    stale-norm recompute."""
    rng = np.random.default_rng(seed)
    rank = min(rank, n, d)
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    X = 2.0**base * (X + offset * rng.standard_normal(d))
    for _ in range(duplicates):
        X[rng.integers(n)] = X[rng.integers(n)]
    small = min(1.0, 2.0**k)
    assume(small * np.linalg.norm(X, axis=1).min() >= 1.0)
    assume(small * np.linalg.norm(X.sum(axis=0)) >= 1.0)
    config = cfg(min(budget, n))
    for select, factor in ((select_greedy, 2.0**k), (select_divbs, 4.0**k)):
        unscaled = select(FeatureMatrix(X), config)
        scaled = select(FeatureMatrix(X * 2.0**k), config)
        assert scaled.indices == unscaled.indices
        assert scaled.step_scores == [s * factor for s in unscaled.step_scores]
