import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import divbs.selectors as selectors
from divbs.errors import ContractViolationError
from divbs.linalg import FeatureMatrix, OrthonormalBasis
from divbs.metrics import selection_rank
from divbs.objective import basis_of_subset, representativeness
from divbs.selectors import (
    SelectionConfig,
    SelectionResult,
    budget_from_ratio,
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
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-12, -5.0, 1.0, 1e200])
    def test_rejects_bad_eps(self, eps):
        with pytest.raises(ContractViolationError, match="eps"):
            SelectionConfig(budget=1, eps=eps)

    def test_accepts_zero_eps(self):
        assert SelectionConfig(budget=1, eps=0.0).eps == 0.0

    @pytest.mark.parametrize("pad", ["uniform-random", "random"])
    def test_rejects_unknown_pad_policy(self, pad):
        with pytest.raises(ContractViolationError, match="pad_policy"):
            SelectionConfig(budget=1, pad_policy=pad)

    def test_pad_policy_takes_none_alone(self):
        """Selectors never pad, so "none" is the keyword's only value; asking
        for uniform padding points to pad_selection."""
        assert SelectionConfig(budget=1, pad_policy="none") == SelectionConfig(budget=1)
        with pytest.raises(ContractViolationError, match="pad_selection"):
            SelectionConfig(budget=1, pad_policy="uniform")

    def test_rejects_negative_seed(self):
        with pytest.raises(ContractViolationError, match="seed"):
            SelectionConfig(budget=1, seed=-1)

    def test_rejects_budget_below_one(self):
        with pytest.raises(ContractViolationError, match="budget must be >= 1, got 0"):
            SelectionConfig(budget=0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"budget": 2.5},
            {"budget": True},
            {"budget": np.float64(3.0)},
            {"budget": 2, "seed": 1.5},
            {"budget": 2, "seed": True},
        ],
        ids=["budget-2.5", "budget-True", "budget-float64", "seed-1.5", "seed-True"],
    )
    def test_rejects_non_integer_budget_or_seed(self, kw):
        """A float budget would make greedy, divbs and k-means++ pick
        ceil(budget) rows, and True would count as 1."""
        name = "seed" if "seed" in kw else "budget"
        with pytest.raises(ContractViolationError, match=f"{name} must be an integer"):
            SelectionConfig(**kw)

    def test_accepts_numpy_integers(self):
        fm = FeatureMatrix(np.eye(4))
        config = SelectionConfig(budget=np.int64(2), seed=np.int32(3))
        assert type(config.budget) is int and type(config.seed) is int
        expected = select_uniform(fm, SelectionConfig(budget=2, seed=3)).indices
        assert select_uniform(fm, config).indices == expected

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SelectionConfig)])
    def test_fields_cannot_be_assigned(self, name):
        """A config stays as its checks left it; dataclasses.replace makes a
        checked copy instead."""
        config = SelectionConfig(budget=2, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, 0)
        assert config == SelectionConfig(budget=2, seed=1)
        assert dataclasses.replace(config, seed=5) == SelectionConfig(budget=2, seed=5)
        with pytest.raises(ContractViolationError, match="budget"):
            dataclasses.replace(config, budget=0)


@pytest.mark.parametrize(
    "ratio, n_rows, least, message",
    [
        (math.nan, 20, 1, r"ratio must be in \(0, 1\], got nan"),
        (0.0, 20, 1, r"ratio must be in \(0, 1\], got 0.0"),
        (1.5, 20, 1, r"ratio must be in \(0, 1\], got 1.5"),
        (1e300, 20, 1, r"ratio must be in \(0, 1\], got 1e\+300"),
        (0.04, 20, 1, "ratio 0.04 gives a budget of 0 of 20 rows; at least 1 needed"),
        (0.001, 1470, 2, "ratio 0.001 gives a budget of 1 of 1470 rows; at least 2 needed"),
        (0.1, 1470, 2, None),
        (0.7, 10, 1, None),
        (1.0, 3, 2, None),
        (None, 10, 1, "ratio must be a real number, got None"),
        ("0.5", 10, 1, "ratio must be a real number, got '0.5'"),
        (True, 10, 1, "ratio must be a real number, got True"),
        (np.float32(0.5), 10, 1, None),
    ],
    ids=[
        "nan",
        "0",
        "1.5",
        "1e300",
        "floor-1",
        "floor-2",
        "toy",
        "inexact",
        "whole",
        "None",
        "text",
        "bool",
        "float32",
    ],
)
def test_budget_from_ratio(ratio, n_rows, least, message):
    """The one rule for a budget ratio: (0, 1], NaN refused before the
    budget is formed, then int(ratio * n_rows) must reach least."""
    if message is None:
        assert budget_from_ratio("ratio", ratio, n_rows, least) == int(ratio * n_rows)
    else:
        with pytest.raises(ContractViolationError, match=f"^{message}$"):
            budget_from_ratio("ratio", ratio, n_rows, least)


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

    @pytest.mark.parametrize(
        "X",
        [
            1e160 * np.random.default_rng(32).standard_normal((20, 5)),
            np.tile([[1.5e153], [-1.5e153]], (10, 5)),
        ],
        ids=["row-norms", "distance-sum"],
    )
    def test_kmeanspp_overflowing_scale_rejected(self, X):
        """At 1e160 the squared distances overflow; at +-1.5e153 each is finite
        but their sum is not.  Either way no draw is defined.  A budget of one
        needs no draw and still succeeds."""
        fm = FeatureMatrix(X)
        with pytest.raises(ContractViolationError, match="overflows"):
            select_kmeanspp(fm, SelectionConfig(budget=3))
        assert len(select_kmeanspp(fm, SelectionConfig(budget=1)).indices) == 1

    def test_kmeanspp_later_distance_overflow_is_never_taken(self):
        """Rows 0, +R and -R with R^2 finite but (2R)^2 not: from the first pick,
        row 0 (seed 11), the draw is defined; the distance between +R and -R
        overflows to +inf, which np.minimum never takes, and no warning escapes."""
        fm = FeatureMatrix(np.array([[0.0], [9e153], [-9e153]]))
        c = SelectionConfig(budget=3, pad_policy="none", seed=11)
        assert select_kmeanspp(fm, c).indices[0] == 0
        assert sorted(select_kmeanspp(fm, c).indices) == [0, 1, 2]


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
        total0 = np.linalg.norm(fm.values.sum(axis=0))
        basis = OrthonormalBasis(10)
        running = fm.values.sum(axis=0)
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

    def test_signed_zeros_tie(self):
        """-0.0 and 0.0 are equal scores: the lower index goes first."""
        fm = FeatureMatrix(np.ones((4, 2)))
        result = select_top_score(fm, [-0.0, 1.0, 0.0, -0.0], cfg(3))
        assert result.indices == [1, 0, 2]

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
    @pytest.mark.parametrize("select", [select_greedy, select_divbs])
    def test_short_selection_returned_unpadded(self, select):
        """A selector that stops short returns only its own picks, even with
        the default config: padding is the caller's step."""
        fm = FeatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]]))
        result = select(fm, SelectionConfig(budget=2))
        assert len(result.indices) < 2
        assert result.padded == [False] * len(result.indices)

    def test_full_selection_unchanged(self):
        fm = FeatureMatrix(np.eye(3))
        c = SelectionConfig(budget=2, seed=5)
        result = pad_selection(select_greedy(fm, c), fm, c)
        assert len(result.indices) == 2
        assert result.padded == [False, False]

    def test_empty_selection_padded(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]))
        base = SelectionResult([], [], representativeness(fm, []), [], 0.0)
        c = SelectionConfig(budget=2, seed=5)
        padded = pad_selection(base, fm, c)
        assert len(padded.indices) == 2
        assert padded.padded == [True, True]

    def test_padded_rows_never_duplicate(self):
        rng = np.random.default_rng(6)
        fm = FeatureMatrix(rng.standard_normal((10, 2)))
        base = SelectionResult([1, 4], [False, False], representativeness(fm, [1, 4]), [], 0.0)
        c = SelectionConfig(budget=7, seed=8)
        padded = pad_selection(base, fm, c)
        assert len(padded.indices) == 7
        assert len(set(padded.indices)) == 7
        assert padded.padded == [False, False] + [True] * 5

    @pytest.mark.parametrize("bad", [[20], [-1], [1.5], [True], [2, 2]])
    def test_invalid_indices_rejected(self, bad):
        fm = FeatureMatrix(np.random.default_rng(7).standard_normal((20, 3)))
        base = SelectionResult(bad, [False] * len(bad), representativeness(fm, []), [], 0.0)
        c = SelectionConfig(budget=3, seed=5)
        with pytest.raises(ContractViolationError):
            pad_selection(base, fm, c)

    def test_budget_above_rows_rejected(self):
        fm = FeatureMatrix(np.eye(3))
        result = select_greedy(fm, SelectionConfig(budget=2))
        with pytest.raises(ContractViolationError, match="budget 4 exceeds the 3 available rows"):
            pad_selection(result, fm, SelectionConfig(budget=4))

    def test_divbs_early_stop_pads_to_budget(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]]))
        c = SelectionConfig(budget=2, seed=0)
        result = pad_selection(select_divbs(fm, c), fm, c)
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
    err = np.abs(basis.vectors @ basis.vectors.T - np.eye(len(basis))).max(initial=0.0)
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


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 24),
    kind=st.sampled_from(["gaussian", "integer", "offset"]),
    copies=st.integers(1, 60),
    budget=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
)
def test_duplicate_rows_in_random_orders(n, d, kind, copies, budget, seed):
    """Exact copies of random rows, shuffled among them.  Divbs re-scores in
    float64 every row that can win, by a sum that is the same for equal rows,
    so a duplicate it picks is always the lowest index of its group.  Greedy
    scores rows by BLAS products, whose rounding can depend on a row's place
    in the batch (equal rows of one X @ Sum have differed in the last bit),
    so its ties may go to a higher index, as README says; it still picks at
    most one row of each group."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        B = rng.integers(-2, 3, (n, d)).astype(float)
    else:
        B = rng.standard_normal((n, d)) + (10.0 * rng.standard_normal(d) if kind == "offset" else 0.0)
    X = np.vstack([B, B[rng.integers(0, n, copies)]])
    X = X[rng.permutation(len(X))]
    assume(np.any(X != 0.0))
    _, group = np.unique(X, axis=0, return_inverse=True)
    group = group.ravel()
    lowest = {int(g): i for i, g in reversed(list(enumerate(group)))}
    fm = FeatureMatrix(X)
    config = cfg(min(budget, len(X)))
    picks = select_divbs(fm, config).indices
    assert all(lowest[int(group[i])] == i for i in picks)
    picks = select_greedy(fm, config).indices
    assert len({int(group[i]) for i in picks}) == len(picks)
