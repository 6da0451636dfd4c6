import numpy as np
import pytest

from divbs.errors import ContractViolationError
from divbs.linalg import FeatureMatrix
from divbs.metrics import (
    diversity_report,
    group_proportions,
    knn_cosine_distance,
    selection_rank,
)
from divbs.selectors import SelectionConfig, select_divbs, select_top_score


def brute_force_knn(X, ks):
    """All-pairs sort oracle for the mean k-NN cosine distance."""
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    m = X.shape[0]
    out = {}
    for k in ks:
        per_row = []
        for i in range(m):
            dists = sorted(
                1.0 - float(np.clip(Xn[i] @ Xn[j], -1, 1)) for j in range(m) if j != i
            )
            per_row.append(float(np.mean(dists[:k])))
        out[k] = float(np.mean(per_row))
    return out


class TestKnnCosineDistance:
    def test_identical_rows(self):
        fm = FeatureMatrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert knn_cosine_distance(fm, [0, 1], [1])[1] == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_rows(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert knn_cosine_distance(fm, [0, 1], [1])[1] == pytest.approx(2.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(40)
        gaussian = rng.standard_normal((10, 6))
        ties = rng.integers(1, 3, size=(12, 3)).astype(float)  # many equal distances
        for X in (gaussian, ties):
            got = knn_cosine_distance(FeatureMatrix(X), list(range(len(X))), [3])
            ref = brute_force_knn(X, [3])
            assert got[3] == pytest.approx(ref[3], abs=1e-12)

    def test_empty_selection_rejected(self):
        fm = FeatureMatrix(np.eye(3))
        with pytest.raises(ContractViolationError, match="selected index list is empty"):
            knn_cosine_distance(fm, [], [1])

    def test_k_too_large(self):
        fm = FeatureMatrix(np.eye(3))
        with pytest.raises(ContractViolationError):
            knn_cosine_distance(fm, [0, 1], [2])

    def test_zero_row_rejected(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ContractViolationError, match="row 1"):
            knn_cosine_distance(fm, [0, 1], [1])

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(41)
        X = rng.standard_normal((6, 4))
        fm_a = FeatureMatrix(X)
        Y = X.copy()
        Y[2] *= 37.0
        fm_b = FeatureMatrix(Y)
        a = knn_cosine_distance(fm_a, list(range(6)), [2])
        b = knn_cosine_distance(fm_b, list(range(6)), [2])
        assert a[2] == pytest.approx(b[2], rel=1e-12)


class TestGroupProportions:
    def test_single_group(self):
        assert group_proportions([0, 0, 1], [0, 1]) == {0: 1.0}

    def test_even_split(self):
        assert group_proportions([7, 7, 9, 9], [0, 1, 2, 3]) == {7: 0.5, 9: 0.5}

    def test_permutation_invariance(self):
        labels = [0, 1, 0, 1, 2]
        assert group_proportions(labels, [0, 1, 4]) == group_proportions(labels, [4, 0, 1])

    def test_empty_selection(self):
        assert group_proportions(np.array([0, 1, 1]), []) == {}

    def test_missing_label(self):
        with pytest.raises(ContractViolationError):
            group_proportions([0, 1], [0, 5])

    def test_sums_to_one(self):
        rng = np.random.default_rng(42)
        labels = rng.integers(0, 4, size=50)
        sel = list(rng.permutation(50)[:20])
        props = group_proportions(labels, sel)
        assert sum(props.values()) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_selection_matches_base_rates(self):
        rng = np.random.default_rng(43)
        labels = np.array([0] * 90 + [1] * 10)
        totals = {0: 0.0, 1: 0.0}
        reps = 10_000
        for s in range(reps):
            sel = np.random.default_rng(s).choice(100, size=20, replace=False)
            props = group_proportions(labels, list(sel))
            for g in totals:
                totals[g] += props.get(g, 0.0)
        assert totals[0] / reps == pytest.approx(0.9, abs=0.01)
        assert totals[1] / reps == pytest.approx(0.1, abs=0.01)


class TestSelectionRank:
    def test_duplicates(self):
        fm = FeatureMatrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert selection_rank(fm, [0, 1]) == 1

    def test_orthonormal_pair(self):
        fm = FeatureMatrix(np.eye(2))
        assert selection_rank(fm, [0, 1]) == 2

    def test_divbs_selection_full_rank(self):
        rng = np.random.default_rng(44)
        fm = FeatureMatrix(rng.standard_normal((40, 12)))
        result = select_divbs(fm, SelectionConfig(budget=6, pad_policy="none"))
        assert selection_rank(fm, result.indices) == len(result.indices)

    def test_top_score_on_duplicates_rank_deficient(self):
        # duplicated high-score rows: top-score picks both copies
        X = np.array([[5.0, 0.0], [5.0, 0.0], [0.0, 1.0], [0.1, 0.1]])
        fm = FeatureMatrix(X)
        result = select_top_score(fm, None, SelectionConfig(budget=2, pad_policy="none"))
        assert result.indices == [0, 1]
        assert selection_rank(fm, result.indices) == 1


class TestDiversityReport:
    def test_report_shape(self):
        rng = np.random.default_rng(45)
        fm = FeatureMatrix(
            rng.standard_normal((20, 4)), row_labels=rng.integers(0, 3, size=20)
        )
        rep = diversity_report(fm, [0, 3, 7, 11], ks=[1, 2])
        assert rep.n_selected == 4
        assert set(rep.knn_mean_cos_dist) == {1, 2}
        assert sum(rep.group_proportions.values()) == pytest.approx(1.0, abs=1e-12)
        assert 0 <= rep.selection_rank <= min(4, fm.dim)
        for v in rep.knn_mean_cos_dist.values():
            assert 0.0 <= v <= 2.0


class TestIndexAndKChecks:
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_index_rejected_before_indexing(self, bad):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ContractViolationError, match="out of range"):
            knn_cosine_distance(fm, [0, bad], [1])

    @pytest.mark.parametrize(
        "k, message",
        [
            (0, "k must be >= 1, got 0"),
            (-1, "k must be >= 1, got -1"),
            (1.5, "must be an integer"),
            (2.0, "must be an integer"),
            (True, "must be an integer"),
        ],
        ids=["0", "-1", "1.5", "2.0", "True"],
    )
    def test_k_below_one_rejected(self, k, message):
        """A float k would end in a raw TypeError at the slice, and True
        would run as k = 1."""
        fm = FeatureMatrix(np.eye(3))
        with pytest.raises(ContractViolationError, match=message):
            knn_cosine_distance(fm, [0, 1, 2], [k])


class TestGroupProportionIndices:
    @pytest.mark.parametrize("selected", [[0.7, 1.2], [True, 2], ["a", 1]])
    def test_non_integer_index_rejected(self, selected):
        with pytest.raises(ContractViolationError, match="is not an integer"):
            group_proportions([0, 1, 1, 2], selected)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ContractViolationError, match="duplicate"):
            group_proportions([0, 1, 1, 2], [1, 1])
