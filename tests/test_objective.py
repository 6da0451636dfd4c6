import math

import numpy as np
import pytest

from divbs.errors import ContractViolationError, EnumerationCapError
from divbs.linalg import FeatureMatrix, batch_sum
from divbs.objective import basis_of_subset, brute_force_optimum, representativeness


def random_rotation(k, rng):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


class TestBasisOfSubset:
    def test_dependent_row_skipped(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [2.0, 0.0]]))
        basis = basis_of_subset(fm, [0, 1])
        assert len(basis) == 1

    def test_empty_subset(self):
        fm = FeatureMatrix(np.eye(3))
        assert len(basis_of_subset(fm, [])) == 0

    def test_duplicate_index_rejected(self):
        fm = FeatureMatrix(np.eye(3))
        with pytest.raises(ContractViolationError):
            basis_of_subset(fm, [0, 0])

    def test_independent_rows_full_size(self):
        rng = np.random.default_rng(10)
        fm = FeatureMatrix(rng.standard_normal((5, 9)))
        basis = basis_of_subset(fm, [0, 1, 2, 3, 4])
        assert len(basis) == 5
        np.testing.assert_allclose(basis.gram(), np.eye(5), atol=1e-9)


class TestRepresentativeness:
    def test_single_projection(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        obj = representativeness(fm, [0])
        assert obj.r_prime == pytest.approx(1.0)
        assert obj.r == pytest.approx(1.0)
        assert obj.basis_size == 1

    def test_full_span(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        obj = representativeness(fm, [0, 1])
        assert obj.r_prime == pytest.approx(math.sqrt(2))
        assert obj.r == pytest.approx(2.0)

    def test_empty_subset(self):
        fm = FeatureMatrix(np.eye(2))
        obj = representativeness(fm, [])
        assert (obj.r, obj.r_prime, obj.basis_size) == (0.0, 0.0, 0)

    def test_r_ties_to_r_prime(self):
        rng = np.random.default_rng(11)
        fm = FeatureMatrix(rng.standard_normal((8, 4)))
        obj = representativeness(fm, [1, 3, 6])
        assert obj.r == pytest.approx(math.sqrt(obj.basis_size) * obj.r_prime, rel=1e-12)

    def test_invariant_under_basis_rotation(self):
        rng = np.random.default_rng(12)
        fm = FeatureMatrix(rng.standard_normal((8, 4)))
        subset = [0, 2, 5]
        obj = representativeness(fm, subset)
        basis = basis_of_subset(fm, subset)
        total = batch_sum(fm)
        k = len(basis)
        for _ in range(5):
            rotated = random_rotation(k, rng) @ basis.vectors
            r_prime = float(np.linalg.norm(rotated @ total))
            assert math.sqrt(k) * r_prime == pytest.approx(obj.r, rel=1e-9)

    def test_order_invariance(self):
        rng = np.random.default_rng(13)
        fm = FeatureMatrix(rng.standard_normal((7, 5)))
        a = representativeness(fm, [0, 3, 5, 6])
        b = representativeness(fm, [6, 0, 5, 3])
        assert a.r == pytest.approx(b.r, rel=1e-12)


class TestObjectiveProperties:
    def test_normalized(self):
        fm = FeatureMatrix(np.ones((4, 3)))
        assert representativeness(fm, []).r_prime == 0.0

    def test_monotone(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            fm = FeatureMatrix(rng.standard_normal((8, 5)))
            full = list(rng.permutation(8)[: rng.integers(1, 7)])
            sub = full[: int(rng.integers(0, len(full)))]
            assert (
                representativeness(fm, sub).r_prime
                <= representativeness(fm, full).r_prime + 1e-9
            )

    def test_diminishing_returns_counterexample(self):
        # The projection-norm objective is NOT submodular: a row nearly
        # orthogonal to the batch sum contributes almost nothing alone, yet
        # unlocks the full span once a second direction is present.  This
        # witness pins that behavior so it is a documented property, not a
        # regression.  See the README and the docstring of
        # tests/test_acceptance.py::test_criterion_2_submodularity_suite for
        # the weak-submodularity bound the objective does obey.
        theta = math.radians(20)
        a = np.array([1.0, 0.0])
        b = np.array([math.cos(theta), math.sin(theta)])
        m = -(a + b) + np.array([0.0, 1.0])  # forces the batch sum to (0, 1)
        fm = FeatureMatrix(np.vstack([a, b, m]))
        np.testing.assert_allclose(batch_sum(fm), [0.0, 1.0], atol=1e-15)

        def rp(subset):
            return representativeness(fm, subset).r_prime

        gain_alone = rp([0]) - rp([])
        gain_after_b = rp([1, 0]) - rp([1])
        assert gain_alone == pytest.approx(0.0, abs=1e-12)
        assert gain_after_b > 0.5  # marginal gain grew: diminishing returns fails

        # Criterion 2's bound on f = r_prime**2 still holds: a and b are their
        # own unit residuals against the empty span, so gamma = 1 - cos(theta)
        # ~ 0.060, the single gains sum to sin(theta)**2 ~ 0.117 and the joint
        # gain is 1.
        gamma = 1.0 - abs(float(a @ b))
        single = rp([0]) ** 2 + rp([1]) ** 2
        joint = rp([0, 1]) ** 2
        assert (gamma, single, joint) == pytest.approx(
            (1.0 - math.cos(theta), math.sin(theta) ** 2, 1.0), rel=1e-12
        )
        assert single >= gamma * joint

    def test_scaling(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((6, 4))
        subset = [0, 2, 4]
        c = 3.7
        base = representativeness(FeatureMatrix(X), subset)
        scaled = representativeness(FeatureMatrix(c * X), subset)
        assert scaled.r_prime == pytest.approx(c * base.r_prime, rel=1e-12)
        assert scaled.r == pytest.approx(c * base.r, rel=1e-12)


class TestBruteForce:
    def test_hand_example(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        subset, obj = brute_force_optimum(fm, 2)
        assert subset == (0, 2)
        assert obj.r == pytest.approx(math.sqrt(10))

    def test_full_rank_budget(self):
        rng = np.random.default_rng(17)
        fm = FeatureMatrix(rng.standard_normal((5, 2)))
        _, obj = brute_force_optimum(fm, 3)
        expected = math.sqrt(2) * np.linalg.norm(batch_sum(fm))
        assert obj.r == pytest.approx(expected, rel=1e-12)

    def test_cap_refusal(self):
        fm = FeatureMatrix(np.ones((30, 2)))
        with pytest.raises(EnumerationCapError, match="cap"):
            brute_force_optimum(fm, 15, cap=1000)

    def test_dominates_greedy(self):
        from divbs.selectors import SelectionConfig, select_greedy

        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(4, 11))
            d = int(rng.integers(2, 7))
            b = int(rng.integers(1, min(4, n) + 1))
            fm = FeatureMatrix(rng.standard_normal((n, d)))
            _, opt = brute_force_optimum(fm, b)
            greedy = select_greedy(fm, SelectionConfig(budget=b, pad_policy="none"))
            assert opt.r >= greedy.objective.r - 1e-12


class TestSubsetIndexTypes:
    @pytest.mark.parametrize(
        "subset", [[0.7, 1.2, 2.9], [True, 2, 3], ["a", 1, 2], [np.float64(1.0)], [np.bool_(True)]]
    )
    def test_non_integer_index_rejected(self, subset):
        fm = FeatureMatrix(np.eye(4))
        with pytest.raises(ContractViolationError, match="is not an integer"):
            representativeness(fm, subset)

    def test_numpy_integers_accepted(self):
        fm = FeatureMatrix(np.eye(4))
        subset = np.array([1, 3], dtype=np.int32)
        assert representativeness(fm, subset) == representativeness(fm, [1, 3])
