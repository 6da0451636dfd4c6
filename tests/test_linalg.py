import math
import warnings

import numpy as np
import pytest

from divbs.errors import ContractViolationError
from divbs.linalg import FeatureMatrix, OrthonormalBasis
from divbs.metrics import diversity_report, selection_rank
from divbs.objective import basis_of_subset, brute_force_optimum, representativeness
from divbs.selectors import SelectionConfig, select_divbs, select_greedy

DEPENDENT = FeatureMatrix(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))


def _select_with_eps(select):
    def run(eps):
        cfg = SelectionConfig(budget=2)
        # set past the frozen config's own check
        object.__setattr__(cfg, "eps", eps)
        return select(DEPENDENT, cfg)

    return run


@pytest.mark.parametrize("eps", [math.nan, math.inf, -1e-3, 1.0, 1e200])
@pytest.mark.parametrize(
    "call",
    [
        lambda eps: OrthonormalBasis(2, eps),
        lambda eps: representativeness(DEPENDENT, [0, 1], eps=eps),
        lambda eps: basis_of_subset(DEPENDENT, [0, 1], eps=eps),
        lambda eps: selection_rank(DEPENDENT, [0, 1], eps=eps),
        lambda eps: diversity_report(DEPENDENT, [0, 1], [1], eps=eps),
        lambda eps: brute_force_optimum(DEPENDENT, 2, eps=eps),
        _select_with_eps(select_greedy),
        _select_with_eps(select_divbs),
    ],
    ids=[
        "basis",
        "representativeness",
        "basis_of_subset",
        "selection_rank",
        "diversity_report",
        "brute_force_optimum",
        "greedy",
        "divbs",
    ],
)
def test_every_eps_is_checked(call, eps):
    """Every eps reaches an OrthonormalBasis, which refuses a NaN, infinite
    or negative one instead of returning r=nan, and one of 1 or more, which
    no row can clear (1e200 would overflow eps**2)."""
    with pytest.raises(ContractViolationError, match="eps"):
        call(eps)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FeatureMatrix(np.ones(3)), "must be 2-D"),
        (lambda: OrthonormalBasis(0), "basis dim must be >= 1"),
        (lambda: OrthonormalBasis(2.7), "basis dim must be an integer, got 2.7"),
        (lambda: OrthonormalBasis(True), "basis dim must be an integer, got True"),
        (lambda: OrthonormalBasis(2).residual(np.ones((2, 2, 2))), "expected a vector or rows"),
        (lambda: OrthonormalBasis(2).extend(np.ones((2, 2))), "expected a 1-D vector"),
    ],
    ids=["values-1d", "basis-dim-0", "basis-dim-2.7", "basis-dim-True", "residual-3d", "extend-2d"],
)
def test_shape_contracts(call, message):
    with pytest.raises(ContractViolationError, match=message):
        call()


class TestFeatureMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ContractViolationError):
            FeatureMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ContractViolationError):
            FeatureMatrix(np.empty((0, 3)))

    @pytest.mark.parametrize(
        "values, dtype",
        [
            (np.array([[1 + 2j, 3]]), "complex128"),
            (np.array([["1", "2"]]), "<U1"),
            ([[2**70, 1.0]], "object"),
        ],
        ids=["complex", "numeric-text", "object"],
    )
    def test_values_other_than_bool_int_float_rejected(self, values, dtype):
        """The float64 cast would drop an imaginary part and parse text."""
        message = f"bool, integer or float, got dtype {dtype}"
        with pytest.raises(ContractViolationError, match=message):
            FeatureMatrix(values)

    @pytest.mark.parametrize(
        "labels", [[0, 3_000_000_000], np.array([-(2**31) - 1, 0]), [0.0, np.nan]]
    )
    def test_label_outside_int32_rejected(self, labels):
        with pytest.raises(ContractViolationError, match="int32"):
            FeatureMatrix(np.ones((2, 2)), row_labels=labels)

    @pytest.mark.parametrize("labels", [[0.5, 1.7, 2.0], np.array([0.0, 1.0, -2.25])])
    def test_fractional_label_rejected(self, labels):
        """The int32 cast would truncate a fractional label silently."""
        with pytest.raises(ContractViolationError, match="whole numbers"):
            FeatureMatrix(np.ones((3, 2)), row_labels=labels)

    @pytest.mark.parametrize(
        "labels",
        [
            ["1", "2"],
            [True, False],
            ["a", "b"],
            [None, 1],
            np.array([2**31, 0], dtype=np.int64),
            np.array([2**40, 0], dtype=np.uint64),
        ],
        ids=["numeric-text", "bool", "text", "object", "int64-2^31", "uint64-2^40"],
    )
    def test_label_changed_by_the_int32_cast_rejected(self, labels):
        """Text is not parsed, a bool is not a class id, and a wide integer
        would wrap: only labels that the int32 cast keeps are stored."""
        with pytest.raises(ContractViolationError, match="whole numbers.*int32"):
            FeatureMatrix(np.ones((2, 2)), row_labels=labels)

    def test_float16_labels_kept_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fm = FeatureMatrix(np.ones((3, 2)), row_labels=np.array([0, -3, 2], np.float16))
        assert fm.row_labels.dtype == np.int32 and fm.row_labels.tolist() == [0, -3, 2]

    def test_contiguous_int32_labels_not_copied(self):
        labels = np.array([4, 1], dtype=np.int32)
        assert FeatureMatrix(np.ones((2, 2)), row_labels=labels).row_labels is labels
        strided = FeatureMatrix(np.ones((2, 2)), row_labels=np.arange(4, dtype=np.int32)[::2])
        assert strided.row_labels.flags.c_contiguous and strided.row_labels.tolist() == [0, 2]

    def test_whole_float_labels_kept(self):
        labels = FeatureMatrix(np.ones((3, 2)), row_labels=[0.0, -3.0, 2.0]).row_labels
        assert labels.dtype == np.int32 and labels.tolist() == [0, -3, 2]

    def test_int32_extremes_kept(self):
        labels = [-(2**31), 2**31 - 1]
        assert FeatureMatrix(np.ones((2, 2)), row_labels=labels).row_labels.tolist() == labels

    def test_label_length_checked(self):
        with pytest.raises(ContractViolationError):
            FeatureMatrix(np.ones((2, 2)), row_labels=np.array([0]))


class TestResidual:
    def test_simple(self):
        basis = OrthonormalBasis(2)
        basis.extend([1.0, 0.0])
        np.testing.assert_allclose(basis.residual([1.0, 1.0]), [0.0, 1.0], atol=1e-15)

    def test_zero_residual(self):
        basis = OrthonormalBasis(2)
        basis.extend([1.0, 0.0])
        np.testing.assert_allclose(basis.residual([1.0, 0.0]), [0.0, 0.0], atol=1e-15)

    def test_vector_in_span_has_tiny_residual(self):
        rng = np.random.default_rng(2)
        basis = OrthonormalBasis(8)
        rows = rng.standard_normal((3, 8))
        for row in rows:
            basis.extend(row)
        v = 1.3 * rows[0] - 0.7 * rows[1] + 2.1 * rows[2]
        res = basis.residual(v)
        assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(v)

    def test_length_mismatch(self):
        """extend checks the length through residual, with the same message."""
        for call in (OrthonormalBasis(3).residual, OrthonormalBasis(3).extend):
            with pytest.raises(ContractViolationError) as refused:
                call([1.0, 2.0])
            assert str(refused.value) == "vector length 2 does not match basis dim 3"


class TestExtendBasis:
    def test_normalizes(self):
        basis = OrthonormalBasis(2)
        e = basis.extend([3.0, 0.0])
        np.testing.assert_array_equal(e, [1.0, 0.0])

    def test_rejects_dependent(self):
        basis = OrthonormalBasis(2)
        basis.extend([1.0, 0.0])
        assert basis.extend([2.0, 0.0]) is None
        assert len(basis) == 1

    def test_orthogonal_complement(self):
        basis = OrthonormalBasis(2)
        basis.extend([1.0, 0.0])
        e = basis.extend([1.0, 1.0])
        np.testing.assert_allclose(e, [0.0, 1.0], atol=1e-15)

    def test_never_exceeds_dim(self):
        rng = np.random.default_rng(3)
        basis = OrthonormalBasis(4)
        for _ in range(20):
            basis.extend(rng.standard_normal(4))
        assert len(basis) == 4
        assert basis.extend(rng.standard_normal(4)) is None


class TestBasisProperties:
    def test_gram_is_identity(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            d = int(rng.integers(2, 12))
            basis = OrthonormalBasis(d)
            for _ in range(int(rng.integers(1, 2 * d))):
                basis.extend(rng.standard_normal(d))
            gram = basis.vectors @ basis.vectors.T
            np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-9)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = 10
            basis = OrthonormalBasis(d)
            for _ in range(5):
                basis.extend(rng.standard_normal(d))
            v = rng.standard_normal(d)
            coeffs = basis.vectors @ v
            rebuilt = basis.residual(v) + basis.vectors.T @ coeffs
            assert np.linalg.norm(rebuilt - v) <= 1e-9 * np.linalg.norm(v)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((6, 5))

        def build():
            b = OrthonormalBasis(5)
            for row in rows:
                b.extend(row)
            return b.vectors

        np.testing.assert_array_equal(build(), build())
