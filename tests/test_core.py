import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdbounds.core import (
    DimensionMismatch,
    DomainError,
    EmptyMatrix,
    LabelMatrix,
    LabelSet,
    LengthMismatch,
    OutOfRangeLabel,
    Prior,
    WorkerModel,
    argmax_labels,
    error_rate,
    normalize_log_posteriors,
    posterior,
    validate_label_matrix,
)


def random_worker_model(rng, num_workers, num_classes):
    """A random full-table model with strictly positive rows."""
    raw = rng.uniform(0.05, 1.0, size=(num_workers, num_classes, num_classes))
    return WorkerModel.gds(raw / raw.sum(axis=2, keepdims=True))


def random_label_matrix(rng, num_workers, num_items, num_classes, density=0.7):
    data = rng.integers(1, num_classes + 1, size=(num_workers, num_items))
    data[rng.random((num_workers, num_items)) > density] = 0
    return LabelMatrix.from_dense(data, num_classes)


class TestValidateLabelMatrix:
    def test_mask_derivation(self):
        matrix = validate_label_matrix([[1, 2], [0, 1]], LabelSet(2))
        assert (matrix.dense() != 0).astype(int).tolist() == [[1, 1], [0, 1]]
        assert matrix.num_workers == 2 and matrix.num_items == 2

    def test_out_of_range_is_reported_one_based(self):
        with pytest.raises(OutOfRangeLabel) as excinfo:
            validate_label_matrix([[3, 0]], LabelSet(2))
        assert (excinfo.value.worker, excinfo.value.item) == (1, 1)
        assert excinfo.value.value == 3

    def test_all_missing_grid_is_valid(self):
        matrix = validate_label_matrix([[0, 0], [0, 0]], LabelSet(2))
        assert matrix.num_labels == 0

    def test_empty_grid(self):
        with pytest.raises(EmptyMatrix):
            validate_label_matrix(np.zeros((0, 3), dtype=int), LabelSet(2))

    def test_ragged_grid(self):
        with pytest.raises(DomainError):
            validate_label_matrix([[1, 2], [1]], LabelSet(2))

    def test_binary_convention_maps_signs(self):
        matrix = validate_label_matrix([[1, -1, 0]], LabelSet(2, binary_convention=True))
        assert matrix.dense().tolist() == [[1, 2, 0]]

    def test_binary_convention_rejects_plain_two(self):
        with pytest.raises(OutOfRangeLabel):
            validate_label_matrix([[2]], LabelSet(2, binary_convention=True))


class TestPosterior:
    def test_single_worker_bayes(self):
        # One worker of accuracy 0.8 voting class 1 under a uniform prior.
        model = WorkerModel.hds([0.8], 2)
        labels = LabelMatrix.from_dense(np.array([[1]]), 2)
        rho = posterior(model, Prior.uniform(2), labels)
        assert rho[0, 0] == pytest.approx(0.8, abs=1e-12)

    def test_uninformative_likelihood(self):
        model = WorkerModel.gds(np.full((3, 4, 4), 0.25))
        labels = LabelMatrix.from_dense(np.array([[1, 2], [3, 4], [2, 2]]), 4)
        rho = posterior(model, Prior.uniform(4), labels)
        assert np.allclose(rho, 0.25, atol=1e-12)

    def test_noiseless_consistent_column(self):
        model = WorkerModel.hds([1.0, 1.0, 1.0], 3)
        labels = LabelMatrix.from_dense(np.array([[2], [2], [2]]), 3)
        rho = posterior(model, Prior.uniform(3), labels)
        assert rho[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        model = WorkerModel.hds([0.8, 0.9], 2)
        labels = LabelMatrix.from_dense(np.array([[1]]), 2)
        with pytest.raises(DimensionMismatch):
            posterior(model, Prior.uniform(2), labels)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5),
           st.integers(1, 8), st.integers(1, 12))
    def test_rows_sum_to_one(self, seed, L, M, N):
        rng = np.random.default_rng(seed)
        model = random_worker_model(rng, M, L)
        labels = random_label_matrix(rng, M, N, L)
        prior_raw = rng.uniform(0.1, 1.0, L)
        rho = posterior(model, Prior(prior_raw / prior_raw.sum()), labels)
        assert np.abs(rho.sum(axis=1) - 1.0).max() <= 1e-9
        assert rho.min() >= 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
    def test_global_log_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        log_scores = rng.uniform(-30, 0, size=(6, 3))
        base = normalize_log_posteriors(log_scores)
        shifted = normalize_log_posteriors(log_scores + shift)
        assert np.abs(base - shifted).max() <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from(["sds", "hds"]))
    def test_restricted_models_match_their_expansion_bitwise(self, seed, L, kind):
        rng = np.random.default_rng(seed)
        M, N = 4, 6
        if kind == "sds":
            model = WorkerModel.sds(rng.uniform(0.2, 0.95, size=(M, L)))
        else:
            model = WorkerModel.hds(rng.uniform(0.2, 0.95, size=M), L)
        expanded = WorkerModel.gds(model.as_gds())
        labels = random_label_matrix(rng, M, N, L)
        prior = Prior.uniform(L)
        assert np.array_equal(posterior(model, prior, labels),
                              posterior(expanded, prior, labels))


class TestErrorRate:
    def test_identical(self):
        assert error_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_fully_disagreeing(self):
        assert error_rate([1, 1], [2, 2]) == 1.0

    def test_half(self):
        assert error_rate([1, 2, 1, 2], [1, 2, 2, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            error_rate([1, 2], [1])


class TestArgmaxLabels:
    def test_lowest_breaks_ties(self):
        assert argmax_labels(np.array([[1.0, 1.0], [0.0, 2.0]])).tolist() == [1, 2]

    def test_random_policy_is_seeded(self):
        scores = np.zeros((50, 3))
        rng = np.random.default_rng(5)
        first = argmax_labels(scores, tie_break="random", rng=rng)
        again = argmax_labels(scores, tie_break="random",
                              rng=np.random.default_rng(5))
        assert np.array_equal(first, again)
        assert set(np.unique(first)) <= {1, 2, 3}
        with pytest.raises(DomainError):
            argmax_labels(scores, tie_break="random")


class TestModelValidation:
    def test_gds_rows_must_sum_to_one(self):
        bad = np.full((1, 2, 2), 0.6)
        with pytest.raises(DomainError):
            WorkerModel.gds(bad)

    def test_prior_must_sum_to_one(self):
        with pytest.raises(DomainError):
            Prior(np.array([0.5, 0.6]))

    def test_assignment_probabilities_positive(self):
        from crowdbounds.core import AssignmentModel
        with pytest.raises(DomainError):
            AssignmentModel.constant(0.0)

    def test_sds_expansion_structure(self):
        model = WorkerModel.sds([[0.7, 0.4]])
        table = model.as_gds()[0]
        assert table[0].tolist() == pytest.approx([0.7, 0.3])
        assert table[1].tolist() == pytest.approx([0.6, 0.4])

    def test_rule_missing_constant_enforced(self):
        from crowdbounds.core import DecomposableRule
        scores = np.zeros((2, 2, 3))
        scores[0, 0, 0] = 1.0  # worker 0 scores missing labels differently
        with pytest.raises(DomainError):
            DecomposableRule(scores, np.zeros(2))

    def test_binary_rates_view(self):
        model = WorkerModel.gds([[[0.8, 0.2], [0.3, 0.7]]])
        p_plus, p_minus = model.binary_rates()
        assert p_plus[0] == pytest.approx(0.8)
        assert p_minus[0] == pytest.approx(0.7)
        from crowdbounds.core import NotBinary
        with pytest.raises(NotBinary):
            WorkerModel.hds([0.8], 3).binary_rates()

    def test_label_set_round_trip_is_a_bijection(self):
        label_set = LabelSet(2, binary_convention=True)
        external = np.array([[1, -1, 0], [0, 1, -1]])
        assert np.array_equal(label_set.to_external(
            label_set.to_internal(external)), external)
        internal = np.array([[1, 2, 0]])
        assert np.array_equal(label_set.to_internal(
            label_set.to_external(internal)), internal)
