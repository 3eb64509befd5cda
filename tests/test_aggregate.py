import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdbounds.core import (
    DecomposableRule,
    DomainError,
    LabelMatrix,
    NotBinary,
    Prior,
    WorkerModel,
    argmax_labels,
    posterior,
)
from crowdbounds.aggregate import (
    WeightLengthMismatch,
    bound_optimal_weights,
    decomposable_predict,
    hyperplane_predict,
    iwmv,
    majority_vote,
    one_step_wmv,
    oracle_map_predict,
    oracle_map_weights_hds,
    weighted_majority_vote,
)
from crowdbounds.simulate import AssignmentModel, SimConfig, simulate_dataset

from test_core import random_label_matrix


def matrix(rows, L=2):
    return LabelMatrix.from_dense(np.array(rows), L)


class TestMajorityVote:
    def test_hand_count(self):
        assert majority_vote(matrix([[1], [1], [2]])).tolist() == [1]

    def test_tie_goes_to_smallest_class(self):
        assert majority_vote(matrix([[1], [2]])).tolist() == [1]

    def test_all_missing_column(self):
        assert majority_vote(matrix([[0, 1], [0, 1]])).tolist() == [1, 1]


class TestWeightedMajorityVote:
    def test_unit_weights_reduce_to_majority(self):
        rng = np.random.default_rng(0)
        labels = random_label_matrix(rng, 7, 40, 3)
        assert np.array_equal(weighted_majority_vote(labels, np.ones(7)),
                              majority_vote(labels))

    def test_hand_arithmetic(self):
        labels = matrix([[1], [2], [2]])
        assert weighted_majority_vote(labels, [2.0, 1.0, -1.0]).tolist() == [1]

    def test_all_zero_weights_warn_and_tie(self):
        labels = matrix([[1], [2], [2]])
        with pytest.warns(UserWarning):
            predictions = weighted_majority_vote(labels, [0.0, 0.0, 0.0])
        assert predictions.tolist() == [1]

    def test_weight_length_checked(self):
        with pytest.raises(WeightLengthMismatch):
            weighted_majority_vote(matrix([[1], [2]]), [1.0])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
    def test_argmax_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        labels = random_label_matrix(rng, 5, 25, 3)
        weights = rng.normal(size=5)
        assert np.array_equal(weighted_majority_vote(labels, weights),
                              weighted_majority_vote(labels, scale * weights))


class TestDecomposableReductions:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_indicator_rule_is_majority_vote_bitwise(self, seed, L):
        rng = np.random.default_rng(seed)
        labels = random_label_matrix(rng, 6, 30, L)
        rule = DecomposableRule.indicator(6, L)
        assert np.array_equal(decomposable_predict(labels, rule),
                              majority_vote(labels))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_weighted_indicator_rule_is_wmv_bitwise(self, seed, L):
        rng = np.random.default_rng(seed)
        labels = random_label_matrix(rng, 6, 30, L)
        weights = rng.normal(size=6)
        rule = DecomposableRule.weighted_indicator(weights, L)
        assert np.array_equal(decomposable_predict(labels, rule),
                              weighted_majority_vote(labels, weights))

    def test_log_table_rule_matches_posterior_argmax(self):
        # oracle_map_predict runs through the shared kernel; the reference
        # is the argmax of the separately computed posterior.
        for seed in range(80):
            inner = np.random.default_rng(seed)
            L = int(inner.integers(2, 5))
            M = int(inner.integers(2, 7))
            if seed % 2:
                model = WorkerModel.hds(inner.uniform(0.0, 1.0, M), L)
            else:
                raw = inner.uniform(0.05, 1.0, size=(M, L, L))
                model = WorkerModel.gds(raw / raw.sum(axis=2, keepdims=True))
            prior_raw = inner.uniform(0.2, 1.0, L)
            prior = Prior(prior_raw / prior_raw.sum())
            labels = random_label_matrix(inner, M, 30, L)
            reference = argmax_labels(posterior(model, prior, labels))
            rule = DecomposableRule.oracle_map(model, prior)
            assert np.array_equal(decomposable_predict(labels, rule), reference)
            assert np.array_equal(oracle_map_predict(labels, model, prior),
                                  reference)


class TestHyperplane:
    def test_majority_of_signs(self):
        labels = matrix([[1], [1], [2]])  # (+1, +1, -1)
        assert hyperplane_predict(labels, [1.0, 1.0, 1.0]).tolist() == [1]

    def test_zero_score_resolves_positive(self):
        labels = matrix([[1], [2]])
        assert hyperplane_predict(labels, [1.0, 1.0]).tolist() == [1]

    def test_shift_dominates(self):
        labels = matrix([[1], [1]])
        assert hyperplane_predict(labels, [1.0, 1.0], shift=-3.0).tolist() == [-1]

    def test_requires_binary(self):
        with pytest.raises(NotBinary):
            hyperplane_predict(matrix([[1], [2], [3]], L=3), np.ones(3))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3))
    def test_equals_decomposable_construction(self, seed, shift):
        rng = np.random.default_rng(seed)
        labels = random_label_matrix(rng, 5, 25, 2)
        weights = rng.normal(size=5)
        rule = DecomposableRule.weighted_indicator(weights, 2,
                                                   shifts=(shift, 0.0))
        internal = decomposable_predict(labels, rule)
        external = hyperplane_predict(labels, weights, shift)
        assert np.array_equal(external, np.where(internal == 1, 1, -1))


class TestOracleMap:
    def test_noiseless_recovers_truth(self):
        out = simulate_dataset(SimConfig(
            3, 40, 3, Prior.uniform(3), AssignmentModel.constant(1.0),
            WorkerModel.hds([1.0, 1.0, 1.0], 3), seed=0))
        predictions = oracle_map_predict(out.labels,
                                         WorkerModel.hds([1.0] * 3, 3),
                                         Prior.uniform(3))
        assert np.array_equal(predictions, out.truth)

    def test_uninformative_model_predicts_prior_argmax(self):
        model = WorkerModel.gds(np.full((2, 2, 2), 0.5))
        labels = matrix([[1, 2, 2], [2, 2, 1]])
        predictions = oracle_map_predict(labels, model, Prior([0.7, 0.3]))
        assert predictions.tolist() == [1, 1, 1]

    def test_matches_wmv_with_log_odds_weights(self):
        # Balanced prior: the posterior argmax is a weighted vote.
        for seed in range(60):
            rng = np.random.default_rng(seed)
            L = int(rng.integers(2, 5))
            M = int(rng.integers(2, 9))
            accuracies = rng.uniform(0.15, 0.95, M)
            labels = random_label_matrix(rng, M, 40, L)
            map_pred = oracle_map_predict(labels, WorkerModel.hds(accuracies, L),
                                          Prior.uniform(L))
            wmv_pred = weighted_majority_vote(
                labels, oracle_map_weights_hds(accuracies, L))
            assert np.array_equal(map_pred, wmv_pred)


class TestWeightMaps:
    def test_random_guess_gets_zero_weight(self):
        assert oracle_map_weights_hds([0.5], 2)[0] == pytest.approx(0.0)
        assert oracle_map_weights_hds([1 / 3], 3)[0] == pytest.approx(0.0)
        assert bound_optimal_weights([1 / 3], 3)[0] == pytest.approx(0.0)

    def test_log_odds_value(self):
        assert oracle_map_weights_hds([0.9], 2)[0] == pytest.approx(
            np.log(9.0), abs=1e-12)

    def test_linear_values(self):
        assert bound_optimal_weights([0.9], 2)[0] == pytest.approx(0.8)
        assert bound_optimal_weights([0.1], 2)[0] == pytest.approx(-0.8)

    def test_extreme_accuracies_stay_finite(self):
        weights = oracle_map_weights_hds([0.0, 1.0], 2)
        assert np.isfinite(weights).all()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 1 - 1e-6), st.integers(2, 6))
    def test_sign_agreement_of_the_two_weightings(self, accuracy, L):
        log_odds = oracle_map_weights_hds([accuracy], L)[0]
        linear = bound_optimal_weights([accuracy], L)[0]
        assert np.sign(log_odds) == np.sign(linear) or (
            abs(log_odds) < 1e-9 and abs(linear) < 1e-9)


class TestIwmv:
    def test_noiseless_converges_second_iteration(self):
        out = simulate_dataset(SimConfig(
            4, 30, 3, Prior.uniform(3), AssignmentModel.constant(1.0),
            WorkerModel.hds([1.0] * 4, 3), seed=1))
        result = iwmv(out.labels)
        assert result.converged and result.iterations == 2
        assert np.allclose(result.accuracies, 1.0)
        assert np.allclose(result.weights, 3 - 1)
        assert np.array_equal(result.predictions, out.truth)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_single_iteration_equals_one_step(self, seed, L):
        rng = np.random.default_rng(seed)
        labels = random_label_matrix(rng, 5, 25, L)
        result = iwmv(labels, max_iters=1)
        assert np.array_equal(result.predictions, one_step_wmv(labels))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["linear", "log"]))
    def test_terminates_within_cap(self, seed, mode):
        rng = np.random.default_rng(seed)
        labels = random_label_matrix(rng, 6, 20, 3, density=0.6)
        result = iwmv(labels, max_iters=25, weight_mode=mode)
        assert result.iterations <= 25
        assert result.accuracies.min() >= 0 and result.accuracies.max() <= 1

    def test_zero_label_worker_gets_uninformative_accuracy(self):
        labels = matrix([[1, 2, 1], [0, 0, 0]])
        result = iwmv(labels)
        assert result.accuracies[1] == pytest.approx(0.5)
        assert result.weights[1] == pytest.approx(0.0)

    def test_log_mode_clamps_weights(self):
        out = simulate_dataset(SimConfig(
            3, 20, 2, Prior.uniform(2), AssignmentModel.constant(1.0),
            WorkerModel.hds([1.0] * 3, 2), seed=3))
        result = iwmv(out.labels, weight_mode="log")
        expected = np.log((2 - 1) * (1 - 1e-3) / 1e-3)
        assert np.allclose(result.weights, expected)

    def test_beats_majority_vote_with_a_spammer(self):
        # Two strong workers plus a near-spammer: reweighting should not
        # lose to the flat vote in the overwhelming majority of trials.
        wins = 0
        for seed in range(100):
            out = simulate_dataset(SimConfig(
                3, 500, 2, Prior.uniform(2), AssignmentModel.constant(1.0),
                WorkerModel.hds([0.9, 0.9, 0.55], 2), seed=seed))
            iw = iwmv(out.labels).predictions
            mv = majority_vote(out.labels)
            wins += (iw != out.truth).mean() <= (mv != out.truth).mean()
        assert wins > 50

    def test_rejects_bad_mode(self):
        with pytest.raises(DomainError):
            iwmv(matrix([[1], [2]]), weight_mode="squared")


class TestOneStepWmv:
    def test_noiseless_equals_truth(self):
        out = simulate_dataset(SimConfig(
            5, 40, 2, Prior.uniform(2), AssignmentModel.constant(1.0),
            WorkerModel.hds([1.0] * 5, 2), seed=4))
        assert np.array_equal(one_step_wmv(out.labels), out.truth)

    def test_unanimous_workers_reduce_to_majority(self):
        column = np.array([[1, 2, 2, 1]])
        labels = LabelMatrix.from_dense(np.repeat(column, 4, axis=0), 2)
        assert np.array_equal(one_step_wmv(labels), majority_vote(labels))
