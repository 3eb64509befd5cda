"""Votes score one weight per label (``LabelMatrix.vote_scores``); the
weighted indicator rule they stand for gathers L entries per label through
``item_scores``. The two must agree to the bit, predictions included, and a
vote must not build the rule path's per-label x L gather keys."""

import numpy as np
import pytest

from crowdbounds.aggregate import (
    decomposable_predict,
    hyperplane_predict,
    iwmv,
    majority_vote,
    one_step_wmv,
    weighted_majority_vote,
)
from crowdbounds.core import (
    DecomposableRule,
    DimensionMismatch,
    DomainError,
    LabelMatrix,
)
from crowdbounds.em import EmConfig, em_fit

RULE_KEYS = ("_worker_keys", "_item_keys")


def random_labels(rng, L):
    """A sparse label matrix with a silent worker and an unlabelled item."""
    M, N = rng.integers(2, 30), rng.integers(2, 60)
    grid = rng.integers(1, L + 1, size=(M, N))
    grid[rng.random((M, N)) > rng.uniform(0.1, 1.0)] = 0
    grid[rng.integers(M)] = 0
    grid[:, rng.integers(N)] = 0
    return LabelMatrix.from_dense(grid, L)


def random_weights(rng, M):
    """Weights with ties, signed zeros and both signs."""
    kind = rng.integers(3)
    if kind == 0:
        weights = rng.normal(size=M)
    elif kind == 1:
        weights = rng.integers(-2, 3, size=M).astype(float)
    else:
        weights = np.log(rng.uniform(0.01, 0.99, size=M) / 0.5)
    weights[rng.random(M) < 0.2] = 0.0
    weights[rng.random(M) < 0.2] = -0.0
    return weights


def random_shifts(rng, L):
    shifts = rng.normal(size=L)
    shifts[rng.random(L) < 0.3] = 0.0
    shifts[rng.random(L) < 0.3] = -0.0
    return shifts


@pytest.mark.filterwarnings("ignore:all worker weights are zero")
@pytest.mark.parametrize("L", range(2, 13))
def test_votes_match_the_weighted_indicator_rule_to_the_bit(L):
    rng = np.random.default_rng(1000 + L)
    for _ in range(40):
        labels = random_labels(rng, L)
        M = labels.num_workers
        weights = random_weights(rng, M)
        shifts = random_shifts(rng, L)
        rule = DecomposableRule.weighted_indicator(weights, L, shifts)
        assert (labels.vote_scores(weights, shifts).tobytes()
                == labels.item_scores(rule.scores, rule.shifts).tobytes())
        assert np.array_equal(weighted_majority_vote(labels, weights, shifts),
                              decomposable_predict(labels, rule))
        plain = DecomposableRule.weighted_indicator(weights, L)
        assert (labels.vote_scores(weights).tobytes()
                == labels.item_scores(plain.scores, plain.shifts).tobytes())
        assert np.array_equal(weighted_majority_vote(labels, weights),
                              decomposable_predict(labels, plain))
        assert np.array_equal(
            majority_vote(labels),
            decomposable_predict(labels, DecomposableRule.indicator(M, L)))
        if L == 2:
            shift = shifts[0]
            expected = decomposable_predict(
                labels, DecomposableRule.weighted_indicator(
                    weights, 2, (shift, 0.0)))
            assert np.array_equal(hyperplane_predict(labels, weights, shift),
                                  np.where(expected == 1, 1, -1))


@pytest.mark.parametrize("L", (2, 3, 9))
def test_all_zero_weights_still_warn_and_tie_to_the_lowest_class(L):
    labels = random_labels(np.random.default_rng(L), L)
    for zeros in (np.zeros(labels.num_workers),
                  np.full(labels.num_workers, -0.0)):
        rule = DecomposableRule.weighted_indicator(zeros, L)
        with pytest.warns(UserWarning, match="all worker weights are zero"):
            predicted = weighted_majority_vote(labels, zeros)
        assert np.array_equal(predicted, decomposable_predict(labels, rule))
        assert (predicted == 1).all()


@pytest.mark.parametrize("shifts, error", [
    ((0.0, 1.0), DimensionMismatch),
    ((0.0, 1.0, 2.0, 3.0), DimensionMismatch),
    ([[0.0, 1.0, 2.0]], DimensionMismatch),
    ((0.0, np.nan, 1.0), DomainError),
    ((0.0, np.inf, 1.0), DomainError),
])
def test_bad_shifts_raise_what_the_rule_raised(shifts, error):
    labels = random_labels(np.random.default_rng(0), 3)
    weights = np.ones(labels.num_workers)
    with pytest.raises(error) as rule_error:
        DecomposableRule.weighted_indicator(weights, 3, shifts)
    with pytest.raises(error, match=str(rule_error.value)):
        weighted_majority_vote(labels, weights, shifts)


def test_bad_hyperplane_shift_raises_what_the_rule_raised():
    labels = random_labels(np.random.default_rng(1), 2)
    with pytest.raises(DomainError, match="scores and shifts must be finite"):
        hyperplane_predict(labels, np.ones(labels.num_workers), np.nan)


VOTE_PASSES = {
    "majority_vote": majority_vote,
    "weighted_majority_vote":
        lambda labels: weighted_majority_vote(
            labels, np.linspace(-1.0, 2.0, labels.num_workers),
            np.arange(labels.num_classes, dtype=float)),
    "iwmv-linear": lambda labels: iwmv(labels, weight_mode="linear"),
    "iwmv-log": lambda labels: iwmv(labels, weight_mode="log"),
    "one_step_wmv": one_step_wmv,
}


@pytest.mark.parametrize("L", (2, 4))
@pytest.mark.parametrize("name", sorted(VOTE_PASSES))
def test_votes_build_no_rule_keys(name, L):
    labels = random_labels(np.random.default_rng(7), L)
    VOTE_PASSES[name](labels)
    assert not set(RULE_KEYS) & set(vars(labels))


def test_hyperplane_builds_no_rule_keys():
    labels = random_labels(np.random.default_rng(8), 2)
    hyperplane_predict(labels, np.ones(labels.num_workers), 0.5)
    assert not set(RULE_KEYS) & set(vars(labels))


@pytest.mark.parametrize("kind", ("gds", "hds"))
def test_em_still_builds_the_rule_keys(kind):
    """The guard above sees the keys when they are built."""
    labels = random_labels(np.random.default_rng(9), 3)
    em_fit(labels, EmConfig(kind, max_iters=2))
    assert set(RULE_KEYS) <= set(vars(labels))
