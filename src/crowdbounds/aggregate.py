"""Label-aggregation rules: majority voting and its weighted, decomposable,
hyperplane, oracle-MAP, iterative and one-step variants.

Every rule funnels through one score-accumulation kernel and one
argmax-with-tie-break kernel, so the documented reductions (indicator scores
== majority voting, weighted indicators == weighted voting, ...) hold
bit-for-bit and not just up to rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    DecomposableRule,
    DimensionMismatch,
    DomainError,
    LabelMatrix,
    NotBinary,
    Prior,
    WorkerModel,
    argmax_labels,
)


class WeightLengthMismatch(ValueError):
    """The weight vector does not have one entry per worker."""


def _aggregate_scores(labels: LabelMatrix, rule: DecomposableRule) -> np.ndarray:
    """Per-item, per-class aggregated scores for a decomposable rule.

    The missing-label column ``h = 0`` is left out: it holds one rule-wide
    constant, which shifts every class of an item alike and so cannot
    change a prediction.
    """
    if rule.num_workers != labels.num_workers:
        raise DimensionMismatch("rule and label matrix worker counts differ")
    if rule.num_classes != labels.num_classes:
        raise DimensionMismatch("rule and label matrix class counts differ")
    return labels.item_scores(rule.scores[:, :, 1:].transpose(0, 2, 1),
                              rule.shifts)


def decomposable_predict(labels: LabelMatrix, rule: DecomposableRule,
                         tie_break: str = "lowest",
                         rng: np.random.Generator | None = None) -> np.ndarray:
    """Predict each item as the class with the highest aggregated score."""
    return argmax_labels(_aggregate_scores(labels, rule), tie_break, rng)


def majority_vote(labels: LabelMatrix, tie_break: str = "lowest",
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Most frequent label per item; missing entries contribute nothing."""
    rule = DecomposableRule.indicator(labels.num_workers, labels.num_classes)
    return decomposable_predict(labels, rule, tie_break, rng)


def weighted_majority_vote(labels: LabelMatrix, weights, shifts=None,
                           tie_break: str = "lowest",
                           rng: np.random.Generator | None = None) -> np.ndarray:
    """Per-item argmax of weighted vote counts plus optional class shifts."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (labels.num_workers,):
        raise WeightLengthMismatch("need exactly one weight per worker")
    if not np.isfinite(weights).all():
        raise DomainError("weights must be finite")
    if not weights.any():
        warnings.warn("all worker weights are zero; every item is a tie",
                      stacklevel=2)
    rule = DecomposableRule.weighted_indicator(weights, labels.num_classes, shifts)
    return decomposable_predict(labels, rule, tie_break, rng)


def hyperplane_predict(labels: LabelMatrix, weights, shift: float = 0.0,
                       tie_break: str = "lowest",
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """Binary rule sign(sum_i v_i z_ij + a) in the +/-1 convention.

    Implemented as weighted voting with class shifts (+a, 0); a zero score
    resolves to +1 (the tie policy's class 1).
    """
    if labels.num_classes != 2:
        raise NotBinary("the hyperplane rule is defined for two classes")
    internal = weighted_majority_vote(labels, weights, shifts=(shift, 0.0),
                                      tie_break=tie_break, rng=rng)
    return np.where(internal == 1, 1, -1)


def oracle_map_predict(labels: LabelMatrix, model: WorkerModel, prior: Prior,
                       tie_break: str = "lowest",
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """Bayes-classifier predictions using the true model parameters."""
    return decomposable_predict(labels, DecomposableRule.oracle_map(model, prior),
                                tie_break, rng)


def oracle_map_weights_hds(accuracies, num_classes: int) -> np.ndarray:
    """Log-odds-versus-random weights ln((L-1) w / (1 - w)).

    Under the single-accuracy worker model with balanced classes, weighted
    voting with these weights reproduces the Bayes classifier. Accuracies are
    clamped away from 0 and 1 to keep the logs finite.
    """
    w = np.clip(np.asarray(accuracies, dtype=float), 1e-12, 1 - 1e-12)
    return np.log((num_classes - 1) * w / (1.0 - w))


def bound_optimal_weights(accuracies, num_classes: int) -> np.ndarray:
    """Weights L w - 1: linear in accuracy, zero at random guessing.

    These maximise the normalized expected score gap over all weight
    choices, hence minimise the mean-error upper bound; adversarial workers
    (w < 1/L) get negative weight.
    """
    w = np.asarray(accuracies, dtype=float)
    if w.size and (w.min() < 0 or w.max() > 1):
        raise DomainError("accuracies must lie in [0, 1]")
    return num_classes * w - 1.0


def _agreement_accuracies(labels: LabelMatrix, predictions: np.ndarray) -> np.ndarray:
    """Fraction of each worker's labels that agree with the given predictions.

    A worker with no labels is scored 1/L, which maps to zero weight under
    both weighting schemes.
    """
    one_hot = predictions[:, None] == np.arange(1, labels.num_classes + 1)
    agree = labels.agreement(one_hot)
    counts = labels.labels_per_worker()
    out = np.full(labels.num_workers, 1.0 / labels.num_classes)
    has_labels = counts > 0
    out[has_labels] = agree[has_labels] / counts[has_labels]
    return out


@dataclass(frozen=True)
class IwmvResult:
    predictions: np.ndarray
    accuracies: np.ndarray
    weights: np.ndarray
    iterations: int
    converged: bool


def iwmv(labels: LabelMatrix, max_iters: int = 100, weight_mode: str = "linear",
         log_clip: float = 1e-3, tie_break: str = "lowest",
         rng: np.random.Generator | None = None,
         stop_on_convergence: bool = True) -> IwmvResult:
    """Iterative weighted majority voting.

    Starting from unit weights, alternate: vote, score every worker by
    agreement with the current predictions, reweight (``linear``: L w - 1;
    ``log``: clamped log odds), and stop as soon as the prediction vector
    repeats or ``max_iters`` is reached. The returned predictions come from
    one final vote with the last weights.
    """
    if max_iters < 1:
        raise DomainError("at least one iteration is required")
    if weight_mode not in ("linear", "log"):
        raise DomainError(f"unknown weight mode {weight_mode!r}")
    L = labels.num_classes
    weights = np.ones(labels.num_workers)
    accuracies = np.full(labels.num_workers, 1.0 / L)
    previous = None
    iterations = 0
    converged = False
    for _ in range(max_iters):
        predicted = weighted_majority_vote(labels, weights,
                                           tie_break=tie_break, rng=rng)
        iterations += 1
        accuracies = _agreement_accuracies(labels, predicted)
        if weight_mode == "linear":
            weights = L * accuracies - 1.0
        else:
            clipped = np.clip(accuracies, log_clip, 1.0 - log_clip)
            weights = np.log((L - 1) * clipped / (1.0 - clipped))
        if stop_on_convergence and previous is not None and np.array_equal(
                predicted, previous):
            converged = True
            break
        previous = predicted
    predictions = weighted_majority_vote(labels, weights,
                                         tie_break=tie_break, rng=rng)
    return IwmvResult(predictions, accuracies, weights, iterations, converged)


def one_step_wmv(labels: LabelMatrix, tie_break: str = "lowest",
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Majority vote, estimate accuracies against it, vote once reweighted."""
    baseline = majority_vote(labels, tie_break=tie_break, rng=rng)
    accuracies = _agreement_accuracies(labels, baseline)
    weights = labels.num_classes * accuracies - 1.0
    return weighted_majority_vote(labels, weights, tie_break=tie_break, rng=rng)
