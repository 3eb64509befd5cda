"""Label-aggregation rules: majority voting and its weighted, decomposable,
hyperplane, oracle-MAP, iterative and one-step variants.

Every rule funnels through one score-accumulation kernel and one argmax,
which resolves ties to the lowest class. Votes gather one weight per label,
rules the L entries of the label's row; the indicator rule's other entries
are +0.0, which change no bit of a bincount sum, so the documented reductions
(indicator scores == majority voting, weighted indicators == weighted
voting, ...) hold bit-for-bit and not just up to rounding.
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
    check_accuracies,
)

# IWMV's log-odds weights clip the estimated accuracies to [LOG_CLIP,
# 1 - LOG_CLIP] so that a worker who always or never agrees with the current
# predictions still gets a finite weight.
LOG_CLIP = 1e-3


class WeightLengthMismatch(ValueError):
    """The weight vector does not have one entry per worker."""


def decomposable_predict(labels: LabelMatrix, rule: DecomposableRule) -> np.ndarray:
    """Predict each item as the class with the highest aggregated score."""
    if rule.num_workers != labels.num_workers:
        raise DimensionMismatch("rule and label matrix worker counts differ")
    if rule.num_classes != labels.num_classes:
        raise DimensionMismatch("rule and label matrix class counts differ")
    return argmax_labels(labels.item_scores(rule.scores, rule.shifts))


def majority_vote(labels: LabelMatrix) -> np.ndarray:
    """Most frequent label per item; missing entries contribute nothing."""
    return argmax_labels(labels.vote_scores(np.ones(labels.num_workers)))


def weighted_majority_vote(labels: LabelMatrix, weights, shifts=None) -> np.ndarray:
    """Per-item argmax of weighted vote counts plus optional class shifts."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (labels.num_workers,):
        raise WeightLengthMismatch("need exactly one weight per worker")
    if not np.isfinite(weights).all():
        raise DomainError("weights must be finite")
    if not weights.any():
        warnings.warn("all worker weights are zero; every item is a tie",
                      stacklevel=2)
    if shifts is None:
        return argmax_labels(labels.vote_scores(weights))
    shifts = np.asarray(shifts, dtype=float)  # DecomposableRule's checks
    if shifts.shape != (labels.num_classes,):
        raise DimensionMismatch("shift vector must have one entry per class")
    if not np.isfinite(shifts).all():
        raise DomainError("scores and shifts must be finite")
    return argmax_labels(labels.vote_scores(weights, shifts))


def hyperplane_predict(labels: LabelMatrix, weights,
                       shift: float = 0.0) -> np.ndarray:
    """Binary rule sign(sum_i v_i z_ij + a) in the +/-1 convention.

    Implemented as weighted voting with class shifts (+a, 0); a zero score
    resolves to +1 (the tie policy's class 1).
    """
    if labels.num_classes != 2:
        raise NotBinary("the hyperplane rule is defined for two classes")
    internal = weighted_majority_vote(labels, weights, shifts=(shift, 0.0))
    return np.where(internal == 1, 1, -1)


def oracle_map_predict(labels: LabelMatrix, model: WorkerModel,
                       prior: Prior) -> np.ndarray:
    """Bayes-classifier predictions using the true model parameters."""
    return decomposable_predict(labels, DecomposableRule.oracle_map(model, prior))


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
    return num_classes * check_accuracies(accuracies) - 1.0


@dataclass(frozen=True)
class IwmvResult:
    predictions: np.ndarray
    accuracies: np.ndarray
    weights: np.ndarray
    iterations: int
    converged: bool


def iwmv(labels: LabelMatrix, max_iters: int = 100, weight_mode: str = "linear",
         stop_on_convergence: bool = True) -> IwmvResult:
    """Iterative weighted majority voting.

    Starting from unit weights, alternate: vote, score every worker by
    agreement with the current predictions, reweight (``linear``: L w - 1;
    ``log``: clamped log odds), and stop as soon as the prediction vector
    repeats or ``max_iters`` is reached. The returned predictions come from
    one final vote with the last weights. A worker with no labels gets
    accuracy 1/L, hence weight zero.
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
    classes = np.arange(1, L + 1)
    for _ in range(max_iters):
        predicted = weighted_majority_vote(labels, weights)
        iterations += 1
        accuracies = labels.worker_accuracies(predicted[:, None] == classes)
        if weight_mode == "linear":
            weights = L * accuracies - 1.0
        else:
            clipped = np.clip(accuracies, LOG_CLIP, 1.0 - LOG_CLIP)
            weights = np.log((L - 1) * clipped / (1.0 - clipped))
        if stop_on_convergence and previous is not None and np.array_equal(
                predicted, previous):
            converged = True
            break
        previous = predicted
    predictions = weighted_majority_vote(labels, weights)
    return IwmvResult(predictions, accuracies, weights, iterations, converged)


def one_step_wmv(labels: LabelMatrix) -> np.ndarray:
    """Majority vote, estimate accuracies against it, vote once reweighted:
    IWMV stopped after its first iteration."""
    return iwmv(labels, max_iters=1).predictions
