"""Maximum-likelihood estimation of worker reliability via EM, plus the
MAP prediction rule built on the fitted posteriors.

Supports the full confusion-table model ("gds") and the single-accuracy
model ("hds"). No priors are placed on the parameters; this is plain
maximum likelihood with majority-vote initialization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    DomainError,
    LabelMatrix,
    Prior,
    WorkerModel,
    argmax_labels,
    map_scores,
    symmetric_tables,
)
from .aggregate import majority_vote


@dataclass(frozen=True)
class EmConfig:
    """Stopping rule and initialization for a fit.

    ``init`` is either the string "majority-vote" (hard labels turned into
    one-hot posteriors) or an (N, L) array of starting posteriors. Clearing
    ``stop_on_convergence`` forces exactly ``max_iters`` iterations, which
    keeps timing comparisons honest.
    """

    model_kind: str = "hds"
    tolerance: float = 1e-8
    max_iters: int = 500
    init: object = "majority-vote"
    stop_on_convergence: bool = True

    def __post_init__(self):
        if self.model_kind not in ("gds", "hds"):
            raise DomainError(f"unknown model kind {self.model_kind!r}")
        if not self.tolerance > 0:
            raise DomainError("tolerance must be positive")
        if self.max_iters < 1:
            raise DomainError("at least one iteration is required")


@dataclass(frozen=True)
class EmResult:
    worker_model: WorkerModel
    prior: Prior
    posteriors: np.ndarray
    log_likelihood_trace: np.ndarray
    iterations: int
    converged: bool


def _initial_posteriors(labels: LabelMatrix, config: EmConfig) -> np.ndarray:
    if isinstance(config.init, str):
        if config.init != "majority-vote":
            raise DomainError(f"unknown initialization {config.init!r}")
        hard = majority_vote(labels)
        rho = np.zeros((labels.num_items, labels.num_classes))
        rho[np.arange(labels.num_items), hard - 1] = 1.0
        return rho
    rho = np.asarray(config.init, dtype=float)
    if rho.shape != (labels.num_items, labels.num_classes):
        raise DimensionMismatch("initial posteriors must be (items, classes)")
    if (not np.isfinite(rho).all() or rho.min() < 0
            or np.abs(rho.sum(axis=1) - 1.0).max() > 1e-9):
        raise DomainError("initial posteriors must be probability rows")
    return rho.copy()


def em_fit(labels: LabelMatrix, config: EmConfig = EmConfig()) -> EmResult:
    """Alternate parameter and posterior updates until the log-likelihood
    stabilises.

    M-step: class prevalences are posterior means; confusion entries are
    posterior-weighted label frequencies (single-accuracy mode pools all
    classes into one agreement rate). A worker with no labels, or a class
    with no posterior mass, keeps the uninformative value 1/L. E-step and
    the likelihood run in the log domain with floored table entries.

    Convergence is declared when the relative log-likelihood change drops
    below ``config.tolerance``; running out of iterations is reported via
    the ``converged`` flag, never as an error.
    """
    M, L = labels.num_workers, labels.num_classes
    rho = _initial_posteriors(labels, config)

    trace: list[float] = []
    converged = False
    iterations = 0
    prior_hat = np.full(L, 1.0 / L)
    tables = np.full((M, L, L), 1.0 / L)
    for _ in range(config.max_iters):
        iterations += 1
        # M-step
        prior_hat = rho.mean(axis=0)
        if config.model_kind == "gds":
            counts = labels.worker_sums(rho).transpose(0, 2, 1)  # (M, L, L)
            denom = counts.sum(axis=2)  # (M, L)
            tables = np.full((M, L, L), 1.0 / L)
            seen = denom > 0
            tables[seen] = counts[seen] / denom[seen][:, None]
        else:
            accuracies = labels.worker_accuracies(rho)
            tables = symmetric_tables(accuracies[:, None], L)
        # E-step
        log_rho = map_scores(labels, tables, prior_hat)
        peak = log_rho.max(axis=1)
        rho = np.exp(log_rho - peak[:, None])
        total = rho.sum(axis=1)
        log_likelihood = float((peak + np.log(total)).sum())
        rho /= total[:, None]
        trace.append(log_likelihood)
        if config.stop_on_convergence and len(trace) >= 2:
            previous = trace[-2]
            relative = abs(log_likelihood - previous) / max(abs(previous), 1e-300)
            if relative < config.tolerance:
                converged = True
                break

    if config.model_kind == "gds":
        fitted = WorkerModel.gds(tables)
    else:
        fitted = WorkerModel.hds(accuracies, L)
    return EmResult(fitted, Prior(prior_hat / prior_hat.sum()), rho,
                    np.asarray(trace), iterations, converged)


def em_map_predict(result: EmResult) -> np.ndarray:
    """Predict each item as the class with the largest fitted posterior."""
    return argmax_labels(result.posteriors)
