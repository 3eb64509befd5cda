"""Maximum-likelihood estimation of worker reliability via EM, plus the
MAP prediction rule built on the fitted posteriors.

Supports the full confusion-table model ("gds") and the single-accuracy
model ("hds"). No priors are placed on the parameters; this is plain
maximum likelihood with majority-vote initialization. One loop,
:func:`em_fit_many`, fits any number of label matrices at once, each to the
bits of a fit on its own; :func:`em_fit` is that loop on one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import (
    DimensionMismatch,
    DomainError,
    LabelMatrix,
    Prior,
    WorkerModel,
    _log_map_rule,
    argmax_labels,
    row_entries,
    row_max,
    row_sum,
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


def _check_init(labels: LabelMatrix, config: EmConfig) -> None:
    """Raise unless ``config.init`` can start a fit of ``labels``."""
    if isinstance(config.init, str):
        if config.init != "majority-vote":
            raise DomainError(f"unknown initialization {config.init!r}")
        return
    rho = np.asarray(config.init, dtype=float)
    if rho.shape != (labels.num_items, labels.num_classes):
        raise DimensionMismatch("initial posteriors must be (items, classes)")
    if (not np.isfinite(rho).all() or rho.min() < 0
            or np.abs(rho.sum(axis=1) - 1.0).max() > 1e-9):
        raise DomainError("initial posteriors must be probability rows")


def _confusion_tables(sums: np.ndarray) -> np.ndarray:
    """(M, L, L) confusion tables from :meth:`LabelMatrix.worker_sums` of
    posterior rows: entry ``[i, k, h - 1]`` is ``sums[i, h - 1, k]`` over
    its total across ``h`` (:func:`row_sum`). A row with no mass keeps
    1/L."""
    M, L = sums.shape[:2]
    total = row_sum(sums)[:, :, None]
    return np.divide(sums.transpose(0, 2, 1), total,
                     out=np.full((M, L, L), 1.0 / L), where=total > 0)


class _Stack:
    """Label matrices stacked block-diagonally into one: trial ``t``'s
    workers and items follow those of the trials before it, so each item's
    labels keep their worker order, and every per-item and per-worker sum
    of the stack adds the same terms in the same order as the trial's own
    matrix. One matrix is used as it is."""

    def __init__(self, matrices: list):
        L = matrices[0].num_classes
        workers = list(accumulate([m.num_workers for m in matrices], initial=0))
        items = list(accumulate([m.num_items for m in matrices], initial=0))
        self.worker_slices = list(map(slice, workers[:-1], workers[1:]))
        self.item_slices = list(map(slice, items[:-1], items[1:]))
        if len(matrices) == 1:
            self.labels = matrices[0]
        else:
            self.labels = LabelMatrix(
                np.concatenate([m.workers + offset
                                for m, offset in zip(matrices, workers)]),
                np.concatenate([m.items + offset
                                for m, offset in zip(matrices, items)]),
                np.concatenate([m.labels for m in matrices]),
                workers[-1], items[-1], L)
        self.sizes = np.diff(items)
        self.item_trial = np.repeat(np.arange(len(matrices)), self.sizes)
        # Entry (trial, class) of a flattened (trials, L) table per item row.
        self.prior_keys = row_entries(self.item_trial, L)

    def initial_posteriors(self, config: EmConfig) -> np.ndarray:
        """Every stacked item's starting row: its majority vote as a
        one-hot row (one vote over the stack, which counts each item's
        labels as its trial's own matrix does), or ``config.init``, checked
        by :func:`_check_init`, once per trial."""
        if not isinstance(config.init, str):
            return np.tile(np.asarray(config.init, dtype=float),
                           (self.sizes.size, 1))
        labels = self.labels
        rho = np.zeros((labels.num_items, labels.num_classes))
        rho[np.arange(labels.num_items), majority_vote(labels) - 1] = 1.0
        return rho

    def per_item(self, table: np.ndarray) -> np.ndarray:
        """Each item's row of a (trials, L) table; one trial's row
        broadcasts as it is."""
        if self.sizes.size == 1:
            return table[0]
        return table.take(self.item_trial, axis=0)

    def class_means(self, rho: np.ndarray) -> np.ndarray:
        """Each trial's mean item row of ``rho``, shape (trials, L). Each
        (trial, class) sum adds the trial's items in order from 0.0, as
        numpy's mean over the trial's own rows does."""
        L = self.labels.num_classes
        sums = np.bincount(self.prior_keys, weights=rho.ravel(),
                           minlength=self.sizes.size * L)
        return sums.reshape(-1, L) / self.sizes[:, None]

    def step(self, rho: np.ndarray, model_kind: str):
        """One EM iteration of every stacked trial from posteriors ``rho``:
        the trials' priors, the worker parameters (tables or accuracies),
        the new posteriors and each trial's log-likelihood.

        M-step: class prevalences are posterior means; confusion entries are
        posterior-weighted label frequencies (single-accuracy mode pools all
        classes into one agreement rate). A worker with no labels, or a
        class with no posterior mass, keeps the uninformative value 1/L.
        E-step and the likelihood run in the log domain with floored table
        entries.
        """
        labels, L = self.labels, self.labels.num_classes
        prior = self.class_means(rho)
        if model_kind == "gds":
            params = tables = _confusion_tables(labels.worker_sums(rho))
        else:
            params = labels.worker_accuracies(rho)
            tables = symmetric_tables(params[:, None], L)
        log_tables, log_prior = _log_map_rule(tables, prior)
        log_rho = labels.item_scores(log_tables, self.per_item(log_prior))
        peak = row_max(log_rho)
        rho = np.exp(log_rho - peak[:, None])
        total = row_sum(rho)
        item_likelihood = peak + np.log(total)
        # Each trial's own slice: a sum over the whole stack would pair
        # the terms differently.
        log_likelihoods = [item_likelihood[items].sum()
                           for items in self.item_slices]
        rho /= total[:, None]
        return prior, params, rho, log_likelihoods


def em_fit_many(matrices, config: EmConfig = EmConfig()) -> list:
    """Fit every label matrix of ``matrices`` under ``config``.

    Entry ``t`` of the result is matrix ``t``'s :class:`EmResult`, or the
    exception its fit raised (a bad ``init`` for its shape, say); the other
    fits go on. The fits run together, one M-step and one E-step per
    iteration for all of them on the matrices stacked block-diagonally, and
    each gives the bits it gives when fitted on its own. A fit stops when
    the relative log-likelihood change drops below ``config.tolerance``
    (``converged``) or at ``config.max_iters``. A stopped fit keeps its
    place in the stack until fewer than three quarters of the stack are
    still running, and only then is the stack rebuilt from those: rebuilding
    at every stop costs more than it saves.
    """
    matrices = list(matrices)
    if len({labels.num_classes for labels in matrices}) > 1:
        raise DimensionMismatch("the matrices of one fit differ in classes")
    outcomes: list = [None] * len(matrices)
    live = []
    for t, labels in enumerate(matrices):
        try:
            _check_init(labels, config)
        except ValueError as exc:
            outcomes[t] = exc
        else:
            live.append(t)
    traces = {t: [] for t in live}
    iterations, rows = 0, None
    while live:
        members = live
        stack = _Stack([matrices[t] for t in members])
        if rows is None:
            rho = stack.initial_posteriors(config)
        else:
            rho = rows[0] if len(rows) == 1 else np.concatenate(rows)
        while len(live) >= 0.75 * len(members):
            iterations += 1
            prior, params, rho, log_likelihoods = stack.step(
                rho, config.model_kind)
            for i, t in enumerate(members):
                if outcomes[t] is not None:
                    continue
                trace = traces[t]
                trace.append(float(log_likelihoods[i]))
                converged = (config.stop_on_convergence and len(trace) >= 2
                             and abs(trace[-1] - trace[-2])
                             / max(abs(trace[-2]), 1e-300) < config.tolerance)
                if converged or iterations == config.max_iters:
                    # This iteration's arrays are new, so views of them
                    # keep this fit's values while the others go on.
                    outcomes[t] = (params[stack.worker_slices[i]], prior[i],
                                   rho[stack.item_slices[i]], converged)
            live = [t for t in members if outcomes[t] is None]
        rows = [rho[items] for items, t in zip(stack.item_slices, members)
                if outcomes[t] is None]
    for t, trace in traces.items():
        try:
            outcomes[t] = _result(matrices[t], config.model_kind, trace,
                                  *outcomes[t])
        except ValueError as exc:
            outcomes[t] = exc
    return outcomes


def _result(labels: LabelMatrix, model_kind: str, trace: list, params,
            prior_hat, rho, converged: bool) -> EmResult:
    if model_kind == "gds":
        fitted = WorkerModel.gds(params)
    else:
        fitted = WorkerModel.hds(params, labels.num_classes)
    return EmResult(fitted, Prior(prior_hat / prior_hat.sum()), rho,
                    np.asarray(trace), len(trace), converged)


def em_fit(labels: LabelMatrix, config: EmConfig = EmConfig()) -> EmResult:
    """Fit one label matrix: :func:`em_fit_many` of ``[labels]``, raising
    what the fit raised. Running out of iterations is reported via the
    ``converged`` flag, never as an error."""
    result, = em_fit_many([labels], config)
    if isinstance(result, Exception):
        raise result
    return result


def em_map_predict(result: EmResult) -> np.ndarray:
    """Predict each item as the class with the largest fitted posterior."""
    return argmax_labels(result.posteriors)
