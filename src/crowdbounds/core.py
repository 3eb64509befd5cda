"""Domain types shared by the aggregation rules, the simulator and the EM fitter.

Labels live internally on ``{1, ..., L}``; dense grids mark a missing entry
with ``0``.
Binary problems use the common external convention ``{+1, -1}``; the mapping
``+1 -> 1`` and ``-1 -> 2`` is applied only at I/O boundaries and inside the
hyperplane rule, so every aggregation rule is written once against the
internal coding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Confusion-matrix entries are floored at this value before taking logs so
# that estimated (or degenerate) zero probabilities stay finite.
LOG_FLOOR = 1e-12

PROB_ATOL = 1e-9


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DimensionMismatch(ValueError):
    """Shapes of the supplied model, rule and label matrix do not agree."""


class LengthMismatch(ValueError):
    """Two vectors that must be index-aligned have different lengths."""


class EmptyMatrix(ValueError):
    """The label grid contains no cells at all."""


class NotBinary(ValueError):
    """A binary-only operation was invoked with more than two classes."""


@dataclass(frozen=True)
class LabelSet:
    """The set of classes plus the external coding convention.

    With ``binary_convention`` set (only allowed for two classes), external
    data uses ``{+1, -1}`` while the internal classes remain ``{1, 2}``.
    """

    num_classes: int
    binary_convention: bool = False

    def __post_init__(self):
        if self.num_classes < 2:
            raise DomainError("at least two classes are required")
        if self.binary_convention and self.num_classes != 2:
            raise DomainError("the +/-1 convention only applies to two classes")

    def to_external(self, values) -> np.ndarray:
        """Map internal classes to external labels."""
        arr = np.asarray(values)
        if not self.binary_convention:
            return arr.copy()
        out = np.zeros(arr.shape, dtype=np.int64)
        out[arr == 1] = 1
        out[arr == 2] = -1
        return out


@dataclass(frozen=True)
class LabelMatrix:
    """Observed labels of a worker-by-item grid, stored as triples.

    Triple ``t`` says that worker ``workers[t]`` gave item ``items[t]`` the
    label ``labels[t]`` (0-based positions, labels in ``{1, ..., L}``);
    unobserved cells are simply absent, so memory and every accumulation
    scale with the number of labels, not with workers x items. The triples
    are kept in worker-major, item-ascending order (the order ``np.nonzero``
    gives on the grid), so each item's labels are summed in increasing
    worker order.
    """

    workers: np.ndarray
    items: np.ndarray
    labels: np.ndarray
    num_workers: int
    num_items: int
    num_classes: int

    def __post_init__(self):
        M, N, L = self.num_workers, self.num_items, self.num_classes
        if M < 1 or N < 1:
            raise EmptyMatrix("label grid has no cells")
        if L < 2:
            raise DomainError("at least two classes are required")
        triples = []
        for name in ("workers", "items", "labels"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1 or (arr.size and not np.issubdtype(arr.dtype, np.integer)):
                raise DomainError(f"{name} must be a vector of integers")
            triples.append(arr.astype(np.int64, copy=False))
        workers, items, labels = triples
        if not workers.size == items.size == labels.size:
            raise LengthMismatch("worker, item and label vectors differ in length")
        if workers.size:
            if workers.min() < 0 or workers.max() >= M:
                raise DomainError("worker positions must lie in [0, num_workers)")
            if items.min() < 0 or items.max() >= N:
                raise DomainError("item positions must lie in [0, num_items)")
            if labels.min() < 1 or labels.max() > L:
                raise DomainError("labels must lie in {1, ..., num_classes}")
        cells = workers * N + items
        if np.any(cells[1:] <= cells[:-1]):
            order = np.argsort(cells, kind="stable")
            workers, items, labels = workers[order], items[order], labels[order]
            repeated = np.flatnonzero(np.diff(cells[order]) == 0)
            if repeated.size:
                t = repeated[0]
                raise DomainError(f"duplicate label at worker {workers[t] + 1}, "
                                  f"item {items[t] + 1}")
        object.__setattr__(self, "workers", workers)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_dense(cls, grid, num_classes: int) -> "LabelMatrix":
        """Triples of a worker-by-item grid with 0 marking a missing label."""
        grid = np.asarray(grid, dtype=np.int64)
        if grid.ndim != 2:
            raise DomainError("label grid must be two-dimensional")
        if grid.size == 0:
            raise EmptyMatrix("label grid has no cells")
        workers, items = np.nonzero(grid)
        return cls(workers, items, grid[workers, items], *grid.shape, num_classes)

    def dense(self) -> np.ndarray:
        """The worker-by-item grid with 0 for missing labels (small inputs)."""
        grid = np.zeros((self.num_workers, self.num_items), dtype=np.int64)
        grid[self.workers, self.items] = self.labels
        return grid

    @property
    def num_labels(self) -> int:
        return self.labels.size

    def labels_per_worker(self) -> np.ndarray:
        return self._worker_counts.copy()

    # The accumulations below all run through _gather_sum, on keys and
    # counts built once per matrix: each fit on it reuses them every
    # iteration.

    @cached_property
    def _worker_counts(self) -> np.ndarray:
        return np.bincount(self.workers, minlength=self.num_workers)

    @cached_property
    def _item_keys(self) -> np.ndarray:
        """Entries ``item * L + k`` of a flattened (N, L) item table, L per
        label."""
        return row_entries(self.items, self.num_classes)

    @cached_property
    def _worker_keys(self) -> np.ndarray:
        """Entries ``(worker * L + label - 1) * L + k`` of a flattened
        (M, L, L) per-label table, L per label."""
        L = self.num_classes
        return row_entries(self.workers * L + self.labels - 1, L)

    @cached_property
    def _item_cells(self) -> np.ndarray:
        """Entry ``item * L + label - 1`` of a flattened (N, L) item table."""
        return self.items * self.num_classes + self.labels - 1

    def item_scores(self, label_scores, shifts) -> np.ndarray:
        """Per-item class scores of a decomposable rule, shape (N, L).

        ``scores[j, k] = shifts[k] + sum of label_scores[i, h - 1, k]`` over
        the labels ``h`` that workers ``i`` gave item ``j``. An item nobody
        labelled scores ``shifts``.
        """
        M, N, L = self.num_workers, self.num_items, self.num_classes
        label_scores = np.asarray(label_scores, dtype=float)
        if label_scores.shape != (M, L, L):
            raise DimensionMismatch("per-label scores must have shape (M, L, L)")
        scores = _gather_sum(label_scores, self._worker_keys, self._item_keys,
                             N * L).reshape(N, L)
        scores += shifts
        return scores

    def vote_scores(self, weights, shifts=0.0) -> np.ndarray:
        """Per-item class scores of a weighted vote, shape (N, L): ``shifts[k]``
        plus the weights of the workers who gave item ``j`` the label ``k + 1``.

        The bits of :meth:`item_scores` of the weighted indicator rule, from
        one entry per label instead of L: the rule's other entries are +0.0,
        and a bincount sum starts at +0.0 and never holds -0.0, so adding
        +0.0 to it changes nothing."""
        N, L = self.num_items, self.num_classes
        scores = _gather_sum(np.asarray(weights, dtype=float), self.workers,
                             self._item_cells, N * L).reshape(N, L)
        scores += shifts
        return scores

    def worker_sums(self, item_rows) -> np.ndarray:
        """Per-worker, per-given-label sums of item rows, shape (M, L, L).

        ``sums[i, h - 1, k]`` adds ``item_rows[j, k]`` over the items ``j``
        that worker ``i`` labelled ``h``.
        """
        M, L = self.num_workers, self.num_classes
        return _gather_sum(np.asarray(item_rows, dtype=float), self._item_keys,
                           self._worker_keys, M * L * L).reshape(M, L, L)

    def worker_accuracies(self, item_rows) -> np.ndarray:
        """Per-worker :meth:`agreement` divided by the worker's label count.

        A worker with no labels gets ``1 / L``, the accuracy of guessing.
        """
        agree = self.agreement(item_rows)
        counts = self._worker_counts
        out = np.full(self.num_workers, 1.0 / self.num_classes)
        seen = counts > 0
        out[seen] = agree[seen] / counts[seen]
        return out

    def agreement(self, item_rows) -> np.ndarray:
        """Per-worker sums of ``item_rows[j, h - 1]`` over the worker's labels.

        With one-hot rows this counts the labels that agree with a reference
        labelling; with posterior rows it is the expected number of correct
        labels.
        """
        return _gather_sum(np.asarray(item_rows, dtype=float),
                           self._item_cells, self.workers, self.num_workers)


def row_entries(rows: np.ndarray, width: int) -> np.ndarray:
    """``(rows[:, None] * width + np.arange(width)).ravel()``: the flat
    entries of the given rows of a table ``width`` wide, in row order. It
    fills one column at a time, as numpy would broadcast the short last axis
    row by row, at several times the cost."""
    out = np.empty((rows.size, width), dtype=np.int64)
    first = rows * width
    for k in range(width):
        np.add(first, k, out=out[:, k])
    return out.ravel()


def _gather_sum(table: np.ndarray, entries: np.ndarray, keys: np.ndarray,
                size: int) -> np.ndarray:
    """The label kernel: ``out[keys[t]] += table.flat[entries[t]]``.

    One flat ``take`` gathers the entries and a single bincount sums them,
    adding the contributions to each key in triple order.
    """
    out = np.bincount(keys, weights=table.take(entries), minlength=size)
    return out.astype(float, copy=False)  # bincount of no labels gives ints


@dataclass(frozen=True)
class Prior:
    """Class prevalence probabilities."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise DomainError("prior must be a vector over at least two classes")
        if not (probs >= 0).all():
            raise DomainError("prior probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > PROB_ATOL:
            raise DomainError("prior must sum to one")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, num_classes: int) -> "Prior":
        return cls(np.full(num_classes, 1.0 / num_classes))

    @property
    def num_classes(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class AssignmentModel:
    """Probability that each worker labels each item.

    Three flavours: a full worker-by-item matrix, a per-worker vector
    (every item equally likely for a given worker), or a single constant.
    All probabilities must lie in (0, 1].
    """

    kind: str
    value: object

    def __post_init__(self):
        if self.kind not in ("matrix", "vector", "constant"):
            raise DomainError(f"unknown assignment kind {self.kind!r}")
        value = np.asarray(self.value, dtype=float)
        expected_ndim = {"matrix": 2, "vector": 1, "constant": 0}[self.kind]
        if value.ndim != expected_ndim:
            raise DimensionMismatch(
                f"{self.kind} assignment expects {expected_ndim}-d probabilities")
        if value.size == 0 or not ((value > 0) & (value <= 1)).all():
            raise DomainError("assignment probabilities must lie in (0, 1]")
        object.__setattr__(self, "value", value if self.kind != "constant" else float(value))

    @classmethod
    def matrix(cls, probs) -> "AssignmentModel":
        return cls("matrix", probs)

    @classmethod
    def vector(cls, probs) -> "AssignmentModel":
        return cls("vector", probs)

    @classmethod
    def constant(cls, prob: float) -> "AssignmentModel":
        return cls("constant", prob)

    def worker_probs(self, num_workers: int) -> np.ndarray:
        """Per-worker probabilities; only defined for the collapsed kinds."""
        if self.kind == "vector":
            if self.value.size != num_workers:
                raise DimensionMismatch("assignment vector length != worker count")
            return np.asarray(self.value)
        if self.kind == "constant":
            return np.full(num_workers, self.value)
        raise DomainError("a matrix assignment has no per-worker collapse")

    def full(self, num_workers: int, num_items: int) -> np.ndarray:
        if self.kind == "matrix":
            if self.value.shape != (num_workers, num_items):
                raise DimensionMismatch("assignment matrix shape mismatch")
            return np.asarray(self.value)
        return np.broadcast_to(
            self.worker_probs(num_workers)[:, None], (num_workers, num_items))


def check_accuracies(values) -> np.ndarray:
    """``values`` as a float array; raises unless every entry lies in
    [0, 1], which NaN does not."""
    values = np.asarray(values, dtype=float)
    if not ((values >= 0) & (values <= 1)).all():
        raise DomainError("accuracies must lie in [0, 1]")
    return values


def check_shifts(shifts, num_classes: int) -> np.ndarray:
    """Per-class shifts as floats (None: zeros), one finite entry per class."""
    shifts = np.zeros(num_classes) if shifts is None else np.asarray(shifts, float)
    if shifts.shape != (num_classes,):
        raise DimensionMismatch("shift vector must have one entry per class")
    if not np.isfinite(shifts).all():
        raise DomainError("scores and shifts must be finite")
    return shifts


def symmetric_tables(diagonal, num_classes: int) -> np.ndarray:
    """(M, L, L) confusion tables with the given diagonal.

    ``diagonal`` has shape (M, L) for per-class accuracies or (M, 1) for one
    accuracy per worker; the rest of each row is spread evenly over the
    other classes.
    """
    L = num_classes
    diag = np.broadcast_to(diagonal, (len(diagonal), L))
    off = (1.0 - diag) / (L - 1)
    tables = np.repeat(off[:, :, None], L, axis=2)
    idx = np.arange(L)
    tables[:, idx, idx] = diag
    return tables


@dataclass(frozen=True)
class WorkerModel:
    """Per-worker reliability under one of the three Dawid-Skene variants.

    * ``gds``  - a full L-by-L conditional table per worker,
    * ``sds``  - per-class accuracies, errors spread evenly off-diagonal,
    * ``hds``  - a single accuracy per worker.

    Everything downstream consumes the expanded ``gds`` tables, so the two
    restricted variants behave exactly like their expansions.
    """

    kind: str
    params: np.ndarray
    num_classes: int

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        L = self.num_classes
        if L < 2:
            raise DomainError("at least two classes are required")
        if self.kind == "gds":
            if params.ndim != 3 or params.shape[1:] != (L, L):
                raise DimensionMismatch("gds tables must have shape (M, L, L)")
            if not ((params >= -PROB_ATOL) & (params <= 1 + PROB_ATOL)).all():
                raise DomainError("confusion probabilities must lie in [0, 1]")
            if np.abs(params.sum(axis=2) - 1.0).max() > PROB_ATOL:
                raise DomainError("each confusion row must sum to one")
        elif self.kind == "sds":
            if params.ndim != 2 or params.shape[1] != L:
                raise DimensionMismatch("sds accuracies must have shape (M, L)")
            if not ((params >= 0) & (params <= 1)).all():
                raise DomainError("per-class accuracies must lie in [0, 1]")
        elif self.kind == "hds":
            if params.ndim != 1:
                raise DimensionMismatch("hds accuracies must have shape (M,)")
            check_accuracies(params)
        else:
            raise DomainError(f"unknown worker model kind {self.kind!r}")
        object.__setattr__(self, "params", params)

    @classmethod
    def gds(cls, tables) -> "WorkerModel":
        tables = np.asarray(tables, dtype=float)
        return cls("gds", tables, tables.shape[-1] if tables.ndim else 0)

    @classmethod
    def sds(cls, per_class_accuracies) -> "WorkerModel":
        acc = np.asarray(per_class_accuracies, dtype=float)
        return cls("sds", acc, acc.shape[-1] if acc.ndim else 0)

    @classmethod
    def hds(cls, accuracies, num_classes: int) -> "WorkerModel":
        return cls("hds", np.asarray(accuracies, dtype=float), num_classes)

    @property
    def num_workers(self) -> int:
        return self.params.shape[0]

    def as_gds(self) -> np.ndarray:
        """Expand to the full (M, L, L) conditional tables."""
        if self.kind == "gds":
            return self.params
        diag = self.params if self.kind == "sds" else self.params[:, None]
        return symmetric_tables(diag, self.num_classes)


@dataclass(frozen=True)
class DecomposableRule:
    """A prediction rule that scores each class as a per-worker sum.

    ``scores[i, h - 1, k]`` is the contribution to class ``k`` when worker
    ``i`` gives label ``h`` (a missing label contributes nothing), the
    layout :meth:`LabelMatrix.item_scores` reads; ``shifts[k]`` is a class
    offset added once per item (None: zeros).
    """

    scores: np.ndarray
    shifts: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        if scores.ndim != 3 or scores.shape[1] != scores.shape[2]:
            raise DimensionMismatch("score table must have shape (M, L, L)")
        object.__setattr__(self, "shifts", check_shifts(self.shifts, scores.shape[1]))
        if not np.isfinite(scores).all():
            raise DomainError("scores and shifts must be finite")
        object.__setattr__(self, "scores", scores)

    @property
    def num_workers(self) -> int:
        return self.scores.shape[0]

    @property
    def num_classes(self) -> int:
        return self.scores.shape[1]

    @classmethod
    def indicator(cls, num_workers: int, num_classes: int) -> "DecomposableRule":
        """Majority voting: one point to the class the worker named."""
        return cls.weighted_indicator(np.ones(num_workers), num_classes)

    @classmethod
    def weighted_indicator(cls, weights, num_classes: int,
                           shifts=None) -> "DecomposableRule":
        """Weighted majority voting with per-worker weights."""
        weights = np.asarray(weights, dtype=float)
        scores = np.zeros((weights.size, num_classes, num_classes))
        idx = np.arange(num_classes)
        scores[:, idx, idx] = weights[:, None]
        return cls(scores, shifts)

    @classmethod
    def oracle_map(cls, model: WorkerModel, prior: Prior) -> "DecomposableRule":
        """The Bayes-classifier rule: log confusion entries plus log prior."""
        if prior.num_classes != model.num_classes:
            raise DimensionMismatch("prior and worker model class counts differ")
        return cls(*_log_map_rule(model.as_gds(), prior.probs))


def _log_map_rule(tables, prior_probs) -> tuple[np.ndarray, np.ndarray]:
    """Oracle-MAP scores and shifts: the log of the confusion entry
    ``tables[i, k, h - 1]`` at ``[i, h - 1, k]`` and the log prior, both
    floored at ``LOG_FLOOR``."""
    log_tables = np.log(np.maximum(tables, LOG_FLOOR))
    return log_tables.transpose(0, 2, 1), np.log(np.maximum(prior_probs, LOG_FLOOR))


# Reductions over the class axis of an (N, L) item table. numpy reduces
# each short row in its own inner loop, which at three classes costs six to
# twenty times the arithmetic; these make one ufunc pass per class over
# strided column views instead, and return numpy's exact bits. Below
# _IN_ORDER_WIDTH entries numpy adds a row in order, starting from 0.0, and
# takes its max in order, which decides between -0.0 and 0.0; from that
# width on it adds pairwise and takes the max in SIMD lanes, so a wider
# table keeps numpy's own reduction.
_IN_ORDER_WIDTH = 8


def row_max(table: np.ndarray) -> np.ndarray:
    """``table.max(axis=1)``, with NaN propagated as numpy does."""
    if not 0 < table.shape[1] < _IN_ORDER_WIDTH:
        return table.max(axis=1)
    peak = table[:, 0].copy()
    for k in range(1, table.shape[1]):
        np.maximum(peak, table[:, k], out=peak)
    return peak


def row_sum(table: np.ndarray) -> np.ndarray:
    """``table.sum(axis=1)`` of a float table."""
    if not 0 < table.shape[1] < _IN_ORDER_WIDTH:
        return table.sum(axis=1)
    total = table[:, 0] + 0.0  # numpy's 0.0 start turns a -0.0 into 0.0
    for k in range(1, table.shape[1]):
        total += table[:, k]
    return total


def normalize_log_posteriors(log_scores: np.ndarray) -> np.ndarray:
    """Turn rows of unnormalised log probabilities into probability rows.

    The per-row maximum is subtracted before exponentiating, which makes the
    result invariant (to rounding) under adding any constant to a whole row.
    """
    log_scores = np.asarray(log_scores, dtype=float)
    probs = np.exp(log_scores - row_max(log_scores)[:, None])
    return probs / row_sum(probs)[:, None]


def posterior(model: WorkerModel, prior: Prior, labels: LabelMatrix) -> np.ndarray:
    """True-label posterior of every item given the worker model and prior.

    Row ``j`` is proportional to the prior times the product of the
    confusion-table entries of every observed label of item ``j``;
    the computation runs in the log domain, on the oracle-MAP scores.
    """
    if model.num_workers != labels.num_workers:
        raise DimensionMismatch("worker model and label matrix worker counts differ")
    if model.num_classes != labels.num_classes:
        raise DimensionMismatch("worker model and label matrix class counts differ")
    if prior.num_classes != labels.num_classes:
        raise DimensionMismatch("prior and label matrix class counts differ")
    return normalize_log_posteriors(
        labels.item_scores(*_log_map_rule(model.as_gds(), prior.probs)))


def error_rate(predicted, truth) -> float:
    """Fraction of items whose predicted label differs from the true one."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise LengthMismatch("prediction and truth vectors differ in length")
    if predicted.size == 0:
        raise DomainError("error rate of an empty prediction vector is undefined")
    return float(np.mean(predicted != truth))


def argmax_labels(scores) -> np.ndarray:
    """Predict the class with the highest score for every row.

    Ties resolve to the smallest class index.
    """
    return np.asarray(scores).argmax(axis=1) + 1
