"""Synthetic data generation under the Dawid-Skene model family.

Every sampler owns a private generator derived from a master seed plus a
purpose tag (and optional indices), so repeated runs are bit-reproducible and
independent draws never share a stream.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .core import (
    AssignmentModel,
    DimensionMismatch,
    DomainError,
    LabelMatrix,
    Prior,
    WorkerModel,
)


class RejectionBudgetExceeded(DomainError):
    """The conditioned sampler spent its budget of batches."""


def derive_rng(master_seed: int, *tags) -> np.random.Generator:
    """Build an independent generator from a master seed and context tags.

    String tags are hashed with crc32; integer tags pass through. The same
    (seed, tags) pair always yields the same stream.
    """
    key = tuple(zlib.crc32(t.encode()) if isinstance(t, str) else int(t)
                for t in tags)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


_GAP_BLOCK = 1 << 16  # most gaps the mask walk draws at once


def _observed_cells(rng: np.random.Generator, probs: np.ndarray,
                    top: float) -> np.ndarray:
    """The ascending flat cells of an (M, N) grid, each drawn independently
    with its chance in ``probs``, of which ``top`` is the largest.

    The walk visits each cell with chance ``top``: the gaps between visits
    are geometric, one exponential each, drawn in blocks sized by the
    expected number of visits left (at most :data:`_GAP_BLOCK`). A gap that
    reaches past the grid ends the walk, however large it is. A visited
    cell whose chance lies below ``top`` is kept with chance
    ``probs[cell] / top``, by one uniform; the others take no draw. So the
    draws scale with the labels, not with M x N."""
    total, last, blocks = probs.size, -1, []
    # A rate of inf (top 1) makes every gap 0; a tiny top, gaps of inf.
    with np.errstate(divide="ignore", over="ignore"):
        rate = -np.log1p(-top)
        while True:
            size = int(min(_GAP_BLOCK, (total - 1 - last) * top)) + 1
            gaps = np.floor(rng.standard_exponential(size) / rate)
            cells = last + np.cumsum(np.minimum(gaps, total).astype(np.int64) + 1)
            blocks.append(cells[:np.searchsorted(cells, total)])
            if blocks[-1].size < size:
                break
            last = int(cells[-1])
    cells = np.concatenate(blocks)
    chance = probs[np.divmod(cells, probs.shape[1])] / top
    thin = chance < 1
    thin[thin] = rng.random(np.count_nonzero(thin)) >= chance[thin]
    return cells[~thin]


def check_beta_shapes(a: float, b: float) -> None:
    """Raise unless both Beta shape parameters are positive and finite,
    which NaN is not."""
    if not (0 < a < np.inf and 0 < b < np.inf):
        raise DomainError("beta shape parameters must be positive and finite")


def check_beta_prior(num_workers: int, a: float, b: float,
                     target_mean: float | None, tol: float) -> tuple[float, float]:
    """Raise unless :func:`sample_workers_beta` can draw from these values,
    and return the shape ``a`` and the target mean that it draws with. The
    shapes are checked after ``a`` moves to a given ``target_mean``."""
    if target_mean is None:
        check_beta_shapes(a, b)  # before a / (a + b)
        target_mean = a / (a + b)
    elif 0 < target_mean < 1:  # any other target is rejected below
        a = b * target_mean / (1.0 - target_mean)
    if not 0 < target_mean < 1:  # a prior's own mean may round to 0 or 1
        raise DomainError("target mean must lie strictly inside (0, 1)")
    check_beta_shapes(a, b)
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    if num_workers < 1:
        raise DomainError("at least one worker is required")
    return a, target_mean


def sample_workers_beta(num_workers: int, a: float, b: float,
                        target_mean: float | None = None, tol: float = 0.01,
                        seed: int = 0, max_batches: int = 100_000) -> np.ndarray:
    """Draw worker accuracies from a Beta prior conditioned on the sample mean.

    A ``target_mean`` moves the prior to it: the shape ``a`` becomes
    ``b * target_mean / (1 - target_mean)``, so Beta(a, b) has that mean, and
    the given ``a`` is not read. Without one, Beta(a, b) is conditioned on its
    own mean ``a / (a + b)``. :func:`check_beta_prior` rejects, before any
    draw, what cannot be drawn. Whole batches of ``num_workers`` draws are
    rejected until the batch mean lands within ``tol`` of the target;
    resampling individual workers would distort the marginal distribution.
    """
    a, target_mean = check_beta_prior(num_workers, a, b, target_mean, tol)
    rng = derive_rng(seed, "worker-accuracies")
    for _ in range(max_batches):
        draws = rng.beta(a, b, size=num_workers)
        if abs(draws.mean() - target_mean) <= tol:
            return draws
    raise RejectionBudgetExceeded(
        f"no batch of {num_workers} Beta({a}, {b}) draws hit "
        f"{target_mean} +/- {tol} within {max_batches} batches")


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to generate one synthetic dataset."""

    num_workers: int
    num_items: int
    num_classes: int
    prior: Prior
    assignment: AssignmentModel
    worker_model: WorkerModel
    seed: int = 0

    def __post_init__(self):
        if min(self.num_workers, self.num_items) < 1 or self.num_classes < 2:
            raise DomainError("dimensions must be positive (and classes >= 2)")
        if self.prior.num_classes != self.num_classes:
            raise DimensionMismatch("prior class count differs from config")
        if self.worker_model.num_classes != self.num_classes:
            raise DimensionMismatch("worker model class count differs from config")
        if self.worker_model.num_workers != self.num_workers:
            raise DimensionMismatch("worker model size differs from config")
        # Fail early on assignment/dimension clashes.
        self.assignment.full(self.num_workers, self.num_items)


@dataclass(frozen=True)
class SimOutput:
    truth: np.ndarray
    labels: LabelMatrix


def simulate_dataset(config: SimConfig) -> SimOutput:
    """Sample ground truth, the observation mask and the noisy labels.

    Truth is i.i.d. from the prior; each cell is observed independently with
    its assignment probability (:func:`_observed_cells`); an observed label
    is drawn, by one uniform in cell order, from the row of the worker's
    confusion table selected by the item's true class. The draws come in
    that order, so at a fixed seed the mask does not depend on the worker
    model.
    """
    rng = derive_rng(config.seed, "simulate")
    M, N, L = config.num_workers, config.num_items, config.num_classes
    truth = rng.choice(np.arange(1, L + 1), size=N, p=config.prior.probs)
    cells = _observed_cells(rng, config.assignment.full(M, N),
                            float(np.max(config.assignment.value)))
    workers, items = np.divmod(cells, N)
    draws = rng.random(cells.size)
    cdf = np.cumsum(config.worker_model.as_gds(), axis=2)[workers, truth[items] - 1]
    sampled = (draws[:, None] > cdf).sum(axis=1) + 1
    np.minimum(sampled, L, out=sampled)  # guard against cumsum rounding
    return SimOutput(truth, LabelMatrix(workers, items, sampled, M, N, L))


def check_misspecified(group1_size: int, group2_size: int, set1_size: int,
                       set2_size: int, accuracy_block, q: float) -> np.ndarray:
    """Raise unless :func:`make_misspecified_dataset` can draw from these
    values: positive group and set sizes, a 2x2 grid of accuracies in
    [0, 1] (a ragged one is not a grid) and an assignment probability in
    (0, 1]. Returns the block as floats."""
    try:
        block = np.asarray(accuracy_block, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        block = None
    if block is None or block.shape != (2, 2):
        raise DimensionMismatch("accuracy block must be 2x2")
    if not ((block >= 0) & (block <= 1)).all():
        raise DomainError("block accuracies must lie in [0, 1]")
    if not 0 < q <= 1:
        raise DomainError("assignment probability must lie in (0, 1]")
    if min(group1_size, group2_size, set1_size, set2_size) < 1:
        raise DomainError("group and set sizes must be positive")
    return block


def make_misspecified_dataset(group1_size: int, group2_size: int,
                              set1_size: int, set2_size: int,
                              accuracy_block, q: float, seed: int = 0) -> SimOutput:
    """Binary data whose accuracy depends on a worker-group by item-set block.

    Workers split into two groups and items into two sets; a worker labels an
    observed item correctly with the probability from the 2x2 block, so no
    single per-worker accuracy explains the data. Truth, the mask
    (:func:`_observed_cells`) and one uniform per label are drawn in turn.
    """
    block = check_misspecified(group1_size, group2_size, set1_size, set2_size,
                               accuracy_block, q)
    rng = derive_rng(seed, "misspecified")
    M = group1_size + group2_size
    N = set1_size + set2_size
    truth = rng.integers(1, 3, size=N)
    cells = _observed_cells(rng, np.broadcast_to(q, (M, N)), q)
    workers, items = np.divmod(cells, N)
    accuracy = block[(workers >= group1_size).astype(int),
                     (items >= set1_size).astype(int)]
    correct = rng.random(cells.size) < accuracy
    labels = np.where(correct, truth[items], 3 - truth[items])
    return SimOutput(truth, LabelMatrix(workers, items, labels, M, N, 2))
