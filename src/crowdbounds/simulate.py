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
    """The conditioned sampler gave up after the configured number of batches,
    most often because the target mean is out of reach of Beta(a, b)."""


def derive_rng(master_seed: int, *tags) -> np.random.Generator:
    """Build an independent generator from a master seed and context tags.

    String tags are hashed with crc32; integer tags pass through. The same
    (seed, tags) pair always yields the same stream.
    """
    key = tuple(zlib.crc32(t.encode()) if isinstance(t, str) else int(t)
                for t in tags)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def sample_workers_beta(num_workers: int, a: float, b: float, target_mean: float,
                        tol: float = 0.01, seed: int = 0,
                        max_batches: int = 100_000) -> np.ndarray:
    """Draw worker accuracies from Beta(a, b) conditioned on the sample mean.

    Whole batches of ``num_workers`` draws are rejected until the batch mean
    lands within ``tol`` of ``target_mean``; resampling individual workers
    would distort the marginal distribution.
    """
    if a <= 0 or b <= 0:
        raise DomainError("beta shape parameters must be positive")
    if not 0 < target_mean < 1:
        raise DomainError("target mean must lie strictly inside (0, 1)")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if num_workers < 1:
        raise DomainError("at least one worker is required")
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
    its assignment probability; an observed label is drawn from the row of
    the worker's confusion table selected by the item's true class.
    """
    rng = derive_rng(config.seed, "simulate")
    M, N, L = config.num_workers, config.num_items, config.num_classes
    truth = rng.choice(np.arange(1, L + 1), size=N, p=config.prior.probs)
    probs = config.assignment.full(M, N)
    observed = rng.random((M, N)) < probs
    cumulative = np.cumsum(config.worker_model.as_gds(), axis=2)
    row_cdf = cumulative[np.arange(M)[:, None], truth[None, :] - 1, :]
    draws = rng.random((M, N))
    sampled = (draws[:, :, None] > row_cdf).sum(axis=2) + 1
    np.minimum(sampled, L, out=sampled)  # guard against cumsum rounding
    data = np.where(observed, sampled, 0)
    return SimOutput(truth, LabelMatrix(data, L))


def make_misspecified_dataset(group1_size: int, group2_size: int,
                              set1_size: int, set2_size: int,
                              accuracy_block, q: float, seed: int = 0) -> SimOutput:
    """Binary data whose accuracy depends on a worker-group by item-set block.

    Workers split into two groups and items into two sets; a worker labels an
    observed item correctly with the probability from the 2x2 block, so no
    single per-worker accuracy explains the data.
    """
    block = np.asarray(accuracy_block, dtype=float)
    if block.shape != (2, 2):
        raise DimensionMismatch("accuracy block must be 2x2")
    if block.min() < 0 or block.max() > 1:
        raise DomainError("block accuracies must lie in [0, 1]")
    if not 0 < q <= 1:
        raise DomainError("assignment probability must lie in (0, 1]")
    if min(group1_size, group2_size, set1_size, set2_size) < 1:
        raise DomainError("group and set sizes must be positive")
    rng = derive_rng(seed, "misspecified")
    M = group1_size + group2_size
    N = set1_size + set2_size
    truth = rng.integers(1, 3, size=N)
    observed = rng.random((M, N)) < q
    accuracy = np.empty((M, N))
    accuracy[:group1_size, :set1_size] = block[0, 0]
    accuracy[:group1_size, set1_size:] = block[0, 1]
    accuracy[group1_size:, :set1_size] = block[1, 0]
    accuracy[group1_size:, set1_size:] = block[1, 1]
    correct = rng.random((M, N)) < accuracy
    data = np.where(correct, truth[None, :], 3 - truth[None, :])
    data = np.where(observed, data, 0)
    return SimOutput(truth, LabelMatrix(data, 2))
