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


_DRAW_BLOCK = 1 << 16  # most uniforms a sampler holds at once


def _uniform_blocks(rng: np.random.Generator, shape: tuple[int, int]):
    """Yield ``(first, cells, draws)`` for one grid of uniforms of ``shape``,
    at most :data:`_DRAW_BLOCK` at a time: ``draws`` holds the grid slice
    ``cells``, whole rows or part of one row, so its flat cells are ``first,
    first + 1, ...``. A generator fills an array in C order from one stream,
    so these are the numbers of the whole grid drawn at once, each fixed by
    the seed alone. The next block overwrites ``draws``."""
    M, N = shape
    rows, width = max(1, _DRAW_BLOCK // N), min(N, _DRAW_BLOCK)
    buffer = np.empty(min(M, rows) * width)
    for row in range(0, M, rows):
        for column in range(0, N, width):
            height, length = min(rows, M - row), min(width, N - column)
            draws = rng.random(out=buffer[:height * length].reshape(height, length))
            yield row * N + column, np.s_[row:row + rows, column:column + width], draws


def _observed_cells(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """The ascending flat cells of ``probs`` whose uniform lies below it."""
    return np.concatenate([np.flatnonzero(draws < probs[cells]) + first
                           for first, cells, draws in _uniform_blocks(rng, probs.shape)])


# A draw of the bit generator takes about 3.5 ns and an advance of it about
# 2 us: a block of uniforms is drawn whole when it holds more wanted cells
# than its size over this, and each of its cells is advanced to otherwise.
_ADVANCE_DRAWS = 600


def cell_uniforms(rng: np.random.Generator, cells: np.ndarray,
                  shape: tuple[int, int]) -> np.ndarray:
    """The uniforms of the ascending flat ``cells`` of one grid of ``shape``.

    The grid's uniforms are one stream in C order (:func:`_uniform_blocks`),
    and PCG64 (the bit generator of :func:`derive_rng`, which ``rng`` must
    have) spends one 64-bit output on each, so cell c's is the c-th draw.
    A block of :data:`_DRAW_BLOCK` draws that holds few of ``cells`` is not
    drawn: the generator advances to each of its cells and draws that one.
    Either way the generator ends where drawing the whole grid leaves it,
    with the same numbers."""
    out = np.empty(cells.size)
    bits, drawn, total = rng.bit_generator, 0, shape[0] * shape[1]
    lo = 0
    while lo < cells.size:  # a block that holds cells[lo:hi]
        first = int(cells[lo]) // _DRAW_BLOCK * _DRAW_BLOCK
        size = min(_DRAW_BLOCK, total - first)
        hi = int(np.searchsorted(cells, first + size))
        if (hi - lo) * _ADVANCE_DRAWS > size:
            bits.advance(first - drawn)
            out[lo:hi] = rng.random(size)[cells[lo:hi] - first]
            drawn = first + size
        else:
            for k, cell in enumerate(cells[lo:hi].tolist(), lo):
                bits.advance(cell - drawn)
                out[k], drawn = rng.random(), cell + 1
        lo = hi
    bits.advance(total - drawn)
    return out


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
    its assignment probability; an observed label is drawn from the row of
    the worker's confusion table selected by the item's true class.
    """
    rng = derive_rng(config.seed, "simulate")
    M, N, L = config.num_workers, config.num_items, config.num_classes
    truth = rng.choice(np.arange(1, L + 1), size=N, p=config.prior.probs)
    cells = _observed_cells(rng, config.assignment.full(M, N))
    workers, items = np.divmod(cells, N)
    draws = cell_uniforms(rng, cells, (M, N))
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
    single per-worker accuracy explains the data.
    """
    block = check_misspecified(group1_size, group2_size, set1_size, set2_size,
                               accuracy_block, q)
    rng = derive_rng(seed, "misspecified")
    M = group1_size + group2_size
    N = set1_size + set2_size
    truth = rng.integers(1, 3, size=N)
    cells = _observed_cells(rng, np.broadcast_to(q, (M, N)))
    workers, items = np.divmod(cells, N)
    accuracy = block[(workers >= group1_size).astype(int),
                     (items >= set1_size).astype(int)]
    correct = cell_uniforms(rng, cells, (M, N)) < accuracy
    labels = np.where(correct, truth[items], 3 - truth[items])
    return SimOutput(truth, LabelMatrix(workers, items, labels, M, N, 2))
