"""Seeded inputs for the benchmark workloads.

Only numpy is used here: the inputs, like the output checks, are made apart
from crowdbounds, which receives nothing but the generated files and
arguments. The same seed always gives the same inputs.
"""

from __future__ import annotations

import numpy as np

# Every workload has three classes; the checks take L from a round's meta.
CLASSES = 3
# cli-sparse accuracies: i.i.d. Beta(16, 4), mean 0.8 and sd 0.09.
SPARSE_BETA = (16.0, 4.0)
# dataset-em: each cell observed with probability 0.3; a confusion table's
# diagonal entries are Beta(4, 2.5), mean 0.62.
DATASET_Q = 0.3
DATASET_DIAG_BETA = (4.0, 2.5)


def round_seed(seed: int, round_index: int) -> int:
    """A 32-bit seed for one round of a run, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


def sparse_accuracies(seed: int, workers: int = 500) -> np.ndarray:
    """Per-worker accuracies for cli-sparse: i.i.d. SPARSE_BETA draws."""
    return np.random.default_rng(seed).beta(*SPARSE_BETA, workers)


def confusion_dataset(seed: int, workers: int = 31, items: int = 3000):
    """A labels grid drawn from full per-worker confusion tables.

    Each worker's diagonal entry for each true class is a DATASET_DIAG_BETA
    draw; the rest of that row is split among the other classes by a flat
    Dirichlet draw. Each cell is observed with probability DATASET_Q.
    Returns the workers x items grid (0 marks a missing label), the truth
    vector and the tables.
    """
    L = CLASSES
    rng = np.random.default_rng(seed)
    truth = rng.integers(1, L + 1, items)
    diag = rng.beta(*DATASET_DIAG_BETA, (workers, L))
    off = rng.dirichlet(np.ones(L - 1), (workers, L))
    tables = np.empty((workers, L, L))
    for k in range(L):
        others = [h for h in range(L) if h != k]
        tables[:, k, k] = diag[:, k]
        tables[:, k, others] = off[:, k] * (1.0 - diag[:, k, None])
    observed = rng.random((workers, items)) < DATASET_Q
    cdf = np.cumsum(tables[:, truth - 1, :], axis=2)
    drawn = (rng.random((workers, items))[:, :, None] > cdf).sum(axis=2) + 1
    grid = np.where(observed, np.minimum(drawn, L), 0)
    return grid, truth, tables


def write_dense(grid: np.ndarray, truth: np.ndarray, labels_path,
                truth_path) -> None:
    """Write the grid as a headerless dense CSV and truth as ``item,label``.

    Dense-CSV items are named by column index, so truth uses the same names.
    """
    np.savetxt(labels_path, grid, fmt="%d", delimiter=",")
    with open(truth_path, "w") as handle:
        handle.write("item,label\n")
        handle.writelines(f"{j},{label}\n" for j, label in enumerate(truth))
