"""Differential tests of the class-axis reductions and the flat-take gather.

EM's E-step and M-step and ``posterior`` reduce (N, L) item tables through
``core.row_max``, ``core.row_sum`` and EM's per-trial ``bincount`` of class
means, EM's confusion tables divide by totals added label by label, and the
label kernel gathers with one flat ``take`` at keys cached per matrix. The
references below are the bodies these replaced: numpy's ``max(axis=1)``,
``sum(axis=1)`` and ``mean(axis=0)`` over each trial's rows, a masked
division by ``sum(axis=2)``, the row gather ``take(rows, axis=0)`` and a
fresh per-worker ``bincount``. Every fit runs once as it is
and once with the references patched in, and the two must agree byte for
byte, since neither path reorders a sum. L runs from 2 to 12, across the
width of 8 at which numpy stops adding a row in order. The gather keys
are filled column by column by ``core.row_entries``, against numpy's
broadcast.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from crowdbounds import core, em
from crowdbounds.aggregate import iwmv, majority_vote
from crowdbounds.core import (
    LabelMatrix,
    Prior,
    WorkerModel,
    argmax_labels,
    normalize_log_posteriors,
    posterior,
    row_entries,
    row_max,
    row_sum,
)
from crowdbounds.em import EmConfig, em_fit, em_map_predict

WIDTHS = range(2, 13)


def reference_row_max(table):
    return table.max(axis=1)


def reference_row_sum(table):
    return table.sum(axis=1)


def reference_class_means(self, rho):
    return np.array([rho[items].mean(axis=0) for items in self.item_slices])


def reference_confusion_tables(sums):
    M, L = sums.shape[:2]
    counts = sums.transpose(0, 2, 1)
    denom = counts.sum(axis=2)
    tables = np.full((M, L, L), 1.0 / L)
    seen = denom > 0
    tables[seen] = counts[seen] / denom[seen][:, None]
    return tables


def row_gather_sum(table, rows, keys, size):
    """The label kernel before the flat take: whole rows of ``table``."""
    out = np.bincount(keys, weights=table.take(rows, axis=0).ravel(),
                      minlength=size)
    return out.astype(float, copy=False)


def reference_keys(labels):
    """(per-label table rows, item keys, worker keys), built afresh."""
    L = labels.num_classes
    rows = labels.workers * L + labels.labels - 1
    return (rows, (labels.items[:, None] * L + np.arange(L)).ravel(),
            (rows[:, None] * L + np.arange(L)).ravel())


def reference_item_scores(self, label_scores, shifts):
    M, N, L = self.num_workers, self.num_items, self.num_classes
    rows, item_keys, _ = reference_keys(self)
    label_scores = np.asarray(label_scores, dtype=float)
    scores = row_gather_sum(label_scores.reshape(M * L, L), rows, item_keys,
                            N * L).reshape(N, L)
    scores += shifts
    return scores


def reference_worker_sums(self, item_rows):
    M, L = self.num_workers, self.num_classes
    return row_gather_sum(np.asarray(item_rows, dtype=float), self.items,
                          reference_keys(self)[2], M * L * L).reshape(M, L, L)


def reference_agreement(self, item_rows):
    flat = np.asarray(item_rows, dtype=float).reshape(-1, 1)
    cells = self.items * self.num_classes + self.labels - 1
    return row_gather_sum(flat, cells, self.workers, self.num_workers)


def reference_worker_accuracies(self, item_rows):
    agree = self.agreement(item_rows)
    counts = np.bincount(self.workers, minlength=self.num_workers)
    out = np.full(self.num_workers, 1.0 / self.num_classes)
    seen = counts > 0
    out[seen] = agree[seen] / counts[seen]
    return out


@contextmanager
def reference_bodies():
    """Run the package with every replaced body patched back in."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (core, em):
            patch.setattr(module, "row_max", reference_row_max)
            patch.setattr(module, "row_sum", reference_row_sum)
        patch.setattr(em._Stack, "class_means", reference_class_means)
        patch.setattr(em, "_confusion_tables", reference_confusion_tables)
        patch.setattr(LabelMatrix, "item_scores", reference_item_scores)
        patch.setattr(LabelMatrix, "worker_sums", reference_worker_sums)
        patch.setattr(LabelMatrix, "agreement", reference_agreement)
        patch.setattr(LabelMatrix, "worker_accuracies",
                      reference_worker_accuracies)
        yield


def assert_matches_reference(run):
    fast = run()
    with reference_bodies():
        reference = run()
    assert fast == reference


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes. A NaN need only meet a NaN: numpy
    leaves the sign of a NaN made from inf - inf to the operand order of the
    CPU's add."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def random_labels(seed, L):
    """A crowd with a silent worker, unlabelled items and, at a few labels
    per item, many tied votes; some workers copy others, which ties
    weighted votes as well."""
    rng = np.random.default_rng([seed, L])
    M, N = int(rng.integers(3, 12)), int(rng.integers(2, 120))
    grid = rng.integers(1, L + 1, size=(M, N))
    grid[rng.random((M, N)) > rng.uniform(0.1, 0.7)] = 0
    grid[rng.integers(M)] = 0
    grid[:, rng.random(N) < 0.15] = 0
    grid[rng.integers(M)] = grid[rng.integers(M)]
    return LabelMatrix.from_dense(grid, L), rng


def fit_bytes(labels, config):
    fit = em_fit(labels, config)
    return (fit.posteriors.tobytes(), fit.log_likelihood_trace.tobytes(),
            fit.prior.probs.tobytes(), fit.worker_model.params.tobytes(),
            fit.iterations, fit.converged, em_map_predict(fit).tobytes())


def random_table(rng, shape, layout):
    """Normal draws over 16 orders of magnitude, in the given memory
    layout: C-ordered, Fortran-ordered or every other column of a wider
    table."""
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    if layout == "F":
        return np.asfortranarray(table)
    if layout == "strided":
        return np.repeat(table, 2, axis=1)[:, ::2]
    return table


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("L", range(1, 13))
def test_helpers_give_numpy_s_bits(L, layout):
    rng = np.random.default_rng([L, len(layout)])
    for rows in (0, 1, 2, 7, 300, 3001):
        table = random_table(rng, (rows, L), layout)
        table[: rows // 3] = rng.choice([0.0, -0.0], (rows // 3, L))
        assert_same_bits(row_sum(table), table.sum(axis=1))
        if rows:
            assert_same_bits(row_max(table), table.max(axis=1))


@pytest.mark.parametrize("width", range(1, 13))
def test_row_entries_match_the_broadcast(width):
    rng = np.random.default_rng(width)
    for size in (0, 1, 7, 3001):
        rows = rng.integers(0, 10 ** 6, size)
        want = (rows[:, None] * width + np.arange(width)).ravel()
        assert_same_bits(row_entries(rows, width), want)


@pytest.mark.parametrize("kind", ["gds", "hds"])
@pytest.mark.parametrize("L", WIDTHS)
def test_em_fit_matches_the_reference_bodies(L, kind):
    labels, rng = random_labels(0, L)
    init = rng.dirichlet(np.ones(L), labels.num_items)
    for config in (EmConfig(kind),
                   EmConfig(kind, max_iters=6, stop_on_convergence=False),
                   EmConfig(kind, init=init, max_iters=40)):
        assert_matches_reference(lambda: fit_bytes(labels, config))


@pytest.mark.parametrize("L", WIDTHS)
def test_votes_and_posterior_match_the_reference_bodies(L):
    labels, rng = random_labels(1, L)
    model = WorkerModel.hds(rng.uniform(0.05, 0.95, labels.num_workers), L)
    prior = Prior(rng.dirichlet(np.ones(L)))

    def run():
        fits = [iwmv(labels, weight_mode=mode) for mode in ("linear", "log")]
        return ([(fit.predictions.tobytes(), fit.accuracies.tobytes(),
                  fit.weights.tobytes(), fit.iterations, fit.converged)
                 for fit in fits],
                majority_vote(labels).tobytes(),
                posterior(model, prior, labels).tobytes())
    assert_matches_reference(run)


INF, NAN = float("inf"), float("nan")
EDGE_ROWS = [
    ([NAN, 1.0, NAN], 1),
    ([1.0, NAN, 2.0], 2),
    ([2.0, 1.0, NAN], 3),
    ([1.0, INF, 0.0], 2),
    ([INF, INF, 1.0], 1),
    ([-INF, -INF, -INF], 1),
    ([-INF, -1.0, -INF], 2),
    ([-0.0, 0.0, -1.0], 1),
    ([0.0, -0.0, -1.0], 1),
    ([-1.0, -0.0, 0.0], 2),
    ([3.0, 3.0, 3.0], 1),
]


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("L", [3, 9])
def test_edge_rows_follow_numpy(L):
    """NaN (argmax names the first), +-inf, -0.0 against 0.0, one row and
    no rows, on both sides of numpy's in-order width."""
    pad = np.full((len(EDGE_ROWS), L - 3), -INF)
    table = np.hstack([np.array([row for row, _ in EDGE_ROWS]), pad])
    expected = np.array([label for _, label in EDGE_ROWS])
    assert np.array_equal(argmax_labels(table), expected)
    for scores in (table, table[:1], table[:0]):
        assert_same_bits(argmax_labels(scores), scores.argmax(axis=1) + 1)
        shifted = scores - scores.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        assert_same_bits(normalize_log_posteriors(scores),
                         probs / probs.sum(axis=1, keepdims=True))
