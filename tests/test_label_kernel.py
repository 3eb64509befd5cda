"""Differential tests of the label store and its bincount kernel.

The reference below sums over the dense worker x item grid with ``einsum``,
the way the rules were computed before labels were stored as triples. The
kernel adds the same terms in another order, so scores agree to a relative
tolerance set from float64 rounding, and predictions agree wherever the top
two scores are further apart than that rounding can move them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdbounds.aggregate import (
    decomposable_predict,
    iwmv,
    majority_vote,
    oracle_map_predict,
)
from crowdbounds.core import (
    LOG_FLOOR,
    DecomposableRule,
    DomainError,
    LabelMatrix,
    LabelSet,
    Prior,
    WorkerModel,
    argmax_labels,
    posterior,
)
from crowdbounds.em import EmConfig, em_fit
from crowdbounds.harness import DuplicateLabel, load_labels, summarize_dataset

RTOL = 1e-12
MARGIN = 1e-9


def random_grid(rng, M, N, L, density):
    """A label grid with some workers and some items left without labels."""
    grid = rng.integers(1, L + 1, size=(M, N))
    grid[rng.random((M, N)) > density] = 0
    grid[rng.random(M) < 0.2] = 0
    grid[:, rng.random(N) < 0.2] = 0
    return grid


def one_hot(grid, L):
    """votes[i, j, h] = 1.0 when worker i gave item j the label h (0..L)."""
    return (grid[:, :, None] == np.arange(L + 1)).astype(float)


def dense_rule_scores(grid, rule):
    """Aggregated rule scores over the full grid."""
    votes = one_hot(grid, rule.num_classes)[:, :, 1:]
    return np.einsum("ijh,ihk->jk", votes, rule.scores) + rule.shifts


def dense_map_scores(grid, tables, prior_probs):
    L = tables.shape[-1]
    votes = one_hot(grid, L)[:, :, 1:]
    log_tables = np.log(np.clip(tables, LOG_FLOOR, None))
    return (np.einsum("ijh,ikh->jk", votes, log_tables)
            + np.log(np.clip(prior_probs, LOG_FLOOR, None)))


def dense_em_step(grid, rho, kind):
    """One M-step and E-step of EM on the dense grid: (tables, log scores)."""
    M, L = grid.shape[0], rho.shape[1]
    votes = one_hot(grid, L)[:, :, 1:]
    counts = np.einsum("ijh,jk->ikh", votes, rho)  # [worker, class, label]
    if kind == "gds":
        denom = counts.sum(axis=2)
        tables = np.full((M, L, L), 1.0 / L)
        seen = denom > 0
        tables[seen] = counts[seen] / denom[seen][:, None]
    else:
        per_worker = votes.sum(axis=(1, 2))
        agree = np.trace(counts, axis1=1, axis2=2)
        accuracies = np.full(M, 1.0 / L)
        seen = per_worker > 0
        accuracies[seen] = agree[seen] / per_worker[seen]
        tables = WorkerModel.hds(accuracies, L).as_gds()
    return tables, dense_map_scores(grid, tables, rho.mean(axis=0))


def assert_same_argmax_where_clear(predicted, reference_scores):
    top_two = np.sort(reference_scores, axis=1)[:, -2:]
    clear = top_two[:, 1] - top_two[:, 0] > MARGIN
    assert np.array_equal(predicted[clear],
                          argmax_labels(reference_scores)[clear])


def random_prior(rng, L):
    raw = rng.uniform(0.1, 1.0, L)
    return Prior(raw / raw.sum())


def random_model(rng, M, L, kind):
    if kind == "hds":
        return WorkerModel.hds(rng.uniform(0.05, 0.98, M), L)
    raw = rng.uniform(0.02, 1.0, size=(M, L, L))
    return WorkerModel.gds(raw / raw.sum(axis=2, keepdims=True))


problems = st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 5),
                     st.integers(1, 9), st.integers(1, 30),
                     st.floats(0.0, 1.0))


class TestKernelAgainstDenseReference:
    @settings(max_examples=150, deadline=None)
    @given(problems)
    def test_decomposable_rule_scores(self, problem):
        seed, L, M, N, density = problem
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, M, N, L, density)
        labels = LabelMatrix.from_dense(grid, L)
        rule = DecomposableRule(rng.normal(size=(M, L, L)), rng.normal(size=L))
        reference = dense_rule_scores(grid, rule)
        np.testing.assert_allclose(
            labels.item_scores(rule.scores, rule.shifts), reference,
            rtol=RTOL, atol=RTOL * np.abs(rule.scores).sum())
        assert_same_argmax_where_clear(decomposable_predict(labels, rule),
                                       reference)

    @settings(max_examples=150, deadline=None)
    @given(problems, st.sampled_from(["gds", "hds"]))
    def test_oracle_map_scores_and_posterior(self, problem, kind):
        seed, L, M, N, density = problem
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, M, N, L, density)
        labels = LabelMatrix.from_dense(grid, L)
        model, prior = random_model(rng, M, L, kind), random_prior(rng, L)
        reference = dense_map_scores(grid, model.as_gds(), prior.probs)
        expected = np.exp(reference - reference.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(posterior(model, prior, labels), expected,
                                   rtol=1e-9, atol=1e-12)
        assert_same_argmax_where_clear(
            oracle_map_predict(labels, model, prior), reference)

    @settings(max_examples=150, deadline=None)
    @given(problems, st.sampled_from(["gds", "hds"]))
    def test_one_em_step(self, problem, kind):
        seed, L, M, N, density = problem
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, M, N, L, density)
        labels = LabelMatrix.from_dense(grid, L)
        rho = rng.dirichlet(np.ones(L), size=N)
        fit = em_fit(labels, EmConfig(kind, max_iters=1, init=rho))
        tables, log_rho = dense_em_step(grid, rho, kind)
        np.testing.assert_allclose(fit.worker_model.as_gds(), tables,
                                   rtol=RTOL, atol=1e-15)
        expected = np.exp(log_rho - log_rho.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(fit.posteriors, expected, rtol=1e-9,
                                   atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(problems)
    def test_worker_sums_agreement_and_counts(self, problem):
        seed, L, M, N, density = problem
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, M, N, L, density)
        labels = LabelMatrix.from_dense(grid, L)
        rho = rng.dirichlet(np.ones(L), size=N)
        votes = one_hot(grid, L)[:, :, 1:]
        np.testing.assert_allclose(labels.worker_sums(rho),
                                   np.einsum("ijh,jk->ihk", votes, rho),
                                   rtol=RTOL, atol=1e-15)
        np.testing.assert_allclose(labels.agreement(rho),
                                   np.einsum("ijh,jh->i", votes, rho),
                                   rtol=RTOL, atol=1e-15)
        assert np.array_equal(labels.labels_per_worker(), (grid != 0).sum(1))
        assert labels.num_labels == np.count_nonzero(grid)

    @pytest.mark.filterwarnings("ignore:all worker weights are zero")
    @settings(max_examples=100, deadline=None)
    @given(problems)
    def test_votes_and_agreement_counts_are_exact(self, problem):
        seed, L, M, N, density = problem
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, M, N, L, density)
        labels = LabelMatrix.from_dense(grid, L)
        counts = one_hot(grid, L)[:, :, 1:].sum(axis=0)
        assert np.array_equal(majority_vote(labels), argmax_labels(counts))
        per_worker = (grid != 0).sum(axis=1)
        labelled = per_worker > 0
        truth = rng.integers(1, L + 1, N)
        agree = (grid == truth).sum(axis=1)
        summary = summarize_dataset(labels, truth)
        if labelled.any():
            assert summary.mean_worker_accuracy == np.mean(
                agree[labelled] / per_worker[labelled])
        # One IWMV iteration scores workers against the majority vote.
        hits = (grid == argmax_labels(counts)).sum(axis=1)
        expected = np.full(M, 1.0 / L)
        expected[labelled] = hits[labelled] / per_worker[labelled]
        assert np.array_equal(iwmv(labels, max_iters=1).accuracies, expected)


class TestLabelStore:
    @settings(max_examples=100, deadline=None)
    @given(problems)
    def test_dense_round_trip(self, problem):
        seed, L, M, N, density = problem
        grid = random_grid(np.random.default_rng(seed), M, N, L, density)
        labels = LabelMatrix.from_dense(grid, L)
        assert np.array_equal(labels.dense(), grid)
        assert (labels.num_workers, labels.num_items) == grid.shape

    @settings(max_examples=60, deadline=None)
    @given(problems)
    def test_triples_are_sorted_on_construction(self, problem):
        seed, L, M, N, density = problem
        rng = np.random.default_rng(seed)
        expected = LabelMatrix.from_dense(random_grid(rng, M, N, L, density), L)
        order = rng.permutation(expected.num_labels)
        shuffled = LabelMatrix(expected.workers[order], expected.items[order],
                               expected.labels[order], M, N, L)
        assert_same_matrix(shuffled, expected)

    def test_duplicate_cell_rejected(self):
        with pytest.raises(DomainError, match="worker 2, item 1"):
            LabelMatrix(np.array([1, 0, 1]), np.array([0, 1, 0]),
                        np.array([1, 2, 2]), 2, 2, 2)

    def test_out_of_range_triples_rejected(self):
        for workers, items, labels in (([2], [0], [1]), ([0], [-1], [1]),
                                       ([0], [0], [3]), ([0], [0], [0])):
            with pytest.raises(DomainError):
                LabelMatrix(np.array(workers), np.array(items),
                            np.array(labels), 2, 2, 2)


def assert_same_matrix(actual, expected):
    for name in ("workers", "items", "labels"):
        assert np.array_equal(getattr(actual, name), getattr(expected, name))
    assert ((actual.num_workers, actual.num_items, actual.num_classes)
            == (expected.num_workers, expected.num_items, expected.num_classes))


def write_rows(path, rows):
    path.write_text("worker,item,label\n"
                    + "".join(f"w{w},i{i},{label}\n" for w, i, label in rows))


class TestTriplesFile:
    @settings(max_examples=60, deadline=None)
    @given(problems)
    def test_shuffled_rows_load_to_the_same_matrix(self, tmp_path_factory,
                                                   problem):
        seed, L, M, N, density = problem
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, M, N, L, density)
        workers, items = np.nonzero(grid)
        rows = list(zip(workers, items, grid[workers, items]))
        if not rows:
            return
        # Rows that first name a worker or an item keep their order at the
        # front, so both files number the ids alike; the rest are shuffled.
        named_w, named_i, first, rest = set(), set(), [], []
        for row in rows:
            new = row[0] not in named_w or row[1] not in named_i
            named_w.add(row[0])
            named_i.add(row[1])
            (first if new else rest).append(row)
        shuffled = first + [rest[k] for k in rng.permutation(len(rest))]
        path = tmp_path_factory.mktemp("triples")
        write_rows(path / "sorted.csv", rows)
        write_rows(path / "shuffled.csv", shuffled)
        label_set = LabelSet(L)
        expected, w_ids, i_ids = load_labels(path / "sorted.csv",
                                             label_set=label_set)
        actual, w_ids2, i_ids2 = load_labels(path / "shuffled.csv",
                                             label_set=label_set)
        assert (w_ids2, i_ids2) == (w_ids, i_ids)
        assert_same_matrix(actual, expected)
        named = np.ix_([int(w[1:]) for w in w_ids], [int(i[1:]) for i in i_ids])
        assert np.array_equal(expected.dense(), grid[named])

    @settings(max_examples=40, deadline=None)
    @given(problems)
    def test_duplicate_cell_raises(self, tmp_path_factory, problem):
        seed, L, M, N, density = problem
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, M, N, L, density)
        workers, items = np.nonzero(grid)
        rows = list(zip(workers, items, grid[workers, items]))
        if not rows:
            return
        w, i, label = rows[rng.integers(len(rows))]
        rows.insert(rng.integers(len(rows) + 1), (w, i, label % L + 1))
        path = tmp_path_factory.mktemp("dup") / "labels.csv"
        write_rows(path, rows)
        with pytest.raises(DuplicateLabel) as excinfo:
            load_labels(path, label_set=LabelSet(L))
        assert (excinfo.value.worker, excinfo.value.item) == (f"w{w}", f"i{i}")
