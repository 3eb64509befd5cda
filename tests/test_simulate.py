import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crowdbounds import simulate
from crowdbounds.cli import main
from crowdbounds.core import AssignmentModel, DomainError, Prior, WorkerModel
from crowdbounds.simulate import (
    RejectionBudgetExceeded,
    SimConfig,
    derive_rng,
    make_misspecified_dataset,
    sample_workers_beta,
    simulate_dataset,
)


def hds_config(M, N, L, accuracies, q, seed=0, prior=None):
    return SimConfig(M, N, L, prior or Prior.uniform(L),
                     AssignmentModel.constant(q),
                     WorkerModel.hds(accuracies, L), seed=seed)


class TestSampleWorkersBeta:
    def test_conditioned_mean_at_reference_parameters(self):
        target = 2.3 / 4.3
        draws = sample_workers_beta(31, 2.3, 2.0, target, tol=0.01, seed=42)
        assert draws.shape == (31,)
        assert abs(draws.mean() - target) <= 0.01
        assert draws.min() > 0 and draws.max() < 1

    def test_vacuous_tolerance_accepts_first_batch(self):
        draws = sample_workers_beta(10, 2.0, 3.0, 0.4, tol=1.0, seed=7)
        first = derive_rng(7, "worker-accuracies").beta(2.0, 3.0, size=10)
        assert np.array_equal(draws, first)

    def test_infeasible_target_exhausts_budget(self):
        with pytest.raises(RejectionBudgetExceeded):
            sample_workers_beta(5, 1.0, 1.0, 0.99, tol=1e-6, seed=0,
                                max_batches=10)

    def test_determinism(self):
        a = sample_workers_beta(31, 2.3, 2.0, 2.3 / 4.3, seed=9)
        b = sample_workers_beta(31, 2.3, 2.0, 2.3 / 4.3, seed=9)
        assert np.array_equal(a, b)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            sample_workers_beta(5, -1.0, 2.0, 0.5)
        with pytest.raises(DomainError, match="finite"):
            sample_workers_beta(5, 2.0, float("inf"), 0.5)
        with pytest.raises(DomainError):
            sample_workers_beta(5, 1.0, 2.0, 1.5)
        with pytest.raises(DomainError):
            sample_workers_beta(5, 1.0, 2.0, 0.5, tol=0.0)

    def test_a_hopeless_target_exits_1_before_any_draw(self, tmp_path, capsys,
                                                       monkeypatch):
        # Beta(2.3, 2.0) has mean 0.535; a batch mean of 500 workers has
        # an sd of about 0.01, so 0.6 +/- 0.01 lies 5.7 sds out.
        def no_draws(*args):
            raise AssertionError("the sampler drew batches")

        monkeypatch.setattr(simulate, "derive_rng", no_draws)
        out = tmp_path / "labels.csv"
        code = main(["simulate", "--workers", "500", "--items", "10",
                     "--classes", "3", "--target-mean", "0.6",
                     "--out-labels", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and "100000 batches" in err, err
        assert not out.exists()
        for target in (0.39, 0.54):  # either side of the mean 0.465
            with pytest.raises(RejectionBudgetExceeded, match="chance below"):
                sample_workers_beta(500, 2.0, 2.3, target)

    @pytest.mark.parametrize("M, a, b, x", [
        (5, 1.0, 1.0, 0.8), (1, 0.3, 2.0, 0.6), (3, 0.5, 0.5, 0.85),
        (2, 0.05, 3.0, 0.3), (50, 2.3, 2.0, 0.6)])
    def test_the_tail_bound_holds_against_draws(self, M, a, b, x):
        means = np.random.default_rng(M).beta(a, b, (200_000, M)).mean(axis=1)
        assert np.mean(means >= x) <= np.exp(
            simulate._log_tail_bound(M, a, b, x))

    def test_a_reachable_target_draws_as_before(self):
        # A single heavy-tailed worker lands far from the mean now and then.
        draws = sample_workers_beta(1, 0.05, 3.0, 0.5, tol=0.05, seed=1)
        rng = derive_rng(1, "worker-accuracies")
        while True:
            batch = rng.beta(0.05, 3.0, size=1)
            if abs(batch.mean() - 0.5) <= 0.05:
                break
        assert np.array_equal(draws, batch)


class TestSimulateDataset:
    def test_certain_assignment_gives_full_mask(self):
        out = simulate_dataset(hds_config(4, 30, 2, [0.7] * 4, q=1.0))
        assert (out.labels.dense() != 0).all()

    def test_noiseless_workers_copy_the_truth(self):
        out = simulate_dataset(hds_config(3, 50, 3, [1.0] * 3, q=1.0))
        assert np.array_equal(out.labels.dense(),
                              np.broadcast_to(out.truth, (3, 50)))

    def test_uniform_prior_class_balance(self):
        # Binomial(3000, 1/3) stays within [900, 1100] far beyond 3 sigma.
        out = simulate_dataset(hds_config(2, 3000, 3, [0.6, 0.6], q=0.5, seed=5))
        counts = np.bincount(out.truth, minlength=4)[1:]
        assert counts.min() >= 900 and counts.max() <= 1100

    def test_bit_determinism(self):
        config = hds_config(5, 40, 3, [0.5, 0.6, 0.7, 0.8, 0.9], q=0.4, seed=123)
        out1 = simulate_dataset(config)
        out2 = simulate_dataset(config)
        assert np.array_equal(out1.truth, out2.truth)
        assert np.array_equal(out1.labels.dense(), out2.labels.dense())

    def test_mask_density_matches_assignment(self):
        M, N, q = 10, 5000, 0.3
        out = simulate_dataset(hds_config(M, N, 2, [0.7] * M, q=q, seed=17))
        observed = (out.labels.dense() != 0).mean()
        sigma = np.sqrt(q * (1 - q) / (M * N))
        assert abs(observed - q) <= 4 * sigma

    def test_conditional_label_marginals(self):
        # Empirical frequency of each observed label given the true class
        # tracks the confusion table within +/-0.02 at N=20000.
        rng = np.random.default_rng(3)
        L, M, N = 3, 3, 20000
        raw = rng.uniform(0.05, 1.0, size=(M, L, L))
        model = WorkerModel.gds(raw / raw.sum(axis=2, keepdims=True))
        config = SimConfig(M, N, L, Prior.uniform(L),
                           AssignmentModel.constant(0.8), model, seed=11)
        out = simulate_dataset(config)
        tables = model.as_gds()
        grid = out.labels.dense()
        for i in range(M):
            for k in range(1, L + 1):
                seen = (out.truth == k) & (grid[i] != 0)
                assert seen.sum() > 1000
                for l in range(1, L + 1):
                    freq = np.mean(grid[i, seen] == l)
                    assert abs(freq - tables[i, k - 1, l - 1]) <= 0.02

    def test_vector_assignment_controls_per_worker_density(self):
        probs = np.array([0.1, 0.9])
        config = SimConfig(2, 8000, 2, Prior.uniform(2),
                           AssignmentModel.vector(probs),
                           WorkerModel.hds([0.7, 0.7], 2), seed=2)
        out = simulate_dataset(config)
        rates = (out.labels.dense() != 0).mean(axis=1)
        assert abs(rates[0] - 0.1) < 0.02 and abs(rates[1] - 0.9) < 0.02

    def test_matrix_assignment_controls_per_cell_density(self):
        probs = np.tile(np.array([[0.2], [0.8]]), (1, 6000))
        config = SimConfig(2, 6000, 2, Prior.uniform(2),
                           AssignmentModel.matrix(probs),
                           WorkerModel.hds([0.7, 0.7], 2), seed=6)
        out = simulate_dataset(config)
        rates = (out.labels.dense() != 0).mean(axis=1)
        assert abs(rates[0] - 0.2) < 0.025 and abs(rates[1] - 0.8) < 0.025


class TestMisspecifiedDataset:
    def test_reference_block_configuration_runs(self):
        out = make_misspecified_dataset(15, 15, 300, 300,
                                        [[0.9, 0.6], [0.5, 0.7]], q=0.3, seed=0)
        assert out.labels.num_workers == 30
        assert out.labels.num_items == 600
        assert set(np.unique(out.truth)) <= {1, 2}

    def test_perfect_block_copies_truth_on_mask(self):
        out = make_misspecified_dataset(3, 3, 40, 40, [[1, 1], [1, 1]],
                                        q=0.5, seed=1)
        mask = out.labels.dense() != 0
        assert np.array_equal(out.labels.dense()[mask],
                              np.broadcast_to(out.truth, (6, 80))[mask])

    def test_coin_flip_block_agreement_rate(self):
        out = make_misspecified_dataset(4, 4, 500, 500,
                                        [[0.5, 0.5], [0.5, 0.5]], q=1.0, seed=3)
        agree = (out.labels.dense() == out.truth[None, :]).mean()
        n = out.labels.dense().size
        assert abs(agree - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_block_probabilities_validated(self):
        with pytest.raises(DomainError):
            make_misspecified_dataset(2, 2, 5, 5, [[1.2, 0.5], [0.5, 0.5]], q=0.5)

    def test_group_block_accuracies_realised(self):
        out = make_misspecified_dataset(10, 10, 400, 400,
                                        [[0.9, 0.6], [0.5, 0.7]], q=1.0, seed=9)
        data, truth = out.labels.dense(), out.truth
        blocks = [(slice(0, 10), slice(0, 400), 0.9),
                  (slice(0, 10), slice(400, 800), 0.6),
                  (slice(10, 20), slice(0, 400), 0.5),
                  (slice(10, 20), slice(400, 800), 0.7)]
        for rows, cols, accuracy in blocks:
            agree = (data[rows, cols] == truth[cols][None, :]).mean()
            assert abs(agree - accuracy) <= 4 * np.sqrt(0.25 / 4000)


class TestDeriveRng:
    def test_streams_are_stable_and_distinct(self):
        a = derive_rng(1, "x", 0).random(4)
        b = derive_rng(1, "x", 0).random(4)
        c = derive_rng(1, "x", 1).random(4)
        d = derive_rng(1, "y", 0).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: Prior([NAN, 0.5]),
    lambda: AssignmentModel.vector([0.5, NAN]),
    lambda: WorkerModel.gds([[[NAN, 1.0], [0.5, 0.5]]]),
    lambda: WorkerModel.sds([[0.7, NAN]]),
    lambda: WorkerModel.hds([0.7, NAN], 2),
    lambda: make_misspecified_dataset(2, 2, 5, 5, [[NAN, 0.5], [0.5, 0.5]], 0.5),
    lambda: sample_workers_beta(5, NAN, 2.0, 0.5),
    lambda: sample_workers_beta(5, 2.0, 2.0, 0.5, tol=NAN),
])
def test_nan_model_values_are_out_of_range(make):
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize("options, quantity", [
    (["--q", "nan"], "assignment probabilities"),
    (["--accuracies", "nan,0.7,0.8"], "accuracies"),
    (["--tol", "nan", "--target-mean", "0.6"], "tolerance"),
    (["--beta-a", "nan"], "beta shape parameters"),
    # Infinite shapes are named before the default target a / (a + b) is
    # formed, and before a given target starts drawing batches.
    (["--beta-a", "inf"], "beta shape parameters"),
    (["--beta-b", "inf"], "beta shape parameters"),
    (["--beta-a", "inf", "--target-mean", "0.6"], "beta shape parameters"),
    (["--beta-b", "inf", "--target-mean", "0.6"], "beta shape parameters"),
])
def test_simulate_rejects_nan_options_at_once(tmp_path, capsys, options,
                                              quantity):
    out = tmp_path / "labels.csv"
    code = main(["simulate", "--workers", "3", "--items", "5", *options,
                 "--out-labels", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and quantity in err, err
    assert not out.exists()


def whole_grid_simulate(config):
    """``simulate_dataset`` drawing each grid of uniforms whole: the
    reference of the block draws."""
    rng = derive_rng(config.seed, "simulate")
    M, N, L = config.num_workers, config.num_items, config.num_classes
    truth = rng.choice(np.arange(1, L + 1), size=N, p=config.prior.probs)
    probs = config.assignment.full(M, N)
    workers, items = np.nonzero(rng.random((M, N)) < probs)
    draws = rng.random((M, N))[workers, items]
    cdf = np.cumsum(config.worker_model.as_gds(), axis=2)[workers, truth[items] - 1]
    sampled = (draws[:, None] > cdf).sum(axis=1) + 1
    np.minimum(sampled, L, out=sampled)
    return truth, workers, items, sampled


def whole_grid_misspecified(group1_size, group2_size, set1_size, set2_size,
                            block, q, seed):
    """``make_misspecified_dataset`` drawing each grid whole."""
    block = np.asarray(block, dtype=float)
    rng = derive_rng(seed, "misspecified")
    M = group1_size + group2_size
    N = set1_size + set2_size
    truth = rng.integers(1, 3, size=N)
    workers, items = np.nonzero(rng.random((M, N)) < q)
    accuracy = block[(workers >= group1_size).astype(int),
                     (items >= set1_size).astype(int)]
    correct = rng.random((M, N))[workers, items] < accuracy
    return truth, workers, items, np.where(correct, truth[items], 3 - truth[items])


def triples(out):
    labels = out.labels
    return out.truth, labels.workers, labels.items, labels.labels


class TestBlockDraws:
    """Drawn in blocks of any size, split anywhere in a row, the samplers'
    uniforms are those of whole grids, so truth and triples are too."""

    M, N, L = 13, 50, 3
    BLOCKS = [1, 7, 101, N - 1, N + 1, 1 << 20]

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("kind", ["constant", "vector", "matrix"])
    def test_simulate_dataset(self, monkeypatch, block, kind):
        rng = np.random.default_rng(block)
        probs = {"constant": 0.3,
                 "vector": rng.uniform(0.05, 1.0, self.M),
                 "matrix": rng.uniform(0.05, 1.0, (self.M, self.N))}[kind]
        config = SimConfig(self.M, self.N, self.L, Prior([0.2, 0.3, 0.5]),
                           AssignmentModel(kind, probs),
                           WorkerModel.hds(rng.uniform(0.3, 1, self.M), self.L),
                           seed=block)
        monkeypatch.setattr(simulate, "_DRAW_BLOCK", block)
        for got, want in zip(triples(simulate_dataset(config)),
                             whole_grid_simulate(config)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_misspecified_dataset(self, monkeypatch, block):
        args = (5, 8, 20, 30, [[0.9, 0.6], [0.5, 0.7]], 0.4, block)
        monkeypatch.setattr(simulate, "_DRAW_BLOCK", block)
        for got, want in zip(triples(make_misspecified_dataset(*args)),
                             whole_grid_misspecified(*args)):
            assert np.array_equal(got, want)


def test_samplers_hold_one_block_of_uniforms():
    """At 500 x 20,000 cells (q = 0.01), neither sampler holds a whole grid
    of uniforms (80 MB)."""
    config = hds_config(500, 20_000, 3, np.full(500, 0.7), 0.01, seed=1)
    for sample in (lambda: simulate_dataset(config),
                   lambda: make_misspecified_dataset(
                       250, 250, 10_000, 10_000, [[0.9, 0.6], [0.5, 0.7]],
                       q=0.01, seed=1)):
        tracemalloc.start()
        try:
            sample()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, peak


def test_simulate_of_a_large_sparse_grid_stays_small(tmp_path):
    """``simulate`` on 20,000 x 10,000 cells (about 20,000 labels) runs
    under a 1 GiB address-space limit that a whole grid of uniforms
    (1.6 GB) would exceed."""
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from crowdbounds.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(simulate.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", child, "simulate", "--workers", "20000",
         "--items", "10000", "--q", "0.0001", "--classes", "3",
         "--out-labels", str(tmp_path / "labels.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    labels = json.loads(done.stdout)["labels"]
    assert abs(labels - 20_000) < 4 * np.sqrt(20_000)
