import numpy as np
import pytest

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
        with pytest.raises(DomainError):
            sample_workers_beta(5, 1.0, 2.0, 1.5)
        with pytest.raises(DomainError):
            sample_workers_beta(5, 1.0, 2.0, 0.5, tol=0.0)


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
