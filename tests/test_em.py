import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdbounds.core import (
    AssignmentModel,
    DomainError,
    LabelMatrix,
    Prior,
    WorkerModel,
    error_rate,
)
from crowdbounds.em import EmConfig, EmResult, em_fit, em_map_predict
from crowdbounds.simulate import SimConfig, sample_workers_beta, simulate_dataset

from test_core import random_label_matrix

MONOTONE_SLACK = 1e-9


def hds_sim(M, N, L, accuracies, q, seed):
    return simulate_dataset(SimConfig(
        M, N, L, Prior.uniform(L), AssignmentModel.constant(q),
        WorkerModel.hds(accuracies, L), seed=seed))


def assert_monotone(trace):
    assert (np.diff(trace) >= -MONOTONE_SLACK).all(), trace


class TestEmFit:
    def test_noiseless_fixed_point(self):
        out = hds_sim(4, 60, 3, [1.0] * 4, q=1.0, seed=0)
        for kind in ("hds", "gds"):
            result = em_fit(out.labels, EmConfig(model_kind=kind))
            assert result.converged and result.iterations <= 3
            if kind == "hds":
                assert np.allclose(result.worker_model.params, 1.0)
            assert np.array_equal(em_map_predict(result), out.truth)
            assert_monotone(result.log_likelihood_trace)

    def test_silent_worker_stays_uninformative(self):
        data = np.array([[1, 2, 1, 2, 1], [0, 0, 0, 0, 0]])
        labels = LabelMatrix.from_dense(data, 2)
        hds = em_fit(labels, EmConfig(model_kind="hds"))
        assert hds.worker_model.params[1] == pytest.approx(0.5)
        gds = em_fit(labels, EmConfig(model_kind="gds"))
        assert np.allclose(gds.worker_model.params[1], 0.5)

    def test_hds_accuracy_recovery(self):
        # 100 independent trials; the mean absolute accuracy deviation
        # stays small once each worker has ~600 labels.
        deviations = []
        for seed in range(100):
            accuracies = sample_workers_beta(31, 2.3, 2.0, tol=0.01,
                                             seed=5_000 + seed)
            out = hds_sim(31, 2000, 3, accuracies, q=0.3, seed=6_000 + seed)
            result = em_fit(out.labels, EmConfig(model_kind="hds"))
            deviations.append(
                np.mean(np.abs(result.worker_model.params - accuracies)))
            assert_monotone(result.log_likelihood_trace)
        assert np.mean(deviations) <= 0.05

    def test_gds_and_hds_agree_on_symmetric_data(self):
        agreements = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            accuracies = rng.uniform(0.6, 0.9, 15)
            out = hds_sim(15, 2000, 2, accuracies, q=0.7, seed=seed)
            hds_pred = em_map_predict(em_fit(out.labels, EmConfig("hds")))
            gds_pred = em_map_predict(em_fit(out.labels, EmConfig("gds")))
            agreements.append((hds_pred == gds_pred).mean())
        assert min(agreements) >= 0.99

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        L = 3
        labels = random_label_matrix(rng, 5, 40, L)
        init = rng.dirichlet(np.ones(L), size=40)
        permutation = np.array([2, 0, 1])  # class k -> permutation[k-1] + 1
        permuted_data = np.where(labels.dense() != 0,
                                 permutation[labels.dense() - 1] + 1, 0)
        permuted = LabelMatrix.from_dense(permuted_data, L)
        base = em_fit(labels, EmConfig("gds", init=init))
        other = em_fit(permuted,
                       EmConfig("gds", init=init[:, np.argsort(permutation)]))
        for k in range(L):
            for l in range(L):
                assert np.allclose(
                    base.worker_model.params[:, k, l],
                    other.worker_model.params[:, permutation[k], permutation[l]],
                    atol=1e-9)
        assert np.allclose(base.prior.probs, other.prior.probs[permutation],
                           atol=1e-9)
        assert np.allclose(base.posteriors, other.posteriors[:, permutation],
                           atol=1e-9)

    def test_exact_iteration_mode_ignores_convergence(self):
        # Noiseless data hits an exact fixed point almost immediately, yet
        # the timing-parity mode must still run every requested iteration.
        out = hds_sim(4, 30, 2, [1.0] * 4, q=1.0, seed=2)
        result = em_fit(out.labels, EmConfig("hds", max_iters=7,
                                             stop_on_convergence=False))
        assert result.iterations == 7
        assert not result.converged
        assert len(result.log_likelihood_trace) == 7
        assert_monotone(result.log_likelihood_trace)

    def test_non_convergence_reported_not_raised(self):
        rng = np.random.default_rng(1)
        labels = random_label_matrix(rng, 6, 50, 2, density=0.5)
        result = em_fit(labels, EmConfig("gds", max_iters=2))
        assert result.iterations == 2
        assert not result.converged

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["hds", "gds"]))
    def test_likelihood_never_decreases(self, seed, kind):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(2, 6))
        N = int(rng.integers(4, 25))
        L = int(rng.integers(2, 4))
        labels = random_label_matrix(rng, M, N, L, density=0.8)
        result = em_fit(labels, EmConfig(kind, max_iters=40))
        assert_monotone(result.log_likelihood_trace)
        assert np.abs(result.posteriors.sum(axis=1) - 1.0).max() <= 1e-9

    def test_provided_init_validated(self):
        labels = LabelMatrix.from_dense(np.array([[1, 2], [2, 2]]), 2)
        with pytest.raises(Exception):
            em_fit(labels, EmConfig("hds", init=np.ones((2, 2))))

    @pytest.mark.parametrize("init", [np.full((2, 2), np.nan),
                                      [[0.5, 0.5], [np.nan, 0.5]]])
    def test_non_finite_init_rejected(self, init):
        labels = LabelMatrix.from_dense(np.array([[1, 2], [2, 2]]), 2)
        with pytest.raises(DomainError):
            em_fit(labels, EmConfig("gds", init=np.array(init)))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            EmConfig(model_kind="sds")
        with pytest.raises(DomainError):
            EmConfig(tolerance=0.0)
        with pytest.raises(DomainError):
            EmConfig(max_iters=0)


class TestEmMapPredict:
    def test_argmax_rows(self):
        result = EmResult(WorkerModel.hds([0.8], 2), Prior.uniform(2),
                          np.array([[0.7, 0.3], [0.5, 0.5], [0.1, 0.9]]),
                          np.array([-1.0]), 1, True)
        assert em_map_predict(result).tolist() == [1, 1, 2]

    def test_em_map_improves_on_mv_with_spammers(self):
        from crowdbounds.aggregate import majority_vote
        accuracies = np.array([0.95, 0.9, 0.9, 0.52, 0.5, 0.48])
        wins = 0
        for seed in range(30):
            out = hds_sim(6, 400, 2, accuracies, q=1.0, seed=seed)
            fitted = em_map_predict(em_fit(out.labels, EmConfig("hds")))
            wins += (error_rate(fitted, out.truth)
                     <= error_rate(majority_vote(out.labels), out.truth))
        assert wins >= 25
