"""``em_fit_many`` against ``em_fit`` run on one matrix at a time.

The batch stacks its trials block-diagonally and keeps a stopped trial in
the stack until fewer than three quarters still run, so trial sets of
mixed shapes, rates and stopping iterations cover every path through it;
each trial must give the bits of its own fit.
"""

import re

import numpy as np
import pytest

from crowdbounds.core import DimensionMismatch, DomainError, LabelMatrix
from crowdbounds.em import EmConfig, _Stack, em_fit, em_fit_many


def random_matrix(rng, L, shape=None):
    M, N = shape or rng.integers(1, 61, size=2)
    grid = rng.integers(1, L + 1, size=(M, N))
    accurate = rng.random((M, 1)) < rng.uniform(0.3, 0.9)
    truth = rng.integers(1, L + 1, size=N)
    grid = np.where(accurate & (rng.random((M, N)) < 0.7), truth, grid)
    grid[rng.random((M, N)) > rng.uniform(0.05, 1.0)] = 0
    return LabelMatrix.from_dense(grid, L)


def random_config(rng, kind):
    stop = bool(rng.random() < 0.75)
    return EmConfig(kind, tolerance=float(rng.choice([1e-3, 1e-5, 1e-8])),
                    max_iters=int(rng.integers(1, 61)),
                    stop_on_convergence=stop)


def assert_same_fit(got, want):
    assert np.array_equal(got.posteriors, want.posteriors)
    assert np.array_equal(got.log_likelihood_trace, want.log_likelihood_trace)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.worker_model.kind == want.worker_model.kind
    assert np.array_equal(got.worker_model.params, want.worker_model.params)
    assert np.array_equal(got.prior.probs, want.prior.probs)


@pytest.mark.parametrize("kind", ["gds", "hds"])
def test_batched_fits_equal_single_fits(kind):
    rng = np.random.default_rng(["gds", "hds"].index(kind))
    for _ in range(120):
        L = int(rng.integers(2, 6))
        trials = int(rng.choice([1, 2, 3, 5, 8, 13]))
        matrices = [random_matrix(rng, L) for _ in range(trials)]
        config = random_config(rng, kind)
        for got, labels in zip(em_fit_many(matrices, config), matrices):
            assert_same_fit(got, em_fit(labels, config))


def test_a_large_batch_of_one_shape_rebuilds_as_fits_stop():
    rng = np.random.default_rng(7)
    matrices = [random_matrix(rng, 3, (31, 60)) for _ in range(65)]
    for kind in ("gds", "hds"):
        config = EmConfig(kind, max_iters=200)
        fits = em_fit_many(matrices, config)
        assert len({fit.iterations for fit in fits}) > 10
        for got, labels in zip(fits, matrices):
            assert_same_fit(got, em_fit(labels, config))


def test_an_init_that_misfits_one_matrix_raises_before_any_step(monkeypatch):
    rng = np.random.default_rng(8)
    matrices = [random_matrix(rng, 3, (12, N)) for N in (20, 20, 25, 20)]
    init = rng.dirichlet(np.ones(3), 20)
    config = EmConfig("gds", init=init)
    with pytest.raises(DimensionMismatch) as alone:
        em_fit(matrices[2], config)
    steps = []
    with monkeypatch.context() as patch:
        patch.setattr(_Stack, "step", lambda *args: steps.append(args))
        with pytest.raises(DimensionMismatch,
                           match=re.escape(str(alone.value))):
            em_fit_many(matrices, config)
    assert not steps
    others = [matrices[t] for t in (0, 1, 3)]
    for got, labels in zip(em_fit_many(others, config), others):
        assert_same_fit(got, em_fit(labels, config))
    assert em_fit_many([], config) == []
    with pytest.raises(DimensionMismatch):
        em_fit_many([matrices[0], random_matrix(rng, 2)], config)


@pytest.mark.parametrize("init, error, message", [
    ("uniform", DomainError, "unknown initialization 'uniform'"),
    (np.full(3, 1 / 3), DimensionMismatch,
     re.escape("initial posteriors must be (items, classes)")),
    ([[0.5, 0.5], [1.5, -0.5]], DomainError, "must be probability rows"),
    ([[0.5, 0.5], [0.5, 0.6]], DomainError, "must be probability rows"),
    ([[0.5, 0.5], [np.nan, 0.5]], DomainError, "must be probability rows"),
])
def test_a_bad_init_raises_when_the_config_is_made(init, error, message):
    with pytest.raises(error, match=message):
        EmConfig("hds", init=init)
