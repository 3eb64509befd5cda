"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest -s`` to see them all).

Expected values marked as hand-derived below were computed from independent
oracles (enumeration, direct formula evaluation) and frozen.
"""

import itertools
import math
import time

import numpy as np
import pytest

import crowdbounds as cb

from test_bounds import exact_mv_error
from test_core import random_label_matrix
from test_harness import make_fixture


def report(criterion, ok, started, detail=""):
    elapsed = time.perf_counter() - started
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s) {detail}")
    return elapsed


def hds_sim(M, N, L, accuracies, q, seed):
    return cb.simulate_dataset(cb.SimConfig(
        M, N, L, cb.Prior.uniform(L), cb.AssignmentModel.constant(q),
        cb.WorkerModel.hds(accuracies, L), seed=seed))


def test_criterion_1_oracle_map_bound_validity():
    # Sweep the target mean accuracy 0.38..0.98; at every point the
    # Monte Carlo mean error of the oracle MAP rule must not exceed the
    # mean closed-form bound.
    started = time.perf_counter()
    grid = tuple(round(0.38 + 0.05 * i, 2) for i in range(13))
    config = cb.ExperimentConfig(
        scenario="hds-sweep", methods=("oracle-map",), trials=100,
        sweep_variable="wbar", sweep_grid=grid, master_seed=20_240,
        sim={"M": 31, "N": 200, "L": 3, "q": 0.3})
    rows = cb.run_experiment(config)
    violations = []
    for value in grid:
        cell = [r for r in rows if r.sweep == value]
        assert len(cell) == 100 and all(r.error is None for r in cell)
        mean_error = np.mean([r.error_rate for r in cell])
        mean_bound = np.mean([r.bound_upper for r in cell])
        if mean_error > mean_bound:
            violations.append((value, mean_error, mean_bound))
    ok = not violations
    elapsed = report(1, ok, started,
                     f"13 sweep points x 100 trials, violations={violations}")
    assert ok
    assert elapsed <= 60


def test_criterion_2_per_item_bound_against_enumeration():
    started = time.perf_counter()
    rule = cb.DecomposableRule.indicator(3, 2)
    assignment = cb.AssignmentModel.constant(1.0)

    def upper_bound(accuracies):
        sq = cb.score_quantities(rule, assignment,
                                 cb.WorkerModel.hds(list(accuracies), 2))
        return cb.per_item_bounds(sq).values["upper"]

    # hand-derived anchors at w = (0.6, 0.6, 0.6)
    exact = exact_mv_error([0.6] * 3)
    assert exact == pytest.approx(0.352, abs=1e-12)
    bound = upper_bound([0.6] * 3)
    assert bound == pytest.approx(min(math.exp(-0.06), math.exp(-0.05625)),
                                  abs=1e-12)
    assert bound == pytest.approx(0.9418, abs=5e-5)

    grid = [0.55 + 0.05 * i for i in range(9)]
    violations = 0
    for combo in itertools.product(grid, repeat=3):
        if exact_mv_error(combo) > upper_bound(combo) + 1e-12:
            violations += 1
    ok = violations == 0
    elapsed = report(2, ok, started,
                     f"729 accuracy triples, violations={violations}, "
                     f"anchor exact={exact:.3f} <= bound={bound:.4f}")
    assert ok
    assert elapsed <= 5


def test_criterion_3_high_probability_guarantee():
    # Sixteen unit-weight workers of accuracy 0.75 give a normalised gap of
    # exactly 2.0; the empirical frequency of {error <= 0.3} over 1000
    # trials must reach the theoretical guarantee up to 0.02.
    started = time.perf_counter()
    M, N, epsilon = 16, 200, 0.3
    accuracies = np.full(M, 0.75)
    weights = np.ones(M)
    quantities = cb.quantities_wmv_hds(1.0, weights, accuracies, 2)
    assert quantities.t_low >= 2.0
    guarantee_report = cb.high_probability_bound(quantities, N, epsilon)
    assert guarantee_report.condition_holds["upper"]
    guarantee = guarantee_report.values["upper_guarantee"]
    hits = 0
    for seed in range(1000):
        out = hds_sim(M, N, 2, accuracies, q=1.0, seed=30_000 + seed)
        predictions = cb.weighted_majority_vote(out.labels, weights)
        hits += cb.error_rate(predictions, out.truth) <= epsilon
    frequency = hits / 1000
    ok = frequency >= guarantee - 0.02
    elapsed = report(3, ok, started,
                     f"freq={frequency:.4f} guarantee={guarantee:.6f}")
    assert ok
    assert elapsed <= 60


def test_criterion_4_majority_vote_consistency_trend():
    started = time.perf_counter()
    means = {}
    for M in (11, 51, 201):
        errors = []
        for s in range(100):
            out = hds_sim(M, 500, 2, np.full(M, 0.65), 1.0,
                          40_000 + 100 * M + s)
            errors.append(cb.error_rate(cb.majority_vote(out.labels),
                                        out.truth))
        means[M] = float(np.mean(errors))
    bound_report = cb.mv_bounds_hds(1.0, 0.65, 201, 2)
    bound = bound_report.values["quadratic"]
    assert bound == pytest.approx(math.exp(-9.045), rel=1e-12)
    assert bound == pytest.approx(1.2e-4, abs=1e-5)
    ok = (means[201] <= 0.01 and means[11] > means[51] > means[201]
          and means[201] <= bound + 3 * math.sqrt(bound / (100 * 500)) + 1e-3)
    elapsed = report(4, ok, started,
                     f"means={means} bound(M=201)={bound:.2e}")
    assert means[201] <= 0.01
    assert means[11] > means[51] > means[201]
    assert ok
    assert elapsed <= 30


def test_criterion_5_one_step_wmv_bound():
    started = time.perf_counter()
    M, N = 15, 2000
    accuracies = np.full(M, 0.8)
    bound_report = cb.one_step_wmv_bound(accuracies, N)
    assert bound_report.thresholds["mean_accuracy"] == pytest.approx(
        0.7135, abs=5e-5)
    assert bound_report.condition_holds["upper"]
    bound = bound_report.values["bound"]
    errors = []
    for seed in range(100):
        out = hds_sim(M, N, 2, accuracies, q=1.0, seed=50_000 + seed)
        errors.append(cb.error_rate(cb.one_step_wmv(out.labels), out.truth))
    mean_error = float(np.mean(errors))
    ok = mean_error <= bound
    elapsed = report(5, ok, started,
                     f"mean error={mean_error:.5f} <= bound={bound:.4f}")
    assert ok
    assert elapsed <= 60


def test_criterion_6_iwmv_em_parity():
    started = time.perf_counter()
    details = []
    ok = True
    for index, N in enumerate((1000, 3000)):
        iwmv_errors, em_errors, iwmv_iters, em_iters = [], [], [], []
        for seed in range(100):
            accuracies = cb.sample_workers_beta(
                31, 2.3, 2.0, tol=0.01, seed=60_000 + 1000 * index + seed)
            out = hds_sim(31, N, 3, accuracies, q=0.3,
                          seed=70_000 + 1000 * index + seed)
            iwmv_result = cb.iwmv(out.labels)
            iwmv_errors.append(cb.error_rate(iwmv_result.predictions, out.truth))
            iwmv_iters.append(iwmv_result.iterations)
            em_result = cb.em_fit(out.labels, cb.EmConfig(model_kind="hds"))
            em_errors.append(cb.error_rate(cb.em_map_predict(em_result),
                                           out.truth))
            em_iters.append(em_result.iterations)
        gap = abs(np.mean(iwmv_errors) - np.mean(em_errors))
        ok &= gap <= 0.02 and np.mean(iwmv_iters) <= np.mean(em_iters)
        details.append(f"N={N}: |diff|={gap:.4f} "
                       f"iters {np.mean(iwmv_iters):.1f}<={np.mean(em_iters):.1f}")
    elapsed = report(6, ok, started, "; ".join(details))
    assert ok
    assert elapsed <= 300


def test_criterion_7_misspecification_robustness():
    started = time.perf_counter()
    iwmv_errors, em_errors = [], []
    for seed in range(100):
        out = cb.make_misspecified_dataset(
            15, 15, 300, 300, [[0.9, 0.6], [0.5, 0.7]], q=0.3,
            seed=80_000 + seed)
        iwmv_errors.append(cb.error_rate(cb.iwmv(out.labels).predictions,
                                         out.truth))
        em_result = cb.em_fit(out.labels, cb.EmConfig(model_kind="hds"))
        em_errors.append(cb.error_rate(cb.em_map_predict(em_result), out.truth))
    iwmv_mean, em_mean = float(np.mean(iwmv_errors)), float(np.mean(em_errors))
    ok = iwmv_mean <= em_mean + 0.01
    elapsed = report(7, ok, started,
                     f"IWMV={iwmv_mean:.4f} EM-HDS={em_mean:.4f}")
    assert ok
    assert elapsed <= 60


def test_criterion_8_structural_invariants():
    started = time.perf_counter()
    cases = 200
    rng = np.random.default_rng(90_210)

    # reductions and tie-compatible equivalences, one random instance each
    for _ in range(cases):
        L = int(rng.integers(2, 5))
        M = int(rng.integers(2, 8))
        labels = random_label_matrix(rng, M, 25, L)
        weights = rng.normal(size=M)
        assert np.array_equal(
            cb.decomposable_predict(labels, cb.DecomposableRule.indicator(M, L)),
            cb.majority_vote(labels))
        assert np.array_equal(
            cb.decomposable_predict(
                labels, cb.DecomposableRule.weighted_indicator(weights, L)),
            cb.weighted_majority_vote(labels, weights))
        scale = float(rng.uniform(0.1, 10.0))
        assert np.array_equal(cb.weighted_majority_vote(labels, weights),
                              cb.weighted_majority_vote(labels, scale * weights))
        result = cb.iwmv(labels, max_iters=1)
        assert np.array_equal(result.predictions, cb.one_step_wmv(labels))

    # the weighted-vote gap measures coincide, and the linear weights
    # maximise them over random directions
    for _ in range(cases):
        L = int(rng.integers(2, 5))
        M = int(rng.integers(2, 9))
        q = float(rng.uniform(0.05, 1.0))
        accuracies = rng.uniform(0.05, 0.95, M)
        weights = rng.normal(size=M)
        if np.linalg.norm(weights) < 1e-9:
            weights[0] = 1.0
        sq = cb.quantities_wmv_hds(q, weights, accuracies, L)
        assert sq.t_low == sq.t_high
    for _ in range(5):
        L = int(rng.integers(2, 5))
        M = int(rng.integers(3, 9))
        q = float(rng.uniform(0.1, 1.0))
        accuracies = rng.uniform(0.05, 0.95, M)
        best = cb.quantities_wmv_hds(
            q, cb.bound_optimal_weights(accuracies, L), accuracies, L).t_low
        for _ in range(200):
            direction = rng.normal(size=M)
            direction /= np.linalg.norm(direction)
            assert cb.quantities_wmv_hds(q, direction, accuracies, L).t_low \
                <= best + 1e-9

    # the log-odds weighting needs no gap condition on an accuracy grid
    grid = np.linspace(0.02, 0.98, 15)
    checked = 0
    for L in (2, 3, 4):
        for w1 in grid:
            for w2 in grid:
                accuracies = np.array([w1, w2])
                weights = cb.oracle_map_weights_hds(accuracies, L)
                if np.linalg.norm(weights) < 1e-12:
                    continue
                assert cb.quantities_wmv_hds(0.5, weights, accuracies,
                                             L).t_low >= -1e-12
                checked += 1
    assert checked >= 200

    # EM likelihood monotonicity and posterior normalisation
    for _ in range(cases):
        L = int(rng.integers(2, 4))
        M = int(rng.integers(2, 6))
        N = int(rng.integers(4, 20))
        labels = random_label_matrix(rng, M, N, L, density=0.8)
        kind = "hds" if rng.random() < 0.5 else "gds"
        result = cb.em_fit(labels, cb.EmConfig(kind, max_iters=30))
        assert (np.diff(result.log_likelihood_trace) >= -1e-9).all()
        assert np.abs(result.posteriors.sum(axis=1) - 1.0).max() <= 1e-9
        raw = rng.uniform(0.05, 1.0, size=(M, L, L))
        model = cb.WorkerModel.gds(raw / raw.sum(axis=2, keepdims=True))
        rho = cb.posterior(model, cb.Prior.uniform(L), labels)
        assert np.abs(rho.sum(axis=1) - 1.0).max() <= 1e-9

    elapsed = report(8, True, started, f"{cases} cases per invariant family")
    assert elapsed <= 120


def test_criterion_9_table_shaped_data_path(tmp_path):
    started = time.perf_counter()
    shapes = {"duchenne": (17, 159, 1221, 2), "rte": (164, 800, 8000, 2),
              "web_search": (177, 2665, 15539, 5)}
    results = {}
    for index, (name, (M, N, count, L)) in enumerate(shapes.items()):
        path = tmp_path / f"{name}.csv"
        make_fixture(path, M, N, count, L, seed=100 + index)
        labels, workers, items = cb.load_labels(path, label_set=cb.LabelSet(L))
        summary = cb.summarize_dataset(labels)
        assert (summary.num_workers, summary.num_items, summary.num_labels) \
            == (M, N, count)
        assert summary.num_classes == L
        assert len(workers) == M and len(items) == N
        results[name] = summary.density
    assert round(100 * results["duchenne"], 1) == 45.2
    ok = True
    report(9, ok, started,
           f"densities: " + ", ".join(f"{k}={v:.3f}" for k, v in results.items()))
    assert ok
