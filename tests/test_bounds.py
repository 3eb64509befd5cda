import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdbounds.core import (
    AssignmentModel,
    DecomposableRule,
    DomainError,
    Prior,
    WorkerModel,
    error_rate,
)
from crowdbounds.aggregate import (
    bound_optimal_weights,
    hyperplane_predict,
    majority_vote,
    oracle_map_weights_hds,
    weighted_majority_vote,
)
from crowdbounds.bounds import (
    bernoulli_kl,
    binary_entropy,
    confidence_thresholds,
    high_probability_bound,
    mean_error_bounds,
    mv_bounds_hds,
    one_step_wmv_bound,
    per_item_bounds,
    quantities_hyperplane,
    quantities_wmv_hds,
    score_quantities,
    unnormalized_gaussian,
)
from crowdbounds.simulate import SimConfig, simulate_dataset


def mv_rule(M, L):
    return DecomposableRule.indicator(M, L)


def exact_mv_error(accuracies):
    """Brute-force mean error of binary majority voting on one item.

    Enumerates every label vector and both true classes (uniform prior);
    ties go to class 1, matching the default policy.
    """
    accuracies = list(accuracies)
    M = len(accuracies)
    total = 0.0
    for truth in (1, 2):
        for bits in itertools.product((True, False), repeat=M):
            prob = 1.0
            votes = []
            for correct, w in zip(bits, accuracies):
                votes.append(truth if correct else 3 - truth)
                prob *= w if correct else 1 - w
            count1 = sum(1 for v in votes if v == 1)
            predicted = 1 if count1 >= M - count1 else 2
            total += 0.5 * prob * (predicted != truth)
    return total


class TestScalarFunctions:
    def test_gaussian_at_zero(self):
        assert unnormalized_gaussian(0.0) == 1.0

    def test_gaussian_at_two(self):
        assert unnormalized_gaussian(2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-20, 20))
    def test_gaussian_is_even(self, x):
        assert unnormalized_gaussian(-x) == pytest.approx(
            unnormalized_gaussian(x), rel=1e-12)

    def test_kl_of_equal_parameters_vanishes(self):
        assert bernoulli_kl(0.3, 0.3) == 0.0

    def test_kl_reference_values(self):
        assert bernoulli_kl(0.1, 0.5) == pytest.approx(
            0.1 * math.log(0.2) + 0.9 * math.log(1.8), rel=1e-14)
        assert bernoulli_kl(0.5, 0.1) == pytest.approx(
            0.5 * math.log(5.0) + 0.5 * math.log(0.5 / 0.9), rel=1e-14)
        assert bernoulli_kl(0.5, 0.1) == pytest.approx(0.51083, abs=5e-6)

    def test_kl_domain(self):
        for x, y in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)]:
            with pytest.raises(DomainError):
                bernoulli_kl(x, y)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 1 - 1e-6))
    def test_kl_nonnegative(self, x, y):
        assert bernoulli_kl(x, y) >= -1e-15

    def test_entropy_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), rel=1e-15)

    def test_entropy_reference_value(self):
        assert binary_entropy(0.1) == pytest.approx(
            -0.1 * math.log(0.1) - 0.9 * math.log(0.9), rel=1e-14)
        assert binary_entropy(0.1) == pytest.approx(0.32508, abs=5e-6)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 1 - 1e-6))
    def test_entropy_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), rel=1e-9)

    def test_entropy_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(0.0)


class TestScoreQuantities:
    def test_wmv_hds_hand_case(self):
        rule = DecomposableRule.weighted_indicator([1.0, 1.0], 2)
        model = WorkerModel.hds([0.8, 0.6], 2)
        sq = score_quantities(rule, AssignmentModel.constant(1.0), model)
        assert sq.t_low == pytest.approx(0.8 / math.sqrt(2), abs=1e-12)
        assert sq.t_high == pytest.approx(0.8 / math.sqrt(2), abs=1e-12)
        assert sq.c == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert sq.sigma_sq == pytest.approx(1.0, abs=1e-9)

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(8)
        rule = DecomposableRule.weighted_indicator(rng.normal(size=4), 3)
        model = WorkerModel.hds(rng.uniform(0.3, 0.9, 4), 3)
        assignment = AssignmentModel.vector(rng.uniform(0.2, 1.0, 4))
        base = score_quantities(rule, assignment, model)
        scaled = DecomposableRule(3.0 * rule.scores + 5.0, 3.0 * rule.shifts)
        other = score_quantities(scaled, assignment, model)
        for attr in ("t_low", "t_high", "c", "sigma_sq"):
            assert getattr(other, attr) == pytest.approx(
                getattr(base, attr), abs=1e-9)

    def test_majority_vote_normalisation(self):
        sq = score_quantities(mv_rule(7, 3), AssignmentModel.constant(0.4),
                              WorkerModel.hds([0.5] * 7, 3))
        assert sq.score_norm == pytest.approx(math.sqrt(7), rel=1e-12)
        assert sq.c == pytest.approx(1 / math.sqrt(7), rel=1e-12)

    def test_matrix_assignment_gives_per_item_taus(self):
        probs = np.array([[1.0, 0.2], [1.0, 0.2], [1.0, 0.2]])
        sq = score_quantities(mv_rule(3, 2), AssignmentModel.matrix(probs),
                              WorkerModel.hds([0.8] * 3, 2))
        assert sq.tau_min.shape == (2,)
        assert sq.tau_min[0] == pytest.approx(5 * sq.tau_min[1], rel=1e-9)
        assert sq.t_low == pytest.approx(sq.tau_min.min())

    def test_degenerate_rule_rejected(self):
        scores = np.zeros((2, 2, 2))
        with pytest.raises(DomainError):
            score_quantities(DecomposableRule(scores, np.zeros(2)),
                             AssignmentModel.constant(1.0),
                             WorkerModel.hds([0.7, 0.7], 2))


class TestQuantitiesWmvHds:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5),
           st.floats(0.05, 1.0), st.integers(2, 9))
    def test_cross_check_against_general_path(self, seed, L, q, M):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=M)
        if np.linalg.norm(weights) < 1e-6:
            weights[0] += 1.0
        accuracies = rng.uniform(0.05, 0.95, M)
        closed = quantities_wmv_hds(q, weights, accuracies, L)
        general = score_quantities(
            DecomposableRule.weighted_indicator(weights, L),
            AssignmentModel.constant(q), WorkerModel.hds(accuracies, L))
        assert closed.t_low == pytest.approx(general.t_low, abs=1e-9)
        assert closed.t_high == pytest.approx(general.t_high, abs=1e-9)
        assert closed.c == pytest.approx(general.c, abs=1e-12)
        # The closed form pins the gap-variance term at q; the literal
        # definition is q * sum v^2 (w + (1-w)/(L-1)) / |v|^2, which matches
        # at two classes and is dominated by q beyond (a conservative,
        # therefore still valid, choice).
        literal = q * float((weights ** 2 @ (accuracies
                                             + (1 - accuracies) / (L - 1)))
                            / (weights @ weights))
        assert general.sigma_sq == pytest.approx(literal, abs=1e-9)
        assert general.sigma_sq <= closed.sigma_sq + 1e-12
        if L == 2:
            assert closed.sigma_sq == pytest.approx(general.sigma_sq, abs=1e-9)
        # the two gap measures coincide for this rule family
        assert closed.t_low == closed.t_high

    def test_random_guess_workers_have_zero_gap(self):
        sq = quantities_wmv_hds(0.7, [1.0, 2.0], [1 / 3, 1 / 3], 3)
        assert sq.t_low == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5),
           st.floats(0.05, 1.0), st.integers(2, 12))
    def test_unit_weights_reduce_to_mean_accuracy_form(self, seed, L, q, M):
        rng = np.random.default_rng(seed)
        accuracies = rng.uniform(0.0, 1.0, M)
        sq = quantities_wmv_hds(q, np.ones(M), accuracies, L)
        wbar = accuracies.mean()
        expected = L * q * math.sqrt(M) / (L - 1) * (wbar - 1 / L)
        assert sq.t_low == pytest.approx(expected, abs=1e-9)


class TestQuantitiesHyperplane:
    def test_hand_case(self):
        sq = quantities_hyperplane([1, 1], [1, 1], 0.0, [0.8, 0.7], [0.6, 0.9])
        assert sq.t_low == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert sq.t_high == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert sq.sigma_sq == pytest.approx(1.0, abs=1e-12)
        assert sq.c == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_symmetric_rates_without_shift_collapse(self):
        sq = quantities_hyperplane([0.5, 0.8], [1.0, -0.5], 0.0,
                                   [0.7, 0.4], [0.7, 0.4])
        assert sq.t_low == pytest.approx(sq.t_high, abs=1e-12)

    def test_pure_noise_has_zero_gap(self):
        sq = quantities_hyperplane([1, 1, 1], [1, 2, 3], 0.0,
                                   [0.5] * 3, [0.5] * 3)
        assert sq.t_low == pytest.approx(0.0, abs=1e-12)
        assert sq.t_high == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        from crowdbounds.core import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            quantities_hyperplane([1, 1], [1, 1, 1], 0.0, [0.8, 0.7], [0.6, 0.9])


class TestMeanErrorBounds:
    def test_hand_case(self):
        sq = quantities_wmv_hds(1.0, [1.0, 1.0], [0.8, 0.6], 2)
        report = mean_error_bounds(sq)
        assert report.condition_holds["upper"]
        assert report.values["upper"] == pytest.approx(math.exp(-0.16), abs=1e-12)

    def test_bernstein_branch_hand_values(self):
        # Sparse labels keep sigma^2 = q small, so the Bernstein-type
        # exponent beats the Gaussian one in both tails: t = +-0.32, c = 1/2.
        for accuracy, side in ((0.9, "upper"), (0.1, "lower")):
            sq = quantities_wmv_hds(0.2, np.ones(4), np.full(4, accuracy), 2)
            t = 0.2 * 4 * (2 * accuracy - 1) / 2
            exponent = t ** 2 / (2 * (0.2 + 0.5 * abs(t) / 3))
            assert exponent > t ** 2 / 2
            report = mean_error_bounds(sq)
            assert report.values[f"{side}_exponent"] == pytest.approx(
                exponent, rel=1e-12)
            expected = (math.exp(-exponent) if side == "upper"
                        else 1 - math.exp(-exponent))
            assert report.values[side] == pytest.approx(expected, rel=1e-12)

    def test_negative_gap_disables_upper_branch(self):
        sq = quantities_wmv_hds(1.0, [1.0, 1.0], [0.3, 0.3], 2)
        report = mean_error_bounds(sq)
        assert not report.condition_holds["upper"]
        assert report.values["upper"] is None
        assert report.condition_holds["lower"]

    def test_zero_gap_is_vacuous(self):
        sq = quantities_wmv_hds(1.0, [1.0, 1.0], [0.5, 0.5], 2)
        report = mean_error_bounds(sq)
        assert report.values["upper"] == 1.0
        assert report.values["lower"] == 0.0

    def test_upper_value_nonincreasing_in_gap(self):
        # Both min-branches of the bound shrink as the gap grows.
        from crowdbounds.bounds import ScoreQuantities

        def quantities_at(t):
            gaps = np.full((1, 3, 3), t)
            gaps[:, np.arange(3), np.arange(3)] = 0.0
            return ScoreQuantities(1.0, gaps, np.array([t]), np.array([t]),
                                   0.4, 0.7)

        previous = 2.0
        for t in np.linspace(0.0, 5.0, 60):
            report = mean_error_bounds(quantities_at(float(t)))
            item_report = per_item_bounds(quantities_at(float(t)))
            assert report.values["upper"] == pytest.approx(
                item_report.values["upper"], abs=1e-15)
            assert report.values["upper"] <= previous + 1e-12
            previous = report.values["upper"]


class TestPerItemBounds:
    def test_matches_mean_bound_when_assignment_is_constant(self):
        sq = quantities_wmv_hds(0.6, [1.0, 2.0, 0.5], [0.7, 0.8, 0.6], 3)
        mean_report = mean_error_bounds(sq)
        item_report = per_item_bounds(sq)
        assert item_report.values["upper"] == pytest.approx(
            mean_report.values["upper"], abs=1e-15)

    def test_three_worker_majority_vote_case(self):
        sq = score_quantities(mv_rule(3, 2), AssignmentModel.constant(1.0),
                              WorkerModel.hds([0.6] * 3, 2))
        report = per_item_bounds(sq)
        expected = min(math.exp(-0.06), math.exp(-0.05625))
        assert report.values["upper"] == pytest.approx(expected, abs=1e-12)
        assert report.values["upper"] == pytest.approx(0.9418, abs=5e-5)
        assert exact_mv_error([0.6] * 3) == pytest.approx(0.352, abs=1e-12)
        assert exact_mv_error([0.6] * 3) <= report.values["upper"]

    def test_strongly_negative_gap_saturates_lower_bound(self):
        from crowdbounds.bounds import ScoreQuantities
        tau = np.array([-50.0])
        sq = ScoreQuantities(1.0, np.array([[[0.0, -50.0], [-50.0, 0.0]]]),
                             tau, tau, 0.5, 1.0)
        report = per_item_bounds(sq)
        assert report.values["lower"] == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_never_beats_the_bound_small_m(self):
        grid = [0.55 + 0.05 * i for i in range(9)]
        for M in (1, 2, 3):
            pool = grid if M < 3 else [0.55, 0.65, 0.75, 0.85, 0.95]
            for combo in itertools.product(pool, repeat=M):
                sq = score_quantities(mv_rule(M, 2), AssignmentModel.constant(1.0),
                                      WorkerModel.hds(list(combo), 2))
                report = per_item_bounds(sq)
                assert exact_mv_error(combo) <= report.values["upper"] + 1e-12


class TestHighProbabilityBound:
    def test_exactly_tight_condition_is_vacuous(self):
        # Craft quantities whose gap sits exactly on the threshold: the
        # guarantee degenerates to zero because the divergence vanishes.
        from crowdbounds.bounds import ScoreQuantities
        t = math.sqrt(2 * math.log(1 / 0.3))
        gaps = np.array([[[0.0, t], [t, 0.0]]])
        sq = ScoreQuantities(1.0, gaps, np.array([t]), np.array([t]),
                             1.0, 1.0)
        report = high_probability_bound(sq, num_items=100, epsilon=0.3)
        assert report.condition_holds["upper"]
        assert report.values["upper_guarantee"] == pytest.approx(0.0, abs=1e-9)

    def test_reference_guarantee_value(self):
        sq = quantities_wmv_hds(1.0, np.ones(16), np.full(16, 0.75), 2)
        assert sq.t_low == pytest.approx(2.0, abs=1e-12)
        report = high_probability_bound(sq, num_items=200, epsilon=0.3)
        expected = 1.0 - math.exp(-200 * bernoulli_kl(0.3, math.exp(-2.0)))
        assert report.values["upper_guarantee"] == pytest.approx(expected, rel=1e-12)

    def test_below_threshold_flag_false(self):
        sq = quantities_wmv_hds(1.0, [1.0, 1.0], [0.6, 0.6], 2)
        report = high_probability_bound(sq, num_items=50, epsilon=0.1)
        assert not report.condition_holds["upper"]
        assert report.values["upper_guarantee"] is None

    def test_lower_branch(self):
        sq = quantities_wmv_hds(1.0, np.ones(16), np.full(16, 0.25), 2)
        report = high_probability_bound(sq, num_items=200, epsilon=0.3)
        assert report.condition_holds["lower"]
        assert 0 < report.values["lower_guarantee"] <= 1
        few = high_probability_bound(sq, num_items=3, epsilon=0.3)
        expected = 1.0 - math.exp(
            -3 * bernoulli_kl(0.3, 1.0 - math.exp(-2.0)))
        assert few.values["lower_guarantee"] == pytest.approx(
            expected, rel=1e-12)

    def test_epsilon_domain(self):
        sq = quantities_wmv_hds(1.0, [1.0], [0.8], 2)
        with pytest.raises(DomainError):
            high_probability_bound(sq, num_items=10, epsilon=1.5)


class TestConfidenceThresholds:
    def test_reference_values(self):
        report = confidence_thresholds(0.1, 0.05, 100, 2)
        a = binary_entropy(0.1) + math.log(20.0) / 100
        # exact-formula oracle
        assert report.values["rate_budget"] == pytest.approx(a, rel=1e-12)
        assert report.values["upper_constant"] == pytest.approx(
            1 + math.exp(a / 0.1), rel=1e-12)
        assert report.values["lower_constant"] == pytest.approx(
            1 + math.exp(a / 0.9), rel=1e-12)
        assert report.thresholds["t_low"] == pytest.approx(
            math.sqrt(2 * math.log(1 + math.exp(a / 0.1))), rel=1e-12)
        assert report.thresholds["t_high"] == pytest.approx(
            -math.sqrt(2 * math.log(1 + math.exp(a / 0.9))), rel=1e-12)
        # four-figure cross-references
        assert report.values["rate_budget"] == pytest.approx(0.35504, abs=5e-6)
        assert report.values["upper_constant"] == pytest.approx(35.83, abs=5e-3)
        assert report.thresholds["t_low"] == pytest.approx(2.6754, abs=2.5e-4)
        assert report.values["lower_constant"] == pytest.approx(2.4837, abs=2.5e-4)
        assert report.thresholds["t_high"] == pytest.approx(-1.3490, abs=2.5e-4)

    def test_rate_budget_decreases_with_items(self):
        budgets = [confidence_thresholds(0.1, 0.05, n, 2).values["rate_budget"]
                   for n in (10, 100, 1000, 100000)]
        assert all(a > b for a, b in zip(budgets, budgets[1:]))
        assert budgets[-1] == pytest.approx(binary_entropy(0.1), abs=1e-3)


class TestMvBoundsHds:
    def test_full_assignment_case(self):
        report = mv_bounds_hds(1.0, 0.7, 10, 2)
        assert report.values["quadratic"] == pytest.approx(math.exp(-0.8), rel=1e-12)
        assert report.values["linear"] == pytest.approx(0.4937, abs=5e-5)
        assert not report.values["linear_tighter"]

    def test_sparse_assignment_flips_the_winner(self):
        report = mv_bounds_hds(0.5, 0.7, 10, 2)
        assert report.values["quadratic"] == pytest.approx(math.exp(-0.2), rel=1e-12)
        assert report.values["linear"] == pytest.approx(0.7026, abs=5e-5)
        assert report.values["linear_tighter"]

    def test_random_guess_average_is_vacuous(self):
        report = mv_bounds_hds(1.0, 0.5, 10, 2)
        assert not report.condition_holds["upper"]
        assert report.values["quadratic"] == 1.0
        assert report.values["linear"] == 1.0

    def test_below_random_reports_no_values(self):
        report = mv_bounds_hds(1.0, 0.3, 10, 2)
        assert not report.condition_holds["upper"]
        assert report.values["quadratic"] is None


class TestOneStepWmvBound:
    def test_threshold_values(self):
        hundred = one_step_wmv_bound(np.full(100, 0.9), 500)
        assert hundred.thresholds["mean_accuracy"] == pytest.approx(
            0.51 + math.sqrt(99 * math.log(2) / 20000), rel=1e-12)
        assert hundred.thresholds["mean_accuracy"] == pytest.approx(0.5686, abs=5e-5)
        fifteen = one_step_wmv_bound(np.full(15, 0.8), 2000)
        assert fifteen.thresholds["mean_accuracy"] == pytest.approx(0.7135, abs=5e-5)
        assert fifteen.condition_holds["upper"]

    def test_bound_follows_the_martingale_chain(self):
        w = np.full(15, 0.8)
        report = one_step_wmv_bound(w, 2000)
        M, N = 15, 2000
        eta = 2 * math.exp(-2 * M**2 * (0.8 - 0.5 - 1 / M) ** 2 / (M - 1))
        gap = ((2 * w - 1) ** 2).sum() * (1 - eta)
        expected = math.exp(-N**2 * gap**2 / (2 * M * (M**2 * N + (M + N) ** 2)))
        assert report.values["eta"] == pytest.approx(eta, rel=1e-12)
        assert report.values["bound"] == pytest.approx(expected, rel=1e-12)

    def test_eta_shrinks_with_more_workers(self):
        etas = [one_step_wmv_bound(np.full(m, 0.8), 100).values["eta"]
                for m in (10, 20, 50, 200)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_condition_failure_reports_no_bound(self):
        report = one_step_wmv_bound(np.full(15, 0.55), 100)
        assert not report.condition_holds["upper"]
        assert report.values["bound"] is None


def simulate_hds_error(accuracies, weights, L, q, trials, items, seed0):
    """Monte Carlo mean error of a weighted vote under the one-coin model."""
    errors = []
    M = len(accuracies)
    for s in range(trials):
        out = simulate_dataset(SimConfig(
            M, items, L, Prior.uniform(L), AssignmentModel.constant(q),
            WorkerModel.hds(accuracies, L), seed=seed0 + s))
        predictions = weighted_majority_vote(out.labels, weights)
        errors.append(error_rate(predictions, out.truth))
    return float(np.mean(errors)), len(errors) * items


class TestBoundsAgainstMonteCarlo:
    def test_upper_bound_dominates_simulated_error(self):
        rng = np.random.default_rng(12)
        accuracies = rng.uniform(0.45, 0.9, 7)
        weights = bound_optimal_weights(accuracies, 3)
        sq = quantities_wmv_hds(0.6, weights, accuracies, 3)
        report = mean_error_bounds(sq)
        assert report.condition_holds["upper"]
        observed, n = simulate_hds_error(accuracies, weights, 3, 0.6,
                                         trials=100, items=100, seed0=100)
        sigma = math.sqrt(max(observed * (1 - observed), 1e-6) / n)
        assert observed <= report.values["upper"] + 3 * sigma

    def test_lower_bound_stays_below_simulated_error(self):
        accuracies = np.full(9, 0.35)
        weights = np.ones(9)
        sq = quantities_wmv_hds(0.8, weights, accuracies, 2)
        report = mean_error_bounds(sq)
        assert report.condition_holds["lower"]
        observed, n = simulate_hds_error(accuracies, weights, 2, 0.8,
                                         trials=100, items=100, seed0=300)
        sigma = math.sqrt(max(observed * (1 - observed), 1e-6) / n)
        assert observed >= report.values["lower"] - 3 * sigma

    def test_hyperplane_bound_dominates_simulated_error(self):
        rng = np.random.default_rng(21)
        M = 8
        p_plus = rng.uniform(0.6, 0.9, M)
        p_minus = rng.uniform(0.55, 0.85, M)
        q_vec = rng.uniform(0.5, 1.0, M)
        weights = np.ones(M)
        shift = 0.3
        sq = quantities_hyperplane(q_vec, weights, shift, p_plus, p_minus)
        report = mean_error_bounds(sq)
        assert report.condition_holds["upper"]
        tables = np.stack([np.stack([p_plus, 1 - p_plus], axis=1),
                           np.stack([1 - p_minus, p_minus], axis=1)], axis=1)
        errors = []
        for s in range(100):
            out = simulate_dataset(SimConfig(
                M, 100, 2, Prior.uniform(2), AssignmentModel.vector(q_vec),
                WorkerModel.gds(tables), seed=500 + s))
            external = hyperplane_predict(out.labels, weights, shift)
            truth_external = np.where(out.truth == 1, 1, -1)
            errors.append(np.mean(external != truth_external))
        observed = float(np.mean(errors))
        sigma = math.sqrt(max(observed * (1 - observed), 1e-6) / (100 * 100))
        assert observed <= report.values["upper"] + 3 * sigma

    def test_one_step_bound_dominates_simulated_error(self):
        from crowdbounds.aggregate import one_step_wmv
        accuracies = np.full(11, 0.8)
        report = one_step_wmv_bound(accuracies, 500)
        assert report.condition_holds["upper"]
        errors = []
        for s in range(40):
            out = simulate_dataset(SimConfig(
                11, 500, 2, Prior.uniform(2), AssignmentModel.constant(1.0),
                WorkerModel.hds(accuracies, 2), seed=900 + s))
            errors.append(error_rate(one_step_wmv(out.labels), out.truth))
        observed = float(np.mean(errors))
        sigma = math.sqrt(max(observed * (1 - observed), 1e-6) / (40 * 500))
        assert observed <= report.values["bound"] + 3 * sigma


class TestWeightOptimality:
    def test_linear_weights_maximise_the_gap(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            L = int(rng.integers(2, 6))
            M = int(rng.integers(3, 10))
            q = float(rng.uniform(0.1, 1.0))
            accuracies = rng.uniform(0.05, 0.95, M)
            best = quantities_wmv_hds(
                q, bound_optimal_weights(accuracies, L), accuracies, L).t_low
            for _ in range(200):
                direction = rng.normal(size=M)
                direction /= np.linalg.norm(direction)
                assert quantities_wmv_hds(q, direction, accuracies, L).t_low \
                    <= best + 1e-9

    def test_log_odds_weights_need_no_condition(self):
        # The gap measure is nonnegative for every accuracy profile.
        grid = np.linspace(0.02, 0.98, 25)
        for L in (2, 3, 5):
            for w1 in grid:
                for w2 in grid:
                    accuracies = np.array([w1, w2])
                    weights = oracle_map_weights_hds(accuracies, L)
                    if np.linalg.norm(weights) < 1e-12:
                        continue
                    sq = quantities_wmv_hds(0.7, weights, accuracies, L)
                    assert sq.t_low >= -1e-12

    def test_linear_weight_is_first_order_log_odds(self):
        # Fit the curvature constant on a fine grid, then check the
        # quadratic envelope on random points near random guessing.
        for L in (2, 3, 4):
            center = 1.0 / L
            grid = np.linspace(center - 0.1, center + 0.1, 10001)
            grid = grid[np.abs(grid - center) > 1e-6]
            remainder = np.abs(np.log((L - 1) * grid / (1 - grid))
                               - L / (L - 1) * (L * grid - 1))
            K = (remainder / (grid - center) ** 2).max()
            rng = np.random.default_rng(L)
            w = rng.uniform(center - 0.1, center + 0.1, 200)
            rem = np.abs(np.log((L - 1) * w / (1 - w)) - L / (L - 1) * (L * w - 1))
            assert (rem <= 1.05 * K * (w - center) ** 2 + 1e-12).all()
