"""Exact checks of the bound evaluators by enumerating every label outcome.

With at most 5 workers and 3 classes, the (L + 1)^M label vectors of one item
(label 0 = missing) can be listed with their probabilities under each true
class. That gives each class's exact error probability: ties count as errors
against the upper bounds, and only strict losses count against the lower
bounds. Under a constant or per-worker assignment the items are i.i.d. given
their classes, so the error count over N items of the worst class is
Binomial(N, p), and the high-probability guarantees can be checked exactly
too. The bounds hold for every true class, so each is compared with the
worst class.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from crowdbounds.bounds import (
    high_probability_bound,
    mean_error_bounds,
    per_item_bounds,
    quantities_wmv_hds,
    score_quantities,
)
from crowdbounds.core import (
    AssignmentModel,
    DecomposableRule,
    Prior,
    WorkerModel,
)

# Scores within this distance count as tied. Both uses make the check
# stricter: near-ties become errors against the upper bounds and stop being
# strict losses against the lower bounds.
TIE = 1e-9
SLACK = 1e-12

RULES = ("random", "shifted", "oracle-map", "mv")
ASSIGNMENTS = ("constant", "vector", "matrix")


def outcome_scores(rule: DecomposableRule, tables: np.ndarray,
                   probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every label outcome of one item whose workers label with
    probabilities ``probs``: its probability under each true class and its
    aggregated score of each class, both (outcomes, L)."""
    M, L = tables.shape[:2]
    outcomes = np.array(list(itertools.product(range(L + 1), repeat=M)))
    workers = np.arange(M)[None, :]
    # label_probs[i, k, h]: worker i gives label h (0 = none) to class k
    label_probs = np.concatenate(
        [np.broadcast_to((1 - probs)[:, None, None], (M, L, 1)),
         probs[:, None, None] * tables], axis=2)
    outcome_probs = label_probs[workers, :, outcomes].prod(axis=1)  # (O, L)
    # added[i, h, k]: the score worker i's label h adds to class k
    added = np.concatenate([np.zeros((M, 1, L)), rule.scores], axis=1)
    scores = added[workers, outcomes].sum(axis=1) + rule.shifts  # (O, L)
    return outcome_probs, scores


def exact_errors(rule: DecomposableRule, tables: np.ndarray,
                 probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per true class: P(some other class ties or beats it) and P(some other
    class strictly beats it), for one item whose workers label with
    probabilities ``probs``."""
    outcome_probs, scores = outcome_scores(rule, tables, probs)
    L = scores.shape[1]
    upper, lower = np.empty(L), np.empty(L)
    for k in range(L):
        others = np.delete(scores, k, axis=1)
        ties_or_losses = (others >= scores[:, [k]] - TIE).any(axis=1)
        losses = (others > scores[:, [k]] + TIE).any(axis=1)
        upper[k] = outcome_probs[ties_or_losses, k].sum()
        lower[k] = outcome_probs[losses, k].sum()
    return upper, lower


def binomial_cdf(n: int, p: float, k: int) -> float:
    return sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j)
               for j in range(k + 1))


def make_case(seed: int, rule_kind: str, assignment_kind: str):
    """A random worker model, rule and assignment with M <= 5, L <= 3."""
    rng = np.random.default_rng(seed)
    # A third of the crowds are strong: five skilled workers who label every
    # item, as the high-probability branches need large gaps.
    strong = rng.random() < 1 / 3
    M, L = 5 if strong else int(rng.integers(1, 6)), int(rng.integers(2, 4))
    # Mix each row with the identity (skilled workers) or with its
    # complement (adversarial ones), so both bound branches get exercised.
    sign = rng.choice([1.0, -1.0], p=[0.7, 0.3])
    floor = 0.8 if strong else rng.uniform(0.2, 1.0)
    skill = rng.uniform(floor, 1.0, M)[:, None, None]
    target = np.eye(L) if sign > 0 else (1 - np.eye(L)) / (L - 1)
    tables = ((1 - skill) * rng.dirichlet(np.ones(L), size=(M, L))
              + skill * target)
    model = WorkerModel.gds(tables)
    if rule_kind == "mv":
        rule = DecomposableRule.indicator(M, L)
    elif rule_kind == "oracle-map":
        rule = DecomposableRule.oracle_map(model, Prior.uniform(L))
    else:
        weights = rng.uniform(0.0, 2.0, M)[:, None, None]
        scores = weights * np.eye(L) + rng.normal(0.0, 0.5, (M, L, L))
        shifts = (rng.normal(0.0, 0.5, L) if rule_kind == "shifted"
                  else np.zeros(L))
        rule = DecomposableRule(scores, shifts)
    # Label probabilities in [0.2, 1], a quarter of them exactly 1.
    shape = {"constant": (), "vector": (M,),
             "matrix": (M, int(rng.integers(1, 4)))}[assignment_kind]
    value = (np.ones(shape) if strong
             else np.minimum(rng.uniform(0.2, 1.27, shape), 1.0))
    num_items, epsilon = int(rng.integers(5, 60)), float(rng.uniform(0.02, 0.5))
    return (tables, rule, AssignmentModel(assignment_kind, value),
            num_items, epsilon)


def check_case(seed: int, rule_kind: str, assignment_kind: str) -> set:
    """Assert every active bound against the enumeration; return the names
    of the active ones."""
    tables, rule, assignment, num_items, epsilon = make_case(
        seed, rule_kind, assignment_kind)
    M = tables.shape[0]
    quantities = score_quantities(rule, assignment, WorkerModel.gds(tables))
    probs = assignment.full(M, quantities.tau_min.size)
    exact = [exact_errors(rule, tables, probs[:, j])
             for j in range(probs.shape[1])]
    worst_upper = max(upper.max() for upper, _ in exact)
    best_lower = min(lower.min() for _, lower in exact)
    active = set()

    mean = mean_error_bounds(quantities).values
    if mean["upper"] is not None:
        active.add("upper")
        assert worst_upper <= mean["upper"] + SLACK
    if mean["lower"] is not None:
        active.add("lower")
        assert best_lower >= mean["lower"] - SLACK

    if assignment.kind == "matrix":
        items = per_item_bounds(quantities).values  # floats for one item
        item_upper, item_lower = (np.atleast_1d(items[side])
                                  for side in ("upper", "lower"))
        for j, (upper, lower) in enumerate(exact):
            if not np.isnan(item_upper[j]):
                active.add("item upper")
                assert upper.max() <= item_upper[j] + SLACK
            if not np.isnan(item_lower[j]):
                active.add("item lower")
                assert lower.min() >= item_lower[j] - SLACK
        return active

    counts = range(num_items + 1)
    guarantees = high_probability_bound(quantities, num_items, epsilon).values
    if guarantees["upper_guarantee"] is not None:
        active.add("hp upper")
        at_most = max(k for k in counts if k / num_items <= epsilon)
        assert (binomial_cdf(num_items, worst_upper, at_most)
                >= guarantees["upper_guarantee"] - SLACK)
    if guarantees["lower_guarantee"] is not None:
        active.add("hp lower")
        below = min(k for k in counts if k / num_items >= epsilon) - 1
        at_least = 1.0 - (binomial_cdf(num_items, best_lower, below)
                          if below >= 0 else 0.0)
        assert at_least >= guarantees["lower_guarantee"] - SLACK
    return active


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(RULES),
       st.sampled_from(ASSIGNMENTS))
def test_bounds_hold_against_enumeration(seed, rule_kind, assignment_kind):
    check_case(seed, rule_kind, assignment_kind)


def test_enumeration_exercises_every_bound():
    """The case generator reaches every branch the test above checks."""
    active = set()
    for seed in range(60):
        for rule_kind, assignment_kind in itertools.product(RULES, ASSIGNMENTS):
            active |= check_case(seed, rule_kind, assignment_kind)
    assert active == {"upper", "lower", "item upper", "item lower",
                      "hp upper", "hp lower"}


def test_enumeration_matches_a_hand_case():
    # Two workers of accuracy 0.8 and 0.6, binary majority vote, q = 1: a
    # split vote is a tie, so either class ties or loses unless both workers
    # are right, and loses strictly only when both are wrong.
    tables = WorkerModel.hds([0.8, 0.6], 2).as_gds()
    upper, lower = exact_errors(DecomposableRule.indicator(2, 2), tables,
                                np.ones(2))
    np.testing.assert_allclose(upper, [1 - 0.8 * 0.6, 1 - 0.8 * 0.6])
    np.testing.assert_allclose(lower, [0.2 * 0.4, 0.2 * 0.4])


def test_wmv_hds_closed_form_matches_score_quantities():
    """``quantities_wmv_hds`` against ``score_quantities`` on the same
    weighted vote, single-accuracy workers and constant assignment, and its
    sigma^2 against the enumerated variance of the normalised gap."""
    for seed in range(150):
        rng = np.random.default_rng([seed, 1])
        M, L = int(rng.integers(1, 6)), int(rng.integers(2, 4))
        weights = rng.uniform(-1.0, 2.0, M)
        weights[rng.random(M) < 0.2] = 0.0
        weights[0] = weights[0] or 1.0
        accuracies = rng.choice([0.0, 1.0, *rng.uniform(0.0, 1.0, 4)], M)
        q = float(min(rng.uniform(0.2, 1.27), 1.0))
        closed = quantities_wmv_hds(q, weights, accuracies, L)
        model = WorkerModel.hds(accuracies, L)
        rule = DecomposableRule.weighted_indicator(weights, L)
        general = score_quantities(rule, AssignmentModel.constant(q), model)
        for name in ("t_low", "t_high", "c"):
            assert math.isclose(getattr(closed, name), getattr(general, name),
                                rel_tol=1e-12, abs_tol=1e-15), (seed, name)
        outcome_probs, scores = outcome_scores(rule, model.as_gds(),
                                               np.full(M, q))
        for k, l in itertools.permutations(range(L), 2):
            gap = (scores[:, k] - scores[:, l]) / closed.score_norm
            mean = outcome_probs[:, k] @ gap
            variance = outcome_probs[:, k] @ (gap - mean) ** 2
            # Every ordered pair of classes shares the one closed-form gap.
            assert math.isclose(mean, closed.t_low, rel_tol=1e-9,
                                abs_tol=1e-12), (seed, k, l)
            assert closed.sigma_sq >= variance - SLACK, (seed, k, l)
