"""Finite-sample error-rate bounds for decomposable aggregation rules.

The central objects are the normalized expected score gaps between the true
class and every competitor. Their extremes over items (``t_low``/``t_high``),
the worst-case per-worker score step ``c`` and the worst-case gap variance
``sigma_sq`` feed three families of results:

* mean-error bounds (a Gaussian-type tail and a Bernstein-type refinement),
* high-probability bounds on the realised error rate over N items,
* explicit gap thresholds that guarantee a target error with confidence.

Closed forms are provided for weighted/unweighted voting under the
single-accuracy worker model, for the binary hyperplane rule, and for the
one-step reweighted vote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    AssignmentModel,
    DecomposableRule,
    DimensionMismatch,
    DomainError,
    WorkerModel,
    check_accuracies,
)

KL_CLIP = 1e-12


def unnormalized_gaussian(x: float) -> float:
    """exp(-x^2 / 2), the unnormalised standard Gaussian density."""
    return math.exp(-float(x) ** 2 / 2.0)


def bernoulli_kl(x: float, y: float) -> float:
    """KL divergence between Bernoulli(x) and Bernoulli(y), natural log."""
    if not (0 < x < 1 and 0 < y < 1):
        raise DomainError("bernoulli_kl needs arguments strictly inside (0, 1)")
    return x * math.log(x / y) + (1 - x) * math.log((1 - x) / (1 - y))


def binary_entropy(p: float) -> float:
    """Natural entropy of a Bernoulli(p) variable."""
    if not 0 < p < 1:
        raise DomainError("binary_entropy needs an argument strictly inside (0, 1)")
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


@dataclass(frozen=True)
class ScoreQuantities:
    """Normalisation, expected score gaps and fluctuation measures of a rule.

    ``gaps[j, k, l]`` is the expected aggregated-score gap between classes
    ``k`` and ``l`` when the true class is ``k`` (leading axis has length 1
    when the assignment does not vary across items); the diagonal is never
    read, so a rule whose class pairs all share one gap stores it as a
    read-only broadcast of that gap. ``tau_min``/``tau_max``
    are the per-item extremes of the normalised gap; ``t_low``/``t_high``
    (their extremes across items) and ``num_classes`` are derived.
    """

    score_norm: float
    gaps: np.ndarray
    tau_min: np.ndarray
    tau_max: np.ndarray
    c: float
    sigma_sq: float

    def __post_init__(self):
        if not (math.isfinite(self.score_norm) and np.isfinite(self.tau_min).all()
                and np.isfinite(self.tau_max).all()):
            raise DomainError("the normalised score gaps are not finite: the "
                              "rule's scores or shifts overflow a float")
        if not self.score_norm > 0:
            raise DomainError("score normalisation must be positive")
        if not 0 < self.c <= 1 + 1e-12:
            raise DomainError("the maximum normalised score step must lie in (0, 1]")
        if self.sigma_sq < -1e-12:
            raise DomainError("the gap variance bound cannot be negative")

    @property
    def t_low(self) -> float:
        return float(self.tau_min.min())

    @property
    def t_high(self) -> float:
        return float(self.tau_max.max())

    @property
    def num_classes(self) -> int:
        return self.gaps.shape[1]


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: which result, whether its hypothesis holds,
    the numbers, and the inputs they came from."""

    kind: str
    condition_holds: dict
    values: dict
    thresholds: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def _plain(value):
            if isinstance(value, np.ndarray):
                return value.tolist()
            if isinstance(value, (np.floating, np.integer)):
                return value.item()
            return value

        return {
            "kind": self.kind,
            "condition_holds": {k: bool(v) for k, v in self.condition_holds.items()},
            "values": {k: _plain(v) for k, v in self.values.items()},
            "thresholds": {k: _plain(v) for k, v in self.thresholds.items()},
            "inputs": {k: _plain(v) for k, v in self.inputs.items()},
        }


def score_quantities(rule: DecomposableRule, assignment: AssignmentModel,
                     model: WorkerModel) -> ScoreQuantities:
    """Compute the gap and fluctuation quantities of a rule under a model.

    For vector or constant assignments the per-item axis collapses: the gap
    table is computed once and every item shares the same extremes.
    """
    M, L = rule.num_workers, rule.num_classes
    if model.num_workers != M or model.num_classes != L:
        raise DimensionMismatch("rule and worker model dimensions differ")
    tables = model.as_gds()
    scores = rule.scores.transpose(0, 2, 1)  # (M, L, L) indexed [i, k, h - 1]
    diff = scores[:, :, None, :] - scores[:, None, :, :]
    off_diag = ~np.eye(L, dtype=bool)
    # max_{k != l, h} |f_i(k, h) - f_i(l, h)| per worker
    step = np.abs(diff)[:, off_diag, :].max(axis=(1, 2))
    score_norm = float(np.sqrt((step ** 2).sum()))
    if score_norm == 0:
        raise DomainError("every class gets the same score; the rule is degenerate")
    c = float(step.max() / score_norm)

    # Expected gap and second moment per worker, conditioned on true class k.
    gap_per_worker = np.einsum("iklh,ikh->ikl", diff, tables)
    second_per_worker = np.einsum("iklh,ikh->ikl", diff ** 2, tables)
    shift_diff = rule.shifts[:, None] - rule.shifts[None, :]

    if assignment.kind == "matrix":
        probs = np.asarray(assignment.value)
        if probs.shape[0] != M:
            raise DimensionMismatch("assignment and rule worker counts differ")
    else:
        probs = assignment.worker_probs(M)[:, None]
    gaps = np.einsum("ikl,ij->jkl", gap_per_worker, probs) + shift_diff
    second = np.einsum("ikl,ij->jkl", second_per_worker, probs)

    normalized = gaps[:, off_diag] / score_norm
    sigma_sq = float(second[:, off_diag].max() / score_norm ** 2)
    sigma_sq = min(sigma_sq, float(probs.max()))  # rounding guard
    return ScoreQuantities(score_norm, gaps, normalized.min(axis=1),
                           normalized.max(axis=1), c, sigma_sq)


def _weight_norm(weights: np.ndarray) -> float:
    """The Euclidean norm of a weight vector, which must be positive and
    finite. numpy sums the squares first, so a finite norm has a finite
    square."""
    norm = float(np.linalg.norm(weights))
    if norm == 0:
        raise DomainError("an all-zero weight vector has no normalised gap")
    if not math.isfinite(norm):
        raise DomainError("the norm of the weights overflows a float")
    return norm


def quantities_wmv_hds(q: float, weights, accuracies,
                       num_classes: int) -> ScoreQuantities:
    """Closed-form quantities for weighted voting, single-accuracy workers
    and a constant assignment probability.

    Every class pair shares one gap, so the lower and upper normalised-gap
    measures coincide: t = q * sum_i v_i (L w_i - 1) / ((L - 1) ||v||),
    c = ||v||_inf / ||v||, sigma^2 = q.
    """
    if not 0 < q <= 1:
        raise DomainError("assignment probability must lie in (0, 1]")
    if num_classes < 2:
        raise DomainError("at least two classes are required")
    weights = np.asarray(weights, dtype=float)
    accuracies = check_accuracies(accuracies)
    if weights.shape != accuracies.shape or weights.ndim != 1:
        raise DimensionMismatch("weights and accuracies must be equal-length vectors")
    norm = _weight_norm(weights)
    L = num_classes
    gap = q * float(weights @ (L * accuracies - 1.0)) / (L - 1)
    t = gap / norm
    gaps = np.broadcast_to(gap, (1, L, L))  # no L x L memory at any L
    tau = np.array([t])
    return ScoreQuantities(norm, gaps, tau, tau.copy(),
                           float(np.abs(weights).max() / norm), float(q))


def quantities_hyperplane(q_vec, weights, shift, p_plus, p_minus) -> ScoreQuantities:
    """Closed-form quantities for the binary hyperplane rule.

    ``p_plus``/``p_minus`` are each worker's accuracies on positive and
    negative items; the two directed gaps differ by the sign of the shift.
    """
    q_vec, weights, p_plus, p_minus = (np.asarray(a, dtype=float)
                                       for a in (q_vec, weights, p_plus, p_minus))
    if not (q_vec.shape == weights.shape == p_plus.shape == p_minus.shape) \
            or weights.ndim != 1:
        raise DimensionMismatch("assignment, weights and accuracies must be "
                                "equal-length vectors")
    if not ((q_vec > 0) & (q_vec <= 1)).all():
        raise DomainError("assignment probability must lie in (0, 1]")
    check_accuracies(p_plus)
    check_accuracies(p_minus)
    norm = _weight_norm(weights)
    gap_pos = float(q_vec @ (weights * (2 * p_plus - 1))) + shift
    gap_neg = float(q_vec @ (weights * (2 * p_minus - 1))) - shift
    gaps = np.array([[[0.0, gap_pos], [gap_neg, 0.0]]])
    tau_min = np.array([min(gap_pos, gap_neg) / norm])
    tau_max = np.array([max(gap_pos, gap_neg) / norm])
    sigma_sq = float(q_vec @ weights ** 2) / norm ** 2
    return ScoreQuantities(norm, gaps, tau_min, tau_max,
                           float(np.abs(weights).max() / norm), sigma_sq)


def _tails(t_low: float, t_high: float, sigma_sq: float, c: float,
           num_classes: int) -> tuple:
    """(upper, upper exponent, lower, lower exponent) for one pair of gap
    extremes, None where ``t_low >= 0`` resp. ``t_high <= 0`` fails. The
    exponent at t is max(t^2 / 2, t^2 / (2 (sigma^2 + c |t| / 3))).
    """
    def exponent(t):
        denom = 2.0 * (sigma_sq + c * abs(t) / 3.0)
        if denom <= 0:
            return max(t ** 2 / 2.0, math.inf if t != 0 else 0.0)
        return max(t ** 2 / 2.0, t ** 2 / denom)

    upper = upper_exponent = lower = lower_exponent = None
    if t_low >= 0:
        upper_exponent = exponent(t_low)
        upper = min(1.0, (num_classes - 1) * math.exp(-upper_exponent))
    if t_high <= 0:
        lower_exponent = exponent(t_high)
        lower = max(0.0, 1.0 - math.exp(-lower_exponent))
    return upper, upper_exponent, lower, lower_exponent


def mean_error_bounds(quantities: ScoreQuantities) -> BoundReport:
    """Bounds on the expected error rate from the gap extremes.

    A nonnegative ``t_low`` activates the upper bound
    (L-1) * min(exp(-t^2/2), exp(-t^2 / (2 (sigma^2 + c t / 3)))), capped at
    one; a nonpositive ``t_high`` activates the mirrored lower bound. Raw
    exponents are reported alongside for log-scale plotting.
    """
    t_low, t_high, L = quantities.t_low, quantities.t_high, quantities.num_classes
    sigma_sq, c = quantities.sigma_sq, quantities.c
    upper, upper_exponent, lower, lower_exponent = _tails(
        t_low, t_high, sigma_sq, c, L)
    return BoundReport(
        kind="mean-error",
        condition_holds={"upper": t_low >= 0, "lower": t_high <= 0},
        values={"upper": upper, "lower": lower,
                "upper_exponent": upper_exponent,
                "lower_exponent": lower_exponent},
        inputs={"t_low": t_low, "t_high": t_high, "sigma_sq": sigma_sq,
                "c": c, "num_classes": L},
    )


def per_item_bounds(quantities: ScoreQuantities) -> BoundReport:
    """The mean-error bound forms applied to each item's own gap extremes
    (NaN where a hypothesis fails); with a constant or per-worker assignment
    this reduces exactly to the global mean-error bound.
    """
    tau_min, tau_max = quantities.tau_min, quantities.tau_max
    sigma_sq, c, L = quantities.sigma_sq, quantities.c, quantities.num_classes
    upper, _, lower, _ = zip(*(_tails(float(low), float(high), sigma_sq, c, L)
                               for low, high in zip(tau_min, tau_max)))
    upper, lower = np.array(upper, dtype=float), np.array(lower, dtype=float)
    squeeze = tau_min.size == 1
    return BoundReport(
        kind="per-item",
        condition_holds={"upper": bool((tau_min >= 0).all()),
                         "lower": bool((tau_max <= 0).all())},
        values={"upper": float(upper[0]) if squeeze else upper,
                "lower": float(lower[0]) if squeeze else lower},
        inputs={"tau_min": tau_min if not squeeze else float(tau_min[0]),
                "tau_max": tau_max if not squeeze else float(tau_max[0]),
                "sigma_sq": sigma_sq, "c": c, "num_classes": L},
    )


def _clip_unit(p: float) -> float:
    return min(max(p, KL_CLIP), 1.0 - KL_CLIP)


def high_probability_bound(quantities: ScoreQuantities, num_items: int,
                           epsilon: float) -> BoundReport:
    """Probability guarantees that the realised error rate stays below (or
    above) ``epsilon``.

    Upper branch: if t_low >= sqrt(2 ln((L-1)/eps)) then with probability at
    least 1 - exp(-N KL(eps || (L-1) phi(t_low))) the error rate is <= eps.
    Lower branch mirrors it with t_high and 1 - phi(t_high). KL arguments
    are clipped into (0, 1); at an exactly tight condition the divergence
    vanishes and the guarantee is vacuously zero.
    """
    if not 0 < epsilon < 1:
        raise DomainError("epsilon must lie strictly inside (0, 1)")
    if num_items < 1:
        raise DomainError("at least one item is required")
    L = quantities.num_classes
    t_low, t_high = quantities.t_low, quantities.t_high
    upper_threshold = math.sqrt(2 * math.log((L - 1) / epsilon))
    lower_threshold = -math.sqrt(2 * math.log(1.0 / (1.0 - epsilon)))
    upper_ok = t_low >= upper_threshold
    lower_ok = t_high <= lower_threshold
    values = {"upper_guarantee": None, "lower_guarantee": None}
    eps = _clip_unit(epsilon)
    if upper_ok:
        rate = _clip_unit((L - 1) * unnormalized_gaussian(t_low))
        values["upper_guarantee"] = 1.0 - math.exp(
            -num_items * bernoulli_kl(eps, rate))
    if lower_ok:
        rate = _clip_unit(1.0 - unnormalized_gaussian(t_high))
        values["lower_guarantee"] = 1.0 - math.exp(
            -num_items * bernoulli_kl(eps, rate))
    return BoundReport(
        kind="high-probability",
        condition_holds={"upper": upper_ok, "lower": lower_ok},
        values=values,
        thresholds={"t_low": upper_threshold, "t_high": lower_threshold},
        inputs={"t_low": t_low, "t_high": t_high, "epsilon": epsilon,
                "num_items": num_items, "num_classes": L},
    )


def confidence_thresholds(epsilon: float, delta: float, num_items: int,
                          num_classes: int) -> BoundReport:
    """Gap thresholds that guarantee error <= eps (or >= eps) with
    probability 1 - delta.

    With A = H(eps) + ln(1/delta)/N: the error stays below eps whenever
    t_low >= sqrt(2 ln((L-1)(1 + exp(A/eps)))), and above eps whenever
    t_high <= -sqrt(2 ln(1 + exp(A/(1-eps)))).
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise DomainError("epsilon and delta must lie strictly inside (0, 1)")
    if num_items < 1:
        raise DomainError("at least one item is required")
    a_const = binary_entropy(epsilon) + math.log(1.0 / delta) / num_items
    upper_const = 1.0 + math.exp(a_const / epsilon)
    lower_const = 1.0 + math.exp(a_const / (1.0 - epsilon))
    return BoundReport(
        kind="confidence-thresholds",
        condition_holds={},
        values={"rate_budget": a_const, "upper_constant": upper_const,
                "lower_constant": lower_const},
        thresholds={
            "t_low": math.sqrt(2 * math.log((num_classes - 1) * upper_const)),
            "t_high": -math.sqrt(2 * math.log(lower_const)),
        },
        inputs={"epsilon": epsilon, "delta": delta, "num_items": num_items,
                "num_classes": num_classes},
    )


def mv_bounds_hds(q: float, mean_accuracy: float, num_workers: int,
                  num_classes: int) -> BoundReport:
    """Two closed-form mean-error upper bounds for plain majority voting
    under the single-accuracy model.

    The first decays with q^2 in the exponent; the second trades one factor
    of q for the divisor 1 + L (wbar - 1/L) / (3 (L - 1)) and is the tighter
    of the two whenever q < 3/4. Both need the average accuracy to beat
    random guessing; at exactly 1/L they are vacuous (capped at one).
    """
    if not 0 < q <= 1:
        raise DomainError("assignment probability must lie in (0, 1]")
    if num_workers < 1:
        raise DomainError("at least one worker is required")
    if num_classes < 2:
        raise DomainError("at least two classes are required")
    check_accuracies(mean_accuracy)
    L = num_classes
    margin = mean_accuracy - 1.0 / L
    holds = margin > 0
    values = {"quadratic": None, "linear": None, "linear_tighter": None}
    if margin >= 0:
        base = 0.5 * (L / (L - 1)) ** 2 * num_workers * margin ** 2
        quad_exp = base * q ** 2
        lin_exp = base * q / (1.0 + L * margin / (3.0 * (L - 1)))
        values["quadratic"] = min(1.0, (L - 1) * math.exp(-quad_exp))
        values["linear"] = min(1.0, (L - 1) * math.exp(-lin_exp))
        values["linear_tighter"] = values["linear"] < values["quadratic"]
        values["quadratic_exponent"] = quad_exp
        values["linear_exponent"] = lin_exp
    return BoundReport(
        kind="mv-mean-error",
        condition_holds={"upper": holds},
        values=values,
        inputs={"q": q, "mean_accuracy": mean_accuracy,
                "num_workers": num_workers, "num_classes": L},
    )


def one_step_wmv_bound(accuracies, num_items: int) -> BoundReport:
    """Mean-error bound for the one-step reweighted vote (binary, every
    entry observed).

    The hypothesis is wbar >= 1/2 + 1/M + sqrt((M-1) ln 2 / (2 M^2)); under
    it the agreement-estimation slack eta = 2 exp(-2 M^2 (wbar - 1/2 -
    1/M)^2 / (M - 1)) is at most one, and the martingale-difference chain
    gives

        bound = exp(-N^2 G^2 / (2 M (M^2 N + (M + N)^2))),
        G = (1 - eta) * sum_i (2 w_i - 1)^2.

    The reported rho = sqrt(sum_i (2 w_i - 1)^2 / M) is the proof's
    accuracy spread; the theorem's statement writes half of it.
    """
    w = check_accuracies(accuracies)
    if w.ndim != 1 or w.size < 2:
        raise DomainError("need a vector of at least two worker accuracies")
    if num_items < 1:
        raise DomainError("at least one item is required")
    M = w.size
    N = num_items
    wbar = float(w.mean())
    threshold = 0.5 + 1.0 / M + math.sqrt((M - 1) * math.log(2) / (2 * M ** 2))
    holds = wbar >= threshold
    margin = wbar - 0.5 - 1.0 / M
    eta = 2.0 * math.exp(-2.0 * M ** 2 * margin ** 2 / (M - 1))
    gap_mass = float(((2 * w - 1) ** 2).sum())
    rho = math.sqrt(gap_mass / M)
    values = {"bound": None, "exponent": None, "rho": rho, "eta": eta}
    if holds:
        score_gap = (1.0 - eta) * gap_mass
        exponent = N ** 2 * score_gap ** 2 / (
            2.0 * M * (M ** 2 * N + (M + N) ** 2))
        values["bound"] = min(1.0, math.exp(-exponent))
        values["exponent"] = exponent
    return BoundReport(
        kind="one-step-wmv",
        condition_holds={"upper": holds},
        values=values,
        thresholds={"mean_accuracy": threshold},
        inputs={"num_workers": M, "num_items": N, "mean_accuracy": wbar},
    )
