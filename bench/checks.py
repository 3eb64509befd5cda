"""Output checks for each workload, computed apart from crowdbounds.

Only numpy and the standard library are used: every expected value is
recomputed from the files a round wrote. Each check function takes a
round's directory and the ``meta`` its worker recorded, and returns a list
of problems (empty when the outputs are right). Rows or commands that failed
are counted as failed operations by the worker and skipped here.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-12


def read_result_rows(stem: Path) -> list[dict]:
    """Rows of ``<stem>.jsonl`` after its ``_meta`` line; the CSV must agree."""
    with open(f"{stem}.jsonl") as handle:
        records = [json.loads(line) for line in handle]
    rows = [r for r in records if "_meta" not in r]
    with open(f"{stem}.csv") as handle:
        csv_rows = [line for line in handle if not line.startswith("#")]
    if len(csv_rows) - 1 != len(rows):
        raise ValueError(f"{stem}: csv has {len(csv_rows) - 1} rows, "
                         f"jsonl has {len(rows)}")
    return rows


def _missing_rows(rows, sweeps, trials, methods) -> list[str]:
    expected = {(float(s), t, m) for s in sweeps for t in range(trials)
                for m in methods}
    seen = [(r["sweep"], r["trial"], r["method"]) for r in rows]
    problems = []
    if len(seen) != len(set(seen)):
        problems.append("duplicate result rows")
    if set(seen) != expected:
        problems.append(f"{len(expected - set(seen))} expected rows missing, "
                        f"{len(set(seen) - expected)} unexpected")
    return problems


def _mean_error(rows, method, sweep=None) -> float:
    errors = [r["error_rate"] for r in rows if r["method"] == method
              and r["error"] is None and (sweep is None or r["sweep"] == sweep)]
    return float(np.mean(errors)) if errors else math.nan


def check_mc_sweep(rdir: Path, meta: dict) -> list[str]:
    rows = read_result_rows(rdir / "sweep")
    problems = _missing_rows(rows, meta["grid"], meta["trials"], meta["methods"])
    for wbar in meta["grid"]:
        oracle = [r for r in rows if r["method"] == "oracle-map"
                  and r["sweep"] == wbar and r["error"] is None]
        if any(r["bound_upper"] is None for r in oracle):
            problems.append(f"wbar={wbar}: oracle-map row without bound_upper")
            continue
        error = np.mean([r["error_rate"] for r in oracle])
        bound = np.mean([r["bound_upper"] for r in oracle])
        if error > bound:
            problems.append(f"wbar={wbar}: oracle-map mean error {error} "
                            f"exceeds mean bound_upper {bound}")
    if not _mean_error(rows, "oracle-map") <= _mean_error(rows, "mv"):
        problems.append("oracle-map error exceeds mv error over the sweep")
    return problems


def majority_vote_dense(grid: np.ndarray, classes: int) -> np.ndarray:
    """Most frequent label per column of a 0-for-missing grid, ties lowest."""
    counts = np.stack([(grid == k).sum(axis=0) for k in range(1, classes + 1)])
    return counts.argmax(axis=0) + 1


def check_dataset_em(rdir: Path, meta: dict) -> list[str]:
    rows = read_result_rows(rdir / "em")
    problems = _missing_rows(rows, meta["rates"], meta["trials"], meta["methods"])
    grid = np.loadtxt(rdir / "labels.csv", delimiter=",", dtype=np.int64, ndmin=2)
    truth = np.loadtxt(rdir / "truth.csv", delimiter=",", skiprows=1,
                       dtype=np.int64, ndmin=2)[:, 1]
    own = float(np.mean(majority_vote_dense(grid, meta["classes"]) != truth))
    full = max(meta["rates"])
    for r in rows:
        if r["error"] is not None:
            continue
        if r["method"] == "mv" and r["sweep"] == full and \
                abs(r["error_rate"] - own) > TOL:
            problems.append(f"mv error {r['error_rate']} at s={full}, trial "
                            f"{r['trial']}, differs from own vote {own}")
        if r["method"].startswith("em-") and \
                r["iterations"] >= meta["em_max_iters"]:
            problems.append(f"{r['method']} at s={r['sweep']}, trial "
                            f"{r['trial']} ran to max_iters")
    lowest = min(meta["rates"])
    if not _mean_error(rows, "mv", lowest) >= _mean_error(rows, "mv", full):
        problems.append(f"mean mv error rises from s={lowest} to s={full}")
    return problems


def read_triples(path):
    """(worker index, item index, label) arrays plus item ids, in
    first-appearance order."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        rows = [row for row in reader if row]
    workers, items = {}, {}
    w = np.array([workers.setdefault(r[0], len(workers)) for r in rows])
    i = np.array([items.setdefault(r[1], len(items)) for r in rows])
    labels = np.array([int(r[2]) for r in rows])
    return w, i, labels, list(items)


def read_item_labels(path) -> dict[str, int]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        return {row[0]: int(row[1]) for row in reader if row}


def vote_scores(items, labels, weights, num_items, classes) -> np.ndarray:
    """Per-item, per-class sums of the voters' weights."""
    scores = np.zeros((num_items, classes))
    np.add.at(scores, (items, labels - 1), weights)
    return scores


def bound_wmv_hds(q, weights, accuracies, classes) -> tuple[float, float]:
    """Mean-error upper bound of weighted voting and its exponent:
    (L-1) * min(exp(-t^2/2), exp(-t^2 / (2 (sigma^2 + c t / 3)))), capped
    at one, with t = q sum v_i (L w_i - 1) / ((L-1) |v|), c = |v|_inf / |v|
    and sigma^2 = q."""
    v, w = np.asarray(weights), np.asarray(accuracies)
    norm = math.sqrt(float(np.sum(v * v)))
    t = q * float(np.sum(v * (classes * w - 1))) / ((classes - 1) * norm)
    c = float(np.max(np.abs(v))) / norm
    exponent = max(t * t / 2, t * t / (2 * (q + c * t / 3)))
    return min(1.0, (classes - 1) * math.exp(-exponent)), exponent


def _close(a, b, rel=1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_cli_sparse(rdir: Path, meta: dict) -> list[str]:
    ok = dict(zip(meta["commands"], (code == 0 for code in meta["codes"])))
    if not ok["simulate"]:
        return []
    L = meta["classes"]
    workers, items, labels, item_ids = read_triples(rdir / "labels.csv")
    truth = read_item_labels(rdir / "truth.csv")
    problems = []

    def stdout(name):
        return json.loads((rdir / f"{name}.out").read_text())

    if stdout("simulate")["labels"] != labels.size:
        problems.append("simulate reports another label count than it wrote")
    own_mv = vote_scores(items, labels, 1.0, len(item_ids), L).argmax(axis=1) + 1
    for method in ("mv", "iwmv", "em-hds"):
        if not ok[f"aggregate_{method}"]:
            continue
        predicted = read_item_labels(rdir / f"pred_{method}.csv")
        if list(predicted) != item_ids:
            problems.append(f"{method}: predicted items differ from the input")
            continue
        pred = np.array(list(predicted.values()))
        wrong = sum(p != truth[item] for item, p in predicted.items())
        reported = stdout(f"aggregate_{method}")
        if abs(reported["error_rate"] - wrong / len(pred)) > TOL:
            problems.append(f"{method}: error_rate {reported['error_rate']} "
                            f"!= own count {wrong}/{len(pred)}")
        if method == "mv" and np.any(pred != own_mv):
            problems.append(f"mv: {int(np.sum(pred != own_mv))} predictions "
                            "differ from own majority vote")
        if method == "iwmv":
            problems += _iwmv_fixed_point(workers, items, labels, pred, L,
                                          reported, meta["iwmv_max_iters"])
    if ok["summarize"]:
        summary = stdout("summarize")
        own = {"num_labels": labels.size, "num_items": len(item_ids),
               "num_workers": int(workers.max()) + 1}
        for key, value in own.items():
            if summary[key] != value:
                problems.append(f"summarize {key} {summary[key]} != {value}")
    if ok["bounds"]:
        params = json.loads((rdir / "bounds_params.json").read_text())
        upper, exponent = bound_wmv_hds(params["q"], params["weights"],
                                        params["accuracies"], params["L"])
        values = stdout("bounds")["values"]
        if not (_close(values["upper"], upper)
                and _close(values["upper_exponent"], exponent)):
            problems.append(f"bounds upper {values['upper']} / exponent "
                            f"{values['upper_exponent']} != own {upper} / "
                            f"{exponent}")
    return problems


def _iwmv_fixed_point(workers, items, labels, pred, L, reported,
                      max_iters) -> list[str]:
    """A converged IWMV output reproduces itself: weights L*acc - 1 from
    agreement with it, then one vote. Near-tied items are exempt."""
    if reported["iterations"] >= max_iters:
        return [f"iwmv ran to max_iters ({reported['iterations']})"]
    agree = np.bincount(workers, weights=labels == pred[items])
    accuracy = agree / np.bincount(workers)
    scores = vote_scores(items, labels, (L * accuracy - 1)[workers],
                         len(pred), L)
    top = np.sort(scores, axis=1)
    decided = top[:, -1] - top[:, -2] > 1e-9 * max(1.0, np.abs(scores).max())
    moved = decided & (scores.argmax(axis=1) + 1 != pred)
    if moved.any():
        return [f"iwmv output is not a fixed point on {int(moved.sum())} items"]
    return []


CHECKS = {"mc-sweep": check_mc_sweep, "cli-sparse": check_cli_sparse,
          "dataset-em": check_dataset_em}
