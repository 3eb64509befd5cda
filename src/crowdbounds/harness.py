"""Data ingestion, experiment orchestration and result emission.

Experiments are described by a JSON-serialisable config, run trial by trial
with per-trial derived generators (so a row does not depend on which other
cells ran before it), and emitted as a CSV plus an equivalent JSON-lines file
whose only nondeterministic content is a timestamp header line. Every
aggregation method is named once, in :data:`METHODS`.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import bounds as bnd
from .aggregate import (
    bound_optimal_weights,
    iwmv,
    majority_vote,
    one_step_wmv,
    oracle_map_predict,
    oracle_map_weights_hds,
    weighted_majority_vote,
)
from .core import (
    AssignmentModel,
    DomainError,
    EmptyMatrix,
    LabelMatrix,
    LabelSet,
    LengthMismatch,
    Prior,
    WorkerModel,
    error_rate,
)
from .em import EmConfig, em_fit, em_map_predict
from .simulate import (
    SimConfig,
    derive_rng,
    make_misspecified_dataset,
    sample_workers_beta,
    simulate_dataset,
)


class ParseError(ValueError):
    """A CSV line could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DuplicateLabel(ValueError):
    """The same worker labelled the same item twice."""

    def __init__(self, worker, item):
        self.worker = worker
        self.item = item
        super().__init__(f"duplicate label for worker {worker!r}, item {item!r}")


class UnknownLabel(ValueError):
    """A label token is not a member of the declared label set."""


def _read_labelled_rows(path, header: tuple, label_set: LabelSet):
    """Yield the rows of a CSV whose first line is ``header`` and whose last
    field is a label: the stripped key fields, then the internal label.

    Blank rows are skipped; every other row must have one field per header
    column and a label token that names one of the label set's classes.
    """
    classes = range(1, label_set.num_classes + 1)
    internal_of = dict(zip(label_set.to_external(classes).tolist(), classes))
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None:
            raise EmptyMatrix(f"{path} is empty")
        if [cell.strip().lower() for cell in first] != list(header):
            raise ParseError(1, f"expected header {','.join(header)!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(line_no, f"expected {len(header)} fields, "
                                          f"got {len(row)}")
            *keys, token = [cell.strip() for cell in row]
            try:
                raw_label = int(token)
            except ValueError as exc:
                raise ParseError(line_no, f"label {token!r} is not an integer") from exc
            internal = internal_of.get(raw_label)
            if internal is None:
                raise UnknownLabel(
                    f"line {line_no}: label {raw_label} is not one of the "
                    f"{label_set.num_classes} classes")
            yield (*keys, internal)


def load_labels(path, fmt: str = "csv-triples",
                label_set: LabelSet | None = None):
    """Read labels from disk into a :class:`LabelMatrix` plus id maps.

    ``csv-triples`` expects a header ``worker,item,label`` and one observed
    label per row; workers and items receive contiguous internal indices in
    first-appearance order and the original ids are returned for
    round-tripping. ``dense-csv`` expects a headerless integer grid, one row
    per worker, with 0 marking missing entries.
    """
    if label_set is None:
        raise DomainError("a label set (class count) is required")
    if fmt == "dense-csv":
        with open(path, newline="") as handle:
            rows = [row for row in csv.reader(handle) if row]
        if not rows:
            raise EmptyMatrix(f"{path} contains no data")
        grid = []
        for line_no, row in enumerate(rows, start=1):
            try:
                grid.append([int(cell) for cell in row])
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
        from .core import validate_label_matrix
        matrix = validate_label_matrix(grid, label_set)
        return (matrix, [str(i) for i in range(matrix.num_workers)],
                [str(j) for j in range(matrix.num_items)])
    if fmt != "csv-triples":
        raise DomainError(f"unknown label format {fmt!r}")

    worker_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()
    workers, items, values = [], [], []
    for worker, item, label in _read_labelled_rows(
            path, ("worker", "item", "label"), label_set):
        cell = (worker_index.setdefault(worker, len(worker_index)),
                item_index.setdefault(item, len(item_index)))
        if cell in seen:
            raise DuplicateLabel(worker, item)
        seen.add(cell)
        workers.append(cell[0])
        items.append(cell[1])
        values.append(label)
    if not values:
        raise EmptyMatrix(f"{path} contains no labels")
    labels = LabelMatrix(np.array(workers), np.array(items), np.array(values),
                         len(worker_index), len(item_index),
                         label_set.num_classes)
    return labels, list(worker_index), list(item_index)


def load_truth(path, label_set: LabelSet,
               item_ids: list[str]) -> tuple[np.ndarray, int]:
    """Read an ``item,label`` CSV and align it with the loaded item order.

    Returns the true labels of ``item_ids`` and the number of truth rows
    whose item is not among them (an item nobody labelled), which callers
    report rather than drop silently.
    """
    by_item: dict[str, int] = {}
    for item, label in _read_labelled_rows(path, ("item", "label"), label_set):
        if item in by_item:
            raise DuplicateLabel("<truth>", item)
        by_item[item] = label
    missing = [item for item in item_ids if item not in by_item]
    if missing:
        raise DomainError(f"truth file lacks labels for {len(missing)} items "
                          f"(first: {missing[0]!r})")
    truth = np.array([by_item[item] for item in item_ids], dtype=np.int64)
    return truth, len(by_item) - len(item_ids)


def subsample_labels(labels: LabelMatrix, keep_prob: float,
                     seed: int = 0) -> LabelMatrix:
    """Keep every observed label independently with the given probability."""
    if not 0 <= keep_prob <= 1:
        raise DomainError("keep probability must lie in [0, 1]")
    rng = derive_rng(seed, "subsample")
    # One uniform per grid cell, so each cell's draw is fixed by the seed
    # alone, whichever cells are observed.
    grid = rng.random((labels.num_workers, labels.num_items))
    keep = grid[labels.workers, labels.items] < keep_prob
    return LabelMatrix(labels.workers[keep], labels.items[keep],
                       labels.labels[keep], labels.num_workers,
                       labels.num_items, labels.num_classes)


@dataclass(frozen=True)
class DatasetSummary:
    num_classes: int
    num_workers: int
    num_items: int
    num_labels: int
    density: float
    labels_per_worker: np.ndarray
    mean_worker_accuracy: float | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        out["labels_per_worker"] = self.labels_per_worker.tolist()
        if self.mean_worker_accuracy is None:
            del out["mean_worker_accuracy"]
        return out


def summarize_dataset(labels: LabelMatrix, truth=None) -> DatasetSummary:
    """Counts, density and (given truth) the average worker accuracy."""
    per_worker = labels.labels_per_worker()
    accuracy = None
    if truth is not None:
        truth = np.asarray(truth)
        if truth.shape != (labels.num_items,):
            raise LengthMismatch("need exactly one true label per item")
        agree = labels.agreement(
            truth[:, None] == np.arange(1, labels.num_classes + 1))
        with_labels = per_worker > 0
        if with_labels.any():
            accuracy = float(np.mean(agree[with_labels] / per_worker[with_labels]))
    return DatasetSummary(
        num_classes=labels.num_classes,
        num_workers=labels.num_workers,
        num_items=labels.num_items,
        num_labels=labels.num_labels,
        density=labels.num_labels / (labels.num_workers * labels.num_items),
        labels_per_worker=per_worker,
        mean_worker_accuracy=accuracy,
    )


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    method: str
    sweep: float
    trial: int
    error_rate: float | None
    iterations: int | None
    seconds: float | None
    bound_upper: float | None
    bound_lower: float | None
    condition: bool | None
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))

_SIM_DEFAULTS = {"M": 31, "N": 200, "L": 3, "q": 0.3, "beta_a": 2.3,
                 "beta_b": 2.0, "wbar": None, "beta_tol": 0.01}
_MISSPEC_DEFAULTS = {"M1": 15, "M2": 15, "N1": 300, "N2": 300,
                     "block": [[0.9, 0.6], [0.5, 0.7]], "q": 0.3}
_DATASET_KEYS = ("path", "format", "truth", "L", "binary")
_CONFIG_KEYS = ("scenario", "methods", "trials", "sweep", "master_seed",
                "output", "sim", "misspec", "dataset", "record_timing",
                "fixed_iterations")


def _reject_unknown_keys(where: str, raw: dict, allowed) -> None:
    unknown = [key for key in raw if key not in allowed]
    if unknown:
        raise DomainError(f"unknown {where} keys: "
                          f"{', '.join(map(repr, unknown))}")


def _run_wmv(labels, accuracies, limits):
    if accuracies is None:
        raise DomainError("the oracle-weighted vote needs true accuracies")
    weights = bound_optimal_weights(accuracies, labels.num_classes)
    return weighted_majority_vote(labels, weights), None


def _run_oracle_map(labels, accuracies, limits):
    if accuracies is None:
        raise DomainError("the oracle MAP rule needs the true model")
    L = labels.num_classes
    model = WorkerModel.hds(accuracies, L)
    return oracle_map_predict(labels, model, Prior.uniform(L)), None


def _run_iwmv(labels, accuracies, limits, weight_mode):
    result = iwmv(labels, weight_mode=weight_mode, **limits)
    return result.predictions, result.iterations


def _run_em(labels, accuracies, limits, model_kind):
    result = em_fit(labels, EmConfig(model_kind=model_kind, **limits))
    return em_map_predict(result), result.iterations


def _vote_bound(weight_map, labels, accuracies, q):
    """Mean-error bound columns of weighted voting with the weights
    ``weight_map(accuracies, L)``."""
    L = labels.num_classes
    quantities = bnd.quantities_wmv_hds(q, weight_map(accuracies, L),
                                        accuracies, L)
    report = bnd.mean_error_bounds(quantities, L)
    return (report.values["upper"], report.values["lower"],
            report.condition_holds["upper"])


def _one_step_bound(labels, accuracies, q):
    """The one-step WMV bound, which covers fully observed binary data only."""
    if q != 1.0 or labels.num_classes != 2:
        return None, None, None
    report = bnd.one_step_wmv_bound(accuracies, labels.num_items)
    return report.values["bound"], None, report.condition_holds["upper"]


@dataclass(frozen=True)
class Method:
    """One aggregation method of the harness and the CLI.

    ``run(labels, accuracies, limits)`` returns the predictions and the
    iteration count (None for rules that do not iterate). ``accuracies``
    are the workers' true single-accuracy-model parameters, or None where
    they are unknown; the methods with ``needs_model`` fail without them.
    ``limits`` holds keyword arguments for the iterative methods' stopping
    rule (empty: their defaults). ``bound(labels, accuracies, q)``, where
    present, gives the (upper, lower, condition) bound columns.
    """

    run: Callable
    needs_model: bool = False
    bound: Callable | None = None


METHODS = {
    "mv": Method(
        lambda labels, accuracies, limits: (majority_vote(labels), None),
        bound=partial(_vote_bound,
                      lambda accuracies, L: np.ones(accuracies.size))),
    "wmv": Method(_run_wmv, needs_model=True,
                  bound=partial(_vote_bound, bound_optimal_weights)),
    "iwmv": Method(partial(_run_iwmv, weight_mode="linear")),
    "iwmv-log": Method(partial(_run_iwmv, weight_mode="log")),
    "oswmv": Method(lambda labels, accuracies, limits: (one_step_wmv(labels), 1),
                    bound=_one_step_bound),
    "em-gds": Method(partial(_run_em, model_kind="gds")),
    "em-hds": Method(partial(_run_em, model_kind="hds")),
    "oracle-map": Method(_run_oracle_map, needs_model=True,
                         bound=partial(_vote_bound, oracle_map_weights_hds)),
}
KNOWN_METHODS = tuple(METHODS)


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: scenario, sweep grid, methods and seeding.

    ``scenario`` is one of ``hds-sweep`` (synthetic single-accuracy data,
    sweeping one of wbar/M/N/q), ``misspecified`` (block-accuracy data,
    sweep ignored) and ``dataset`` (a labels file subsampled at rate s).
    """

    scenario: str
    methods: tuple
    trials: int
    sweep_variable: str
    sweep_grid: tuple
    master_seed: int
    output: str | None = None
    sim: dict = field(default_factory=dict)
    misspec: dict = field(default_factory=dict)
    dataset: dict = field(default_factory=dict)
    record_timing: bool = False
    fixed_iterations: int | None = None

    def __post_init__(self):
        if self.scenario not in ("hds-sweep", "misspecified", "dataset"):
            raise DomainError(f"unknown scenario {self.scenario!r}")
        if self.trials < 1:
            raise DomainError("at least one trial is required")
        if not self.methods:
            raise DomainError("at least one method is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise DomainError(f"unknown methods: {unknown}")
        if not self.sweep_grid:
            raise DomainError("the sweep grid must not be empty")
        if self.sweep_variable not in ("wbar", "M", "N", "q", "s", "none"):
            raise DomainError(f"unknown sweep variable {self.sweep_variable!r}")
        _reject_unknown_keys("sim", self.sim, _SIM_DEFAULTS)
        _reject_unknown_keys("misspec", self.misspec, _MISSPEC_DEFAULTS)
        _reject_unknown_keys("dataset", self.dataset, _DATASET_KEYS)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _reject_unknown_keys("config", raw, _CONFIG_KEYS)
        sweep = raw.get("sweep", {"variable": "none", "grid": [0.0]})
        _reject_unknown_keys("sweep", sweep, ("variable", "grid"))
        return cls(
            scenario=raw["scenario"],
            methods=tuple(raw["methods"]),
            trials=int(raw.get("trials", 1)),
            sweep_variable=sweep.get("variable", "none"),
            sweep_grid=tuple(sweep.get("grid", [0.0])),
            master_seed=int(raw.get("master_seed", 0)),
            output=raw.get("output"),
            sim=dict(raw.get("sim", {})),
            misspec=dict(raw.get("misspec", {})),
            dataset=dict(raw.get("dataset", {})),
            record_timing=bool(raw.get("record_timing", False)),
            fixed_iterations=raw.get("fixed_iterations"),
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def _hds_trial_data(config: ExperimentConfig, sweep_value, seed: int):
    """Simulate one trial of an hds-sweep scenario: labels, truth, the true
    accuracies and the label probability q."""
    sim = {**_SIM_DEFAULTS, **config.sim}
    var = config.sweep_variable
    if var in ("M", "N"):
        sim[var] = int(sweep_value)
    elif var == "q":
        sim["q"] = float(sweep_value)
    elif var == "wbar":
        sim["wbar"] = float(sweep_value)
    M, N, L, q = int(sim["M"]), int(sim["N"]), int(sim["L"]), float(sim["q"])
    if sim["wbar"] is not None:
        target = float(sim["wbar"])
        a = sim["beta_b"] * target / (1.0 - target)
    else:
        a = float(sim["beta_a"])
        target = a / (a + float(sim["beta_b"]))
    accuracies = sample_workers_beta(M, a, float(sim["beta_b"]), target,
                                     tol=float(sim["beta_tol"]), seed=seed)
    model = WorkerModel.hds(accuracies, L)
    sim_config = SimConfig(M, N, L, Prior.uniform(L),
                           AssignmentModel.constant(q), model, seed=seed)
    out = simulate_dataset(sim_config)
    return out.labels, out.truth, accuracies, q


def _misspec_trial_data(config: ExperimentConfig, seed: int):
    spec = {**_MISSPEC_DEFAULTS, **config.misspec}
    out = make_misspecified_dataset(int(spec["M1"]), int(spec["M2"]),
                                    int(spec["N1"]), int(spec["N2"]),
                                    spec["block"], float(spec["q"]), seed=seed)
    return out.labels, out.truth, None, None


def _run_trial(config: ExperimentConfig, sweep_index: int, sweep_value,
               trial: int, dataset) -> list[ResultRow]:
    """Rows of one trial; ``dataset`` is the loaded (labels, truth) of the
    dataset scenario and None otherwise."""
    # The misspecified scenario ignores the sweep: each trial has one dataset.
    sweep_key = 0 if config.scenario == "misspecified" else sweep_index
    seed = int(derive_rng(config.master_seed, "trial-seed", sweep_key, trial)
               .integers(0, 2 ** 62))
    if config.scenario == "hds-sweep":
        labels, truth, accuracies, q = _hds_trial_data(config, sweep_value, seed)
    elif config.scenario == "misspecified":
        labels, truth, accuracies, q = _misspec_trial_data(config, seed)
    else:
        labels, truth = dataset
        accuracies = q = None
        labels = subsample_labels(labels, float(sweep_value), seed=seed)
    limits = {}
    if config.fixed_iterations is not None:
        limits = {"max_iters": config.fixed_iterations,
                  "stop_on_convergence": False}
    rows = []
    for name in config.methods:
        method = METHODS[name]
        started = time.perf_counter()
        try:
            predictions, iterations = method.run(labels, accuracies, limits)
            elapsed = time.perf_counter() - started
            rate = error_rate(predictions, truth) if truth is not None else None
            upper = lower = condition = None
            if method.bound is not None and accuracies is not None:
                upper, lower, condition = method.bound(labels, accuracies, q)
            rows.append(ResultRow(
                config.scenario, name, float(sweep_value), trial, rate,
                iterations, elapsed if config.record_timing else None,
                upper, lower, condition))
        except Exception as exc:  # keep the sweep alive; report per row
            rows.append(ResultRow(
                config.scenario, name, float(sweep_value), trial, None,
                None, None, None, None, None, error=str(exc)))
    return rows


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run every (sweep value, trial, method) cell and emit result files.

    Rows come in grid order, then trial, then the config's method order.
    Each trial derives its own generator from (master seed, sweep, trial),
    so a row's content does not depend on the cells run before it.
    """
    dataset = None
    if config.scenario == "dataset":
        spec = config.dataset
        label_set = LabelSet(int(spec.get("L", 2)), bool(spec.get("binary", False)))
        labels, _, item_ids = load_labels(
            spec["path"], spec.get("format", "csv-triples"), label_set)
        truth = None
        if spec.get("truth"):
            truth, unlabeled = load_truth(spec["truth"], label_set, item_ids)
            if unlabeled:
                warnings.warn(f"{unlabeled} truth rows name items without "
                              f"labels; no error rate covers them",
                              stacklevel=2)
        dataset = labels, truth
    rows = [row
            for sweep_index, sweep_value in enumerate(config.sweep_grid)
            for trial in range(config.trials)
            for row in _run_trial(config, sweep_index, sweep_value, trial,
                                  dataset)]
    if config.output:
        write_results(rows, config.output)
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results(rows: list[ResultRow], stem: str) -> tuple[str, str]:
    """Write ``<stem>.csv`` and ``<stem>.jsonl``.

    Both files start with a timestamp line (a ``#`` comment in the CSV, a
    ``_meta`` record in the JSONL); everything after it is a pure function
    of the rows.
    """
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    csv_path, jsonl_path = f"{stem}.csv", f"{stem}.jsonl"
    with open(csv_path, "w", newline="") as handle:
        handle.write(f"# generated_at={stamp}\n")
        writer = csv.writer(handle)
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(value)
                             for value in row.to_dict().values()])
    with open(jsonl_path, "w") as handle:
        handle.write(json.dumps({"_meta": {"generated_at": stamp}}) + "\n")
        for row in rows:
            handle.write(json.dumps(row.to_dict()) + "\n")
    return csv_path, jsonl_path


def summarize_rows(rows: list[ResultRow]) -> dict:
    """Aggregate raw rows to per-(sweep, method) means for quick reporting."""
    table: dict[tuple, dict] = {}
    for row in rows:
        if row.error_rate is None:
            continue
        cell = table.setdefault((row.sweep, row.method), {
            "errors": [], "iterations": [], "bounds": []})
        cell["errors"].append(row.error_rate)
        if row.iterations is not None:
            cell["iterations"].append(row.iterations)
        if row.bound_upper is not None:
            cell["bounds"].append(row.bound_upper)
    out = {}
    for (sweep, method), cell in sorted(table.items()):
        out[f"{method}@{sweep}"] = {
            "mean_error": float(np.mean(cell["errors"])),
            "std_error": float(np.std(cell["errors"])),
            "mean_iterations": (float(np.mean(cell["iterations"]))
                                if cell["iterations"] else None),
            "mean_bound_upper": (float(np.mean(cell["bounds"]))
                                 if cell["bounds"] else None),
            "trials": len(cell["errors"]),
        }
    return out
