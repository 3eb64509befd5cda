"""Data ingestion, experiment orchestration and result emission.

Experiments are described by a JSON-serialisable config, run trial by trial
with per-trial derived generators (so a row does not depend on which other
cells ran before it, or in which process), and emitted as a CSV plus an
equivalent JSON-lines file whose only nondeterministic content is a
timestamp header line. The (sweep value, trial) cells are dispatched in
groups of consecutive cells whose expected label count stays within
:data:`_GROUP_LABELS` (one cell per group when ``record_timing`` is set),
each group a task of a pool with one forked process per CPU that the calling
process may use. Within a group the cells run in order, except that EM fits
all of the group's trials in one batch. The rows are the same bytes as a
serial, one-cell-at-a-time run's; restrict the CPU affinity (``taskset -c
0``) to run them serially, with identical rows. Every aggregation method is
named once, in :data:`METHODS`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
import os
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, fields
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
from .em import EmConfig, em_fit, em_fit_many, em_map_predict
from .simulate import (
    SimConfig,
    cell_uniforms,
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


LABEL_FORMATS = ("csv-triples", "dense-csv")


_READ_BLOCK = 1 << 16  # characters of whole lines the label reader decodes at once


def _line_blocks(handle):
    """Yield a text file's lines in blocks of whole lines, each ending in
    ``"\\n"`` and about :data:`_READ_BLOCK` characters long (a longer line
    makes a longer block). A last line without a line break gets one."""
    rest = ""
    while chunk := handle.read(_READ_BLOCK):
        rest += chunk
        cut = rest.rfind("\n") + 1
        if cut:
            yield rest[:cut]
            rest = rest[cut:]
    if rest:
        yield rest + "\n"


def _read_table(path, header: tuple, label_set: LabelSet):
    """Read a label CSV block by block and decode it.

    A keyed file starts with the line ``header`` (``worker,item,label`` or
    ``item,label``); each row holds key fields and one label. It comes back
    as, per key column, a dict from each stripped key to its
    first-appearance position, then the rows' key positions and the labels'
    internal classes, sorted by key (the first column first, stably); no two
    rows may share every key. A dense grid (``header=()``) has neither:
    every field is a label, 0 marks a missing one, and the classes come back
    as a (rows, width) array.

    Lines may end in LF, CRLF or a lone CR, empty lines are skipped, and
    cells are stripped of surrounding whitespace. Every row must have as
    many fields as the header or, in a grid, as its first row, and every
    label token must be an integer in the one token table built from
    :meth:`LabelSet.to_external`. No quoting is parsed: a double quote is
    an error.

    The file is read in blocks of whole lines (:func:`_line_blocks`), and
    each check runs over a block's whole columns; only the int64 key and
    class arrays of the rows read so far are kept, and the key dicts and
    token table carry over from block to block. Reading stops at the first
    faulty block, and the error raised is the first faulty line's, as a
    line-by-line reader finds it: a repeated key before that line, else its
    quote or field count, else its label.
    """
    classes = range(1, label_set.num_classes + 1)
    class_of = dict(zip(label_set.to_external(classes).tolist(), classes))
    if not header:
        class_of[0] = 0
    by_token = {str(value): code for value, code in class_of.items()}
    indices = [{} for _ in header[1:]]  # a key's first-appearance position
    # Per column (the keys', then the classes'), the arrays of each block.
    columns = [[np.empty(0, np.int64)] for _ in range(len(header) or 1)]
    width = len(header)  # a grid's is its first row's
    error, lines_read = None, 0
    with open(path) as handle:  # universal newlines: CRLF and CR read as LF
        for text in _line_blocks(handle):
            # Where each line ends, and its commas and quotes, on the bytes.
            data = np.frombuffer(text.encode(), np.uint8)
            ends = np.flatnonzero(data == ord("\n"))
            commas, quotes = (np.diff(np.searchsorted(
                np.flatnonzero(data == ord(c)), ends), prepend=0) for c in ',"')
            lines = text.split("\n")
            start = 0
            if header and not lines_read:
                if quotes[0]:
                    raise ParseError(1, "quoted fields are not supported")
                if [cell.strip().lower()
                        for cell in lines[0].split(",")] != list(header):
                    raise ParseError(1, f"expected header {','.join(header)!r}")
                start = 1
            before, lines_read = lines_read, lines_read + ends.size
            # The block's 0-based line of each row: the lines that are not empty.
            numbers = np.flatnonzero(np.diff(ends, prepend=-1)[start:] > 1) + start
            rows = list(filter(None, lines[start:]))
            if not rows:
                continue
            width = width or 1 + int(commas[numbers[0]])
            per_row = 1 if header else width  # label tokens per row
            bad = np.flatnonzero((commas[numbers] != width - 1)
                                 | (quotes[numbers] > 0))
            if bad.size:
                line = int(numbers[bad[0]])
                error = ParseError(
                    before + line + 1, "quoted fields are not supported"
                    if quotes[line] else
                    f"expected {width} fields, got {commas[line] + 1}")
                rows = rows[:bad[0]]
            cells = list(map(str.strip, ",".join(rows).split(","))) if rows else []
            del lines, rows  # the cells hold what is read from here on
            tokens = cells[width - 1::width] if header else cells
            for token in set(tokens).difference(by_token):  # "01", "+1", "x"
                with contextlib.suppress(ValueError):
                    by_token[token] = class_of.get(int(token))  # None: not a class
            codes = list(map(by_token.get, tokens))
            k = codes.index(None) if None in codes else len(codes)  # a bad token
            if k < len(codes):
                token, line = tokens[k], before + int(numbers[k // per_row]) + 1
                error = (UnknownLabel(f"line {line}: label {int(token)} is not "
                                      f"one of the {label_set.num_classes} classes")
                         if token in by_token else
                         ParseError(line, f"label {token!r} is not an integer"))
            n = k // per_row  # the rows before the first faulty one
            for column, (index, keys) in enumerate(zip(indices, columns)):
                keys.append(np.array([index.setdefault(key, len(index)) for key
                                      in cells[column:n * width:width]],
                                     dtype=np.int64))
            columns[-1].append(np.array(codes[:n * per_row], dtype=np.int64))
            if error:
                break
    if header and not lines_read:
        raise EmptyMatrix(f"{path} is empty")
    for c, column in enumerate(columns):  # one column's blocks at a time
        columns[c] = np.concatenate(column)
    *keys, classes = columns
    if not header:
        if error:
            raise error
        return [], [], classes.reshape(-1, width or 1)
    cell = np.ravel_multi_index(keys, [len(index) for index in indices])
    order = np.argsort(cell, kind="stable")
    repeats = order[1:][np.diff(cell[order]) == 0]
    if repeats.size:
        row = repeats.min()
        ids = [list(index)[key[row]] for index, key in zip(indices, keys)]
        # A truth file's repeated item is reported for the worker "<truth>".
        raise DuplicateLabel(*["<truth>", *ids][-2:])
    if error:
        raise error
    return indices, [key[order] for key in keys], classes[order]


def load_labels(path, fmt: str = "csv-triples", *, label_set: LabelSet):
    """Read labels from disk into a :class:`LabelMatrix` plus id maps.

    ``csv-triples`` expects a header ``worker,item,label`` and one observed
    label per row; workers and items receive contiguous internal indices in
    first-appearance order and the original ids are returned for
    round-tripping. ``dense-csv`` expects a headerless integer grid, one row
    per worker, with 0 marking missing entries; its ids are the 0-based row
    and column numbers. Both formats are read by one reader, with the same
    rules and messages, and a file without a single label is rejected.
    """
    if fmt not in LABEL_FORMATS:
        raise DomainError(f"unknown label format {fmt!r}")
    if fmt == "dense-csv":
        _, _, grid = _read_table(path, (), label_set)
        if not grid.any():
            raise EmptyMatrix(f"{path} contains no labels")
        labels = LabelMatrix.from_dense(grid, label_set.num_classes)
        return (labels, [str(i) for i in range(labels.num_workers)],
                [str(j) for j in range(labels.num_items)])
    (worker_index, item_index), (workers, items), values = _read_table(
        path, ("worker", "item", "label"), label_set)
    if not values.size:
        raise EmptyMatrix(f"{path} contains no labels")
    labels = LabelMatrix(workers, items, values, len(worker_index),
                         len(item_index), label_set.num_classes)
    return labels, list(worker_index), list(item_index)


def load_truth(path, label_set: LabelSet,
               item_ids: list[str]) -> tuple[np.ndarray, int]:
    """Read an ``item,label`` CSV and align it with the loaded item order.

    Returns the true labels of ``item_ids`` and the number of truth rows
    whose item is not among them (an item nobody labelled), which callers
    report rather than drop silently.
    """
    (by_item,), _, labels = _read_table(path, ("item", "label"), label_set)
    missing = [item for item in item_ids if item not in by_item]
    if missing:
        raise DomainError(f"truth file lacks labels for {len(missing)} items "
                          f"(first: {missing[0]!r})")
    truth = labels[list(map(by_item.__getitem__, item_ids))]
    return truth, len(by_item) - len(item_ids)


def subsample_labels(labels: LabelMatrix, keep_prob: float,
                     seed: int = 0) -> LabelMatrix:
    """Keep every observed label independently with the given probability."""
    if not 0 <= keep_prob <= 1:
        raise DomainError("keep probability must lie in [0, 1]")
    # One uniform per grid cell, whichever cells are observed.
    keep = cell_uniforms(derive_rng(seed, "subsample"),
                         labels.workers * labels.num_items + labels.items,
                         (labels.num_workers, labels.num_items)) < keep_prob
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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
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
        accuracies = labels.worker_accuracies(
            truth[:, None] == np.arange(1, labels.num_classes + 1))
        with_labels = per_worker > 0
        if with_labels.any():
            accuracy = float(np.mean(accuracies[with_labels]))
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
        return {name: getattr(self, name) for name in RESULT_COLUMNS}


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))

# The JSON kinds of experiment-config and ``bounds --params`` values. A
# number is finite, and true and false are not numbers; an integer is written
# without a fractional part, a whole number is any number without one (2.0
# reads as 2).
KINDS = {
    "integer": lambda x: KINDS["number"](x) and isinstance(x, numbers.Integral),
    "whole number": lambda x: KINDS["integer"](x) or (
        isinstance(x, float) and x.is_integer()),
    "number": lambda x: isinstance(x, numbers.Real) and not isinstance(
        x, bool) and (isinstance(x, numbers.Integral) or math.isfinite(x)),
    "numbers": lambda x: KINDS["number"](x) or (
        isinstance(x, (list, tuple)) and all(map(KINDS["numbers"], x))),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, (list, tuple)),
}
REQUIRED = object()  # the default of a key that must be given
# Every key of an experiment config as key: (kind, default), and a section
# as key: ("object", {}, its own key table). README lists the same tables.
CONFIG_KEYS = {
    "scenario": ("string", REQUIRED), "methods": ("array", REQUIRED),
    "trials": ("whole number", 1), "master_seed": ("whole number", 0),
    "output": ("string", None), "record_timing": ("boolean", False),
    "fixed_iterations": ("integer", None),
    "sweep": ("object", {}, {"variable": ("string", "none"),
                             "grid": ("array", (0.0,))}),
    "sim": ("object", {}, {
        "M": ("whole number", 31), "N": ("whole number", 200),
        "L": ("whole number", 3), "q": ("number", 0.3),
        "beta_a": ("number", 2.3), "beta_b": ("number", 2.0),
        "wbar": ("number", None), "beta_tol": ("number", 0.01)}),
    "misspec": ("object", {}, {
        "M1": ("whole number", 15), "M2": ("whole number", 15),
        "N1": ("whole number", 300), "N2": ("whole number", 300),
        "block": ("numbers", ((0.9, 0.6), (0.5, 0.7))), "q": ("number", 0.3)}),
    "dataset": ("object", {}, {
        "path": ("string", None), "format": ("string", "csv-triples"),
        "truth": ("string", None), "L": ("whole number", 2),
        "binary": ("boolean", False)}),
}
# The sweep variables each scenario reads ("none": the grid only repeats).
_SWEEP_VARIABLES = {"hds-sweep": ("wbar", "M", "N", "q", "none"),
                    "misspecified": ("none",), "dataset": ("s",)}


def check_json(name: str, value, kind: str, keys: dict | None = None,
               key_name: str = "{}"):
    """``value`` if it is of ``kind`` (a key of :data:`KINDS`), a whole
    number as an int; otherwise a DomainError that names ``name``. With a
    key table ``keys``, the object ``value`` is returned as a new dict with
    each value checked, named ``key_name.format(key)``, and each absent key
    set to its default; null means absent only where the default is null."""
    if not KINDS[kind](value):
        raise DomainError(f"{name} must be a JSON {kind}, got {value!r}")
    if kind == "whole number":
        return int(value)
    if keys is None:
        return value
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise DomainError(f"unknown keys in {name}: "
                          f"{', '.join(map(repr, unknown))}")
    checked = {}
    for key, (key_kind, default, *section) in keys.items():
        item = value.get(key, default)
        if item is REQUIRED:
            raise DomainError(f"{name} needs the key {key!r}")
        item_name = key_name.format(key)
        checked[key] = item if item is None and default is None else check_json(
            item_name, item, key_kind, *section, key_name=item_name + ".{}")
    return checked


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


def _run_em_many(matrices, limits, model_kind):
    return [fit if isinstance(fit, Exception)
            else (em_map_predict(fit), fit.iterations)
            for fit in em_fit_many(matrices,
                                   EmConfig(model_kind=model_kind, **limits))]


def _vote_bound(weight_map, labels, accuracies, q):
    """Mean-error bound columns of weighted voting with the weights
    ``weight_map(accuracies, L)``."""
    L = labels.num_classes
    report = bnd.mean_error_bounds(bnd.quantities_wmv_hds(
        q, weight_map(accuracies, L), accuracies, L))
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
    ``run_many(matrices, limits)``, where present, runs the method on
    several trials' labels at once and gives each trial's ``run`` result, or
    the exception its run raised.
    """

    run: Callable
    needs_model: bool = False
    bound: Callable | None = None
    run_many: Callable | None = None


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
    "em-gds": Method(partial(_run_em, model_kind="gds"),
                     run_many=partial(_run_em_many, model_kind="gds")),
    "em-hds": Method(partial(_run_em, model_kind="hds"),
                     run_many=partial(_run_em_many, model_kind="hds")),
    "oracle-map": Method(_run_oracle_map, needs_model=True,
                         bound=partial(_vote_bound, oracle_map_weights_hds)),
}
KNOWN_METHODS = tuple(METHODS)


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: scenario, sweep grid, methods and seeding.

    ``scenario`` is one of ``hds-sweep`` (synthetic single-accuracy data,
    sweeping one of wbar/M/N/q, or none), ``misspecified`` (block-accuracy
    data, sweep variable none) and ``dataset`` (a labels file subsampled at
    rate s); any other sweep variable is rejected. Every value is checked
    against :data:`CONFIG_KEYS` here, and ``sim``, ``misspec`` and
    ``dataset`` are stored with every key, absent ones at their defaults.
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
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        raw["sweep"] = {"variable": raw.pop("sweep_variable"),
                        "grid": raw.pop("sweep_grid")}
        config = check_json("the config", raw, "object", CONFIG_KEYS)
        sweep = config.pop("sweep")
        kind = "whole number" if sweep["variable"] in ("M", "N") else "number"
        grid = tuple(check_json("a sweep.grid value", value, kind)
                     for value in sweep["grid"])
        config.update(methods=tuple(config["methods"]), sweep_grid=grid,
                      sweep_variable=sweep["variable"])
        for name, value in config.items():
            object.__setattr__(self, name, value)
        if self.scenario not in _SWEEP_VARIABLES:
            raise DomainError(f"unknown scenario {self.scenario!r}")
        if self.trials < 1:
            raise DomainError("at least one trial is required")
        if self.master_seed < 0:
            raise DomainError(f"master_seed must not be negative, got "
                              f"{self.master_seed}")
        if not self.methods:
            raise DomainError("at least one method is required")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise DomainError(f"unknown methods: {unknown}")
        if not self.sweep_grid:
            raise DomainError("the sweep grid must not be empty")
        if self.sweep_variable not in _SWEEP_VARIABLES[self.scenario]:
            raise DomainError(f"the {self.scenario!r} scenario cannot sweep "
                              f"{self.sweep_variable!r}")
        if self.fixed_iterations is not None and self.fixed_iterations < 1:
            raise DomainError("fixed_iterations must be a positive integer")
        wbars = self.sweep_grid if self.sweep_variable == "wbar" else ()
        for wbar in (*wbars, self.sim["wbar"]):
            if wbar is not None and not 0 < wbar < 1:
                raise DomainError(f"wbar must lie in (0, 1), got {wbar!r}")
        if self.scenario == "dataset" and self.dataset["path"] is None:
            raise DomainError("the 'dataset' scenario needs dataset.path")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        config = check_json("the config", raw, "object", CONFIG_KEYS)
        sweep = config.pop("sweep")
        return cls(**config, sweep_variable=sweep["variable"],
                   sweep_grid=sweep["grid"])

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def _hds_trial_data(config: ExperimentConfig, sweep_value, seed: int):
    """Simulate one trial of an hds-sweep scenario: labels, truth, the true
    accuracies and the label probability q."""
    sim = {**config.sim, config.sweep_variable: sweep_value}  # "none": unread
    M, N, L, q, b = sim["M"], sim["N"], sim["L"], sim["q"], sim["beta_b"]
    a, target = sim["beta_a"], sim["wbar"]
    if target is None:
        target = a / (a + b)
    else:
        a = b * target / (1.0 - target)
    accuracies = sample_workers_beta(M, a, b, target, tol=sim["beta_tol"],
                                     seed=seed)
    model = WorkerModel.hds(accuracies, L)
    sim_config = SimConfig(M, N, L, Prior.uniform(L),
                           AssignmentModel.constant(q), model, seed=seed)
    out = simulate_dataset(sim_config)
    return out.labels, out.truth, accuracies, q


def _misspec_trial_data(config: ExperimentConfig, seed: int):
    spec = config.misspec
    out = make_misspecified_dataset(spec["M1"], spec["M2"], spec["N1"],
                                    spec["N2"], spec["block"], spec["q"], seed)
    return out.labels, out.truth, None, None


def _trial_data(config: ExperimentConfig, sweep_index: int, sweep_value,
                trial: int, dataset):
    """One trial's labels, truth, true accuracies and label probability q;
    ``dataset`` is the loaded (labels, truth) of the dataset scenario and
    None otherwise."""
    # The misspecified scenario ignores the sweep: each trial has one dataset.
    sweep_key = 0 if config.scenario == "misspecified" else sweep_index
    seed = int(derive_rng(config.master_seed, "trial-seed", sweep_key, trial)
               .integers(0, 2 ** 62))
    if config.scenario == "hds-sweep":
        return _hds_trial_data(config, sweep_value, seed)
    if config.scenario == "misspecified":
        return _misspec_trial_data(config, seed)
    labels, truth = dataset
    return subsample_labels(labels, sweep_value, seed=seed), truth, None, None


def _method_row(config: ExperimentConfig, name: str, sweep_value, trial: int,
                data, outcome, elapsed: float) -> ResultRow:
    """The row of method ``name`` on one trial's ``data``, from the
    method's ``outcome``: its (predictions, iterations), or the exception it
    raised, which the row reports instead of raising."""
    labels, truth, accuracies, q = data
    method = METHODS[name]
    try:
        if isinstance(outcome, Exception):
            raise outcome
        predictions, iterations = outcome
        rate = error_rate(predictions, truth) if truth is not None else None
        upper = lower = condition = None
        if method.bound is not None and accuracies is not None:
            upper, lower, condition = method.bound(labels, accuracies, q)
        return ResultRow(
            config.scenario, name, float(sweep_value), trial, rate,
            iterations, elapsed if config.record_timing else None,
            upper, lower, condition)
    except Exception as exc:  # keep the sweep alive; report per row
        return ResultRow(
            config.scenario, name, float(sweep_value), trial, None,
            None, None, None, None, None, error=str(exc))


def _timed(run, *args):
    """``run(*args)``, or the exception it raised, and its wall time."""
    started = time.perf_counter()
    try:
        outcome = run(*args)
    except Exception as exc:
        outcome = exc
    return outcome, time.perf_counter() - started


@contextlib.contextmanager
def _recording(into: list):
    """Record the warnings raised in the block and append them to ``into``
    as (message, category, filename, lineno), for the caller to re-emit."""
    with warnings.catch_warnings(record=True) as caught:
        yield
    into += [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _run_group(config: ExperimentConfig, dataset, group) -> tuple[list, list]:
    """Rows of a group of (sweep index, trial) cells, with the warnings they
    raised.

    Each cell runs in turn, as a cell of its own would, except the methods
    with ``run_many``: each of those runs once, on every cell's labels,
    after the cells, and its warnings come after theirs.
    """
    limits = {}
    if config.fixed_iterations is not None:
        limits = {"max_iters": config.fixed_iterations,
                  "stop_on_convergence": False}
    rows, caught, batched = [], [], {}
    for sweep_index, trial in group:
        sweep_value = config.sweep_grid[sweep_index]
        with _recording(caught):
            data = _trial_data(config, sweep_index, sweep_value, trial,
                               dataset)
            labels, _, accuracies, _ = data
            for name in config.methods:
                method = METHODS[name]
                if method.run_many is not None:
                    batched.setdefault(name, []).append(
                        (len(rows), sweep_value, trial, data))
                    rows.append(None)  # filled in below
                    continue
                outcome, elapsed = _timed(method.run, labels, accuracies,
                                          limits)
                rows.append(_method_row(config, name, sweep_value, trial,
                                        data, outcome, elapsed))
    with _recording(caught):
        for name, cells in batched.items():
            outcomes, elapsed = _timed(METHODS[name].run_many,
                                       [data[0] for *_, data in cells], limits)
            if isinstance(outcomes, Exception):
                outcomes = [outcomes] * len(cells)
            for (index, sweep_value, trial, data), outcome in zip(cells,
                                                                   outcomes):
                rows[index] = _method_row(config, name, sweep_value, trial,
                                          data, outcome, elapsed)
    return rows, caught


# The expected labels of the cells one pool task runs together: enough to
# share EM's per-iteration overhead among a few small trials, few enough
# that the tasks still balance over the processes.
_GROUP_LABELS = 1 << 14


def _expected_labels(config: ExperimentConfig, sweep_value, dataset) -> float:
    """The expected label count of a trial at ``sweep_value``."""
    if config.scenario == "hds-sweep":
        sim = {**config.sim, config.sweep_variable: sweep_value}
        return sim["M"] * sim["N"] * sim["q"]
    if config.scenario == "misspecified":
        spec = config.misspec
        return (spec["M1"] + spec["M2"]) * (spec["N1"] + spec["N2"]) * spec["q"]
    return dataset[0].num_labels * sweep_value


def _cell_groups(config: ExperimentConfig, dataset) -> list[list]:
    """The (sweep index, trial) cells in row order, cut into groups of
    consecutive cells: a group grows while its cells' expected labels stay
    within :data:`_GROUP_LABELS`, and with ``record_timing`` set, so that
    each row times its own trial, every cell is a group."""
    groups, total = [], math.inf
    for sweep_index, sweep_value in enumerate(config.sweep_grid):
        size = _expected_labels(config, sweep_value, dataset)
        for trial in range(config.trials):
            total += size
            if config.record_timing or total > _GROUP_LABELS:
                groups.append([])
                total = size
            groups[-1].append((sweep_index, trial))
    return groups


def _cell_workers(num_tasks: int) -> int:
    """How many processes run an experiment's groups of cells: one per CPU
    this process may run on, capped at the number of groups; one where
    processes cannot be forked, or where this one is a daemon, which may
    start none."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, num_tasks)
    if workers > 1:
        import multiprocessing
        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon):
            return 1
    return workers


# A pool worker's cell function, inherited through fork. Only the workers
# set it; the process that runs the experiment never does.
_forked_cell = None


def _adopt_cell(run_cell) -> None:
    global _forked_cell
    _forked_cell = run_cell


def _run_forked_cell(cell):
    return _forked_cell(cell)


@contextlib.contextmanager
def _cell_map(run_cell, num_tasks: int):
    """Yield a map of ``run_cell`` over tasks (groups of cells) that yields
    results in task order: the builtin ``map``, or a process pool's when
    :func:`_cell_workers` gives more than one worker.

    The pool forks its workers, so they inherit ``run_cell`` (the config and
    any loaded dataset) instead of importing the package again and receiving
    it pickled with every task, as spawned workers would. The pool's map
    hands each task to the next idle worker, so tasks of uneven cost still
    balance, and re-raises the exception of the earliest failing task in
    order. Every worker has been joined when the block exits, by return or
    raise.
    """
    workers = _cell_workers(num_tasks)
    if workers == 1:
        yield partial(map, run_cell)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # numpy loads this on first use; every trial draws from it, so load it
    # here once rather than in each worker (about 15 ms each).
    import numpy.random  # noqa: F401
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt_cell, initargs=(run_cell,))
    try:
        yield partial(pool.map, _run_forked_cell)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run every (sweep value, trial, method) cell and emit result files.

    Rows come in grid order, then trial, then the config's method order.
    Each trial derives its own generator from (master seed, sweep, trial),
    so a row's content does not depend on the cells run before it nor on
    the process that ran it: groups of trials (:func:`_cell_groups`) run on
    one forked process per available CPU, and the rows equal a serial run's.
    Warnings raised in a group are re-emitted here in trial order, those of
    its batched EM fits last (those of a group that raises are dropped with
    it); an exception that escapes a trial is that of the earliest failing
    trial in row order.
    """
    dataset = None
    if config.scenario == "dataset":
        spec = config.dataset
        label_set = LabelSet(spec["L"], spec["binary"])
        labels, _, item_ids = load_labels(spec["path"], spec["format"],
                                          label_set=label_set)
        truth = None
        if spec["truth"]:  # an empty path, like null, means no truth file
            truth, unlabeled = load_truth(spec["truth"], label_set, item_ids)
            if unlabeled:
                warnings.warn(f"{unlabeled} truth rows name items without "
                              f"labels; no error rate covers them",
                              stacklevel=2)
        dataset = labels, truth
    groups = _cell_groups(config, dataset)
    rows = []
    registry: dict = {}  # shows a "default"-filtered warning once per run
    with _cell_map(partial(_run_group, config, dataset),
                   len(groups)) as cell_map:
        for cell_rows, caught in cell_map(groups):
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno,
                                       registry=registry)
            rows += cell_rows
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
