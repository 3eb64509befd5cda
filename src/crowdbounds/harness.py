"""Data ingestion, experiment orchestration and result emission.

Experiments are described by a JSON-serialisable config, run trial by trial
with per-trial derived generators (so a row does not depend on which other
cells ran before it, or in which process), and emitted as a CSV plus an
equivalent JSON-lines file whose only nondeterministic content is a
timestamp header line. The (sweep value, trial) cells are dispatched in
groups of consecutive cells whose expected label count stays within
:data:`_GROUP_LABELS` (one cell per group when ``record_timing`` is set),
each group a task of a pool with one forked process per CPU that the calling
process may use. A group makes its cells' trial data, in order, and then
runs each method once, on all of its trials, in the config's method order.
The rows are the same bytes as a serial, one-cell-at-a-time run's; restrict
the CPU affinity (``taskset -c 0``) to run them serially, with identical
rows. Every aggregation method is named once, in :data:`METHODS`, with one
runner that takes a group's trials.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
import os
import sys
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
from .em import EmConfig, em_fit_many, em_map_predict
from .simulate import (
    SimConfig,
    check_beta_prior,
    check_misspecified,
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

# The masks that keep a word's first 0 to 8 bytes.
_KEEP = np.frombuffer(b"".join(b"\xff" * n + bytes(8 - n) for n in range(9)),
                      np.uint64)


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


def _byte_words(raw: bytes) -> np.ndarray:
    """The eight bytes from each position of ``raw`` on, zeros past its end,
    as one uint64 word per position (the words overlap)."""
    return np.ndarray(len(raw) + 1, np.uint64, raw + bytes(8), strides=(1,))


def _pack(at: np.ndarray, starts, stops) -> np.ndarray:
    """The byte strings ``[starts[k], stops[k])`` of the bytes under ``at``
    (:func:`_byte_words`), one after another, as uint64 words. A string of
    n bytes fills ``n // 8 + 1`` words with its bytes complemented, then
    zeros: UTF-8 has no byte 0xFF, so a string's last word is the one whose
    last byte is zero, and only equal strings give equal words."""
    spans = (stops - starts) // 8 + 1
    shift = 8 * (np.cumsum(spans) - spans)  # the bytes of the words before
    step = 8 * np.arange(spans.sum())
    size = np.repeat(stops - starts + shift, spans) - step  # bytes left
    return ~at[np.repeat(starts - shift, spans) + step] & _KEEP[
        np.minimum(size, 8)]


def _pack_text(keys: list) -> np.ndarray:
    """:func:`_pack` of strings, each as its UTF-8 bytes."""
    raw = "\n".join([*keys, ""]).encode()
    stops = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
    return _pack(_byte_words(raw), np.r_[0, stops + 1][:-1], stops)


def _intern(words: np.ndarray):
    """Number the keys that :func:`_pack` packed into ``words`` in order of
    first appearance: each key's number, and the keys' words in that
    order.

    Keys of one length in words are sorted together, by all their words, so
    that a long key costs only its own words."""
    spans = np.diff(np.flatnonzero(words.view(np.uint8)[7::8] == 0),
                    prepend=-1)  # each key's words
    group = np.empty(spans.size, np.int64)  # each key's, numbered by length
    first = [np.empty(0, np.int64)]  # each group's first key
    for span in np.flatnonzero(np.bincount(spans)):
        keys = np.flatnonzero(spans == span)
        table = (words if keys.size == spans.size else
                 words[np.repeat(spans == span, spans)]).reshape(-1, span)
        order = np.argsort(table[:, 0]) if span == 1 else np.lexsort(table.T)
        table = table[order]
        new = np.ones(keys.size, bool)
        new[1:] = (table[1:] != table[:-1]).any(axis=1)
        del table
        group[keys[order]] = np.cumsum(new) - 1 + sum(map(len, first))
        first.append(keys[np.minimum.reduceat(order, np.flatnonzero(new))])
    first = np.concatenate(first)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    chosen = np.zeros(spans.size, bool)
    chosen[first] = True
    return rank[group], words[np.repeat(chosen, spans)]


def _unpack(words: np.ndarray) -> list[str]:
    """The strings that :func:`_pack` packed into ``words``."""
    text = ~words.view(np.uint8).reshape(-1, 8)
    # A string's bytes are never 0xFF; its last word ends in padding.
    text[text[:, 7] == 0xFF, 7] = ord("\n")
    return text[text != 0xFF].tobytes().decode().split("\n")[:-1]


def _strip_keys(numbers: np.ndarray, words: np.ndarray):
    """:func:`_intern`'s key numbers and words for the keys as stripped
    (``str.strip``): keys that strip equal are numbered again as one, still
    in order of first appearance."""
    written = _unpack(words)
    stripped = list(map(str.strip, written))
    if stripped == written:
        return numbers, words
    renumber, words = _intern(_pack_text(stripped))
    return renumber[numbers], words


def _read_table(path, header: tuple, label_set: LabelSet):
    """Read a label CSV block by block and decode it.

    A keyed file starts with the line ``header`` (``worker,item,label`` or
    ``item,label``); each row holds key fields and one label. It comes back
    as, per key column, the stripped keys in order of first appearance, as
    :func:`_pack` words (:func:`_unpack` gives the strings), then the rows'
    key positions and the labels' internal classes, sorted by
    key (the first column first, stably); no two rows may share every key.
    A dense grid (``header=()``) has neither: every field is a label, 0
    marks a missing one, and the classes come back as a (rows, width) array.

    Lines may end in LF, CRLF or a lone CR, empty lines are skipped, and
    cells are stripped of surrounding whitespace (``str.strip``). Every row
    must have as many fields as the header or, in a grid, as its first row,
    and every label token must be an integer (``int``) in the one token
    table built from :meth:`LabelSet.to_external`. No quoting is parsed: a
    double quote is an error.

    The file is read in blocks of whole lines (:func:`_line_blocks`), each
    on its bytes: the rows and their field counts come from the positions of
    the block's line ends, commas and quotes, and each field is packed
    (:func:`_pack`) as written. A block's label tokens are numbered
    (:func:`_intern`) and only its distinct ones are decoded, each once per
    file. A block adds its rows' key words and int64 classes, and only these
    arrays are kept. At the end of the file one :func:`_intern` pass per key
    column numbers the keys as written; their distinct strings are stripped,
    and keys that strip equal are numbered again as one. Reading stops at
    the first faulty row, and the error raised is its line's, as a
    line-by-line reader finds it: a repeated key before that line, else its
    quote or field count, else its label.
    """
    classes = range(1, label_set.num_classes + 1)
    class_of = dict(zip(label_set.to_external(classes).tolist(), classes))
    if not header:
        class_of[0] = 0
    code_of = {}  # each label token as written: its class, or -1
    # Per column (the keys' words, then the classes), the arrays of each block.
    columns = [[np.empty(0, np.uint64)] for _ in header[1:]]
    columns.append([np.empty(0, np.int64)])
    width = len(header)  # a grid's is its first row's
    error, lines_read = None, 0
    with open(path) as handle:  # universal newlines: CRLF and CR read as LF
        for text in _line_blocks(handle):
            # Where each line ends, and its commas and quotes, on the bytes.
            raw = text.encode()
            data = np.frombuffer(raw, np.uint8)
            ends = np.flatnonzero(data == ord("\n"))
            at_comma = np.flatnonzero(data == ord(","))
            commas, quotes = (np.diff(np.searchsorted(at, ends), prepend=0)
                              for at in (at_comma,
                                         np.flatnonzero(data == ord('"'))))
            start = 0
            if header and not lines_read:
                if quotes[0]:
                    raise ParseError(1, "quoted fields are not supported")
                if [cell.strip().lower() for cell in
                        text[:text.index("\n")].split(",")] != list(header):
                    raise ParseError(1, f"expected header {','.join(header)!r}")
                start = 1
            before, lines_read = lines_read, lines_read + ends.size
            # The block's 0-based line of each row: the lines that are not empty.
            rows = np.flatnonzero(np.diff(ends, prepend=-1)[start:] > 1) + start
            if not rows.size:
                continue
            width = width or 1 + int(commas[rows[0]])
            bad = np.flatnonzero((commas[rows] != width - 1)
                                 | (quotes[rows] > 0))
            if bad.size:
                line = int(rows[bad[0]])
                error = ParseError(
                    before + line + 1, "quoted fields are not supported"
                    if quotes[line] else
                    f"expected {width} fields, got {commas[line] + 1}")
                rows = rows[:bad[0]]
            # Each field lies between two cuts: a comma or a line end. Only
            # empty lines lie between the rows, and the header before them.
            cuts = np.empty((rows.size, width + 1), np.int64)
            cuts[:, 0] = np.r_[-1, ends][rows]
            skip = start * (width - 1)
            cuts[:, 1:-1] = at_comma[skip:skip + rows.size * (width - 1)
                                     ].reshape(rows.size, width - 1)
            cuts[:, -1] = ends[rows]
            at = _byte_words(raw)
            label_cuts = cuts[:, -2:] if header else cuts
            tokens, distinct = _intern(_pack(
                at, label_cuts[:, :-1].ravel() + 1, label_cuts[:, 1:].ravel()))
            written = _unpack(distinct)  # each distinct token once
            for token in set(written).difference(code_of):  # " 1", "+01", "x"
                code_of[token] = -1  # not an integer, or not a class
                with contextlib.suppress(ValueError):
                    code_of[token] = class_of.get(int(token.strip()), -1)
            codes = np.array([code_of[token] for token in written],
                             np.int64)[tokens]
            per_row = 1 if header else width  # label tokens per row
            wrong = np.flatnonzero(codes < 0)
            k = int(wrong[0]) if wrong.size else codes.size  # a bad token
            if wrong.size:
                token = written[tokens[k]].strip()
                line = before + int(rows[k // per_row]) + 1
                try:
                    error = UnknownLabel(
                        f"line {line}: label {int(token)} is not one of the "
                        f"{label_set.num_classes} classes")
                except ValueError:
                    error = ParseError(line,
                                       f"label {token!r} is not an integer")
            n = k // per_row  # the rows before the first faulty one
            for column, keys in enumerate(columns[:-1]):
                keys.append(_pack(at, cuts[:n, column] + 1,
                                  cuts[:n, column + 1]))
            columns[-1].append(codes[:n * per_row])
            if error:
                break
    if header and not lines_read:
        raise EmptyMatrix(f"{path} is empty")
    keys = []  # per key column, its keys' words in order of first appearance
    for c, column in enumerate(columns):  # one column's blocks at a time
        columns[c] = np.concatenate(column)
        if c < len(header) - 1:
            columns[c], column_keys = _strip_keys(*_intern(columns[c]))
            keys.append(column_keys)
    *numbers, classes = columns
    if not header:
        if error:
            raise error
        return [], [], classes.reshape(-1, width or 1)
    cell = np.ravel_multi_index(numbers, [number.max(initial=-1) + 1
                                          for number in numbers])
    order = np.argsort(cell, kind="stable")
    repeats = order[1:][np.diff(cell[order]) == 0]
    if repeats.size:
        row = repeats.min()
        names = [_unpack(column)[number[row]]
                 for column, number in zip(keys, numbers)]
        # A truth file's repeated item is reported for the worker "<truth>".
        raise DuplicateLabel(*["<truth>", *names][-2:])
    if error:
        raise error
    return keys, [key[order] for key in numbers], classes[order]


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
    keys, (workers, items), values = _read_table(
        path, ("worker", "item", "label"), label_set)
    if not values.size:
        raise EmptyMatrix(f"{path} contains no labels")
    worker_ids, item_ids = map(_unpack, keys)
    labels = LabelMatrix(workers, items, values, len(worker_ids),
                         len(item_ids), label_set.num_classes)
    return labels, worker_ids, item_ids


def load_truth(path, label_set: LabelSet,
               item_ids: list[str]) -> tuple[np.ndarray, int]:
    """Read an ``item,label`` CSV and align it with the loaded item order.

    Returns the true labels of ``item_ids`` and the number of truth rows
    whose item is not among them (an item nobody labelled), which callers
    report rather than drop silently.
    """
    (keys,), _, labels = _read_table(path, ("item", "label"), label_set)
    ids = item_ids  # no key holds a line break, nor a comma
    if "\n" in "".join(ids):
        ids = ["," if "\n" in item else item for item in ids]
    # Number the truth's keys, then the ids', together: the truth's are
    # its rows, and an id numbered past them is not in the truth file.
    at = _intern(np.concatenate((keys, _pack_text(ids))))[0][labels.size:]
    missing = np.flatnonzero(at >= labels.size)
    if missing.size:
        raise DomainError(f"truth file lacks labels for {missing.size} items "
                          f"(first: {item_ids[missing[0]]!r})")
    return labels[at], labels.size - len(item_ids)


def _check_subsample(L: int, binary: bool, keep_prob: float) -> None:
    """Raise as a dataset trial with these values would before it reads
    the labels: the label set, then the :func:`subsample_labels` rate."""
    LabelSet(L, binary)
    if not 0 <= keep_prob <= 1:
        raise DomainError("keep probability must lie in [0, 1]")


def subsample_labels(labels: LabelMatrix, keep_prob: float,
                     seed: int = 0) -> LabelMatrix:
    """Keep every observed label independently with the given probability,
    by one uniform per label in the order of the triples."""
    _check_subsample(labels.num_classes, False, keep_prob)
    keep = derive_rng(seed, "subsample").random(labels.num_labels) < keep_prob
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
# number is finite and no larger than the largest float, and true and false
# are not numbers; an integer is written without a fractional part, a whole
# number is any number without one (2.0 reads as 2).
KINDS = {
    "integer": lambda x: KINDS["number"](x) and isinstance(x, numbers.Integral),
    "whole number": lambda x: KINDS["integer"](x) or (
        isinstance(x, float) and x.is_integer()),
    "number": lambda x: isinstance(x, numbers.Real) and not isinstance(
        x, bool) and abs(x) <= sys.float_info.max,  # False for NaN
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


def _per_trial(run, trials, limits):
    """Each trial's ``run(labels, accuracies, limits)``, or the exception
    it raised."""
    outcomes = []
    for labels, accuracies in trials:
        try:
            outcomes.append(run(labels, accuracies, limits))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def _run_em(trials, limits, model_kind):
    """One EM fit of all the trials' labels (:func:`em_fit_many`)."""
    return [fit if isinstance(fit, Exception)
            else (em_map_predict(fit), fit.iterations)
            for fit in em_fit_many([labels for labels, _ in trials],
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

    ``run(trials, limits)`` runs the method on a list of trials, each a
    ``(labels, accuracies)`` pair, and gives for each trial its predictions
    and iteration count (None for rules that do not iterate), or the
    exception its run raised. ``accuracies`` are the workers' true
    single-accuracy-model parameters, or None where they are unknown; the
    methods with ``needs_model`` fail without them. ``limits`` holds keyword
    arguments for the iterative methods' stopping rule (empty: their
    defaults). ``bound(labels, accuracies, q)``, where present, gives the
    (upper, lower, condition) bound columns.
    """

    run: Callable
    needs_model: bool = False
    bound: Callable | None = None


METHODS = {
    "mv": Method(
        partial(_per_trial, lambda labels, accuracies, limits:
                (majority_vote(labels), None)),
        bound=partial(_vote_bound,
                      lambda accuracies, L: np.ones(accuracies.size))),
    "wmv": Method(partial(_per_trial, _run_wmv), needs_model=True,
                  bound=partial(_vote_bound, bound_optimal_weights)),
    "iwmv": Method(partial(_per_trial,
                           partial(_run_iwmv, weight_mode="linear"))),
    "iwmv-log": Method(partial(_per_trial,
                               partial(_run_iwmv, weight_mode="log"))),
    "oswmv": Method(partial(_per_trial, lambda labels, accuracies, limits:
                            (one_step_wmv(labels), 1)),
                    bound=_one_step_bound),
    "em-gds": Method(partial(_run_em, model_kind="gds")),
    "em-hds": Method(partial(_run_em, model_kind="hds")),
    "oracle-map": Method(partial(_per_trial, _run_oracle_map),
                         needs_model=True,
                         bound=partial(_vote_bound, oracle_map_weights_hds)),
}
KNOWN_METHODS = tuple(METHODS)


# Valid values of the keys of each section that a trial reads (and of a
# dataset's rate s), in the order that _check_keys checks them.
_STAND_INS = {
    "sim": {"M": 1, "N": 1, "L": 2, "q": 1.0, "beta_tol": 1.0, "wbar": 0.5,
            "beta_a": 1.0, "beta_b": 1.0},
    "misspec": {"M1": 1, "M2": 1, "N1": 1, "N2": 1,
                "block": ((1.0, 1.0), (1.0, 1.0)), "q": 1.0},
    "dataset": {"L": 2, "binary": False, "s": 1.0},
}


def _check_hds_trial(M, N, L, q, tol, wbar, a, b, accuracies=None) -> None:
    """Raise as :func:`_hds_trial_data` would with these values, before it
    draws: the Beta prior (unless accuracies are given), then the models."""
    if accuracies is None:
        check_beta_prior(M, a, b, wbar, tol)
        accuracies = np.full(M, 0.5)
    model = WorkerModel.hds(accuracies, L)  # its L < 2 message first
    SimConfig(M, N, L, Prior.uniform(L), AssignmentModel.constant(q), model)


# Each scenario's section, the check of a trial's values in it, and the
# sweep variables it reads ("none": the grid only repeats).
_SCENARIOS = {"hds-sweep": ("sim", _check_hds_trial,
                            ("wbar", "M", "N", "q", "none")),
              "misspecified": ("misspec", check_misspecified, ("none",)),
              "dataset": ("dataset", _check_subsample, ("s",))}


def _check_keys(prefix: str, values: dict, stand_ins: dict, check) -> None:
    """Call ``check`` with one argument per key of ``stand_ins``, in order,
    once per key: that key and the keys before it at ``values`` (a key not
    in ``values`` keeps its stand-in), the keys after it at their
    stand-ins. The first error is raised again as ``<prefix><key>: message``
    (``sim.M: ...``, ``--workers: ...``), naming the key it was checked at."""
    args = dict(stand_ins)
    for key in stand_ins:
        args[key] = values.get(key, args[key])
        try:
            check(*args.values())
        except ValueError as exc:
            raise type(exc)(f"{prefix}{key}: {exc}") from None
        except MemoryError as exc:  # numpy's subclass takes other arguments
            raise MemoryError(f"{prefix}{key}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: scenario, sweep grid, methods and seeding.

    ``scenario`` is one of ``hds-sweep`` (synthetic single-accuracy data,
    sweeping one of wbar/M/N/q, or none), ``misspecified`` (block-accuracy
    data, sweep variable none) and ``dataset`` (a labels file subsampled at
    rate s); any other sweep variable is rejected. Every value is checked
    against :data:`CONFIG_KEYS` here, and ``sim``, ``misspec`` and
    ``dataset`` are stored with every key, absent ones at their defaults.
    Then each section is checked as a trial would check it before it
    draws (:func:`_check_keys`): the scenario's own at each swept :meth:`point`.
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
        if self.scenario not in _SCENARIOS:
            raise DomainError(f"unknown scenario {self.scenario!r}")
        if self.trials < 1:
            raise DomainError(f"trials must be at least 1, got {self.trials}")
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
        own, _, variables = _SCENARIOS[self.scenario]
        if self.sweep_variable not in variables:
            raise DomainError(f"the {self.scenario!r} scenario cannot sweep "
                              f"{self.sweep_variable!r}")
        if self.fixed_iterations is not None and self.fixed_iterations < 1:
            raise DomainError("fixed_iterations must be a positive integer")
        if self.scenario == "dataset" and self.dataset["path"] is None:
            raise DomainError("the 'dataset' scenario needs dataset.path")
        for section, check, _ in _SCENARIOS.values():
            swept = section == own and self.sweep_variable != "none"
            for point in (map(self.point, self.sweep_grid) if swept
                          else [getattr(self, section)]):
                _check_keys(f"{section}.", point, _STAND_INS[section], check)

    def point(self, sweep_value) -> dict:
        """The values a trial at ``sweep_value`` reads: the scenario's
        section with the swept key (``s`` for a dataset) at that value."""
        section = getattr(self, _SCENARIOS[self.scenario][0])
        return {**section, self.sweep_variable: sweep_value}

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


def _hds_trial_data(sim: dict, seed: int, accuracies=None):
    """One hds-sweep trial at a sweep point's ``sim`` values: labels, truth,
    the accuracies (given or the Beta sampler's) and label probability q."""
    M, N, L, q = sim["M"], sim["N"], sim["L"], sim["q"]
    if accuracies is None:
        accuracies = sample_workers_beta(M, sim["beta_a"], sim["beta_b"],
                                         sim["wbar"], sim["beta_tol"], seed)
    out = simulate_dataset(SimConfig(M, N, L, Prior.uniform(L),
                                     AssignmentModel.constant(q),
                                     WorkerModel.hds(accuracies, L), seed=seed))
    return out.labels, out.truth, accuracies, q


def _trial_data(config: ExperimentConfig, sweep_index: int, point: dict,
                trial: int, dataset):
    """One trial's labels, truth, true accuracies and label probability q at
    a sweep ``point``; ``dataset`` is a dataset scenario's (labels, truth)."""
    # The misspecified scenario ignores the sweep: each trial has one dataset.
    sweep_key = 0 if config.scenario == "misspecified" else sweep_index
    seed = int(derive_rng(config.master_seed, "trial-seed", sweep_key, trial)
               .integers(0, 2 ** 62))
    if config.scenario == "hds-sweep":
        return _hds_trial_data(point, seed)
    if config.scenario == "misspecified":
        out = make_misspecified_dataset(
            *map(point.get, ("M1", "M2", "N1", "N2", "block", "q")), seed)
        return out.labels, out.truth, None, None
    labels, truth = dataset
    return subsample_labels(labels, point["s"], seed=seed), truth, None, None


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


@contextlib.contextmanager
def _recording(into: list):
    """Record the warnings raised in the block and append them to ``into``
    as (message, category, filename, lineno), for the caller to re-emit."""
    with warnings.catch_warnings(record=True) as caught:
        yield
    into += [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _run_group(config: ExperimentConfig, dataset, group) -> tuple[list, list]:
    """Rows of a group of (sweep index, trial) cells, in row order, with
    the warnings they raised.

    The group's trial data comes first, cell by cell; then each method runs
    once, on all of the group's trials, in the config's method order, and
    its rows are made. The warnings come in the same order.
    """
    limits = {}
    if config.fixed_iterations is not None:
        limits = {"max_iters": config.fixed_iterations,
                  "stop_on_convergence": False}
    caught, rows = [], [[] for _ in group]  # each cell's rows
    with _recording(caught):
        data = [_trial_data(config, sweep_index,
                            config.point(config.sweep_grid[sweep_index]), trial,
                            dataset) for sweep_index, trial in group]
        trials = [(labels, accuracies) for labels, _, accuracies, _ in data]
        for name in config.methods:
            started = time.perf_counter()
            try:
                outcomes = METHODS[name].run(trials, limits)
            except Exception as exc:  # the run failed as a whole
                outcomes = [exc] * len(trials)
            elapsed = time.perf_counter() - started
            for cell_rows, (sweep_index, trial), cell, outcome in zip(
                    rows, group, data, outcomes):
                cell_rows.append(_method_row(
                    config, name, config.sweep_grid[sweep_index], trial, cell,
                    outcome, elapsed))
    return [row for cell_rows in rows for row in cell_rows], caught


# The expected labels of the cells one pool task runs together: enough to
# share EM's per-iteration overhead among a few small trials, few enough
# that the tasks still balance over the processes.
_GROUP_LABELS = 1 << 14


def _expected_labels(config: ExperimentConfig, point: dict, dataset) -> float:
    """The expected label count of a trial at the sweep ``point``."""
    if config.scenario == "hds-sweep":
        return float(point["M"]) * point["N"] * point["q"]
    if config.scenario == "misspecified":
        return (float(point["M1"] + point["M2"]) * (point["N1"] + point["N2"])
                * point["q"])
    return dataset[0].num_labels * point["s"]


def _cell_groups(config: ExperimentConfig, dataset) -> list[list]:
    """The (sweep index, trial) cells in row order, cut into groups of
    consecutive cells: a group grows while its cells' expected labels stay
    within :data:`_GROUP_LABELS`, and with ``record_timing`` set, so that
    each row times its own trial, every cell is a group."""
    groups, total = [], math.inf
    for sweep_index, sweep_value in enumerate(config.sweep_grid):
        size = _expected_labels(config, config.point(sweep_value), dataset)
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
    Warnings raised in a group are re-emitted here group by group, each
    group's in the order they were raised: its trial data's first, then each
    method's, in config order (those of a group that raises are dropped with
    it). An exception that escapes a trial is that of the earliest failing
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
        # csv writes None as empty and a float as its repr.
        for row in rows:
            writer.writerow([str(value).lower() if isinstance(value, bool)
                             else value for value in row.to_dict().values()])
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
