"""Spans and per-layer metrics for the benchmark's traced runs.

The public functions of the seven crowdbounds modules are wrapped from the
outside: every module attribute that names one of them (including the names
other modules bind with ``from .x import f``) is replaced by a wrapper that
records a span, and is restored afterwards. Nothing under ``src/`` changes.

A span is ``[name, parent, start, end, paused, failed]``: ``parent`` is the
index of the enclosing span (or None), times come from ``time.monotonic``
(one clock for every process on the machine), and ``paused`` is the time the
tracer spent inside the span computing counts, which is left out of every
duration. The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

MODULES = ("core", "simulate", "aggregate", "em", "bounds", "harness", "cli")
LAYERS = MODULES + ("bench",)


class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._paused = 0.0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.monotonic(), None,
                           self._paused, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, failed: bool = False) -> None:
        span = self.spans[index]
        span[3] = time.monotonic()
        span[4] = self._paused - span[4]
        span[5] = failed
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span that the caller timed itself."""
        self.spans.append([name, None, start, end, 0.0, False])

    def observe(self, fn, *args) -> None:
        """Run a counting function with its time left out of every span."""
        started = time.monotonic()
        try:
            fn(*args)
        finally:
            self._paused += time.monotonic() - started

    def save(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle,
                      separators=(",", ":"))

    def adopt(self, path, parent: int) -> None:
        """Add the spans and counts a child process saved, under ``parent``."""
        with open(path) as handle:
            saved = json.load(handle)
        offset = len(self.spans)
        for name, sub_parent, start, end, paused, failed in saved["spans"]:
            self.spans.append([name, parent if sub_parent is None
                               else sub_parent + offset,
                               start, end, paused, failed])
        for name, value in saved["counts"].items():
            self.counts[name] += value


def _matrix_counts(tracer: Tracer, matrix) -> None:
    """Bytes held in a LabelMatrix's arrays, and its label count."""
    held = (getattr(matrix, f.name) for f in dataclasses.fields(matrix))
    tracer.counts["core.matrix_bytes"] += sum(
        a.nbytes for a in held if isinstance(a, np.ndarray))
    tracer.counts["core.matrix_labels"] += matrix.num_labels


def _load_labels(tracer, index, args, kwargs, result):
    _matrix_counts(tracer, result[0])
    tracer.counts["harness.load_labels_rows"] += result[0].num_labels


def _predict(tracer, index, args, kwargs, result):
    labels = args[0] if args else kwargs["labels"]
    tracer.counts["aggregate.decomposable_predict_labels"] += labels.num_labels


def _iwmv(tracer, index, args, kwargs, result):
    tracer.counts["aggregate.iwmv_iterations"] += result.iterations


def _em_fit(tracer, index, args, kwargs, result):
    kind = result.worker_model.kind
    tracer.spans[index][0] = f"em.em_fit[{kind}]"
    tracer.counts[f"em.fit_{kind}_iterations"] += result.iterations


def _write_results(tracer, index, args, kwargs, result):
    tracer.counts["harness.write_results_bytes"] += sum(
        os.path.getsize(path) for path in result)


def _cli_main(tracer, index, args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    name = argv[0]
    if name == "aggregate":
        name += ":" + argv[argv.index("--method") + 1]
    tracer.spans[index][0] = f"cli.main[{name}]"
    if result != 0:
        tracer.counts["cli.failed_exit"] += 1


OBSERVERS = {
    "harness.load_labels": _load_labels,
    "harness.subsample_labels":
        lambda t, i, a, k, r: _matrix_counts(t, r),
    "simulate.simulate_dataset":
        lambda t, i, a, k, r: _matrix_counts(t, r.labels),
    "simulate.make_misspecified_dataset":
        lambda t, i, a, k, r: _matrix_counts(t, r.labels),
    "aggregate.decomposable_predict": _predict,
    "aggregate.iwmv": _iwmv,
    "em.em_fit": _em_fit,
    "harness.write_results": _write_results,
    "cli.main": _cli_main,
}


def _wrap(tracer: Tracer, name: str, fn):
    observer = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index, failed=True)
            raise
        tracer.close(index)
        if observer is not None:
            tracer.observe(observer, tracer, index, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every public function of the seven modules where it is bound.

    Returns the replaced bindings, for :func:`uninstall`.
    """
    modules = {layer: importlib.import_module(f"crowdbounds.{layer}")
               for layer in MODULES}
    wrappers = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                wrappers[value] = _wrap(tracer, f"{layer}.{attr}", value)
    replaced = []
    for module in (*modules.values(), importlib.import_module("crowdbounds")):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                replaced.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for module, attr, value in replaced:
        setattr(module, attr, value)


def round_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round (times in seconds)."""
    spans, counts = tracer.spans, tracer.counts
    net = [end - start - paused for _, _, start, end, paused, _ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[1] is not None:
            covered[span[1]] += net[i]
    layer_of = [span[0].split(".", 1)[0] for span in spans]
    self_s = defaultdict(float)
    failed = defaultdict(int)
    time_of = defaultdict(float)   # outermost spans of each name
    calls_of = defaultdict(int)
    self_of = defaultdict(float)
    entries = defaultdict(float)   # spans entered from another layer
    entry_calls = defaultdict(int)
    for i, (name, parent, *_rest, span_failed) in enumerate(spans):
        layer = layer_of[i]
        self_s[layer] += net[i] - covered[i]
        self_of[name] += net[i] - covered[i]
        if parent is None or spans[parent][0] != name:
            time_of[name] += net[i]
            calls_of[name] += 1
        if parent is None or layer_of[parent] != layer:
            entries[layer] += net[i]
            entry_calls[layer] += 1
            failed[layer] += span_failed

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    load_s = time_of["harness.load_labels"]
    predict_s = time_of["aggregate.decomposable_predict"]
    iwmv_s = time_of["aggregate.iwmv"]
    gds_s, hds_s = time_of["em.em_fit[gds]"], time_of["em.em_fit[hds]"]
    out = {
        "harness.load_labels_s": load_s,
        "harness.load_labels_rows_per_s":
            ratio(counts["harness.load_labels_rows"], load_s),
        "harness.load_truth_s": time_of["harness.load_truth"],
        "harness.subsample_labels_s": time_of["harness.subsample_labels"],
        "harness.run_experiment_self_s": self_of["harness.run_experiment"],
        "harness.write_results_s": time_of["harness.write_results"],
        "harness.write_results_bytes": counts["harness.write_results_bytes"],
        "simulate.sample_workers_beta_s":
            time_of["simulate.sample_workers_beta"],
        "simulate.sample_workers_beta_calls":
            calls_of["simulate.sample_workers_beta"],
        "simulate.simulate_dataset_s": time_of["simulate.simulate_dataset"],
        "core.posterior_s": time_of["core.posterior"],
        "core.label_matrix_bytes_per_label":
            ratio(counts["core.matrix_bytes"], counts["core.matrix_labels"]),
        "aggregate.decomposable_predict_calls":
            calls_of["aggregate.decomposable_predict"],
        "aggregate.decomposable_predict_s": predict_s,
        "aggregate.decomposable_predict_ns_per_label": ratio(
            predict_s, counts["aggregate.decomposable_predict_labels"], 1e9),
        "aggregate.iwmv_s": iwmv_s,
        "aggregate.iwmv_iterations": counts["aggregate.iwmv_iterations"],
        "aggregate.iwmv_s_per_iter":
            ratio(iwmv_s, counts["aggregate.iwmv_iterations"]),
        "aggregate.one_step_wmv_s": time_of["aggregate.one_step_wmv"],
        "em.fit_gds_s": gds_s,
        "em.fit_gds_iterations": counts["em.fit_gds_iterations"],
        "em.fit_gds_s_per_iter": ratio(gds_s, counts["em.fit_gds_iterations"]),
        "em.fit_hds_s": hds_s,
        "em.fit_hds_iterations": counts["em.fit_hds_iterations"],
        "em.fit_hds_s_per_iter": ratio(hds_s, counts["em.fit_hds_iterations"]),
        "bounds.calls": entry_calls["bounds"],
        "bounds.s": entries["bounds"],
        "bounds.us_per_call": ratio(entries["bounds"],
                                    entry_calls["bounds"], 1e6),
        "cli.import_s": time_of["cli.import"],
        "cli.simulate_s": time_of["cli.main[simulate]"],
        "cli.simulate_write_s": self_of["cli.main[simulate]"],
        "cli.aggregate_mv_s": time_of["cli.main[aggregate:mv]"],
        "cli.aggregate_iwmv_s": time_of["cli.main[aggregate:iwmv]"],
        "cli.aggregate_em-hds_s": time_of["cli.main[aggregate:em-hds]"],
        "cli.summarize_s": time_of["cli.main[summarize]"],
        "cli.bounds_s": time_of["cli.main[bounds]"],
        "cli.output_bytes": counts["cli.output_bytes"],
        "trace.spans": len(spans),
    }
    failed["cli"] += int(counts["cli.failed_exit"])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        if layer != "bench":
            out[f"{layer}.failed"] = failed[layer]
    return out


def median_metrics(per_round: list[dict]) -> dict[str, float]:
    """Median of each metric over traced rounds of the same inputs."""
    return {name: statistics.median(r[name] for r in per_round)
            for name in per_round[0]}
