import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from crowdbounds import harness
from crowdbounds.core import DomainError, EmptyMatrix, LabelMatrix, LabelSet
from crowdbounds.harness import (
    KNOWN_METHODS,
    METHODS,
    DuplicateLabel,
    ExperimentConfig,
    Method,
    ParseError,
    UnknownLabel,
    load_labels,
    load_truth,
    run_experiment,
    subsample_labels,
    summarize_dataset,
    write_results,
)
from crowdbounds.cli import main


def write_triples(path, triples, header="worker,item,label"):
    lines = [header] + [f"{w},{i},{l}" for w, i, l in triples]
    path.write_text("\n".join(lines) + "\n")


def make_fixture(path, num_workers, num_items, num_labels, num_classes, seed):
    """A synthetic triples file with exact shape counts.

    Guarantees every worker and item appears at least once so the loader's
    first-appearance indexing recovers the intended dimensions.
    """
    rng = np.random.default_rng(seed)
    cells = {(int(rng.integers(num_workers)), j) for j in range(num_items)}
    covered_workers = {i for i, _ in cells}
    for i in range(num_workers):
        if i not in covered_workers:
            while True:
                candidate = (i, int(rng.integers(num_items)))
                if candidate not in cells:
                    cells.add(candidate)
                    break
    all_cells = [(i, j) for i in range(num_workers) for j in range(num_items)]
    rng.shuffle(all_cells)
    for cell in all_cells:
        if len(cells) >= num_labels:
            break
        cells.add((int(cell[0]), int(cell[1])))
    assert len(cells) == num_labels
    triples = [(f"w{i}", f"i{j}", int(rng.integers(1, num_classes + 1)))
               for i, j in sorted(cells)]
    write_triples(path, triples)


class TestLoadLabels:
    def test_first_appearance_ids_and_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_triples(path, [("ann", "q2", 1), ("bob", "q1", 2), ("ann", "q1", 1)])
        labels, workers, items = load_labels(path, label_set=LabelSet(2))
        assert workers == ["ann", "bob"]
        assert items == ["q2", "q1"]
        assert labels.dense().tolist() == [[1, 1], [0, 2]]

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_triples(path, [("a", "x", 1), ("a", "x", 2)])
        with pytest.raises(DuplicateLabel):
            load_labels(path, label_set=LabelSet(2))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("")
        with pytest.raises(EmptyMatrix):
            load_labels(path, label_set=LabelSet(2))
        path.write_text("worker,item,label\n")
        with pytest.raises(EmptyMatrix):
            load_labels(path, label_set=LabelSet(2))

    def test_bad_header_and_bad_rows(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError):
            load_labels(path, label_set=LabelSet(2))
        write_triples(path, [("a", "x", "high")])
        with pytest.raises(ParseError):
            load_labels(path, label_set=LabelSet(2))

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_triples(path, [("a", "x", 7)])
        with pytest.raises(UnknownLabel):
            load_labels(path, label_set=LabelSet(2))

    def test_binary_convention(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_triples(path, [("a", "x", 1), ("b", "x", -1)])
        labels, _, _ = load_labels(path,
                                   label_set=LabelSet(2, binary_convention=True))
        assert labels.dense().tolist() == [[1], [2]]

    def test_dense_csv(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("1,0,2\n2,2,0\n")
        labels, workers, items = load_labels(path, fmt="dense-csv",
                                             label_set=LabelSet(2))
        assert labels.dense().tolist() == [[1, 0, 2], [2, 2, 0]]
        assert workers == ["0", "1"] and items == ["0", "1", "2"]

    def test_duchenne_shaped_fixture(self, tmp_path):
        path = tmp_path / "duchenne.csv"
        make_fixture(path, 17, 159, 1221, 2, seed=0)
        labels, workers, items = load_labels(path, label_set=LabelSet(2))
        summary = summarize_dataset(labels)
        assert (summary.num_workers, summary.num_items,
                summary.num_labels) == (17, 159, 1221)
        assert summary.density == pytest.approx(1221 / (17 * 159))
        assert round(100 * summary.density, 1) == 45.2


class TestTruthAndSubsample:
    def test_truth_alignment(self, tmp_path):
        labels_path = tmp_path / "labels.csv"
        truth_path = tmp_path / "truth.csv"
        write_triples(labels_path, [("a", "x", 1), ("a", "y", 2)])
        truth_path.write_text("item,label\ny,2\nx,1\n")
        labels, _, items = load_labels(labels_path, label_set=LabelSet(2))
        truth, unlabeled = load_truth(truth_path, LabelSet(2), items)
        assert truth.tolist() == [1, 2]
        assert unlabeled == 0

    def test_missing_truth_item(self, tmp_path):
        labels_path = tmp_path / "labels.csv"
        truth_path = tmp_path / "truth.csv"
        write_triples(labels_path, [("a", "x", 1), ("a", "y", 2)])
        truth_path.write_text("item,label\nx,1\n")
        labels, _, items = load_labels(labels_path, label_set=LabelSet(2))
        with pytest.raises(DomainError):
            load_truth(truth_path, LabelSet(2), items)

    def test_subsample_identity_and_empty(self, tmp_path):
        path = tmp_path / "labels.csv"
        make_fixture(path, 5, 40, 120, 2, seed=1)
        labels, _, _ = load_labels(path, label_set=LabelSet(2))
        assert np.array_equal(subsample_labels(labels, 1.0, seed=3).dense(),
                              labels.dense())
        assert subsample_labels(labels, 0.0, seed=3).num_labels == 0
        with pytest.raises(DomainError):
            subsample_labels(labels, 1.5)

    def test_subsample_binomial_count(self, tmp_path):
        path = tmp_path / "labels.csv"
        make_fixture(path, 17, 159, 1221, 2, seed=2)
        labels, _, _ = load_labels(path, label_set=LabelSet(2))
        kept = subsample_labels(labels, 0.5, seed=9).num_labels
        sigma = np.sqrt(1221 * 0.25)
        assert abs(kept - 610.5) <= 4 * sigma

    def test_subsample_draws_one_uniform_per_label_in_triple_order(self):
        rng = np.random.default_rng(5)
        grid = rng.integers(1, 4, (37, 101)) * (rng.random((37, 101)) < 0.2)
        labels = LabelMatrix.from_dense(grid, 3)
        keep = harness.derive_rng(12, "subsample").random(labels.num_labels) < 0.4
        kept = subsample_labels(labels, 0.4, seed=12)
        for got, want in ((kept.workers, labels.workers),
                          (kept.items, labels.items),
                          (kept.labels, labels.labels)):
            assert np.array_equal(got, want[keep])

    def test_subsample_determinism(self, tmp_path):
        path = tmp_path / "labels.csv"
        make_fixture(path, 6, 30, 100, 3, seed=3)
        labels, _, _ = load_labels(path, label_set=LabelSet(3))
        first = subsample_labels(labels, 0.4, seed=11)
        second = subsample_labels(labels, 0.4, seed=11)
        assert np.array_equal(first.dense(), second.dense())

    def test_load_summarize_subsample_fixed_point(self, tmp_path):
        path = tmp_path / "labels.csv"
        make_fixture(path, 8, 50, 180, 2, seed=4)
        labels, _, _ = load_labels(path, label_set=LabelSet(2))
        before = summarize_dataset(labels)
        after = summarize_dataset(subsample_labels(labels, 1.0, seed=0))
        assert before.to_dict() == after.to_dict()

    def test_subsample_of_a_large_sparse_grid_stays_small(self, tmp_path):
        """``summarize --subsample`` on 20,000 x 20,000 cells (40,000 labels)
        runs under a 1 GiB address-space limit that a whole grid of
        uniforms (3.2 GB) would exceed."""
        path = tmp_path / "labels.csv"
        n = 20_000
        path.write_text("worker,item,label\n" + "".join(
            f"w{k},i{(k + shift) % n},{1 + shift}\n"
            for shift in (0, 1) for k in range(n)))
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "from crowdbounds.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(harness.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", child, "summarize", "--in", str(path),
             "--subsample", "0.5", "--seed", "3"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        summary = json.loads(done.stdout)
        assert (summary["num_workers"], summary["num_items"]) == (n, n)
        assert abs(summary["num_labels"] - n) < 4 * np.sqrt(2 * n * 0.25)


class TestSummarize:
    def test_worker_accuracy_against_truth(self):
        from crowdbounds.core import LabelMatrix
        labels = LabelMatrix.from_dense(np.array([[1, 2, 0], [2, 2, 1]]), 2)
        truth = np.array([1, 2, 1])
        summary = summarize_dataset(labels, truth)
        # worker 0 matches both labels; worker 1 matches 2 of 3
        assert summary.mean_worker_accuracy == pytest.approx((1.0 + 2 / 3) / 2)

    def test_table_shaped_fixtures(self, tmp_path):
        for name, (M, N, labels_count, L) in {
            "rte": (164, 800, 8000, 2),
            "web": (177, 2665, 15539, 5),
        }.items():
            path = tmp_path / f"{name}.csv"
            make_fixture(path, M, N, labels_count, L, seed=5)
            loaded, _, _ = load_labels(path, label_set=LabelSet(L))
            summary = summarize_dataset(loaded)
            assert (summary.num_workers, summary.num_items,
                    summary.num_labels) == (M, N, labels_count)
            assert summary.num_classes == L


def small_sweep_config(**overrides):
    base = dict(scenario="hds-sweep", methods=("mv", "iwmv"), trials=2,
                sweep_variable="wbar", sweep_grid=(0.6, 0.8), master_seed=3,
                sim={"M": 9, "N": 50, "L": 2, "q": 0.5})
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_rows_cover_the_grid(self):
        rows = run_experiment(small_sweep_config())
        assert len(rows) == 2 * 2 * 2
        assert {r.sweep for r in rows} == {0.6, 0.8}
        assert all(r.error is None for r in rows)
        assert all(0 <= r.error_rate <= 1 for r in rows)

    def test_byte_determinism_modulo_timestamp(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        run_experiment(small_sweep_config(output=str(out1)))
        time.sleep(1.05)
        run_experiment(small_sweep_config(output=str(out2)))
        for suffix in (".csv", ".jsonl"):
            first = (tmp_path / f"run1{suffix}").read_text().splitlines()
            second = (tmp_path / f"run2{suffix}").read_text().splitlines()
            assert first[1:] == second[1:]  # everything after the stamp line

    def test_bound_column_present_for_oracle_map(self):
        rows = run_experiment(small_sweep_config(methods=("oracle-map",)))
        assert all(r.bound_upper is not None and r.condition for r in rows)
        assert all(r.error_rate <= 1 for r in rows)

    def test_other_sweep_variables(self):
        for variable, grid in (("M", (5, 9)), ("N", (30, 60)), ("q", (0.4, 0.9))):
            rows = run_experiment(small_sweep_config(
                sweep_variable=variable, sweep_grid=grid, trials=1))
            assert {r.sweep for r in rows} == {float(g) for g in grid}
            assert all(r.error is None for r in rows)

    def test_misspecified_scenario(self):
        config = ExperimentConfig(
            scenario="misspecified", methods=("mv", "iwmv", "em-hds"),
            trials=3, sweep_variable="none", sweep_grid=(0.0,), master_seed=1,
            misspec={"M1": 5, "M2": 5, "N1": 40, "N2": 40,
                     "block": [[0.9, 0.6], [0.5, 0.7]], "q": 0.5})
        rows = run_experiment(config)
        assert len(rows) == 9
        assert all(r.error_rate is not None for r in rows)

    def test_dataset_scenario_with_subsampling(self, tmp_path):
        labels_path = tmp_path / "labels.csv"
        make_fixture(labels_path, 10, 60, 300, 2, seed=6)
        truth_path = tmp_path / "truth.csv"
        rng = np.random.default_rng(0)
        lines = ["item,label"] + [f"i{j},{rng.integers(1, 3)}" for j in range(60)]
        truth_path.write_text("\n".join(lines) + "\n")
        config = ExperimentConfig(
            scenario="dataset", methods=("mv", "oswmv"), trials=2,
            sweep_variable="s", sweep_grid=(0.5, 1.0), master_seed=2,
            dataset={"path": str(labels_path), "truth": str(truth_path), "L": 2})
        rows = run_experiment(config)
        assert len(rows) == 8
        assert all(r.error_rate is not None for r in rows)

    def test_dataset_scenario_warns_about_unlabelled_truth_rows(self, tmp_path):
        labels_path = tmp_path / "labels.csv"
        make_fixture(labels_path, 6, 30, 90, 2, seed=8)
        truth_path = tmp_path / "truth.csv"
        lines = ["item,label"] + [f"i{j},1" for j in range(32)]
        truth_path.write_text("\n".join(lines) + "\n")
        config = ExperimentConfig(
            scenario="dataset", methods=("mv",), trials=1,
            sweep_variable="s", sweep_grid=(1.0,), master_seed=0,
            dataset={"path": str(labels_path), "truth": str(truth_path), "L": 2})
        with pytest.warns(UserWarning, match="^2 truth rows"):
            rows = run_experiment(config)
        assert rows[0].error_rate is not None

    def test_timing_disabled_by_default(self):
        rows = run_experiment(small_sweep_config())
        assert all(r.seconds is None for r in rows)
        rows = run_experiment(small_sweep_config(record_timing=True))
        assert all(r.seconds is not None and r.seconds >= 0 for r in rows)

    def test_fixed_iterations_mode(self):
        rows = run_experiment(small_sweep_config(
            methods=("iwmv", "em-hds"), fixed_iterations=4))
        assert all(r.iterations == 4 for r in rows)

    def test_oracle_method_fails_per_row_on_datasets(self, tmp_path):
        labels_path = tmp_path / "labels.csv"
        make_fixture(labels_path, 6, 30, 90, 2, seed=7)
        config = ExperimentConfig(
            scenario="dataset", methods=("oracle-map", "mv"), trials=1,
            sweep_variable="s", sweep_grid=(1.0,), master_seed=0,
            dataset={"path": str(labels_path), "L": 2})
        rows = run_experiment(config)
        by_method = {r.method: r for r in rows}
        assert by_method["oracle-map"].error is not None
        assert by_method["mv"].error is None

    def test_config_validation(self):
        with pytest.raises(DomainError):
            small_sweep_config(trials=0)
        with pytest.raises(DomainError):
            small_sweep_config(methods=("nope",))
        with pytest.raises(DomainError):
            small_sweep_config(sweep_grid=())

    def test_method_table_order(self):
        # The sweep's row order follows this order.
        assert KNOWN_METHODS == ("mv", "wmv", "iwmv", "iwmv-log", "oswmv",
                                 "em-gds", "em-hds", "oracle-map")
        assert [m for m in KNOWN_METHODS if METHODS[m].needs_model] == [
            "wmv", "oracle-map"]

    def test_only_methods_that_need_the_model_fail_without_it(self):
        labels = LabelMatrix.from_dense(np.array([[1, 2, 1], [1, 2, 2], [2, 2, 1]]), 2)
        for name, method in METHODS.items():
            outcome, = method.run([(labels, None)], {})
            if method.needs_model:
                with pytest.raises(DomainError, match="true"):
                    raise outcome
            else:
                predictions, _ = outcome
                assert predictions.shape == (3,)

    def test_config_rejects_unknown_keys(self, tmp_path):
        raw = {"scenario": "hds-sweep", "methods": ["mv"], "trials": 1,
               "sweep": {"variable": "wbar", "grid": [0.7]},
               "sim": {"M": 5, "N": 20, "L": 2, "q": 0.5}}
        for path, key in ((), "trails"), ((), "max_workers"), \
                ((), "record_bounds"), (("sweep",), "grdi"), \
                (("sim",), "wbar_target"), (("dataset",), "_labels"):
            bad = json.loads(json.dumps(raw))
            target = bad
            for part in path:
                target = target.setdefault(part, {})
            target[key] = 5
            with pytest.raises(DomainError, match=repr(key)):
                ExperimentConfig.from_dict(bad)
        with pytest.raises(DomainError, match="'beta'"):
            small_sweep_config(misspec={"beta": 1})
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**raw, "trails": 5}))
        assert main(["experiment", "--config", str(config)]) == 1
        # Containers of the wrong JSON kind name their key and exit 1.
        for bad, key in (({**raw, "methods": 5}, "methods"),
                         ({**raw, "methods": "mv"}, "methods"),
                         ({**raw, "sweep": {"variable": "wbar", "grid": 0.7}},
                          "sweep.grid"),
                         ({**raw, "sweep": 5}, "sweep"),
                         ({**raw, "sim": [1]}, "sim"),
                         ({**raw, "misspec": 2}, "misspec"),
                         ({**raw, "dataset": "x"}, "dataset"),
                         ([raw], "the config")):
            with pytest.raises(DomainError, match=f"^{key} must be a JSON"):
                ExperimentConfig.from_dict(bad)
            config.write_text(json.dumps(bad))
            assert main(["experiment", "--config", str(config)]) == 1, key

    def test_sweep_must_match_the_scenario(self, tmp_path):
        """Each scenario reads its own sweep variables; M and N values are
        whole numbers. Anything else is rejected, not ignored or cut."""
        labels_path = tmp_path / "labels.csv"
        make_fixture(labels_path, 6, 30, 90, 2, seed=7)
        dataset = {"scenario": "dataset", "methods": ["mv"],
                   "dataset": {"path": str(labels_path), "L": 2}}
        sweep = {"scenario": "hds-sweep", "methods": ["mv"],
                 "sim": {"M": 5, "N": 20, "L": 2, "q": 0.5}}
        misspecified = {"scenario": "misspecified", "methods": ["mv"]}
        bad = [(dataset, None), (dataset, {"variable": "wbar", "grid": [0.5]}),
               (sweep, {"variable": "s", "grid": [0.5]}),
               (misspecified, {"variable": "q", "grid": [0.5]}),
               (sweep, {"variable": "M", "grid": [5, 10.7]}),
               (sweep, {"variable": "N", "grid": [20.5]})]
        for raw, grid in bad:
            raw = {**raw, **({"sweep": grid} if grid else {})}
            with pytest.raises(DomainError):
                ExperimentConfig.from_dict(raw)
            config = tmp_path / "config.json"
            config.write_text(json.dumps(raw))
            assert main(["experiment", "--config", str(config)]) == 1, grid
        good = [(dataset, {"variable": "s", "grid": [1.0]}), (sweep, None),
                (sweep, {"variable": "M", "grid": [5, 7.0]}),
                (misspecified, None)]
        for raw, grid in good:
            raw = {**raw, **({"sweep": grid} if grid else {})}
            if raw["scenario"] == "misspecified":
                raw["misspec"] = {"M1": 3, "M2": 3, "N1": 10, "N2": 10}
            rows = run_experiment(ExperimentConfig.from_dict(raw))
            assert all(r.error is None for r in rows), raw

    def test_sizes_and_seeds_must_be_whole_numbers(self, tmp_path):
        """Fractional, boolean and non-numeric counts, seeds and sizes are
        rejected (exit 1), not cut; whole floats such as 2.0 read as
        integers."""
        raw = {"scenario": "hds-sweep", "methods": ["mv"], "trials": 1,
               "sweep": {"variable": "wbar", "grid": [0.7]}, "master_seed": 5,
               "sim": {"M": 5, "N": 20, "L": 2, "q": 0.5}}
        bad = [((), "trials", 2.5), ((), "trials", True), ((), "trials", None),
               ((), "trials", "3"), ((), "master_seed", 1.9),
               ((), "master_seed", False)]
        bad += [(("sim",), key, 10.7) for key in ("M", "N", "L")]
        bad += [(("misspec",), key, 3.5) for key in ("M1", "M2", "N1", "N2")]
        bad += [(("dataset",), "L", 2.5), (("sim",), "M", True)]
        for path, key, value in bad:
            config = json.loads(json.dumps(raw))
            target = config
            for part in path:
                target = target.setdefault(part, {})
            target[key] = value
            with pytest.raises(DomainError, match="whole number"):
                ExperimentConfig.from_dict(config)
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config))
            assert main(["experiment", "--config", str(config_path)]) == 1, key
        config = ExperimentConfig.from_dict({**raw, "trials": 2.0,
                                             "master_seed": 5.0})
        assert (config.trials, config.master_seed) == (2, 5)
        assert type(config.trials) is int
        assert len(run_experiment(config)) == 2

    def test_fixed_iterations_must_be_a_positive_integer(self, tmp_path):
        for value in (0, -2, "3", 2.5, True, [3]):
            with pytest.raises(DomainError, match="fixed_iterations"):
                small_sweep_config(fixed_iterations=value)
        raw = {"scenario": "hds-sweep", "methods": ["iwmv"],
               "sweep": {"variable": "wbar", "grid": [0.7]},
               "sim": {"M": 5, "N": 20, "L": 2, "q": 0.5},
               "fixed_iterations": "3"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["experiment", "--config", str(config)]) == 1
        rows = run_experiment(small_sweep_config(methods=("iwmv",),
                                                 fixed_iterations=1))
        assert all(r.iterations == 1 for r in rows)

    def test_config_json_round_trip(self, tmp_path):
        raw = {"scenario": "hds-sweep", "methods": ["mv"], "trials": 1,
               "sweep": {"variable": "wbar", "grid": [0.7]},
               "master_seed": 5, "sim": {"M": 5, "N": 20, "L": 2, "q": 0.5}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        config = ExperimentConfig.from_json(path)
        rows = run_experiment(config)
        assert len(rows) == 1

    def test_csv_schema(self, tmp_path):
        rows = run_experiment(small_sweep_config())
        csv_path, jsonl_path = write_results(rows, str(tmp_path / "out"))
        lines = open(csv_path).read().splitlines()
        assert lines[0].startswith("# generated_at=")
        assert lines[1] == ("scenario,method,sweep,trial,error_rate,iterations,"
                            "seconds,bound_upper,bound_lower,condition,error")
        assert len(lines) == 2 + len(rows)
        records = [json.loads(line) for line in open(jsonl_path)]
        assert "_meta" in records[0]
        assert len(records) == 1 + len(rows)


def run_on(workers, config, monkeypatch, group_labels=None):
    """run_experiment with the worker count forced: 1 takes the serial path,
    more forks that many workers whatever the machine's CPU count. A
    ``group_labels`` replaces the expected labels a group of cells may
    hold (0: one cell per group)."""
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_cell_workers",
                      lambda num_cells: min(workers, num_cells))
        if group_labels is not None:
            patch.setattr(harness, "_GROUP_LABELS", group_labels)
        return run_experiment(config)


def after_stamp(stem):
    return [Path(f"{stem}{suffix}").read_bytes().split(b"\n", 1)[1]
            for suffix in (".csv", ".jsonl")]


class TestCellPool:
    """The groups of trials run on forked workers; the files, the error
    that escapes and the warnings match a serial run's, and the files match
    those of one trial per group."""

    def test_pooled_files_equal_serial_files(self, tmp_path, monkeypatch):
        labels_path, truth_path = tmp_path / "labels.csv", tmp_path / "truth.csv"
        make_fixture(labels_path, 10, 60, 300, 2, seed=6)
        truth_path.write_text("item,label\n" + "".join(
            f"i{j},{1 + j % 2}\n" for j in range(60)))
        scenarios = [
            small_sweep_config(methods=KNOWN_METHODS, trials=3,
                               sweep_grid=(0.6, 0.7, 0.8)),
            ExperimentConfig(
                scenario="misspecified", methods=("mv", "iwmv", "em-hds"),
                trials=5, sweep_variable="none", sweep_grid=(0.0,),
                master_seed=1, misspec={"M1": 5, "M2": 5, "N1": 40, "N2": 40}),
            ExperimentConfig(
                scenario="dataset", methods=("mv", "iwmv", "em-gds", "em-hds"),
                trials=2, sweep_variable="s", sweep_grid=(0.5, 0.75, 1.0),
                master_seed=2, dataset={"path": str(labels_path),
                                        "truth": str(truth_path), "L": 2}),
        ]
        # Serial in groups, pooled in groups of about two trials, and serial
        # with one trial per group.
        runs = ((1, None), (3, 500), (1, 0))
        for config in scenarios:
            for fixed in (None, 3):
                stems = [str(tmp_path / f"{config.scenario}-{fixed}-{run}")
                         for run in range(len(runs))]
                for (workers, group_labels), stem in zip(runs, stems):
                    run_on(workers, dataclasses.replace(
                        config, output=stem, fixed_iterations=fixed),
                        monkeypatch, group_labels)
                for stem in stems[1:]:
                    assert after_stamp(stems[0]) == after_stamp(stem), stem
        assert multiprocessing.active_children() == []

    def test_the_earliest_failing_trial_raises(self, tmp_path, monkeypatch):
        # A swept q out of range is rejected when the config is built.
        with pytest.raises(DomainError, match=r"^sim\.q: assignment"):
            small_sweep_config(sweep_variable="q", sweep_grid=(0.3, 1.5, -0.2))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "scenario": "hds-sweep", "methods": ["mv"], "trials": 2,
            "sweep": {"variable": "q", "grid": [0.3, 1.5, -0.2]},
            "sim": {"M": 9, "N": 50, "L": 2}}))
        assert main(["experiment", "--config", str(path)]) == 1
        assert multiprocessing.active_children() == []

        # The error is the earliest trial's in row order, serial or pooled,
        # though a later trial failed first in time. Timed rows put each
        # trial in a pool task of its own.
        trial_data = harness._trial_data

        def failing(config, sweep_index, point, trial, dataset):
            if sweep_index == 1:
                time.sleep(0.3)
                raise DomainError("the earlier trial")
            if sweep_index == 2:
                raise ValueError("the later trial")
            return trial_data(config, sweep_index, point, trial, dataset)

        monkeypatch.setattr(harness, "_trial_data", failing)
        config = small_sweep_config(sweep_grid=(0.6, 0.7, 0.8))
        errors = []
        for workers in (1, 3):
            with pytest.raises(DomainError) as caught:
                run_on(workers, config, monkeypatch)
            errors.append(caught.value)
            assert multiprocessing.active_children() == []
        assert str(errors[0]) == str(errors[1])
        with pytest.raises(DomainError, match="the earlier trial"):
            run_on(3, small_sweep_config(sweep_grid=(0.6, 0.7, 0.8), trials=1,
                                         record_timing=True), monkeypatch)
        assert multiprocessing.active_children() == []

    def test_worker_warnings_reach_the_caller_in_trial_order(self, monkeypatch):
        vote = METHODS["mv"].run

        def warn_then_vote(trials, limits):
            for labels, _ in trials:
                warnings.warn(f"{labels.num_items} items", UserWarning)
            return vote(trials, limits)

        monkeypatch.setitem(METHODS, "mv", Method(warn_then_vote))
        config = small_sweep_config(methods=("mv",), sweep_variable="N",
                                    sweep_grid=(30, 40, 50), record_timing=True)
        with pytest.warns(UserWarning) as record:
            rows = run_on(3, config, monkeypatch)
        assert all(row.error is None for row in rows)
        assert [str(w.message) for w in record
                if w.category is UserWarning] == [
            "30 items", "30 items", "40 items", "40 items", "50 items",
            "50 items"]

    def test_a_failing_trial_stays_in_its_own_row(self, monkeypatch):
        """A method that raises on one trial reports the error in that
        trial's row only, though the trial shares its group with others."""
        vote = harness.majority_vote

        def failing(labels, *args, **kwargs):
            if labels.num_items == 40:
                raise DomainError("no vote at 40 items")
            return vote(labels, *args, **kwargs)

        monkeypatch.setattr(harness, "majority_vote", failing)
        # 9 * N * 0.5 expected labels: groups of N = 30 and 40, of 50, of 60.
        config = small_sweep_config(methods=KNOWN_METHODS, trials=1,
                                    sweep_variable="N",
                                    sweep_grid=(30, 40, 50, 60))
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_GROUP_LABELS", 400)
            assert harness._cell_groups(config, None) == [
                [(0, 0), (1, 0)], [(2, 0)], [(3, 0)]]
        serial, pooled = (run_on(workers, config, monkeypatch,
                                 group_labels=400) for workers in (1, 2))
        assert serial == pooled
        assert len(serial) == 4 * len(KNOWN_METHODS)
        assert [(row.sweep, row.method, row.error) for row in serial
                if row.error is not None] == [(40.0, "mv",
                                               "no vote at 40 items")]
        assert all(row.error_rate is not None for row in serial
                   if row.error is None)

    def test_groups_hold_consecutive_cells_by_expected_labels(self):
        # 5 * 200 * 0.8 = 800 expected labels at N = 200, 3200 at N = 800;
        # a group holds at most 2 ** 14 = 16384, and may span sweep values.
        config = small_sweep_config(sweep_variable="N", sweep_grid=(200, 800),
                                    trials=10, sim={"M": 5, "q": 0.8})
        groups = harness._cell_groups(config, None)
        assert [cell for group in groups for cell in group] == [
            (index, trial) for index in range(2) for trial in range(10)]
        assert list(map(len, groups)) == [12, 5, 3]
        timed = dataclasses.replace(config, record_timing=True)
        assert list(map(len, harness._cell_groups(timed, None))) == [1] * 20
        # A trial over the limit is a group of its own: 40 * 600 * 1.0.
        spec = {"M1": 20, "M2": 20, "N1": 300, "N2": 300, "q": 1.0}
        large = ExperimentConfig(
            scenario="misspecified", methods=("mv",), trials=3,
            sweep_variable="none", sweep_grid=(0.0,), master_seed=0,
            misspec=spec)
        assert list(map(len, harness._cell_groups(large, None))) == [1, 1, 1]
        labels = LabelMatrix.from_dense(np.ones((100, 100), dtype=int), 2)
        dataset = small_sweep_config(
            scenario="dataset", sweep_variable="s", sweep_grid=(0.4, 1.0),
            trials=3, dataset={"path": "labels.csv"})
        assert list(map(len, harness._cell_groups(
            dataset, (labels, None)))) == [3, 1, 1, 1]

    def test_one_worker_per_available_cpu(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        assert harness._cell_workers(10 ** 6) == cpus
        assert harness._cell_workers(1) == 1
        # A daemon process (a pool worker) may not start processes.
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert harness._cell_workers(10 ** 6) == 1


class TestCli:
    def test_full_pipeline(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        truth = tmp_path / "truth.csv"
        rc = main(["simulate", "--workers", "5", "--items", "40",
                   "--classes", "2", "--q", "0.8",
                   "--accuracies", "0.9,0.8,0.7,0.6,0.9", "--seed", "11",
                   "--binary", "--out-labels", str(labels),
                   "--out-truth", str(truth)])
        assert rc == 0
        rc = main(["aggregate", "--method", "iwmv", "--in", str(labels),
                   "--truth", str(truth), "--binary",
                   "--out", str(tmp_path / "pred.csv")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert 0 <= payload["error_rate"] <= 1
        predictions = (tmp_path / "pred.csv").read_text().splitlines()
        assert predictions[0] == "item,label"
        assert len(predictions) == 41

    def test_summarize_and_bounds(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        make_fixture(labels, 6, 30, 90, 2, seed=8)
        assert main(["summarize", "--in", str(labels)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["num_workers"] == 6
        params = json.dumps({"q": 1.0, "mean_accuracy": 0.7, "M": 10, "L": 2})
        assert main(["bounds", "--scenario", "mv-hds", "--params", params]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"]["quadratic"] == pytest.approx(0.4493, abs=5e-5)

    def test_experiment_subcommand(self, tmp_path, capsys):
        raw = {"scenario": "hds-sweep", "methods": ["mv"], "trials": 1,
               "sweep": {"variable": "wbar", "grid": [0.7]}, "master_seed": 5,
               "sim": {"M": 5, "N": 20, "L": 2, "q": 0.5},
               "output": str(tmp_path / "res")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["experiment", "--config", str(config)]) == 0
        assert (tmp_path / "res.csv").exists()
        assert (tmp_path / "res.jsonl").exists()

    def test_experiment_out_replaces_the_config_output(self, tmp_path, capsys):
        raw = {"scenario": "hds-sweep", "methods": ["mv"], "trials": 1,
               "sweep": {"variable": "wbar", "grid": [0.7]}, "master_seed": 5,
               "sim": {"M": 5, "N": 20, "L": 2, "q": 0.5},
               "output": str(tmp_path / "from_config")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["experiment", "--config", str(config),
                     "--out", str(tmp_path / "from_flag")]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.glob("from_*")) == [
            "from_flag.csv", "from_flag.jsonl"]

    def test_all_bounds_scenarios(self, capsys):
        """Every scenario exits 0, and each report's keys are pinned so that
        a change of the JSON format is deliberate."""
        mean_error = {
            "condition_holds": {"upper", "lower"},
            "values": {"upper", "lower", "upper_exponent", "lower_exponent"},
            "thresholds": set(),
            "inputs": {"t_low", "t_high", "sigma_sq", "c", "num_classes"}}
        scenarios = {
            "wmv-hds": ({"q": 1.0, "weights": [1, 1],
                         "accuracies": [0.8, 0.6], "L": 2}, mean_error),
            "hyperplane": ({"q": [1, 1], "weights": [1, 1], "shift": 0.2,
                            "p_plus": [0.8, 0.7], "p_minus": [0.6, 0.9],
                            "N": 100}, mean_error),
            "mv-hds": ({"q": 1.0, "mean_accuracy": 0.7, "M": 10, "L": 2}, {
                "condition_holds": {"upper"},
                "values": {"quadratic", "linear", "linear_tighter",
                           "quadratic_exponent", "linear_exponent"},
                "thresholds": set(),
                "inputs": {"q", "mean_accuracy", "num_workers",
                           "num_classes"}}),
            "oswmv": ({"accuracies": [0.8] * 15, "N": 2000}, {
                "condition_holds": {"upper"},
                "values": {"bound", "exponent", "rho", "eta"},
                "thresholds": {"mean_accuracy"},
                "inputs": {"num_workers", "num_items", "mean_accuracy"}}),
            "general": ({"scores": [[[0, 1, 0], [0, 0, 1]],
                                    [[0, 1, 0], [0, 0, 1]]],
                         "shifts": [0, 0], "assignment_kind": "constant",
                         "assignment": 1.0,
                         "tables": [[[0.8, 0.2], [0.2, 0.8]],
                                    [[0.6, 0.4], [0.4, 0.6]]], "N": 200},
                        mean_error),
        }
        for scenario, (params, keys) in scenarios.items():
            rc = main(["bounds", "--scenario", scenario,
                       "--params", json.dumps(params)])
            assert rc == 0, scenario
            report = json.loads(capsys.readouterr().out)
            assert set(report) == {"kind", *keys}, scenario
            for section, names in keys.items():
                assert set(report[section]) == names, (scenario, section)

    def test_bounds_params_are_checked(self, capsys):
        """Unknown keys, a non-object, wrongly typed values and fewer than
        two classes exit 1 with a message naming the problem."""
        wmv = {"q": 1.0, "weights": [1, 1], "accuracies": [0.8, 0.6], "L": 2}
        hyperplane = {"q": [1, 1], "weights": [1, 1], "p_plus": [0.8, 0.7],
                      "p_minus": [0.6, 0.9]}
        mv = {"q": 1.0, "mean_accuracy": 0.7, "M": 10, "L": 2}
        oswmv = {"accuracies": [0.8] * 15, "N": 2000}
        cases = [
            ("hyperplane", {**hyperplane, "shfit": 5}, "'shfit'"),
            ("oswmv", {**oswmv, "rho_convention": "proof"}, "'rho_convention'"),
            ("mv-hds", {**mv, "N": 100}, "'N'"),
            ("wmv-hds", [1, 2], "JSON object"),
            ("wmv-hds", {**wmv, "q": "x"}, "'q'"),
            ("wmv-hds", {**wmv, "L": 2.0}, "'L'"),
            ("wmv-hds", {**wmv, "L": True}, "'L'"),
            ("wmv-hds", {**wmv, "weights": [1, "1"]}, "'weights'"),
            ("hyperplane", {**hyperplane, "shift": [0.1]}, "'shift'"),
            ("mv-hds", {**mv, "M": 10.5}, "'M'"),
            ("oswmv", {**oswmv, "N": None}, "'N'"),
            ("wmv-hds", {**wmv, "L": 1}, "two classes"),
            ("mv-hds", {**mv, "L": 1}, "two classes"),
            ("mv-hds", {**mv, "L": 1, "mean_accuracy": 1.5}, "two classes"),
            ("mv-hds", {**mv, "mean_accuracy": 1.5}, "accuracies must lie"),
            ("mv-hds", {**mv, "mean_accuracy": -0.1}, "accuracies must lie"),
            ("wmv-hds", {**wmv, "accuracies": [1.8, -0.5]},
             "accuracies must lie"),
            ("hyperplane", {**hyperplane, "p_plus": [1.2, 0.7]},
             "accuracies must lie"),
            ("hyperplane", {**hyperplane, "p_minus": [0.6, -0.1]},
             "accuracies must lie"),
            ("hyperplane", {**hyperplane, "q": [0, 1]}, "(0, 1]"),
            ("hyperplane", {**hyperplane, "q": [1.5, 1]}, "(0, 1]"),
        ]
        for scenario, params, message in cases:
            rc = main(["bounds", "--scenario", scenario,
                       "--params", json.dumps(params)])
            assert rc == 1, (scenario, params)
            assert message in capsys.readouterr().err, (scenario, params)
        # the same inputs without the fault pass
        for scenario, params in (("hyperplane", {**hyperplane, "shift": 5}),
                                 ("wmv-hds", wmv), ("mv-hds", mv),
                                 ("oswmv", oswmv)):
            assert main(["bounds", "--scenario", scenario,
                         "--params", json.dumps(params)]) == 0, scenario
        capsys.readouterr()

    def test_general_scores_keep_the_missing_column(self, capsys):
        """``general`` reads (M, L, L + 1) scores whose column h = 0 holds
        one constant; the constant's value cannot change the bounds."""
        params = {"shifts": [0.3, 0.0], "assignment": 0.7, "N": 200,
                  "tables": [[[0.8, 0.2], [0.3, 0.7]],
                             [[0.6, 0.4], [0.1, 0.9]]]}

        def run(scores):
            argv = ["bounds", "--scenario", "general", "--epsilon", "0.1",
                    "--params", json.dumps({**params, "scores": scores})]
            return main(argv), capsys.readouterr().out

        outputs = [run([[[c, 1.2, -0.4], [c, 0.1, 0.9]],
                        [[c, 0.5, 0.0], [c, -0.3, 1.1]]])
                   for c in (0.0, -2.5)]
        assert outputs[0][0] == 0 and outputs[0] == outputs[1]
        not_constant = [[[0, 1, 0], [0, 0, 1]], [[1, 1, 0], [1, 0, 1]]]
        without_column = [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]
        for scores in (not_constant, without_column, [], [[[]]]):
            assert run(scores)[0] == 1, scores

    def test_validation_exit_codes(self, tmp_path):
        assert main(["summarize", "--in", str(tmp_path / "missing.csv")]) == 1
        assert main(["aggregate", "--method", "nope", "--in", "x"]) == 1
        assert main(["aggregate", "--method", "oracle-map", "--in", "x"]) == 1
        assert main(["bounds", "--scenario", "mv-hds", "--params", "{bad"]) == 1

    def test_truth_rows_without_labels_are_counted(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        truth = tmp_path / "truth.csv"
        write_triples(labels, [("a", "x", 1), ("b", "x", 1)])
        truth.write_text("item,label\nx,1\ny,2\n")
        common = ["--in", str(labels), "--truth", str(truth)]
        assert main(["aggregate", "--method", "mv", *common]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["truth_unlabeled"] == 1
        assert payload["items"] == 1 and payload["error_rate"] == 0.0
        assert main(["summarize", *common]) == 0
        assert json.loads(capsys.readouterr().out)["truth_unlabeled"] == 1

    def test_large_sparse_input(self, tmp_path, capsys):
        # 100k workers x 100k items would be an 80 GB grid; 100k labels are
        # a few megabytes as triples.
        size = 100_000
        rng = np.random.default_rng(0)
        items = rng.permutation(size)
        labels = rng.integers(1, 4, size)
        path = tmp_path / "labels.csv"
        path.write_text("worker,item,label\n" + "".join(
            f"w{w},i{i},{label}\n" for w, (i, label) in enumerate(zip(items, labels))))
        common = ["--in", str(path), "--classes", "3"]
        assert main(["aggregate", "--method", "iwmv", *common]) == 0
        assert json.loads(capsys.readouterr().out)["items"] == size
        assert main(["summarize", *common]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["num_workers"], summary["num_items"],
                summary["num_labels"]) == (size, size, size)

    def test_infeasible_target_mean_exits_1(self, tmp_path, capsys):
        rc = main(["simulate", "--workers", "3", "--items", "5",
                   "--beta-a", "1", "--beta-b", "1", "--target-mean", "0.99",
                   "--tol", "1e-9", "--out-labels", str(tmp_path / "l.csv")])
        assert rc == 1
        assert "batches" in capsys.readouterr().err
        assert not (tmp_path / "l.csv").exists()

    def test_bounds_epsilon_requires_item_count(self, capsys):
        params = {"q": 1.0, "weights": [1, 1], "accuracies": [0.8, 0.6],
                  "L": 2}
        argv = ["bounds", "--scenario", "wmv-hds", "--epsilon", "0.1"]
        assert main([*argv, "--params", json.dumps(params)]) == 1
        assert "'N'" in capsys.readouterr().err
        assert main([*argv, "--params", json.dumps({**params, "N": 50})]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["high_probability"]["inputs"]["num_items"] == 50

    def test_bounds_epsilon_rejected_where_unsupported(self, capsys):
        cases = {"mv-hds": {"q": 1.0, "mean_accuracy": 0.7, "M": 10, "L": 2},
                 "oswmv": {"accuracies": [0.8] * 15, "N": 2000}}
        for scenario, params in cases.items():
            assert main(["bounds", "--scenario", scenario, "--epsilon", "0.1",
                         "--params", json.dumps(params)]) == 1
            assert repr(scenario) in capsys.readouterr().err
