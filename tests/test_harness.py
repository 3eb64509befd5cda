import json
import time

import numpy as np
import pytest

from crowdbounds.core import DomainError, EmptyMatrix, LabelMatrix, LabelSet
from crowdbounds.harness import (
    KNOWN_METHODS,
    METHODS,
    DuplicateLabel,
    ExperimentConfig,
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
            if method.needs_model:
                with pytest.raises(DomainError, match="true"):
                    method.run(labels, None, {})
            else:
                predictions, _ = method.run(labels, None, {})
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

    def test_all_bounds_scenarios(self, capsys):
        scenarios = {
            "wmv-hds": {"q": 1.0, "weights": [1, 1],
                        "accuracies": [0.8, 0.6], "L": 2},
            "hyperplane": {"q": [1, 1], "weights": [1, 1],
                           "p_plus": [0.8, 0.7], "p_minus": [0.6, 0.9],
                           "N": 100},
            "oswmv": {"accuracies": [0.8] * 15, "N": 2000},
            "general": {"scores": [[[0, 1, 0], [0, 0, 1]],
                                   [[0, 1, 0], [0, 0, 1]]],
                        "shifts": [0, 0], "assignment_kind": "constant",
                        "assignment": 1.0,
                        "tables": [[[0.8, 0.2], [0.2, 0.8]],
                                   [[0.6, 0.4], [0.4, 0.6]]], "N": 200},
        }
        for scenario, params in scenarios.items():
            rc = main(["bounds", "--scenario", scenario,
                       "--params", json.dumps(params)])
            assert rc == 0, scenario
            json.loads(capsys.readouterr().out)

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
