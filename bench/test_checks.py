"""The output checks pass on real outputs and catch corrupted ones.

Run from the repository root: python3 -m pytest -q bench/test_checks.py
Each workload runs once at a small size (the cli-sparse pipeline through
real CLI processes); every test then corrupts one output and expects its
check to report a problem.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import worker

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(workload, rdir: Path, seed: int = 7) -> dict:
    state = workload.prepare(seed, rdir)
    return workload.record(state, workload.run(state))


def _edit_jsonl(stem: Path, edit) -> None:
    path = Path(f"{stem}.jsonl")
    lines = path.read_text().splitlines()
    rows = [json.loads(line) for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [json.dumps(r) for r in rows]) + "\n")


def _rewrite_csv_rows(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def _edit_stdout(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    rdir = tmp_path_factory.mktemp("sweep")
    record = _run(worker.McSweep(trials=3, grid=(0.58, 0.78)), rdir)
    return rdir, record["meta"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    rdir = tmp_path_factory.mktemp("dataset")
    record = _run(worker.DatasetEm(trials=2, items=400), rdir)
    return rdir, record["meta"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    rdir = tmp_path_factory.mktemp("cli")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, old) if p)
    try:
        record = _run(worker.CliSparse(workers=40, items=400, q=0.2), rdir)
    finally:
        if old is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = old
    assert record["failed"] == 0
    return rdir, record["meta"]


def _copy(tmp_path, source: Path) -> Path:
    for f in source.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    return tmp_path


def test_mc_sweep_outputs_pass(sweep):
    assert checks.check_mc_sweep(*sweep) == []


def test_mc_sweep_missing_row_is_caught(sweep, tmp_path):
    rdir = _copy(tmp_path, sweep[0])
    _edit_jsonl(rdir / "sweep", lambda rows: rows.pop())
    lines = (rdir / "sweep.csv").read_text().splitlines()
    (rdir / "sweep.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_mc_sweep(rdir, sweep[1])


def test_mc_sweep_error_above_bound_is_caught(sweep, tmp_path):
    rdir = _copy(tmp_path, sweep[0])

    def raise_oracle_error(rows):
        for r in rows:
            if r["method"] == "oracle-map" and r["sweep"] == 0.78:
                r["error_rate"] = 1.0

    _edit_jsonl(rdir / "sweep", raise_oracle_error)
    assert any("exceeds mean bound_upper" in p
               for p in checks.check_mc_sweep(rdir, sweep[1]))


def test_mc_sweep_oracle_worse_than_mv_is_caught(sweep, tmp_path):
    rdir = _copy(tmp_path, sweep[0])

    def perfect_mv(rows):
        for r in rows:
            if r["method"] == "mv":
                r["error_rate"] = 0.0

    _edit_jsonl(rdir / "sweep", perfect_mv)
    assert any("exceeds mv error" in p
               for p in checks.check_mc_sweep(rdir, sweep[1]))


def test_dataset_em_outputs_pass(dataset):
    assert checks.check_dataset_em(*dataset) == []


@pytest.mark.parametrize("corruption", ["mv_error", "em_iterations",
                                        "mv_rises"])
def test_dataset_em_corruption_is_caught(dataset, tmp_path, corruption):
    rdir = _copy(tmp_path, dataset[0])
    meta = dataset[1]

    def edit(rows):
        for r in rows:
            if corruption == "mv_error" and r["method"] == "mv" \
                    and r["sweep"] == 1.0 and r["trial"] == 0:
                r["error_rate"] += 1 / 400
            if corruption == "em_iterations" and r["method"] == "em-gds" \
                    and r["trial"] == 1:
                r["iterations"] = meta["em_max_iters"]
            if corruption == "mv_rises" and r["method"] == "mv" \
                    and r["sweep"] == min(meta["rates"]):
                r["error_rate"] = 0.0

    _edit_jsonl(rdir / "em", edit)
    assert checks.check_dataset_em(rdir, meta)


def test_cli_sparse_outputs_pass(pipeline):
    assert checks.check_cli_sparse(*pipeline) == []


def _flip(label: str) -> str:
    return str(int(label) % 3 + 1)


def test_cli_sparse_flipped_mv_prediction_is_caught(pipeline, tmp_path):
    rdir = _copy(tmp_path, pipeline[0])

    def flip_first(rows):
        rows[0][1] = _flip(rows[0][1])

    _rewrite_csv_rows(rdir / "pred_mv.csv", flip_first)
    assert any("own majority vote" in p
               for p in checks.check_cli_sparse(rdir, pipeline[1]))


def test_cli_sparse_flipped_iwmv_prediction_is_caught(pipeline, tmp_path):
    rdir = _copy(tmp_path, pipeline[0])
    # Flip the item with the most labels, all of which agree: a revote with
    # any reasonable weights restores it.
    workers, items, labels, item_ids = checks.read_triples(rdir / "labels.csv")
    counts = np.bincount(items)
    unanimous = [j for j in range(len(item_ids))
                 if len(set(labels[items == j])) == 1]
    target = max(unanimous, key=lambda j: counts[j])

    def flip(rows):
        rows[target][1] = _flip(rows[target][1])

    _rewrite_csv_rows(rdir / "pred_iwmv.csv", flip)
    assert any("not a fixed point" in p
               for p in checks.check_cli_sparse(rdir, pipeline[1]))


@pytest.mark.parametrize("name,edit,message", [
    ("aggregate_em-hds.out",
     lambda d: d.update(error_rate=d["error_rate"] + 1e-3), "own count"),
    ("summarize.out", lambda d: d.update(num_labels=d["num_labels"] - 1),
     "summarize num_labels"),
    ("bounds.out", lambda d: d["values"].update(
        upper_exponent=d["values"]["upper_exponent"] * (1 + 1e-6)), "bounds"),
])
def test_cli_sparse_corrupted_report_is_caught(pipeline, tmp_path, name, edit,
                                               message):
    rdir = _copy(tmp_path, pipeline[0])
    _edit_stdout(rdir / name, edit)
    assert any(message in p for p in checks.check_cli_sparse(rdir, pipeline[1]))


def test_bound_formula_matches_a_hand_value():
    # Two unit-weight workers of accuracy 0.8, q = 1, L = 2: t = 0.6 * 2 /
    # sqrt(2), c = 1 / sqrt(2), sigma^2 = 1.
    t, c = 1.2 / np.sqrt(2), 1 / np.sqrt(2)
    exponent = max(t * t / 2, t * t / (2 * (1 + c * t / 3)))
    upper, got = checks.bound_wmv_hds(1.0, [1, 1], [0.8, 0.8], 2)
    assert got == pytest.approx(exponent) and upper == pytest.approx(
        np.exp(-exponent))


def test_inputs_repeat_for_a_seed():
    a = inputs.confusion_dataset(3, workers=5, items=50)
    b = inputs.confusion_dataset(3, workers=5, items=50)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert np.allclose(a[2].sum(axis=2), 1.0)
    assert np.array_equal(inputs.sparse_accuracies(3, 10),
                          inputs.sparse_accuracies(3, 10))
