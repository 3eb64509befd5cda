"""The CSV files the CLI writes are the bytes ``csv.writer`` writes for the
same cells: ``simulate``'s label and truth files and ``aggregate --out``.

``reference_csv`` is the ``csv.writer`` call that wrote them before the
writer formatted whole columns at once; the cells it is given are built
here from the package's functions, as the CLI built them.
"""

import csv

import numpy as np
import pytest

from crowdbounds.cli import main
from crowdbounds.core import AssignmentModel, LabelSet, Prior, WorkerModel
from crowdbounds.harness import METHODS, load_labels
from crowdbounds.simulate import SimConfig, simulate_dataset

ACCURACIES = [0.9, 0.7, 0.55, 0.8, 0.65, 0.75]


def reference_csv(path, header, rows) -> bytes:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def simulate(tmp_path, classes, binary, seed=11):
    labels_path, truth_path = tmp_path / "labels.csv", tmp_path / "truth.csv"
    argv = ["simulate", "--workers", str(len(ACCURACIES)), "--items", "60",
            "--classes", str(classes), "--q", "0.6", "--seed", str(seed),
            "--accuracies", ",".join(map(str, ACCURACIES)),
            "--out-labels", str(labels_path), "--out-truth", str(truth_path)]
    assert main(argv + (["--binary"] if binary else [])) == 0
    return labels_path, truth_path


@pytest.mark.parametrize("classes, binary", [(3, False), (2, True)])
def test_simulate_writes_the_csv_writer_bytes(tmp_path, capsys, classes,
                                              binary):
    labels_path, truth_path = simulate(tmp_path, classes, binary)
    label_set = LabelSet(classes, binary)
    out = simulate_dataset(SimConfig(
        len(ACCURACIES), 60, classes, Prior.uniform(classes),
        AssignmentModel.constant(0.6),
        WorkerModel.hds(np.array(ACCURACIES), classes), seed=11))
    labels = out.labels
    assert labels_path.read_bytes() == reference_csv(
        tmp_path / "reference.csv", ["worker", "item", "label"],
        zip([f"w{i}" for i in labels.workers], [f"i{j}" for j in labels.items],
            label_set.to_external(labels.labels).tolist()))
    assert truth_path.read_bytes() == reference_csv(
        tmp_path / "reference.csv", ["item", "label"],
        zip([f"i{j}" for j in range(60)],
            label_set.to_external(out.truth).tolist()))
    assert labels_path.read_bytes().count(b"\r\n") == labels.num_labels + 1


def assert_aggregate_bytes(tmp_path, labels_path, label_set, method):
    out_path = tmp_path / f"{method}.csv"
    argv = ["aggregate", "--method", method, "--in", str(labels_path),
            "--classes", str(label_set.num_classes), "--out", str(out_path)]
    assert main(argv + (["--binary"] if label_set.binary_convention
                        else [])) == 0
    labels, _, item_ids = load_labels(labels_path, label_set=label_set)
    (predictions, _), = METHODS[method].run([(labels, None)], {})
    assert out_path.read_bytes() == reference_csv(
        tmp_path / "reference.csv", ["item", "label"],
        zip(item_ids, label_set.to_external(predictions).tolist()))


@pytest.mark.parametrize("method", ["mv", "iwmv", "em-hds"])
@pytest.mark.parametrize("classes, binary", [(3, False), (2, True)])
def test_aggregate_out_writes_the_csv_writer_bytes(tmp_path, capsys, method,
                                                   classes, binary):
    labels_path, _ = simulate(tmp_path, classes, binary, seed=5)
    assert_aggregate_bytes(tmp_path, labels_path, LabelSet(classes, binary),
                           method)


def test_ids_that_csv_writer_leaves_unquoted_are_written_as_read(tmp_path,
                                                                 capsys):
    """Ids are read without quotes, commas or line breaks, so the only
    cells ``csv.writer`` would quote never reach the writer; an empty id,
    inner spaces and other characters are written as they are."""
    path = tmp_path / "labels.csv"
    path.write_text("worker,item,label\r\na,,1\r\nb, x y ,2\r\na,é,2\r\n"
                    "b,'q',1\r\na,x y,1\r\nc,\t,2\r\n", newline="")
    for method in ("mv", "iwmv", "em-hds"):
        assert_aggregate_bytes(tmp_path, path, LabelSet(2), method)
