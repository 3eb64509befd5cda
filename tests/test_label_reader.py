"""The one label reader against the two readers it replaced.

``reference_dense`` and ``reference_triples`` are the earlier readers of the
``dense-csv`` and ``csv-triples`` formats (per-cell ``int`` into
``LabelMatrix.from_dense``, and the header-checked row loop). On valid files
``load_labels`` must give the same matrix and ids. On files with one fault it
must raise the documented error naming the fault's true 1-based line, which
the old dense reader got wrong after a blank line.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdbounds.core import EmptyMatrix, LabelMatrix, LabelSet
from crowdbounds.harness import ParseError, UnknownLabel, load_labels


def reference_dense(path, label_set):
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    grid = np.array([[int(cell) for cell in row] for row in rows])
    internal = grid.copy()
    if label_set.binary_convention:
        internal = np.select([grid == 1, grid == -1, grid == 0], [1, 2, 0], -1)
    assert ((internal >= 0) & (internal <= label_set.num_classes)).all()
    matrix = LabelMatrix.from_dense(internal, label_set.num_classes)
    return (matrix, [str(i) for i in range(matrix.num_workers)],
            [str(j) for j in range(matrix.num_items)])


def reference_triples(path, label_set):
    classes = range(1, label_set.num_classes + 1)
    internal_of = dict(zip(label_set.to_external(classes).tolist(), classes))
    worker_index, item_index = {}, {}
    workers, items, values = [], [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = [cell.strip().lower() for cell in next(reader)]
        assert header == ["worker", "item", "label"]
        for row in reader:
            if not row:
                continue
            worker, item, token = [cell.strip() for cell in row]
            workers.append(worker_index.setdefault(worker, len(worker_index)))
            items.append(item_index.setdefault(item, len(item_index)))
            values.append(internal_of[int(token)])
    matrix = LabelMatrix(np.array(workers), np.array(items), np.array(values),
                         len(worker_index), len(item_index),
                         label_set.num_classes)
    return matrix, list(worker_index), list(item_index)


@st.composite
def label_files(draw):
    """A valid labels file as (format, label set, lines, newline).

    Each line is a list of fields; ``None`` is a blank line. Cells may carry
    surrounding spaces, and the label set may use the +/-1 convention.
    """
    fmt = draw(st.sampled_from(["dense-csv", "csv-triples"]))
    binary = draw(st.booleans())
    L = 2 if binary else draw(st.integers(2, 4))
    label_set = LabelSet(L, binary)
    M, N = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    grid = np.array(draw(st.lists(st.integers(0, L), min_size=M * N,
                                  max_size=M * N))).reshape(M, N)
    if not grid.any():
        grid[draw(st.integers(0, M - 1)), draw(st.integers(0, N - 1))] = 1
    external = label_set.to_external(grid)
    pad = st.sampled_from(["{}", " {}", "{} ", "  {} "])

    def cell(value):
        return draw(pad).format(value)

    if fmt == "dense-csv":
        rows = [[cell(v) for v in row] for row in external.tolist()]
    else:
        cells = [(i, j) for i, j in zip(*np.nonzero(grid))]
        order = draw(st.permutations(range(len(cells))))
        rows = [[cell(f"w{cells[t][0]}"), cell(f"i{cells[t][1]}"),
                 cell(external[cells[t]])] for t in order]
    lines = []
    for row in rows:
        lines.extend([None] * draw(st.integers(0, 2)))
        lines.append(row)
    lines.extend([None] * draw(st.integers(0, 1)))
    if fmt == "csv-triples":
        lines.insert(0, [cell("worker"), cell("Item"), cell("label")])
    return fmt, label_set, lines, draw(st.sampled_from(["\n", "\r\n"]))


def write(path, lines, newline):
    path.write_text("".join(("" if line is None else ",".join(line)) + newline
                            for line in lines), newline="")


def assert_same(actual, expected):
    (matrix, worker_ids, item_ids), (ref, ref_workers, ref_items) = actual, expected
    for name in ("workers", "items", "labels"):
        assert np.array_equal(getattr(matrix, name), getattr(ref, name)), name
    assert (matrix.num_workers, matrix.num_items, matrix.num_classes) == (
        ref.num_workers, ref.num_items, ref.num_classes)
    assert (worker_ids, item_ids) == (ref_workers, ref_items)


REFERENCES = {"dense-csv": reference_dense, "csv-triples": reference_triples}


@settings(max_examples=150, deadline=None)
@given(label_files())
def test_valid_files_load_as_the_reference_readers_load_them(tmp_path_factory,
                                                             case):
    fmt, label_set, lines, newline = case
    path = tmp_path_factory.mktemp("valid") / "labels.csv"
    write(path, lines, newline)
    assert_same(load_labels(path, fmt, label_set=label_set),
                REFERENCES[fmt](path, label_set))


@settings(max_examples=150, deadline=None)
@given(label_files(), st.data())
def test_a_fault_is_reported_at_its_true_line(tmp_path_factory, case, data):
    fmt, label_set, lines, newline = case
    first = 1 if fmt == "csv-triples" else 0
    rows = [n for n, line in enumerate(lines) if line is not None][first:]
    kinds = ["not an integer", "unknown label"]
    if fmt == "csv-triples" or len(rows) > 1:
        kinds.append("field count")
    kind = data.draw(st.sampled_from(kinds))
    # In a grid the first row fixes the width, so the fault goes in a later row.
    n = data.draw(st.sampled_from(rows if kind != "field count"
                                  or fmt == "csv-triples" else rows[1:]))
    line = list(lines[n])
    column = data.draw(st.integers(2 if fmt == "csv-triples" else 0,
                                   len(line) - 1))
    if kind == "not an integer":
        token = data.draw(st.sampled_from(["x", "1.0", "", "--1"]))
        line[column] = f" {token} "
        error, message = ParseError, f"label {token!r} is not an integer"
    elif kind == "unknown label":
        value = data.draw(st.sampled_from([label_set.num_classes + 1, -2,
                                           10 ** 30]))
        line[column] = str(value)
        error = UnknownLabel
        message = (f"label {value} is not one of the "
                   f"{label_set.num_classes} classes")
    else:
        width = len(line)
        # A row that loses its only field is a blank line, not a fault.
        drop = width > 1 and data.draw(st.booleans())
        line = line[:-1] if drop else line + ["1"]
        error, message = ParseError, f"expected {width} fields, got {len(line)}"
    lines = lines[:n] + [line] + lines[n + 1:]
    path = tmp_path_factory.mktemp("fault") / "labels.csv"
    write(path, lines, newline)
    with pytest.raises(error) as excinfo:
        load_labels(path, fmt, label_set=label_set)
    assert str(excinfo.value) == f"line {n + 1}: {message}"


@pytest.mark.parametrize("fmt, text", [
    ("dense-csv", ""), ("dense-csv", "\n\n"), ("dense-csv", "0,0\n\n0,0\n"),
    ("csv-triples", "worker,item,label\n"),
    ("csv-triples", "worker,item,label\n\n\n")])
def test_a_file_without_labels_is_rejected(tmp_path, fmt, text):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    with pytest.raises(EmptyMatrix, match="contains no labels"):
        load_labels(path, fmt, label_set=LabelSet(2))
