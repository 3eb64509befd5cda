"""The one label reader against the readers it replaced.

``reference_dense`` and ``reference_triples`` are the earlier readers of the
``dense-csv`` and ``csv-triples`` formats (per-cell ``int`` into
``LabelMatrix.from_dense``, and the header-checked row loop). On valid files
``load_labels`` must give the same matrix and ids. On files with one fault it
must raise the documented error naming the fault's true 1-based line, which
the old dense reader got wrong after a blank line.

``reference_rows`` is the ``csv.reader`` row loop that read both formats and
truth files before the whole-file reader; on every generated file, valid or
not, ``load_labels`` and ``load_truth`` must give what it gives: the same
matrix and ids, or the same error and message. Quotes are the one
``csv`` feature dropped on purpose, pinned by their own test.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crowdbounds.core import DomainError, EmptyMatrix, LabelMatrix, LabelSet
from crowdbounds.harness import (DuplicateLabel, ParseError, UnknownLabel,
                                 load_labels, load_truth)


def reference_dense(path, label_set):
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    grid = np.array([[int(cell.strip()) for cell in row] for row in rows])
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


# Whitespace that ``str.strip`` strips from a cell: ASCII, the separators
# \x1c-\x1f (which ``int`` does not strip) and non-ASCII spaces.
PADS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
        "\xa0", "\u3000"]
padding = st.text(st.sampled_from(PADS), max_size=2)
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                             "\u0665\u0666\u0667\u0668\u0669")


def spell(draw, value: int) -> str:
    """``value`` as a token that ``int`` reads as ``value``: with or without
    a sign, a leading zero or ``0_``, in ASCII or Arabic-Indic digits."""
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    digits = str(abs(value))
    if draw(st.booleans()):
        digits = digits.translate(ARABIC_INDIC)
    return sign + draw(st.sampled_from(["", "0", "0_"])) + digits


@st.composite
def label_files(draw):
    """A valid labels file as (format, label set, lines, newline).

    Each line is a list of fields; ``None`` is a blank line. A third of the
    files are plain: printable ASCII cells without padding, canonical
    tokens and no blank line. In the others cells may carry up to two
    characters of :data:`PADS` on either side, so one key is spelled
    several ways, tokens may be spelled as :func:`spell` spells them
    (``+01``, ``0_1``, ``\u0661``), and keys may be non-ASCII. Keys may be 9
    to 20 bytes long, and the label set may use the +/-1 convention.
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
    plain = draw(st.integers(0, 2)) == 0
    style = draw(st.sampled_from(["{}{}", "{}-{:012d}"]
                                 + ([] if plain else ["{}é{}"])))

    def cell(value):
        text = str(value)
        return text if plain else draw(padding) + text + draw(padding)

    def token(value):
        return cell(value if plain else spell(draw, value))

    if fmt == "dense-csv":
        rows = [[token(v) for v in row] for row in external.tolist()]
    else:
        cells = [(i, j) for i, j in zip(*np.nonzero(grid))]
        order = draw(st.permutations(range(len(cells))))
        rows = [[cell(style.format("w", cells[t][0])),
                 cell(style.format("i", cells[t][1])), token(external[cells[t]])]
                for t in order]
    lines = []
    for row in rows:
        lines.extend([None] * (0 if plain else draw(st.integers(0, 2))))
        lines.append(row)
    lines.extend([None] * (0 if plain else draw(st.integers(0, 1))))
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


# The row loop that read both label formats and truth files before the
# whole-file reader: ``csv.reader`` rows, one decoded and checked at a time.
def reference_rows(path, header, label_set):
    classes = range(1, label_set.num_classes + 1)
    class_of = dict(zip(label_set.to_external(classes).tolist(), classes))
    if not header:
        class_of[0] = 0
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        if header:
            first = next(reader, None)
            if first is None:
                raise EmptyMatrix(f"{path} is empty")
            if [cell.strip().lower() for cell in first] != list(header):
                raise ParseError(1, f"expected header {','.join(header)!r}")
        width = len(header)
        for row in reader:
            if not row:
                continue
            width = width or len(row)
            if len(row) != width:
                raise ParseError(reader.line_num,
                                 f"expected {width} fields, got {len(row)}")
            try:
                if header:
                    *keys, token = [cell.strip() for cell in row]
                    decoded = (*keys, class_of[int(token)])
                else:
                    decoded = [class_of[int(cell.strip())] for cell in row]
            except (KeyError, ValueError):
                raise reference_bad_label(
                    reader.line_num, row[-1:] if header else row, class_of,
                    label_set.num_classes) from None
            yield decoded


def reference_bad_label(line, tokens, class_of, num_classes):
    for token in tokens:
        try:
            value = int(token.strip())
        except ValueError:
            return ParseError(line, f"label {token.strip()!r} is not an integer")
        if value not in class_of:
            return UnknownLabel(f"line {line}: label {value} is not one of "
                                f"the {num_classes} classes")


def reference_load(path, fmt, label_set):
    if fmt == "dense-csv":
        grid = list(reference_rows(path, (), label_set))
        if not any(map(any, grid)):
            raise EmptyMatrix(f"{path} contains no labels")
        labels = LabelMatrix.from_dense(grid, label_set.num_classes)
        return (labels, [str(i) for i in range(labels.num_workers)],
                [str(j) for j in range(labels.num_items)])
    worker_index, item_index, seen = {}, {}, set()
    workers, items, values = [], [], []
    for worker, item, label in reference_rows(
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


def reference_truth(path, label_set, item_ids):
    by_item = {}
    for item, label in reference_rows(path, ("item", "label"), label_set):
        if item in by_item:
            raise DuplicateLabel("<truth>", item)
        by_item[item] = label
    missing = [item for item in item_ids if item not in by_item]
    if missing:
        raise DomainError(f"truth file lacks labels for {len(missing)} items "
                          f"(first: {missing[0]!r})")
    truth = np.array([by_item[item] for item in item_ids], dtype=np.int64)
    return truth, len(by_item) - len(item_ids)


# Keys a plain file may hold (some of 9 to 20 bytes), then keys that only
# a padded or non-ASCII file holds.
PLAIN_KEYS = ["w0", "w1", "7", "-", "", "w-000000001", "annotator_0123456789"]
KEYS = PLAIN_KEYS + ["a b", "é", "rater-ünïcødé-7", "日本語のキー"]
HEADERS = {"csv-triples": ["worker", "item", "label"], "truth": ["item", "label"]}


@st.composite
def csv_files(draw):
    """A labels or truth file as (kind, label set, text, item ids to align
    truth with), valid or with up to three faults.

    Tokens may be spelled out of canonical form (:func:`spell`), cells
    and headers may be padded with :data:`PADS`, so that keys which differ
    as written are equal once stripped, lines may end in LF, CRLF or a lone
    CR, and empty or whitespace-only lines may appear anywhere. A fault is
    a row with a field added or dropped, a label that is not an integer
    (``x``, ``1 2``) or not in the label set (``1_0`` reads as 10), a
    repeated key (keyed files) or a bad header. A third of
    the files are plain but for their faults and header: keys of
    :data:`PLAIN_KEYS`, canonical tokens, no padding and no empty line.
    """
    kind = draw(st.sampled_from(["dense-csv", "csv-triples", "truth"]))
    binary = draw(st.booleans())
    L = 2 if binary else draw(st.integers(2, 4))
    label_set = LabelSet(L, binary)
    values = label_set.to_external(range(1, L + 1)).tolist()
    if kind == "dense-csv":
        values.append(0)
    plain = draw(st.integers(0, 2)) == 0

    def pad(text):
        return text if plain else draw(padding) + text + draw(padding)

    def token(value):
        return str(value) if plain else pad(spell(draw, value))

    if kind == "dense-csv":
        M, N = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        rows = [[token(draw(st.sampled_from(values))) for _ in range(N)]
                for _ in range(M)]
    else:
        key = st.sampled_from(PLAIN_KEYS if plain else KEYS)
        keys = st.tuples(key, key) if kind == "csv-triples" else st.tuples(key)
        rows = [[pad(key) for key in cell] + [token(draw(st.sampled_from(values)))]
                for cell in draw(st.lists(keys, unique=True, min_size=1,
                                          max_size=12))]
    item_ids = [row[-2].strip() for row in rows] if kind == "truth" else []
    faults = ["fields", "unknown"] + ["duplicate"] * 3
    for fault in draw(st.lists(st.sampled_from(
            faults if plain else faults + ["integer", "blank"]),
            max_size=3)):
        if fault in ("fields", "integer", "unknown") and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            column = (draw(st.integers(0, len(row) - 1)) if kind == "dense-csv"
                      else len(row) - 1)
            if fault == "fields":
                if len(row) > 1 and draw(st.booleans()):
                    row.pop()
                else:
                    row.append(token(values[0]))
            elif fault == "integer":
                row[column] = pad(draw(st.sampled_from(
                    ["x", "1.0", "", "--1", "1 2", "0x1", "_1", "1_0"])))
            else:
                row[column] = token(draw(st.sampled_from(
                    [L + 1, -2, 10 ** 30, 0])))
        elif fault == "blank":
            rows.insert(draw(st.integers(0, len(rows))),
                        [draw(st.text(st.sampled_from(PADS), min_size=1,
                                      max_size=2))])
        elif fault == "duplicate" and kind != "dense-csv" and rows:
            copy = rows[draw(st.integers(0, len(rows) - 1))]
            rows.insert(draw(st.integers(0, len(rows))),
                        [pad(key.strip()) for key in copy[:-1]]
                        + [token(draw(st.sampled_from(values)))])
    lines = [",".join(row) for row in rows]
    for n in sorted(draw(st.lists(st.integers(0, len(lines)),
                                  max_size=0 if plain else 4)), reverse=True):
        lines.insert(n, "")
    if kind != "dense-csv":
        header = [pad(name.upper() if draw(st.booleans()) else name)
                  for name in HEADERS[kind]]
        if draw(st.integers(0, 9)) == 0:  # a bad header
            header = draw(st.sampled_from(
                [[""], header[:-1], header + ["x"], header[::-1]]))
        lines.insert(0, ",".join(header))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    if item_ids:
        item_ids = draw(st.permutations(list(dict.fromkeys(item_ids))))
        item_ids = item_ids[:draw(st.integers(1, len(item_ids)))]
    return kind, label_set, text, item_ids


def outcome(read, *args, **kwargs):
    """What ``read(*args, **kwargs)`` gives, as plain values, or its error."""
    try:
        result = read(*args, **kwargs)
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)
    if isinstance(result[0], LabelMatrix):
        matrix, workers, items = result
        return ([getattr(matrix, name).tolist() for name in
                 ("workers", "items", "labels")], matrix.num_workers,
                matrix.num_items, matrix.num_classes, workers, items)
    truth, unlabeled = result
    return truth.dtype, truth.tolist(), unlabeled


@settings(max_examples=400, deadline=None)
@given(csv_files())
def test_the_reader_gives_the_csv_row_loop_s_ids_matrices_and_errors(
        tmp_path_factory, case):
    kind, label_set, text, item_ids = case
    path = tmp_path_factory.mktemp("file") / "labels.csv"
    path.write_text(text, newline="")
    if kind == "truth":
        actual = outcome(load_truth, path, label_set, item_ids)
        expected = outcome(reference_truth, path, label_set, item_ids)
    else:
        actual = outcome(load_labels, path, kind, label_set=label_set)
        expected = outcome(reference_load, path, kind, label_set)
    assert actual == expected


def test_an_id_with_a_line_break_is_missing_from_any_truth_file(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("item,label\ni1,1\na,2\n")
    for item_ids in (["i1", "a\nb"], ["a\nb", "i1", "x"]):
        assert outcome(load_truth, path, LabelSet(2), item_ids) == outcome(
            reference_truth, path, LabelSet(2), item_ids)
    assert load_truth(path, LabelSet(2), ["a", "i1"])[0].tolist() == [2, 1]


QUOTED = "quoted fields are not supported"


@pytest.mark.parametrize("kind, text, error", [
    ("csv-triples", 'worker,item,label\n"w1",i1,2\n', f"line 2: {QUOTED}"),
    ("csv-triples", 'worker,item,label\nw1,i1,1\n\nw"2,i1,2\n',
     f"line 4: {QUOTED}"),
    ("csv-triples", '"worker",item,label\nw1,i1,1\n', f"line 1: {QUOTED}"),
    ("csv-triples", 'worker,item,label\nw1,i1,1,1\nw2,"i1",2\n',
     "line 2: expected 3 fields, got 4"),
    ("dense-csv", '1,2\n"1",2\n', f"line 2: {QUOTED}"),
    ("truth", 'item,label\ni1,1\ni2,"2"\n', f"line 3: {QUOTED}")])
def test_a_quote_is_rejected_not_unquoted(tmp_path, kind, text, error):
    """No writer of the package quotes a field, so a quote is an error at
    its line (unless an earlier line fails) rather than parsed as by
    ``csv.reader``, which would strip it from the id."""
    path = tmp_path / "labels.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as excinfo:
        if kind == "truth":
            load_truth(path, LabelSet(2), ["i1"])
        else:
            load_labels(path, kind, label_set=LabelSet(2))
    assert str(excinfo.value) == error


def test_a_lone_carriage_return_ends_a_line(tmp_path):
    """As with ``csv.reader`` on a file opened with ``newline=""``, a lone
    CR ends a line and counts in line numbers."""
    lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
    lf.write_text("worker,item,label\nw1,i1,1\n\nw2,i1,2\n", newline="")
    cr.write_text("worker,item,label\rw1,i1,1\r\rw2,i1,2\r", newline="")
    assert outcome(load_labels, cr, label_set=LabelSet(2)) == outcome(
        load_labels, lf, label_set=LabelSet(2))
    cr.write_text("worker,item,label\rw1,i1,1\r\rw2,i1,3\r", newline="")
    with pytest.raises(UnknownLabel, match="^line 4: label 3 "):
        load_labels(cr, label_set=LabelSet(2))
