"""The label reader and writer at any block size.

``harness._read_table`` reads a file in blocks of whole lines of about
``harness._READ_BLOCK`` characters, and ``cli._write_csv`` formats
``cli._WRITE_ROWS`` rows at a time. Here both sizes are made small, so that
block edges fall inside and between lines, and the differential tests of
``test_label_reader`` and ``test_label_writer`` run again. Explicit cases
pin the edges that small files at the default sizes never reach, and two
memory guards keep reading to the label arrays plus one block, and writing
to one chunk beyond its columns.
"""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import test_label_reader as reader_tests
import test_label_writer as writer_tests
from crowdbounds import cli, harness
from crowdbounds.core import LabelSet
from crowdbounds.harness import DuplicateLabel, load_labels, load_truth
from test_label_reader import outcome, reference_load, reference_truth

DEFAULT_BLOCK = harness._READ_BLOCK
BLOCKS = [1, 7, 64]
# The (kind, text, error) cases of the quote test, as it is parametrized.
QUOTE_CASES = reader_tests.test_a_quote_is_rejected_not_unquoted.pytestmark[0].args[1]


def rerun(test, strategy, examples: int):
    """``test``'s body on ``examples`` new draws of ``strategy``."""
    return settings(max_examples=examples, deadline=None)(
        given(strategy)(test.hypothesis.inner_test))


@pytest.mark.parametrize("block", BLOCKS)
def test_the_reader_s_differential_tests_pass_at_small_blocks(
        monkeypatch, tmp_path_factory, tmp_path, block):
    monkeypatch.setattr(harness, "_READ_BLOCK", block)
    rerun(reader_tests.test_valid_files_load_as_the_reference_readers_load_them,
          reader_tests.label_files(), 50)(tmp_path_factory)
    rerun(reader_tests.test_the_reader_gives_the_csv_row_loop_s_ids_matrices_and_errors,
          reader_tests.csv_files(), 150)(tmp_path_factory)
    for kind, text, error in QUOTE_CASES:
        reader_tests.test_a_quote_is_rejected_not_unquoted(tmp_path, kind, text,
                                                           error)
    reader_tests.test_a_lone_carriage_return_ends_a_line(tmp_path)


def read(path, kind, block, item_ids=()):
    """``outcome`` of the package's reader at ``block``, and of the row loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_READ_BLOCK", block)
        if kind == "truth":
            return (outcome(load_truth, path, LabelSet(2), list(item_ids)),
                    outcome(reference_truth, path, LabelSet(2), list(item_ids)))
        return (outcome(load_labels, path, kind, label_set=LabelSet(2)),
                outcome(reference_load, path, kind, LabelSet(2)))


@pytest.mark.parametrize("text", [
    "worker,item,label\r\nw1,i1,1\r\n\r\nw2,i1,2\r\nw1,i2,2\r\n",
    "worker,item,label\rw1,i1,1\r\rw2,i1,2\rw1,i2,2\r",
    "worker,item,label\r\nw1,i1,1\rw2,i1,2\n\r\n \r\nw1,i2,2",
    "worker,item,label\r\nw1,i1,1\r\nw2,i1,2\r\nw1,i1,2\r\n",
    "worker,item,label\r\nw1,i1,1\r\r\nw2,i1,3\r\n"])
def test_every_block_size_reads_as_the_row_loop_reads(tmp_path, text):
    """Every block edge of a file with CRLF and lone-CR line ends, among
    them each CRLF split between its CR and its LF, and each CR as a
    block's last character: the ids, matrix or error and line are the row
    loop's."""
    path = tmp_path / "labels.csv"
    path.write_text(text, newline="")
    for block in range(1, len(text) + 2):
        actual, expected = read(path, "csv-triples", block)
        assert actual == expected, block


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_a_line_break_at_the_decoder_s_chunk_edge_ends_one_line(tmp_path,
                                                                newline):
    """The text layer decodes the file a chunk of bytes at a time, and a CR
    that ends a chunk is held until the next one tells whether an LF
    follows. A CRLF split there, or a lone CR there, still ends one line."""
    path = tmp_path / "labels.csv"
    path.write_text("")
    with open(path) as handle:
        edge = handle._CHUNK_SIZE  # bytes the decoder reads at once
    rows = [f"w{j % 7},i{j},{1 + j % 2}" for j in range(edge // 8)]
    lines = ["worker,item,label", *rows]
    # Pad the first row's worker id (cells are stripped) so that a line
    # break starts at the chunk's last byte.
    starts = np.cumsum([len(line) + len(newline) for line in lines]) - len(newline)
    pad = edge - 1 - starts[starts <= edge - 1].max()
    lines[1] = lines[1].replace(",", " " * pad + ",", 1)
    text = newline.join(lines) + newline
    assert text.encode()[edge - 1:edge] == b"\r"
    path.write_text(text, newline="")
    lf = tmp_path / "lf.csv"
    lf.write_text("\n".join(lines) + "\n", newline="")
    for block in [*BLOCKS, DEFAULT_BLOCK]:
        actual, expected = read(path, "csv-triples", block)
        assert actual == expected == read(lf, "csv-triples", block)[0]
        assert actual[-2] == ["w0", *[f"w{j}" for j in range(1, 7)]]


def test_a_grid_whose_first_row_starts_after_the_first_block(tmp_path):
    """A grid's width is its first row's, wherever that row is read."""
    path = tmp_path / "labels.csv"
    path.write_text("\n" * 40 + "1,0,2\n0,2,1\n\n1,1,0\n")
    for block in [*BLOCKS, DEFAULT_BLOCK]:
        actual, expected = read(path, "dense-csv", block)
        assert actual == expected
        assert actual[0] == [[0, 0, 1, 1, 2, 2], [0, 2, 1, 2, 0, 1],
                             [1, 2, 2, 1, 1, 1]]
    path.write_text("\n" * 40 + "1,0,2\n0,2\n")
    for block in [*BLOCKS, DEFAULT_BLOCK]:
        actual, expected = read(path, "dense-csv", block)
        assert actual == expected
        assert actual[1] == "line 42: expected 3 fields, got 2"


def keyed_rows(count: int) -> list[str]:
    return [f"w{j % 9},i{j // 9},{1 + j % 2}" for j in range(count)]


@pytest.mark.parametrize("fault, error", [
    ("", ("w4", "i2")),
    ("w1,i1,x", ("w4", "i2")),  # after the repeat: the repeat is reported
    ("w1,i99,3", None)])  # before it: the label is
def test_a_repeated_key_whose_rows_sit_in_different_blocks(tmp_path, fault,
                                                           error):
    rows = keyed_rows(200)
    rows.insert(150, "w4,i2,1")  # row 22 holds w4,i2
    if fault:
        rows.insert(170 if error else 100, fault)
    text = "worker,item,label\n" + "\n".join(rows) + "\n"
    first = text.index("w4,i2,")
    assert text.index("w4,i2,", first + 1) - first > 2 * max(BLOCKS)
    path = tmp_path / "labels.csv"
    path.write_text(text)
    for block in [*BLOCKS, DEFAULT_BLOCK]:
        actual, expected = read(path, "csv-triples", block)
        assert actual == expected
        if error:
            assert actual == (DuplicateLabel, str(DuplicateLabel(*error)))
        else:
            assert actual[1] == ("line 102: label 3 is not one of the 2 "
                                 "classes")


def test_a_repeated_truth_item_in_another_block(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("item,label\n" + "".join(f"i{j},1\n" for j in range(100))
                    + "i7,2\n")
    for block in [*BLOCKS, DEFAULT_BLOCK]:
        actual, expected = read(path, "truth", block, ["i0"])
        assert actual == expected == (DuplicateLabel, str(DuplicateLabel(
            "<truth>", "i7")))


@pytest.mark.parametrize("kind, fault, message", [
    ("csv-triples", "w1,x1,x", "label 'x' is not an integer"),
    ("csv-triples", "w1,x1,5", "label 5 is not one of the 2 classes"),
    ("csv-triples", "w1,x1", "expected 3 fields, got 2"),
    ("csv-triples", 'w1,"x1",1', "quoted fields are not supported"),
    ("truth", "x1,-1", "label -1 is not one of the 2 classes"),
    ("dense-csv", "1,2,1", "expected 2 fields, got 3"),
    ("dense-csv", "1,+01x", "label '+01x' is not an integer")])
def test_an_error_in_a_later_block_reports_its_absolute_line(tmp_path, kind,
                                                             fault, message):
    """A fault past the default block, in a file with blank lines, is
    reported at its line of the file, as the row loop reports it."""
    if kind == "dense-csv":
        rows = [f"{j % 3},{1 + j % 2}" for j in range(20_000)]
    elif kind == "truth":
        rows = [f"i{j},{1 + j % 2}" for j in range(20_000)]
    else:
        rows = keyed_rows(20_000)
    rows[::1000] = [""] * 20  # blank lines count in line numbers
    rows.insert(19_000, fault)
    header = {"csv-triples": ["worker,item,label"], "truth": ["item,label"]}
    text = "\n".join(header.get(kind, []) + rows) + "\n"
    assert text.index(fault) > DEFAULT_BLOCK
    path = tmp_path / "labels.csv"
    path.write_text(text)
    line = text[:text.index(fault)].count("\n") + 1
    for block in [64, DEFAULT_BLOCK]:
        actual, expected = read(path, kind, block, ["i1"])
        assert actual == expected or '"' in fault  # the row loop unquotes
        assert actual[1] == f"line {line}: {message}"


@pytest.mark.parametrize("repeat", [None, 7, 44])
def test_plain_and_padded_runs_share_one_key_numbering_across_blocks(
        tmp_path, repeat):
    """Runs of six plain rows alternate with runs of six padded ones, read
    at a small block size, so that a block may hold either kind or both. A
    worker's rows sit in both kinds, and a repeated (worker, item) pair,
    its first row in a plain run or in a padded one, is found across
    blocks: the ids, matrix or error are the row loop's."""
    rows = [f"w{j % 4},i{j},{1 + j % 3 // 2}" for j in range(60)]
    rows = [row if j // 6 % 2 else f" {row} " for j, row in enumerate(rows)]
    if repeat is not None:  # the pair again, spelled as the other run spells it
        rows.append(rows[repeat].strip() if repeat // 6 % 2 == 0
                    else f" {rows[repeat]}")
    path = tmp_path / "labels.csv"
    path.write_text("worker,item,label\n" + "\n".join(rows) + "\n")
    actual, expected = read(path, "csv-triples", 20)
    assert actual == expected
    if repeat is None:
        assert actual[-2] == ["w0", "w1", "w2", "w3"]
    else:
        assert actual == (DuplicateLabel, str(DuplicateLabel(
            f"w{repeat % 4}", f"i{repeat}")))


@pytest.mark.parametrize("rows", [1, 7])
def test_the_writer_s_byte_tests_pass_in_small_chunks(monkeypatch, tmp_path,
                                                      capsys, rows):
    monkeypatch.setattr(cli, "_WRITE_ROWS", rows)
    for classes, binary in [(3, False), (2, True)]:
        writer_tests.test_simulate_writes_the_csv_writer_bytes(
            tmp_path, capsys, classes, binary)
        for method in ["mv", "iwmv", "em-hds"]:
            writer_tests.test_aggregate_out_writes_the_csv_writer_bytes(
                tmp_path, capsys, method, classes, binary)
    writer_tests.test_ids_that_csv_writer_leaves_unquoted_are_written_as_read(
        tmp_path, capsys)


@pytest.mark.parametrize("count", [0, 1, 6, 7, 8, 14, 15])
def test_a_chunk_edge_anywhere_writes_the_csv_writer_bytes(monkeypatch,
                                                           tmp_path, count):
    """Empty columns, a part chunk and a last chunk that is full."""
    monkeypatch.setattr(cli, "_WRITE_ROWS", 7)
    ids = [f"i {j}" for j in range(count)]
    values = np.arange(count) % 3 - 1
    path = tmp_path / "out.csv"
    cli._write_csv(path, "item,id,label", "i{},{},{}", range(count), ids,
                   values)
    with open(tmp_path / "reference.csv", "w", newline="") as handle:
        csv.writer(handle).writerows(
            [["item", "id", "label"],
             *zip([f"i{j}" for j in range(count)], ids, values.tolist())])
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()


ROWS = 200_000


def large_columns():
    """A triples file's columns: 500 workers, 40,000 items, no repeat."""
    t = np.arange(ROWS)
    return t // 400, t * 7919 % 40_000, t % 3 + 1


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_and_writing_hold_their_arrays_plus_one_block(tmp_path):
    """Writing 200,000 rows holds one chunk beyond its columns (all of them
    at once took 17 MB), and reading them back holds the label arrays plus
    one block (a whole-file read took 56 MB: 280 B per label)."""
    path = tmp_path / "labels.csv"
    columns = large_columns()
    peak = traced_peak(lambda: cli._write_csv(
        path, "worker,item,label", "w{},i{},{}", *columns))
    assert peak < 4e6, peak
    loaded = []
    peak = traced_peak(lambda: loaded.append(
        load_labels(path, label_set=LabelSet(3))))
    assert peak < 24e6, peak
    labels, workers, items = loaded[0]
    assert (labels.num_labels, len(workers), len(items)) == (ROWS, 500, 40_000)
