"""The golden corpus of ``run_experiment`` and the ``crowdbounds aggregate``,
``summarize``, ``bounds`` and ``simulate`` commands: configs, command lines,
inputs and expected text.

Each case in :data:`CASES` is one experiment config. Its expected ``.csv``
and ``.jsonl`` text, after the timestamp line, is stored next to this file
as ``<case>.csv`` and ``<case>.jsonl``. Each case in :data:`CLI_CASES` is
one command line, run in process through ``cli.main``; the text of each
file it writes is stored under the suffix that :data:`OUTPUTS` gives
(``aggregate --out`` as ``<case>.csv``), and the text of its stdout in
``stdout.json``, keyed by case (one file, since each file on disk costs a
block). Text is read with universal newlines, so a stored file has
LF line ends where the written one has CRLF. The label
files the cases read are stored here as well, and ``versions.json`` records
the numpy and Python that wrote the corpus. ``tests/test_golden.py`` reruns
every case and compares the text.

    python tests/golden/make.py           # compare, print the first difference
    python tests/golden/make.py --write   # regenerate the corpus

Regenerate only with a change that means to alter the outputs, and list
every file that changed with it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent.parent / "src"))

from crowdbounds.cli import main as cli_main  # noqa: E402
from crowdbounds.harness import (  # noqa: E402
    KNOWN_METHODS,
    METHODS,
    ExperimentConfig,
    run_experiment,
)

FITS = ("mv", "iwmv", "em-gds", "em-hds")
DENSE, TRIPLES, TRUTH = "dense.csv", "triples.csv", "triples_truth.csv"
PADDED = "padded.csv"

CASES = {
    # Enough trials that the cells do not all fit in one group.
    "hds_wbar": {
        "scenario": "hds-sweep", "methods": list(KNOWN_METHODS), "trials": 6,
        "sweep": {"variable": "wbar", "grid": [0.45, 0.6, 0.75, 0.9]},
        "master_seed": 11, "sim": {"M": 12, "N": 120, "L": 3, "q": 0.5}},
    "binary_q_fixed": {
        "scenario": "hds-sweep", "methods": list(KNOWN_METHODS), "trials": 3,
        "sweep": {"variable": "q", "grid": [0.2, 0.5, 1.0]},
        "master_seed": 12, "fixed_iterations": 5,
        "sim": {"M": 9, "N": 80, "L": 2}},
    # Trials of different shapes in one group.
    "m_sweep": {
        "scenario": "hds-sweep", "methods": list(FITS), "trials": 3,
        "sweep": {"variable": "M", "grid": [3, 8, 20]}, "master_seed": 13,
        "sim": {"N": 60, "L": 3, "q": 0.6}},
    "n_sweep": {
        "scenario": "hds-sweep", "methods": list(FITS), "trials": 3,
        "sweep": {"variable": "N", "grid": [10, 50, 120]}, "master_seed": 14,
        "sim": {"M": 7, "L": 4, "q": 0.7}},
    "misspecified": {
        "scenario": "misspecified",
        "methods": ["mv", "wmv", "iwmv", "iwmv-log", "oswmv", "em-gds",
                    "em-hds"],
        "trials": 4, "master_seed": 15,
        "misspec": {"M1": 5, "M2": 5, "N1": 40, "N2": 40}},
    "dataset_dense": {
        "scenario": "dataset", "methods": ["mv", "wmv", *FITS[1:]],
        "trials": 2, "sweep": {"variable": "s", "grid": [0.4, 0.7, 1.0]},
        "master_seed": 16,
        "dataset": {"path": DENSE, "format": "dense-csv", "L": 3}},
    "dataset_triples": {
        "scenario": "dataset", "methods": ["mv", "wmv", *FITS[1:]],
        "trials": 2, "sweep": {"variable": "s", "grid": [0.5, 1.0]},
        "master_seed": 17,
        "dataset": {"path": TRIPLES, "truth": TRUTH, "L": 2, "binary": True}},
}

# Every method the CLI offers, on the binary triples file with its truth and
# on the three-class grid.
LABEL_INPUTS = {
    "triples": ["--in", TRIPLES, "--truth", TRUTH, "--binary"],
    "dense": ["--in", DENSE, "--format", "dense-csv", "--classes", "3"],
}
CLI_CASES = {
    f"aggregate_{data}_{name}": ["aggregate", "--method", name, *args]
    for data, args in LABEL_INPUTS.items()
    for name, method in METHODS.items() if not method.needs_model
}
# A three-class triples file written as the package never writes one.
PADDED_INPUT = ["--in", PADDED, "--classes", "3"]
CLI_CASES |= {
    f"aggregate_padded_{name}": ["aggregate", "--method", name, *PADDED_INPUT]
    for name in ("mv", "em-hds")
}
CLI_CASES["summarize_padded"] = ["summarize", *PADDED_INPUT]
# Both label files summarized, whole and subsampled.
SUBSAMPLE = ["--subsample", "0.5", "--seed", "3"]
CLI_CASES |= {
    f"summarize_{data}{tag}": ["summarize", *args, *extra]
    for data, args in LABEL_INPUTS.items()
    for tag, extra in (("", []), ("_subsample", SUBSAMPLE))
}
# Small simulated crowds, three-class and binary, and one whose prior moves
# to a target mean far from its own.
SIMULATE = ["simulate", "--workers", "6", "--items", "20", "--q", "0.7",
            "--seed", "5"]
CLI_CASES |= {
    "simulate_3class": [*SIMULATE, "--classes", "3"],
    "simulate_binary": [*SIMULATE, "--binary"],
    "simulate_target_mean": [*SIMULATE, "--classes", "3",
                             "--target-mean", "0.98"],
}
# Every bounds scenario: wmv-hds, oswmv and general with README's params,
# hyperplane and mv-hds with tests/test_config.py's; the three with a
# high-probability form also with --epsilon and an item count.
BOUND_PARAMS = {
    "wmv-hds": {"q": 1.0, "weights": [1, 1], "accuracies": [0.8, 0.6],
                "L": 2},
    "hyperplane": {"q": [1, 1], "weights": [1, 1], "shift": 0.2,
                   "p_plus": [0.8, 0.7], "p_minus": [0.6, 0.9], "N": 100},
    "mv-hds": {"q": 1.0, "mean_accuracy": 0.7, "M": 10, "L": 2},
    "oswmv": {"accuracies": [0.9] * 8, "N": 500},
    "general": {"scores": [[[0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1]]],
                "shifts": [0, 0], "assignment": 1.0,
                "tables": [[[0.8, 0.2], [0.2, 0.8]], [[0.6, 0.4], [0.4, 0.6]]],
                "N": 200},
}
CLI_CASES |= {
    f"bounds_{scenario}": ["bounds", "--scenario", scenario,
                           "--params", json.dumps(params)]
    for scenario, params in BOUND_PARAMS.items()
}
CLI_CASES |= {
    f"bounds_{scenario}_epsilon": [
        "bounds", "--scenario", scenario, "--epsilon", "0.1",
        "--params", json.dumps({"N": 200, **BOUND_PARAMS[scenario]})]
    for scenario in ("wmv-hds", "hyperplane", "general")
}
# The suffix each command's output files are stored under, by flag, and
# whether its stdout is stored. Simulate's stdout (its label count and mean
# accuracy) is left out, as its label file already pins the draws.
OUTPUTS = {"aggregate": ({"--out": ".csv"}, True),
           "summarize": ({}, True),
           "bounds": ({}, True),
           "simulate": ({"--out-labels": ".csv", "--out-truth": "_truth.csv"},
                        False)}
STDOUT = GOLDEN / "stdout.json"


def write_inputs() -> None:
    """The label files, drawn with numpy alone: a 10 x 90 three-class grid
    at 60 % density, a 12-worker, 70-item binary triples file (labels
    +1/-1) with its truth, and an 8-worker, 40-item three-class triples
    file whose cells are padded with ASCII and Unicode whitespace (so each
    id is spelled several ways), whose tokens may read ``+1`` or ``01``,
    with blank lines and CRLF line ends."""
    rng = np.random.default_rng(2014)
    truth = rng.integers(1, 4, 90)
    accuracy = rng.uniform(0.4, 0.9, (10, 1))
    wrong = (truth + rng.integers(1, 3, (10, 90)) - 1) % 3 + 1
    grid = np.where(rng.random((10, 90)) < accuracy, truth, wrong)
    grid[rng.random((10, 90)) > 0.6] = 0
    (GOLDEN / DENSE).write_text(
        "".join(",".join(map(str, row)) + "\n" for row in grid))

    truth = rng.choice([1, -1], 70)
    accuracy = rng.uniform(0.45, 0.95, 12)
    lines = ["worker,item,label"]
    for i in range(12):
        for j in np.flatnonzero(rng.random(70) < 0.5):
            label = truth[j] if rng.random() < accuracy[i] else -truth[j]
            lines.append(f"w{i},i{j},{label}")
    (GOLDEN / TRIPLES).write_text("\n".join(lines) + "\n")
    (GOLDEN / TRUTH).write_text("item,label\n" + "".join(
        f"i{j},{label}\n" for j, label in enumerate(truth)))

    rng = np.random.default_rng(2015)
    pads = ["", "", " ", "  ", "\t", "\xa0", "\u3000", "\x1e", "\x85"]
    spellings = ["{}", "{}", "+{}", "0{}", "+0{}"]

    def pad(text):
        return (pads[rng.integers(len(pads))] + text
                + pads[rng.integers(len(pads))])

    truth = rng.integers(1, 4, 40)
    accuracy = rng.uniform(0.4, 0.9, 8)
    lines = [" Worker ,item,\tLABEL"]
    for j in range(40):
        for i in np.flatnonzero(rng.random(8) < 0.6):
            label = (truth[j] if rng.random() < accuracy[i]
                     else (truth[j] + rng.integers(0, 2)) % 3 + 1)
            token = spellings[rng.integers(len(spellings))].format(label)
            lines.append(",".join(map(pad, [f"w{i}", f"ítem-{j}", token])))
            if rng.random() < 0.1:
                lines.append("")
    (GOLDEN / PADDED).write_text("\r\n".join(lines) + "\r\n", newline="")


def run_cli_case(name: str, workdir: Path) -> dict[str, str]:
    """The text of CLI case ``name``'s stored outputs, by file suffix, and
    its stdout under ``"stdout"``."""
    inputs = (DENSE, TRIPLES, TRUTH, PADDED)
    argv = [str(GOLDEN / arg) if arg in inputs else arg
            for arg in CLI_CASES[name]]
    files, keep_stdout = OUTPUTS[argv[0]]
    for flag, suffix in files.items():
        argv += [flag, str(workdir / f"{name}{suffix}")]
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli_main(argv)
    if code:
        raise RuntimeError(f"{name} exited with {code}")
    texts = {suffix: (workdir / f"{name}{suffix}").read_text()
             for suffix in files.values()}
    if keep_stdout:
        texts["stdout"] = stdout.getvalue()
    return texts


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """The text of case ``name``'s files, by suffix: for an experiment, the
    text after the stamp line of its two result files."""
    if name in CLI_CASES:
        return run_cli_case(name, workdir)
    raw = json.loads(json.dumps(CASES[name]))
    dataset = raw.get("dataset")
    if dataset:
        for key in ("path", "truth"):
            if key in dataset:
                dataset[key] = str(GOLDEN / dataset[key])
    raw["output"] = str(workdir / name)
    run_experiment(ExperimentConfig.from_dict(raw))
    return {suffix: (workdir / f"{name}{suffix}").read_text().split("\n", 1)[1]
            for suffix in (".csv", ".jsonl")}


def stored_text(name: str, key: str) -> str:
    """The stored text of case ``name``'s output ``key``: a file suffix, or
    ``"stdout"``."""
    if key == "stdout":
        return json.loads(STDOUT.read_text())[name]
    return (GOLDEN / f"{name}{key}").read_text()


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the inputs and the expected text")
    args = parser.parse_args(argv)
    if args.write:
        write_inputs()
        (GOLDEN / "versions.json").write_text(
            json.dumps(versions(), indent=1) + "\n")
    differing, stdouts = 0, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in [*CASES, *CLI_CASES]:
            for key, text in run_case(name, Path(tmp)).items():
                if args.write and key == "stdout":
                    stdouts[name] = text
                elif args.write:
                    (GOLDEN / f"{name}{key}").write_text(text)
                elif stored_text(name, key) != text:
                    differing += 1
                    print(f"{name} {key} differs")
    if args.write:
        STDOUT.write_text(json.dumps(stdouts, indent=1, sort_keys=True) + "\n")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
