"""The golden corpus of ``run_experiment``: configs, inputs and expected text.

Each case below is one experiment config. Its expected ``.csv`` and
``.jsonl`` text, after the timestamp line, is stored next to this file as
``<case>.csv`` and ``<case>.jsonl``; the two label files the dataset cases
read are stored here as well, and ``versions.json`` records the numpy and
Python that wrote the corpus. ``tests/test_golden.py`` reruns every case
and compares the text.

    python tests/golden/make.py           # compare, print the first difference
    python tests/golden/make.py --write   # regenerate the corpus

Regenerate only with a change that means to alter the outputs, and list
every file that changed with it.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent.parent / "src"))

from crowdbounds.harness import (  # noqa: E402
    KNOWN_METHODS,
    ExperimentConfig,
    run_experiment,
)

FITS = ("mv", "iwmv", "em-gds", "em-hds")
DENSE, TRIPLES, TRUTH = "dense.csv", "triples.csv", "triples_truth.csv"

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


def write_inputs() -> None:
    """The dataset cases' label files, drawn with numpy alone: a 10 x 90
    three-class grid at 60 % density and a 12-worker, 70-item binary
    triples file (labels +1/-1) with its truth."""
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


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """The text after the stamp line of case ``name``'s two files, by
    suffix."""
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
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            for suffix, text in run_case(name, Path(tmp)).items():
                path = GOLDEN / f"{name}{suffix}"
                if args.write:
                    path.write_text(text)
                elif path.read_text() != text:
                    differing += 1
                    print(f"{path.name} differs")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
