"""Every golden case of ``run_experiment`` and of the ``crowdbounds``
commands writes the stored text.

The corpus (``tests/golden``) holds the expected files after their stamp
line; ``tests/golden/make.py --write`` regenerates it. A failure names the
first differing line.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_make", GOLDEN / "make.py")
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)


@pytest.mark.parametrize("name", sorted([*make.CASES, *make.CLI_CASES]))
def test_case_writes_the_stored_text(name, tmp_path):
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    for key, text in make.run_case(name, tmp_path).items():
        expected = make.stored_text(name, key)
        if text == expected:
            continue
        got_lines, want_lines = text.splitlines(), expected.splitlines()
        line = next((n for n, (got, want) in enumerate(
            zip(got_lines, want_lines)) if got != want),
            min(len(got_lines), len(want_lines)))
        pytest.fail(
            f"{name} {key} differs from line {line + 2} (the stamp line is "
            f"line 1):\n  got:  {got_lines[line:line + 1]}\n  want: "
            f"{want_lines[line:line + 1]}\nThe corpus was written with "
            f"{recorded}; this run has {make.versions()}. Dot products go "
            f"through BLAS, which may round differently on another machine.")
