"""README's Library quick start, and the ``simulate``, ``aggregate``,
``summarize`` and ``bounds`` lines of its Command line block, run as written
(``experiment`` needs a config file, so it is left out)."""

import json
import re
import shlex
from pathlib import Path

from crowdbounds.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first ``language`` code block after README's ``## heading``."""
    text = README.read_text()
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S)[1]


def command_lines() -> list[list[str]]:
    """The arguments of each ``crowdbounds`` line of the Command line block,
    continuation lines joined and each optional ``[--flag ...]`` given."""
    block = code_block("Command line", "bash").replace("\\\n", " ")
    lines = re.findall(r"^crowdbounds (.*?)(?=\n\n|\n#|\n*\Z)", block,
                       re.S | re.M)
    return [shlex.split(re.sub(r"\[(--[^]]*)\]", r"\1", line))
            for line in lines]


def test_the_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(code_block("Library quick start", "python"), {})
    out = capsys.readouterr().out
    assert "IWMV error:" in out and "bound:" in out, out


def test_the_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [argv for argv in command_lines() if argv[0] != "experiment"]
    assert {argv[0] for argv in lines} == {"simulate", "aggregate",
                                           "summarize", "bounds"}
    for argv in lines:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
        json.loads(captured.out)
