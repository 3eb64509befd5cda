"""The runtime depends on numpy and the standard library only, and importing
the command line loads no process-pool machinery."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "crowdbounds").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_sources_import_only_numpy_and_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not outside, outside


def test_importing_the_cli_loads_no_process_pool():
    """The experiment runner imports its pool only when it forks workers, so
    every other command starts without paying for it."""
    code = ("import sys, crowdbounds.cli; print(sorted({'multiprocessing', "
            "'concurrent.futures'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_top_level_definitions_follow_two_blank_lines():
    """PEP 8 (E302, E303): exactly two blank lines before every top-level
    ``def`` and ``class``, counting its decorators and the comment lines
    right above it as part of the definition."""
    crowded = []
    for path in SOURCES:
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.parse(text, str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list]) - 1
            while first and lines[first - 1].lstrip().startswith("#"):
                first -= 1
            if not first:
                continue
            blank = 0
            while blank < first and not lines[first - 1 - blank].strip():
                blank += 1
            if blank != 2:
                crowded.append(f"{path.name}:{first + 1} has {blank} blank "
                               f"lines before it")
    assert not crowded, crowded
