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
