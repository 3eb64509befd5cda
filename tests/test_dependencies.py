"""The runtime depends on numpy and the standard library only, the command
line imports no sampler and loads no process-pool machinery, and the
sources keep their layout and their docstring references sound."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "crowdbounds").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
MODULES = [importlib.import_module("crowdbounds" if path.stem == "__init__"
                                   else f"crowdbounds.{path.stem}")
           for path in SOURCES]


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


def test_modules_use_every_name_they_import():
    """Every name a module binds with a top-level ``import`` or ``from ...
    import`` is used in it; ``__init__.py`` re-exports its imports and is
    left out."""
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        used |= {node.value.id for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)}
        imported.pop("annotations", None)  # from __future__ import annotations
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_every_open_names_its_encoding_or_is_binary():
    """Each ``open(...)`` in the sources passes ``encoding=`` or opens in a
    binary mode, so no file's text depends on the locale."""
    unnamed = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            keywords = {keyword.arg: keyword.value for keyword in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            binary = isinstance(mode, ast.Constant) and "b" in mode.value
            if "encoding" not in keywords and not binary:
                unnamed.append(f"{path.name}:{node.lineno}")
    assert not unnamed, unnamed


def test_the_cli_draws_through_the_harness_only():
    """``simulate`` draws through the harness's one hds-sweep trial, so the
    command line imports none of the samplers or their config."""
    path = SRC / "crowdbounds" / "cli.py"
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    drawing = {"simulate_dataset", "sample_workers_beta", "SimConfig"}
    assert not imported & drawing, imported & drawing


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


def _resolves(module, role: str, target: str) -> bool:
    """Whether ``target`` names something from ``module``: a name of it or
    of another crowdbounds module, then its attributes (``Class.method``),
    a standard-library name such as ``csv.writer``, or for a bare
    ``:meth:`` a method of one of the module's classes."""
    head, *rest = target.split(".")
    owners = [module, *MODULES]
    if role == "meth" and not rest:
        owners += [value for value in vars(module).values()
                   if inspect.isclass(value)]
    found = [getattr(owner, head) for owner in owners if hasattr(owner, head)]
    if not found and head in sys.stdlib_module_names:
        found = [importlib.import_module(head)]
    for name in rest:
        found = [getattr(obj, name) for obj in found if hasattr(obj, name)]
    return bool(found)


def test_docstring_references_resolve():
    """Every ``:func:``, ``:data:``, ``:meth:`` and ``:class:`` reference
    in the sources is one backquoted name, and that name exists, so a
    renamed or deleted definition cannot leave a stale reference behind."""
    broken = []
    for path, module in zip(SOURCES, MODULES):
        text = path.read_text()
        for match in re.finditer(r":(func|data|meth|class):(`~?([\w.]+)`)?",
                                 text):
            role, _, target = match.groups()
            if target is None or not _resolves(module, role, target):
                line = text.count("\n", 0, match.start()) + 1
                broken.append(f"{path.name}:{line} {match[0]}")
    assert not broken, broken
