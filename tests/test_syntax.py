"""The package declares requires-python >= 3.10: every source, test and demo
file must parse with the Python 3.10 grammar, and use no standard-library
name that Python 3.10 lacks, whatever interpreter runs the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py"))

# standard-library names added after Python 3.10: (module, name) pairs,
# whole modules, builtins and exception methods
NEWER = {("contextlib", "chdir"), ("typing", "Self"), ("datetime", "UTC"), ("enum", "StrEnum"),
         ("hashlib", "file_digest"), ("asyncio", "TaskGroup")}
NEWER_MODULES = {"tomllib"}
NEWER_BUILTINS = {"ExceptionGroup"}
NEWER_METHODS = {"add_note"}


def newer_names(source: str) -> list[str]:
    """The names in `source` that the Python 3.10 standard library lacks,
    each as it is read: `module.name`, a module, a builtin or a method.  A
    module attribute is resolved through the imports' aliases."""
    tree = ast.parse(source)
    modules = {}  # local name -> module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
                if alias.name.split(".")[0] in NEWER_MODULES:
                    found.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in NEWER_MODULES:
                found.append(node.module)
            found += [f"{node.module}.{a.name}" for a in node.names if (node.module, a.name) in NEWER]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = modules.get(node.value.id) if isinstance(node.value, ast.Name) else None
            if (module, node.attr) in NEWER:
                found.append(f"{module}.{node.attr}")
            elif node.attr in NEWER_METHODS:
                found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            found.append(node.id)
    return found


def test_sources_found():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "demos"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_uses_no_stdlib_name_newer_than_3_10(path):
    assert newer_names(path.read_text(encoding="utf-8")) == []


def test_the_scan_flags_newer_names():
    assert newer_names("import contextlib\nwith contextlib.chdir('d'):\n    pass\n") == ["contextlib.chdir"]
    assert newer_names("import contextlib as cl\ncl.chdir('d')\n") == ["contextlib.chdir"]
    assert newer_names("from contextlib import chdir, suppress\n") == ["contextlib.chdir"]
    assert newer_names("import tomllib\nfrom typing import Self\n") == ["tomllib", "typing.Self"]
    assert newer_names("try:\n    pass\nexcept ValueError as e:\n    e.add_note('x')\n    raise ExceptionGroup('g', [e])\n") \
        == ["add_note", "ExceptionGroup"]
    # the same attribute names on other objects, and a 3.10 name of the same module
    assert newer_names("import contextlib\nos.chdir('d')\ncontextlib.suppress(OSError)\n") == []
