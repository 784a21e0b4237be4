"""The package declares requires-python >= 3.10: every source, test and demo
file must parse with the Python 3.10 grammar, whatever interpreter runs the
tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py"))


def test_sources_found():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "demos"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
