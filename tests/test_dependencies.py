"""The only runtime dependency of the package is numpy: every module under
``src/harmclass`` imports only numpy, ``__future__``, the standard library
and its own modules."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "harmclass").glob("*.py"))
ALLOWED = {"numpy", "__future__"} | set(sys.stdlib_module_names)


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "numerics.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_numpy_and_the_standard_library(path):
    assert set(_imported_roots(path)) <= ALLOWED
