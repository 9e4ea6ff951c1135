"""The library is exact and stdlib-only: no float literal appears in its
source, and every absolute import names a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

import surfmoduli

MODULES = sorted(Path(surfmoduli.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_literal(path):
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    ]
    assert found == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    names = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
