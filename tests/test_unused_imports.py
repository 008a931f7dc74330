"""Every name a package module imports at top level is read by it.

`__init__.py` re-exports what it imports, and `from __future__` imports
are compiler directives, so neither is checked."""

import ast
import pathlib

import pytest

import cubicthue

MODULES = sorted(p for p in pathlib.Path(cubicthue.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    assert unused_imports("import math\nfrom x import a, b as c\nc()\n") == [
        "math", "a"]
    assert unused_imports("import os.path\nos.path.join\n") == []
