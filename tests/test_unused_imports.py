"""Guards over the package's own source and its tests.

* Every name a package module or a test file imports at top level is read
  by it.  `__init__.py` re-exports what it imports, and `from __future__`
  imports are compiler directives, so neither is checked.  A fixture
  imported into a test file would read as unused there: fixtures belong in
  `conftest.py`, which pytest loads without an import.
* Every UPPER_CASE module-level name of the package is read somewhere in
  the package or the tests.
* No function or method takes a `with_decomposition` switch, and only
  `FieldElement.embed` takes a `precision`: the solvers only enumerate, and
  every command certifies at `DEFAULT_PRECISION`."""

import ast
import importlib
import inspect
import pathlib

import pytest

import cubicthue

PACKAGE = pathlib.Path(cubicthue.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = pathlib.Path(__file__).parent


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


@pytest.mark.parametrize("path", [*MODULES, *sorted(TESTS.glob("*.py"))],
                         ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    assert unused_imports("import math\nfrom x import a, b as c\nc()\n") == [
        "math", "a"]
    assert unused_imports("import os.path\nos.path.join\n") == []


def module_constants(source: str) -> list[str]:
    """The UPPER_CASE names a module assigns at top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.isupper()]


def names_read(source: str) -> set[str]:
    """Names and attribute names that a source loads."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            read.add(node.attr)
    return read


def test_every_module_constant_is_read():
    read = set()
    for path in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]:
        read |= names_read(path.read_text(encoding="utf-8"))
    unread = [f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
              for name in module_constants(path.read_text(encoding="utf-8"))
              if name not in read]
    assert unread == []


def test_guard_sees_an_unread_constant():
    source = "A = 1\nb = 2\nC: int = 3\nD = A\nprint(x.E)\n"
    assert module_constants(source) == ["A", "C", "D"]
    assert names_read(source) == {"int", "A", "print", "x", "E"}


def parameters(module):
    """(qualified name, parameter names) of every function and method that
    `module` defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, inspect.signature(obj).parameters
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    member = member.fget
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield (f"{name}.{attr}",
                           inspect.signature(member).parameters)


def test_no_decomposition_switch_or_precision_parameter():
    found = []
    for path in MODULES:
        module = importlib.import_module(f"cubicthue.{path.stem}")
        for qualname, params in parameters(module):
            found += [(f"{path.stem}.{qualname}", p)
                      for p in ("with_decomposition", "precision")
                      if p in params]
    assert found == [("cubicfield.FieldElement.embed", "precision")]
