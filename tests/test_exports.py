"""Every name the package exports resolves: each module's ``__all__`` and
the names ``contcount/__init__.py`` imports.  A stale export (a name left in
``__all__`` after its definition went) fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import contcount

MODULES = sorted(info.name for info in pkgutil.iter_modules(contcount.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"contcount.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_resolve_and_are_public():
    tree = ast.parse(Path(contcount.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"contcount.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(contcount, alias.asname or alias.name) is getattr(module, alias.name)
