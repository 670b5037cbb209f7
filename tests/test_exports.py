"""Every name the package exports resolves: each module's ``__all__`` and
the names ``contcount/__init__.py`` imports.  A stale export (a name left in
``__all__`` after its definition went) fails here.  So does a change of
signature that breaks a call the benchmark's worker makes."""

import ast
import importlib
import inspect
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


def _package_calls(path):
    """(module, name, positional count, keyword names) of every
    ``contcount.<module>.<name>(...)`` call in the file at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "contcount"
        ):
            yield func.value.attr, func.attr, node.args, node.keywords


def test_benchmark_calls_bind_to_the_package_api():
    # the benchmark's worker is read as text, never imported: each package
    # call it makes must name a function that exists and accepts its arguments
    calls = list(_package_calls(Path(__file__).parents[1] / "perfbench" / "worker.py"))
    assert len(calls) >= 5
    for module_name, name, args, keywords in calls:
        module = importlib.import_module(f"contcount.{module_name}")
        assert hasattr(module, name), (module_name, name)
        assert not any(isinstance(a, ast.Starred) for a in args), (module_name, name)
        assert all(k.arg is not None for k in keywords), (module_name, name)
        signature = inspect.signature(getattr(module, name))
        signature.bind(*[None] * len(args), **{k.arg: None for k in keywords})
