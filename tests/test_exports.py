import ast
import importlib
import inspect
import pkgutil

import pytest

import frontdescent

MODULES = ["frontdescent"] + [
    f"frontdescent.{name}"
    for name in (
        "cli", "directions", "driver", "front", "hypervolume",
        "linesearch", "metrics", "model", "suite",
    )
]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    # a stale name in __all__ makes `from module import *` raise
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_submodule_exports_are_covered():
    # the list above names every submodule that ships
    shipped = {f"frontdescent.{m.name}" for m in pkgutil.iter_modules(frontdescent.__path__)}
    assert shipped <= set(MODULES)


def test_package_exports_every_imported_name():
    # a name the package imports from a submodule but leaves out of __all__
    # is missing from `from frontdescent import *`
    tree = ast.parse(inspect.getsource(frontdescent))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imported - set(frontdescent.__all__) == set()
