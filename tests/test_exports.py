import importlib
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
