"""Every exported name resolves: a name listed in ``__all__`` that the
module no longer defines fails here rather than at a user's import."""

import importlib
import pkgutil

import pytest

import mechrom

MODULES = ["mechrom"] + [
    f"mechrom.{info.name}" for info in pkgutil.iter_modules(mechrom.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_defined(name):
    module = importlib.import_module(name)
    exports = module.__all__
    assert len(set(exports)) == len(exports), f"{name}.__all__ repeats a name"
    missing = [export for export in exports if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
