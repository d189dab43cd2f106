import importlib
import pkgutil

import pytest

import ebmkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(ebmkit.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ebmkit.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"ebmkit.{name}.__all__ lists undefined {missing}"
