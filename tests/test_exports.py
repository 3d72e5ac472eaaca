"""The package's export lists name each public entry once, and only names
that exist."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["dicke_squeeze", "dicke_squeeze.ed"])
def test_export_list_resolves_without_duplicates(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(mod.__all__)
