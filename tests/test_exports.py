"""Every exported name resolves, and no export list repeats a name."""

import importlib
import pkgutil

import pytest

import fracfocus

MODULES = ["fracfocus"] + [
    f"fracfocus.{info.name}"
    for info in pkgutil.iter_modules(fracfocus.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
