"""Every exported name of the package and of each module resolves."""

import importlib
import pkgutil

import pytest

import tllab

MODULES = sorted(
    f"tllab.{info.name}" for info in pkgutil.iter_modules(tllab.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", ["tllab"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which do not resolve"
