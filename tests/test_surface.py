"""The public surface is consistent: every exported name resolves and is
exported by the module that defines it."""

import importlib
import pkgutil

import pytest

import walkbound

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(walkbound.__path__) if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"walkbound.{name}")
    assert hasattr(module, "__all__"), f"walkbound.{name} has no __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_all_names_resolve():
    assert [attr for attr in walkbound.__all__ if not hasattr(walkbound, attr)] == []


def test_package_exports_are_exported_by_their_modules():
    unlisted = []
    for attr in walkbound.__all__:
        obj = getattr(walkbound, attr)
        module = importlib.import_module(obj.__module__)
        if attr not in getattr(module, "__all__", ()):
            unlisted.append(f"{obj.__module__}.{attr}")
    assert unlisted == []


def test_package_imports_are_exported():
    # every public function or class the package binds from its modules
    bound = {
        attr
        for attr, obj in vars(walkbound).items()
        if not attr.startswith("_")
        and getattr(obj, "__module__", "").startswith("walkbound.")
    }
    assert sorted(bound - set(walkbound.__all__)) == []
