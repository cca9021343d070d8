"""Every public name resolves: the package's lazy table and each module's __all__."""

import importlib

import pytest

import eigencount

MODULES = ["qpoly", "counting", "bounds", "oracle", "reference"]


def test_package_names_resolve_through_the_lazy_table():
    for name in eigencount.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"eigencount.{eigencount._EXPORTS[name]}")
        assert eigencount.__getattr__(name) is getattr(module, name), name


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"eigencount.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"eigencount.{name}.__all__ names {missing}"
    exec(f"from eigencount.{name} import *", {})
