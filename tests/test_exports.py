import importlib
import pkgutil

import pytest

import pinchsec

MODULES = ["pinchsec"] + [f"pinchsec.{m.name}" for m in pkgutil.iter_modules(pinchsec.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate name in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
