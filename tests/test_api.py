import importlib
import pkgutil

import pytest

import fbmcber

MODULES = sorted(info.name for info in pkgutil.iter_modules(fbmcber.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fbmcber.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing


def test_modules_are_found():
    assert {"analytic", "modem", "simulate"} <= set(MODULES)
