"""Every name in each paritylab module's `__all__` resolves.

A deleted function or class whose name stays listed would otherwise
surface only on `from paritylab.<module> import *`.
"""

import importlib
import pkgutil

import pytest

import paritylab

MODULES = sorted(f"paritylab.{info.name}" for info in pkgutil.iter_modules(paritylab.__path__))


def test_modules_are_scanned():
    assert {"paritylab.collector", "paritylab.deletion", "paritylab.parity"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ lists {missing}"
