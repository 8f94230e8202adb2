"""The docstring examples of every ``distnav`` module run as written."""

import doctest
import importlib
import pkgutil

import pytest

import distnav

MODULES = sorted(info.name for info in pkgutil.iter_modules(distnav.__path__))


def test_every_module_is_found():
    assert {"bounds", "cli", "gcring", "knowledge", "measures", "navplan", "presentations"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(f"distnav.{name}"))
    assert result.failed == 0
