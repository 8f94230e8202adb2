"""The docstring examples of every ``distnav`` module run as written."""

import doctest
import importlib

import pytest

MODULES = ["bounds", "cli", "gcring", "knowledge", "measures", "navplan", "presentations"]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(f"distnav.{name}"))
    assert result.failed == 0
