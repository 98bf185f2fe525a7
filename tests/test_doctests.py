import doctest
import importlib
import pkgutil

import pytest

import almostdirect

MODULES = ["almostdirect"] + sorted(
    "almostdirect." + info.name
    for info in pkgutil.iter_modules(almostdirect.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0

