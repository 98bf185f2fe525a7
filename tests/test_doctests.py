import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import almostdirect

MODULES = ["almostdirect"] + sorted(
    "almostdirect." + info.name
    for info in pkgutil.iter_modules(almostdirect.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.failed == 0
    # examples that stop being collected must not pass as 0 failed
    if ">>>" in Path(module.__file__).read_text():
        assert result.attempted > 0



def test_every_name_in_all_resolves():
    # the package imports its names explicitly, so a dangling __all__ entry
    # would go unnoticed without this
    dangling = []
    exported = 0
    for name in MODULES:
        module = importlib.import_module(name)
        names = getattr(module, "__all__", ())
        exported += len(names)
        dangling += [name + "." + n for n in names if not hasattr(module, n)]
    assert exported > 0
    assert dangling == []
