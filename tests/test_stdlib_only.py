import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "almostdirect"
# the oracles of the tests keep to the imports of the package they check
SOURCES = sorted(PACKAGE.glob("*.py")) + [Path(__file__).parent / "oracles.py"]
ALLOWED = sys.stdlib_module_names | {PACKAGE.name}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [n for n in names if n.split(".")[0] not in ALLOWED]
    assert outside == []
