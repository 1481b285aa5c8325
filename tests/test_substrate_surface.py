"""Guard against substrate regrowth.

Each framework substrate exports only what some other part of ``repro``
runs: every name in its ``__all__`` must be referenced somewhere in
``src/repro`` outside the substrate's own package.  A name used only
inside its package stays importable from its module but leaves
``__all__``; a name used only by tests does not exist.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
SUBSTRATES = ["semiring", "worklist", "graphitc"]


def names_referenced_outside(package: str) -> set[str]:
    """Every identifier and attribute name in ``src/repro`` outside ``package``."""
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path.relative_to(SRC).parts[0] == package:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


@pytest.mark.parametrize("package", SUBSTRATES)
def test_every_exported_name_has_a_caller(package):
    module = importlib.import_module(f"repro.{package}")
    used = names_referenced_outside(package)
    unused = sorted(set(module.__all__) - used)
    assert not unused, f"repro.{package} exports names nothing outside it uses: {unused}"


def test_ranges_package_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.ranges")
