"""Layers import only downward.

Each module of the package sits at one place in LAYERS, lowest first, and may
import only the modules below it.  The package `__init__` re-exports the
public API and so sits above every layer; `from . import __version__` reads
the package metadata and is exempt.
"""

import ast
from pathlib import Path

import pytest

LAYERS = ("rationals", "intervals", "folding", "piecewise", "construction",
          "numeric", "roots", "sequences", "trace", "quadrature",
          "verification", "frametest", "serialize", "cli")

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "framesmith"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def relative_imports(module: str):
    """(line, imported module) for every relative import of the module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        if node.module:
            yield node.lineno, node.module.split(".")[0]
        else:
            for alias in node.names:
                if alias.name != "__version__":
                    yield node.lineno, alias.name


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_down(module):
    rank = LAYERS.index(module)
    upward = [(line, target) for line, target in relative_imports(module)
              if target not in LAYERS or LAYERS.index(target) >= rank]
    assert not upward, f"{module} imports at or above its layer: {upward}"


def test_verification_needs_no_quadrature():
    targets = {target for _, target in relative_imports("verification")}
    assert not targets & {"frametest", "quadrature"}
