"""Layers import only downward.

Each module of the package sits at one place in LAYERS, lowest first, and may
import only the modules below it.  The package `__init__` re-exports the
public API and so sits above every layer; `from . import __version__` reads
the package metadata and is exempt.
"""

import ast
import os
import subprocess
import sys
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


def test_cli_loads_numpy_only_for_frame_test():
    """Only the frame test's quadrature needs numpy: a fresh interpreter that
    imports the CLI has not loaded it, and `frametest` still imports."""
    code = ("import sys, framesmith.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded by framesmith.cli'\n"
            "import framesmith.frametest\n"
            "assert 'numpy' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
