"""Every name a lossywave module imports is read somewhere in that module.

No linter is part of the toolchain, so leftover imports are found with the
standard library's `ast`: an imported name that no `Name` node loads, and
that `__all__` does not export, fails.  The package `__init__` is exempt:
its imports are the public names it re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lossywave"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports of `source` that the module never loads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - loaded - exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from typing import Optional\n"
              "import numpy as np\n"
              "from .laws import eval_alpha, load_preset\n"
              "__all__ = ['load_preset']\n"
              "x: np.ndarray = math.pi\n")
    assert unused_imports(source) == ["Optional", "eval_alpha"]
