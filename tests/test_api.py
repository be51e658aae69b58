"""The package namespace re-exports exactly the public names of its modules."""

import ast
import importlib
from pathlib import Path

import pytest

import lossywave

INIT = Path(lossywave.__file__)


def _reexports():
    """module name -> names `lossywave/__init__.py` imports from it."""
    found = {}
    for node in ast.parse(INIT.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return found


REEXPORTS = _reexports()


def test_every_module_with_public_names_is_reexported():
    stems = [path.stem for path in INIT.parent.glob("*.py") if not path.stem.startswith("__")]
    modules = {stem for stem in stems
               if "__all__" in vars(importlib.import_module(f"lossywave.{stem}"))}
    assert modules == set(REEXPORTS)


@pytest.mark.parametrize("module", sorted(REEXPORTS))
def test_all_equals_the_reexported_names(module):
    names = importlib.import_module(f"lossywave.{module}").__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(REEXPORTS[module])
    for name in names:
        assert getattr(lossywave, name) is getattr(importlib.import_module(f"lossywave.{module}"),
                                                   name)
