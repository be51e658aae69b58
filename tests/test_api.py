"""The package namespace re-exports exactly the public names of its modules."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import lossywave

INIT = Path(lossywave.__file__)
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_library_tour_runs():
    # a removed or renamed public name fails here instead of leaving README stale
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert tour is not None, "README has no python block under '## Library tour'"
    exec(compile(tour.group(1), f"{README}:library tour", "exec"), {})
