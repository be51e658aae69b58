"""The package namespace re-exports exactly the public names of its modules.

Those names are what the commands run: each quantity has one batched stage,
which takes a sequence of distances and returns one result per distance,
and no function of the package is its one-element call.
"""

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


SRC = INIT.parent
# the batched stages: each takes a sequence of distances (or their profiles, intervals or
# searches) and returns one result per element
STAGES = {"integrate_intervals", "_kronrod_groups", "_run_together", "_tail_widths",
          "_energy_passes", "_log_energies", "energy_profiles", "energies_at", "band_edges",
          "log10_truncation_errors", "relative_model_errors", "model_error_reports",
          "_certified_maxima"}
# the one-element wrappers of the stages, and code that only tests use
GONE = ["integrate_decaying", "gauss_kronrod", "_tail_width", "_energy_pass", "_log_energy",
        "energy_profile", "log10_relative_truncation_error", "relative_model_error",
        "model_error_report", "helmholtz_radial_residual", "alpha1_from_a1"]


def _called_name(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def one_element_wrappers(source):
    """Names of the functions in `source` whose whole body returns one element of a stage."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # the docstring
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        value = body[0].value
        if isinstance(value, ast.Subscript):
            value = value.value
        if isinstance(value, ast.Call) and _called_name(value) in STAGES:
            found.append(node.name)
    return found


def test_finds_a_one_element_wrapper():
    source = ("def energy_profile(law, r, hi=None):\n"
              "    '''One profile.'''\n"
              "    return energy_profiles(law, [r], hi)[0]\n"
              "class P:\n"
              "    def at(self, m):\n"
              "        return spectrum.energies_at([self], m)[0]\n"
              "def cmd(args):\n"
              "    profile, = energy_profiles(args.law, [args.r])\n"
              "    return profile.norm\n")
    assert one_element_wrappers(source) == ["energy_profile", "at"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_is_a_one_element_call_of_a_stage(path):
    assert one_element_wrappers(path.read_text(encoding="utf-8")) == []


def test_cli_imports_no_private_name():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []


def test_the_wrappers_and_test_only_code_are_gone():
    defined = {node.name for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    exported = {name for module in REEXPORTS
                for name in importlib.import_module(f"lossywave.{module}").__all__}
    assert sorted(set(GONE) & (defined | exported | set(vars(lossywave)))) == []
    assert not hasattr(lossywave.EnergyProfile, "at")
    assert not hasattr(lossywave.EnergyProfile, "band_edge")
    assert not hasattr(lossywave.RealSignal, "l2_norm")
