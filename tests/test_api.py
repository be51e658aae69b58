"""The package namespace re-exports exactly the public names of its modules.

Those names are what the commands run: each quantity has one batched stage,
which takes a sequence of distances and returns one result per distance,
and no function of the package is its one-element call.  Every public
function is run by some command, but for three named exceptions, and the
underscore names one module imports from another may shrink, never grow.
"""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import lossywave
from lossywave import cli

INIT = Path(lossywave.__file__)
README = Path(__file__).resolve().parents[1] / "README.md"


# module name -> the names the package exports from it, which it resolves on first access
REEXPORTS = lossywave._EXPORTS


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
        "model_error_report", "helmholtz_radial_residual", "alpha1_from_a1",
        "causality_energy_fraction"]


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


# the public functions that no command runs: the benchmark's setup calls eval_alpha and
# its tracer hooks synthesize_time_signal, and green_hat is the oracle of chunked sampling
FUNCTIONS_NOT_RUN = {"eval_alpha", "synthesize_time_signal", "green_hat"}
COMMANDS = [["table1"], ["table2"], ["fig1"], ["fig2"], ["fig3"], ["bounds"],
            ["pulse", "--samples", "1024"], ["causality", "--samples", "1024"]]


def test_every_public_function_is_run_by_a_command(tmp_path, monkeypatch):
    functions = {}  # name -> function, of every module's __all__
    for module in REEXPORTS:
        home = importlib.import_module(f"lossywave.{module}")
        functions.update((name, getattr(home, name)) for name in home.__all__
                         if inspect.isfunction(getattr(home, name)))
    modules = [module for key, module in sys.modules.items()
               if module is not None and (key == "lossywave" or key.startswith("lossywave."))]
    called = set()
    for name, original in functions.items():
        def counted(*args, _name=name, _original=original, **kwargs):
            called.add(_name)
            return _original(*args, **kwargs)

        for module in modules:  # every module that binds it
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    for argv in COMMANDS:
        assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == 0
    assert set(functions) - called == FUNCTIONS_NOT_RUN


def test_readme_names_the_public_functions_no_command_runs():
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"[^.]*stays? public although no command calls[^.]*\.", text)
    assert sentence is not None, "README names no public function that no command runs"
    assert set(re.findall(r"`(\w+)`", sentence.group(0))) == FUNCTIONS_NOT_RUN


# the underscore names one module imports from another, by importing module; a name
# leaves this list once its importer no longer needs it, and none joins it
PRIVATE_IMPORTS = {
    "spectrum": {"laws._alpha_difference", "laws._attenuation_and_difference",
                 "numerics._kronrod_groups", "numerics._run_together"},
    "bounds": {"laws._reduced", "laws._scaled", "spectrum._check_distance",
               "spectrum._deviation", "spectrum._one_law"},
    "timedomain": {"spectrum._from_polar", "spectrum._green_polar", "spectrum._node_chunks"},
}


def private_imports(source):
    """{"module._name"} for every underscore name `source` imports from a package module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("lossywave."):
            module = node.module[len("lossywave."):]
        else:
            continue
        found.update(f"{module}.{alias.name}" for alias in node.names
                     if alias.name.startswith("_") and not alias.name.startswith("__"))
    return found


def test_finds_a_private_import():
    source = ("from . import __version__\n"
              "from .laws import _reduced, alpha_parts\n"
              "from numpy import _core\n"
              "def f():\n"
              "    from lossywave.spectrum import _deviation\n")
    assert private_imports(source) == {"laws._reduced", "spectrum._deviation"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_imports_stay_within_the_allowlist(path):
    found = private_imports(path.read_text(encoding="utf-8"))
    assert sorted(found - PRIVATE_IMPORTS.get(path.stem, set())) == []
