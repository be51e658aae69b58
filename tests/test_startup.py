"""A process runs only the lossywave modules its work reads.

Each entry point runs in a fresh interpreter, which then lists the
lossywave modules whose code has run.  The package registers each module
of its export map in `sys.modules` as a lazy module, a subclass of
`types.ModuleType` whose code runs on the first read of a name it does not
hold yet, so a module counts as loaded once its type is `types.ModuleType`
itself.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lossywave

SRC = Path(lossywave.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"
LOADED = ("import sys, types; print(' '.join(sorted(name.partition('.')[2] for name, module "
          "in sys.modules.items() if name.startswith('lossywave.') "
          "and type(module) is types.ModuleType)))")


def _setup_code():
    """bench/run.py's SETUP_CODE: import lossywave, load the preset, evaluate the law once."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    code, = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
             and any(getattr(target, "id", None) == "SETUP_CODE" for target in node.targets)]
    return code


def _run(code, *argv):
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{LOADED}", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _command(*argv):
    return f"import lossywave.cli; assert lossywave.cli.main([*{list(argv)!r}, *sys.argv[1:]]) == 0"


COMMAND = ["cli", "laws", "numerics", "tables"]
ENTRY_POINTS = {
    "import": ("import lossywave", []),
    "table1": (_command("table1"), COMMAND),
    "fig1": (_command("fig1"), COMMAND),
    "fig2": (_command("fig2"), COMMAND),
    "table2": (_command("table2"), [*COMMAND, "spectrum"]),
    "fig3": (_command("fig3"), [*COMMAND, "spectrum"]),
    "bounds": (_command("bounds"), [*COMMAND, "spectrum", "bounds"]),
    "pulse": (_command("pulse", "--samples", "1024"), [*COMMAND, "spectrum", "timedomain"]),
    "causality": (_command("causality", "--samples", "1024"),
                  [*COMMAND, "spectrum", "timedomain"]),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_an_entry_point_loads_the_modules_it_runs(tmp_path, entry):
    code, modules = ENTRY_POINTS[entry]
    argv = [] if entry == "import" else ["--out", str(tmp_path)]
    assert _run(code, *argv) == sorted(modules)


def test_the_benchmark_setup_loads_laws_and_numerics():
    assert _run(_setup_code(), str(SRC)) == ["laws", "numerics"]


def test_every_public_name_is_listed_and_bound():
    assert set(lossywave.__all__) <= set(dir(lossywave))
    namespace = {}
    exec("from lossywave import *", namespace)
    assert [name for name in lossywave.__all__ if name not in namespace] == []
    for name in lossywave.__all__:
        home = sys.modules[f"lossywave.{lossywave._HOME[name]}"]
        assert namespace[name] is getattr(home, name)


def test_the_tracer_installs_after_a_command_that_leaves_modules_unloaded(tmp_path):
    # bench/tracer.py looks every module it hooks up in sys.modules, after an untraced pass
    # that, in a one-command workload, read none of spectrum, bounds and timedomain
    code = ("import importlib.util\n"
            "spec = importlib.util.spec_from_file_location('tracer', sys.argv[2])\n"
            "tracer = importlib.util.module_from_spec(spec); spec.loader.exec_module(tracer)\n"
            "import lossywave.cli\n"
            "assert lossywave.cli.main(['table1', '--out', sys.argv[1]]) == 0\n"
            "t = tracer.Tracer(); t.install()\n"
            "assert lossywave.cli.main(['table1', '--out', sys.argv[1]]) == 0\n"
            "t.uninstall()\n"
            "assert t.calls['laws.small_frequency_bound'] == 3, dict(t.calls)")
    _run(code, str(tmp_path), str(BENCH / "tracer.py"))


def test_threads_that_first_read_a_module_together_wait_for_it():
    # eight threads read `bounds` at once, its first read; each gets the whole module
    code = ("import threading\n"
            "sys.setswitchinterval(1e-6)\n"
            "import lossywave\n"
            "start, got = threading.Barrier(8), []\n"
            "def read():\n"
            "    start.wait()\n"
            "    from lossywave.bounds import model_error_reports, verify_envelope\n"
            "    got.append((model_error_reports, verify_envelope))\n"
            "threads = [threading.Thread(target=read) for _ in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(60)\n"
            "assert not any(t.is_alive() for t in threads)\n"
            "assert len(got) == 8 and len(set(got)) == 1, got")
    assert _run(code) == ["bounds", "laws", "numerics", "spectrum"]
