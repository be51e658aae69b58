"""The benchmark's traced mode runs every CLI command to exit 0.

bench/tracer.py wraps lossywave's public functions and reads some of their
arguments by position, so a signature it does not expect fails the traced
benchmark, and bench/run.py's setup code calls two public names.  The tracer
is loaded from its file, without touching sys.path.
"""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import lossywave
from lossywave import cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("lossywave_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [
    ["table1"], ["table2"], ["fig1"], ["fig3"], ["bounds", "--r-list", "1"],
    ["pulse", "--samples", "1024"], ["causality", "--samples", "1024"],
], ids=lambda argv: argv[0])
def test_traced_command_exits_zero(tracer_module, tmp_path, argv):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = cli.main([*argv, "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0


# every function the tracer hooks with an argument reader, and the (index, name) of the
# argument that the hook reads by position; None where any name will do
POSITIONS = {
    ("laws", "eval_alpha"): (1, "omega"),
    ("laws", "alpha_difference"): (2, "omega"),
    ("numerics", "integrate_decaying"): (0, None),
    ("numerics", "bisect_root"): (0, None),
    ("numerics", "scan_max"): (0, None),
    ("spectrum", "spectral_l2_norm"): None,  # reads the tracer's stack only
    ("spectrum", "sample_green_spectrum"): (2, "grid"),
    ("bounds", "deviation_factor"): (3, "omega"),
    ("timedomain", "synthesize_time_signal"): (0, "spec"),
    ("timedomain", "write_signal_csv"): (0, None),
}


def test_every_positional_hook_finds_its_argument(tracer_module):
    # a hooked function that exists keeps the argument its hook reads at that position;
    # one the package no longer has is skipped by the tracer and reports zeros
    hooked = {(module, name) for module, functions in tracer_module.TRACED.items()
              for name, hook in functions.items() if hook is not None}
    assert hooked == set(POSITIONS)
    present = []
    for (module, name), position in POSITIONS.items():
        function = getattr(importlib.import_module(f"lossywave.{module}"), name, None)
        if function is None or position is None:
            continue
        index, want = position
        params = list(inspect.signature(function).parameters)
        assert index < len(params), (module, name, params)
        assert want is None or params[index] == want, (module, name, params)
        present.append(name)
    assert {"eval_alpha", "sample_green_spectrum", "synthesize_time_signal"} <= set(present)


def test_bounds_binds_no_deviation_factor():
    # the tracer hooks `bounds.deviation_factor` at index 3; the function takes three
    # arguments, so a binding of it in `bounds` would fail every traced `bounds`
    from lossywave import bounds

    assert not hasattr(bounds, "deviation_factor")


def test_the_setup_code_runs():
    # bench/run.py times a fresh interpreter that imports lossywave, loads the preset and
    # evaluates the law once, through the names `lossywave.load_preset` and `eval_alpha`
    assert {"load_preset", "eval_alpha"} <= set(lossywave.laws.__all__)
    tree = ast.parse((TRACER.parent / "run.py").read_text(encoding="utf-8"))
    code, = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
             and any(getattr(target, "id", None) == "SETUP_CODE" for target in node.targets)]
    src = Path(lossywave.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
