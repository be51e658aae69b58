"""The benchmark's traced mode runs every CLI command to exit 0.

bench/tracer.py wraps lossywave's public functions and reads some of their
arguments by position, so a signature it does not expect fails the traced
benchmark.  The tracer is loaded from its file, without touching sys.path.
"""

import importlib.util
from pathlib import Path

import pytest

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
