"""Runs the passes of one workload plan in a fresh process and records what it measured.

run.py starts this file as its own process, so that the peak resident memory
it reports belongs to the workload alone and not to the checks.  Each
operation is one call of `lossywave.cli.main`, in process, one after the
other.  Passes repeat until the given seconds are spent.  The machine-speed
probe of probe.py runs at the start and end of every pass and between
operations once a second has passed since the last one; each operation is
scaled by the probes around it.  With tracing on, untraced and traced
passes alternate, so that both see the same machine state and the
difference of their medians is the tracing overhead.

Usage: python3 bench/worker.py PLAN.json RESULT.json SECONDS TRACE
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

from probe import probe_s, speed_factor

ROOT = Path(__file__).resolve().parents[1]
PROBE_EVERY_S = 1.0


def _digest(out):
    """sha256 over the names and bytes of every file an operation wrote, and their size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def run_pass(argvs, pass_dir, call, tracer=None):
    """Run every operation once; time each and give it the speed factor of the probes around it."""
    op_s, speed, codes, errors = [], [], [], []
    previous = probe_s()
    probes, pending, last = [previous], 0, perf_counter()
    for j, argv in enumerate(argvs):
        if pending and perf_counter() - last >= PROBE_EVERY_S:
            probes.append(probe_s())
            speed += [speed_factor(previous, probes[-1])] * pending
            previous, pending, last = probes[-1], 0, perf_counter()
        if tracer is not None:
            tracer.op = j
        err = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = call(argv + ["--out", str(pass_dir / str(j))])
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error in the CLI is a failed operation
            code = 1
            err.write(traceback.format_exc())
        op_s.append(perf_counter() - t0)
        pending += 1
        codes.append(code)
        errors.append(err.getvalue().strip())
    probes.append(probe_s())
    speed += [speed_factor(previous, probes[-1])] * pending
    digests = [_digest(pass_dir / str(j)) for j in range(len(argvs))]
    return {"op_s": op_s, "speed": speed, "probe_s": probes, "codes": codes, "errors": errors,
            "digests": [d for d, _ in digests], "bytes": sum(size for _, size in digests)}


def main(argv):
    plan_path, result_path, seconds, trace = Path(argv[0]), Path(argv[1]), float(argv[2]), argv[3] == "1"
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import lossywave.cli

    if not Path(lossywave.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"lossywave imported from {lossywave.cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    run_dir = plan_path.parent
    tracer = None
    spans = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        traced_call = tracer.wrap("cli.command", lossywave.cli.main)
    passes = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        pass_dir = run_dir / f"pass{len(passes)}"
        if traced:
            tracer.install()
            if spans is None:
                spans = tracer.spans = []
            record = run_pass(plan["ops"], pass_dir, traced_call, tracer)
            tracer.uninstall()
            tracer.spans = None
        else:
            record = run_pass(plan["ops"], pass_dir, lossywave.cli.main)
        record["traced"] = traced
        passes.append(record)
        if len(passes) > 1:  # the first pass stays for the output checks
            shutil.rmtree(pass_dir, ignore_errors=True)
        if perf_counter() - start >= seconds and len(passes) >= (2 if trace else 1):
            break
    result = {"passes": passes,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = {"calls": tracer.calls, "inclusive": tracer.inclusive,
                           "self_s": tracer.self_s, "counters": tracer.counters}
        with open(run_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "span_id", "parent_id", "op"],
                       "spans": spans}, fh)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
