"""lossywave benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {bounds-sweep,time-domain,media-sweep,all}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  One workload runs in a fresh worker process
(bench/worker.py) that calls `lossywave.cli.main` in process, one operation
at a time: a closed loop with a single caller.  Passes over the workload's
operations repeat for S seconds.  Pass and operation times are scaled to a
reference machine speed by the probe of bench/probe.py, which the worker
times between operations; setup time is not.  Afterwards the first pass's
artifacts are checked against bench/reference.py and every later pass
against the first byte for byte.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  Run results and trace spans go to .bench_out/ in the
repository root.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import lossywave; "
              "m = lossywave.load_preset('castor-oil'); lossywave.eval_alpha(m.causal, 1.0)")

# <span>.calls, <span>.s (inclusive) and <span>.self_s read the span totals,
# <span>.<x>_per_call a counter per call, anything else a counter of the tracer
PER_LAYER = (
    "laws.eval_alpha.calls", "laws.eval_alpha.scalar_calls", "laws.eval_alpha.samples",
    "laws.eval_alpha.samples_per_call", "laws.eval_alpha.self_s", "laws.alpha_difference.samples",
    "laws.alpha_difference.self_s", "laws.load_preset.calls", "laws.load_preset.s",
    "numerics.integrate_decaying.calls", "numerics.integrate_decaying.self_s",
    "numerics.integrand.samples", "numerics.bisect_root.calls", "numerics.bisect_root.evals",
    "numerics.bisect_root.self_s", "numerics.scan_max.calls", "numerics.scan_max.evals",
    "numerics.scan_max.self_s", "spectrum.tail_cut_frequency.calls",
    "spectrum.tail_cut_frequency.s", "spectrum.spectral_l2_norm.calls",
    "spectrum.spectral_l2_norm.s", "spectrum.energy_band_edge.calls",
    "spectrum.energy_band_edge.s", "spectrum.energy_band_edge.norms_per_call",
    "spectrum.relative_model_error.s", "spectrum.log10_relative_truncation_error.s",
    "spectrum.sample_green_spectrum.samples", "spectrum.sample_green_spectrum.s",
    "spectrum.truncate_spectrum.s", "bounds.model_error_report.s",
    "bounds.deviation_factor.samples", "bounds.deviation_factor.self_s",
    "bounds.verify_envelope.s", "bounds.corrected_truncation_error_bound.s",
    "timedomain.forward_point_source.self_s", "timedomain.synthesize_time_signal.samples",
    "timedomain.synthesize_time_signal.self_s", "timedomain.causality_energy_fraction.s",
    "timedomain.write_signal_csv.rows", "timedomain.write_signal_csv.s", "cli.command.s",
    "cli.self_s",
)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure_setup():
    """Median wall time of fresh interpreters that import lossywave, load the preset, evaluate once.

    Unlike the pass timings it is not scaled by the speed probe: process start
    and imports do not follow the probe, and scaling widened its spread.
    """
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")], check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_worker(plan_path, result_path, seconds, trace):
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                           str(plan_path), str(result_path), str(seconds), str(trace)],
                          timeout=seconds + 150, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def verify(ops, passes, run_dir):
    """Failure messages: unexpected failures, wrong artifacts, passes that differ from the first."""
    fails = checks.Failures()
    first = passes[0]
    for j, op in enumerate(ops):
        for record in passes:
            code, error = record["codes"][j], record["errors"][j]
            if op.fault is not None and code != 0:
                fails.expect(code == 2 and error.endswith(op.fault),
                             f"{' '.join(op.argv)}: exit {code} with {error!r}, "
                             f"expected exit 2 with {op.fault!r}")
            else:
                fails.expect(code == 0, f"{' '.join(op.argv)}: exit {code}: {error}")
            fails.expect(record["codes"][j] == first["codes"][j]
                         and record["digests"][j] == first["digests"][j],
                         f"{' '.join(op.argv)}: output differs between identical invocations")
    fails.extend(checks.check_pass(ops, run_dir / "pass0", first["codes"]))
    return fails


def _scaled_pass_s(record):
    return sum(t * f for t, f in zip(record["op_s"], record["speed"]))


def end_to_end(passes, setup_s, peak_rss_kb):
    """Operation times, and so pass times, are scaled by the speed factor of each operation."""
    pass_s = [_scaled_pass_s(p) for p in passes]
    op_ms = [1e3 * t * f for p in passes
             for t, f, code in zip(p["op_s"], p["speed"], p["codes"]) if code == 0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(pass_s), "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    q1, q3 = _quartiles(pass_s)
    notes = [f"run_s over {len(pass_s)} passes, quartiles {q1:.4g} .. {q3:.4g} s",
             f"op_p50_ms over {len(op_ms)} successful operations"]
    if len(op_ms) >= 40:  # the highest percentile with ten samples beyond it
        tail = 1.0 - 10.0 / len(op_ms)
        notes.append(f"p{100 * tail:.1f} {sorted(op_ms)[int(tail * len(op_ms)) - 1]:.4g} ms")
    notes.append(f"setup_s over {SETUP_RUNS} fresh interpreters")
    notes.append(f"unscaled run_s {statistics.median(sum(p['op_s']) for p in passes):.4g} s, "
                 f"median speed factor {statistics.median(f for p in passes for f in p['speed']):.4g}")
    return metrics, notes


def layer_metric(name, trace, passes):
    """Value and unit of one per-layer metric, per pass."""
    span, _, stat = name.rpartition(".")
    if name == "cli.self_s":
        span = "cli.command"
    if stat in ("s", "self_s"):
        table = trace["inclusive"] if stat == "s" else trace["self_s"]
        return table.get(span, 0.0) / passes, "s"
    if stat == "calls":
        return trace["calls"].get(span, 0) / passes, "count"
    if stat.endswith("_per_call"):
        what = stat[:-len("_per_call")]
        calls = trace["calls"].get(span, 0)
        return (trace["counters"].get(f"{span}.{what}", 0) / calls if calls else 0.0), f"{what}/call"
    return trace["counters"].get(name, 0) / passes, "count"


def per_layer(passes, trace):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {name: layer_metric(name, trace, len(traced)) for name in PER_LAYER}
    metrics["cli.bytes_written"] = (statistics.median(p["bytes"] for p in traced), "B")
    untraced_s = statistics.median(_scaled_pass_s(p) for p in plain)
    overhead = statistics.median(_scaled_pass_s(p) for p in traced) - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / untraced_s, "%")
    notes = [f"{len(traced)} traced and {len(plain)} untraced passes; per-layer values are per pass"]
    return metrics, notes


def run_workload(name, seed, seconds, trace):
    run_dir = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = workloads.build(name, seed, run_dir)
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps({"workload": name, "seed": seed,
                                     "ops": [op.argv for op in ops]}, indent=1), encoding="utf-8")
    setup_s = None if trace else measure_setup()
    result = run_worker(plan_path, run_dir / "worker.json", seconds, trace)
    passes = result["passes"]
    fails = verify(ops, passes, run_dir)
    shutil.rmtree(run_dir / "pass0", ignore_errors=True)
    if trace:
        metrics, notes = per_layer(passes, result["trace"])
    else:
        metrics, notes = end_to_end(passes, setup_s, result["peak_rss_kb"])
    attempted = sum(len(p["codes"]) for p in passes)
    failed = sum(code != 0 for p in passes for code in p["codes"])
    doc = {"correct": not fails, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (run_dir / "result.json").write_text(json.dumps({**doc, "notes": notes, "check_failures": fails},
                                                    indent=1), encoding="utf-8")
    for message in fails:
        print(f"{name}: CHECK FAILED: {message}", file=sys.stderr)
    print(f"{name} seed {seed}: attempted {attempted}, failed {failed}, correct {not fails}; "
          + "; ".join(notes))
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lossywave" / "__init__.py").is_file():
        print(f"no lossywave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    docs = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    for name, doc in docs.items():
        for metric, m in doc["metrics"].items():
            print(f"{name:13s} {metric:45s} {m['value']:.6g} {m['unit']}")
    if len(docs) == 1:
        final = next(iter(docs.values()))
    else:
        final = {"correct": all(d["correct"] for d in docs.values()),
                 "attempted": sum(d["attempted"] for d in docs.values()),
                 "failed": sum(d["failed"] for d in docs.values()),
                 "metrics": {f"{name}.{metric}": m for name, d in docs.items()
                             for metric, m in d["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
