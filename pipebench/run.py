"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 pipebench/run.py --workload grid_warm --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints every end-to-end metric.  ``--trace 1`` runs the
workload untraced for half the time (the baseline of ``trace.overhead``)
and then traced for the full time; it prints a per-layer self-time table,
writes a Chrome trace under ``.bench_traces/`` and reports every per-layer
metric.  The last stdout line is the result object; the line before it
carries diagnostics (host-speed probe, unscaled timings, set-up samples).
See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("run_cold", "grid_warm", "serve_mixed", "ooc_stream")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="prepare the workload and run its warm-up unit, then exit "
        "(how the set-up time is sampled)",
    )
    return parser.parse_args(argv)


def run_plain(ctx, module):
    from pipebench.common import Checks, UnitLog, median, own_peak_rss_mib, sample_setup

    setup_s, setup_raw = sample_setup(ctx)
    state = module.prepare(ctx)
    log, checks = UnitLog(), Checks()
    module.measure(ctx, state, ctx.seconds, log, checks)
    rss = own_peak_rss_mib()
    module.verify(ctx, state, checks)
    metrics = {"setup_s": setup_s, "peak_rss_mb": rss, **module.e2e(state, log, module.SCALED)}
    other = "unscaled" if module.SCALED else "scaled"
    diagnostics = {
        other: module.e2e(state, log, not module.SCALED),
        "unscaled_setup_samples_s": setup_raw,
        "probe_ms_median": median(log.probes),
        "units": {kind: len(times) for kind, times in log.samples.items()},
    }
    return metrics, checks, diagnostics


def run_traced(ctx, module):
    from pipebench.common import Checks, UnitLog
    from pipebench.tracing import (
        SpanView, Tracer, install, layer_metrics, print_table, write_chrome_trace,
    )

    checks = Checks()
    state = module.prepare(ctx)
    plain = UnitLog()
    module.measure(ctx, state, ctx.seconds / 2.0, plain, checks)
    untraced_rate = module.e2e(state, plain, module.SCALED)["work_per_s"]
    del state
    gc.collect()

    tracer = install(Tracer())
    try:
        state = module.prepare(ctx)
        log = UnitLog()
        module.measure(ctx, state, ctx.seconds, log, checks, tracer=tracer)
    finally:
        tracer.uninstall()
    view = SpanView(tracer)
    layers = layer_metrics(view, log)
    layers.update(module.layers(state, log))
    traced_rate = module.e2e(state, log, module.SCALED)["work_per_s"]
    layers["trace.overhead"] = untraced_rate / traced_rate - 1.0
    print_table(view, log, ctx.workload)
    write_chrome_trace(trace_path(ctx), {"benchmark": tracer}, log)
    return layers, checks, {"trace": str(trace_path(ctx).relative_to(ROOT))}


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so a stopped run still stops its daemon and
    # removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.setup_only and args.workload == "serve_mixed":
        print("error: serve_mixed times its daemon start-ups itself", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from pipebench.common import (
        E2E_UNITS, PER_LAYER_UNITS, Context, emit, host_calib_ms,
    )

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    ctx = Context(args.workload, args.seed, args.seconds, ROOT, work_dir)
    module = importlib.import_module(f"pipebench.{args.workload}")
    try:
        if args.setup_only:
            module.prepare(ctx)
            return 0
        calib_start = host_calib_ms()
        if args.workload == "serve_mixed":
            result = run_serve(ctx, module, args.trace)
        elif args.trace:
            result = run_traced(ctx, module)
        else:
            result = run_plain(ctx, module)
        metrics, checks, diagnostics = result
        calib_end = host_calib_ms()
        diagnostics["host.calib_ms"] = {"start": calib_start, "end": calib_end}
        if args.trace:
            metrics["host.calib_ms"] = (calib_start + calib_end) / 2.0
            metrics = {name: metrics.get(name, 0.0) for name in PER_LAYER_UNITS}
            emit(metrics, PER_LAYER_UNITS, checks, diagnostics)
        else:
            emit(metrics, E2E_UNITS, checks, diagnostics)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_serve(ctx, module, traced: int):
    if not traced:
        return module.run(ctx)
    from pipebench.tracing import SpanView, print_table, write_chrome_trace

    layers, checks, server = module.run_traced(ctx)
    print_table(SpanView(server), None, "serve_mixed daemon")
    write_chrome_trace(trace_path(ctx), {"daemon": server}, None)
    return layers, checks, {"trace": str(trace_path(ctx).relative_to(ROOT))}


def trace_path(ctx) -> Path:
    return ROOT / ".bench_traces" / f"{ctx.workload}-seed{ctx.seed}.json"


if __name__ == "__main__":
    sys.exit(main())
