"""Timing, steadiness and reporting helpers shared by every workload.

The 2-core host this benchmark was tuned on changes speed: a fixed loop
runs up to 1.7x slower for anywhere from 0.2 s to several minutes, so a
slow stretch can cover whole runs (NOTES.md has the measurements).  Two
things keep the end-to-end timings steady anyway:

* Work is timed as many short *units* of deterministic work, never as one
  long timer.  Each unit kind (one per dataset, say) is reduced to one
  time, and the kind times are summed into the time of one *pass* over
  the workload.
* Every timed batch unit is paired with the host-speed probe, a fixed
  pure-Python plus numpy loop run just before it, and its time is scaled
  to the reference host speed: ``t * REF_PROBE_MS / probe_ms``, where
  ``probe_ms`` is the median of the five nearest probes.  On the reference
  host at its normal speed the factor is about 1; in a slow stretch it
  removes the slowdown the probe sees.  A kind's scaled times are reduced
  by their median, which a single noisy probe cannot move.  Unscaled
  times are reduced to the kind's fastest sample instead, because a slow
  episode can only make a unit slower.  The figures not reported go to
  the diagnostics line.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: End-to-end metrics: every workload reports every one (see NOTES.md for
#: what each means on each workload).
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "work_per_s": "1/s",
    "latency_ms": "ms",
}

#: Per-layer metrics of the traced run, with their units.  A layer that
#: does no work on a workload reports 0 (with a 0 base where it has one).
PER_LAYER_UNITS: Dict[str, str] = {
    "datasets.generate_s": "s",
    "datasets.edges": "count",
    "partitioning.assign_s": "s",
    "metrics.compute_s": "s",
    "engine.build_s": "s",
    "engine.pregel_s": "s",
    "engine.supersteps": "count",
    "engine.edges_scanned": "count",
    "engine.messages_remote": "count",
    "engine.messages_local": "count",
    "algorithms.PR_s": "s",
    "algorithms.CC_s": "s",
    "algorithms.TR_s": "s",
    "algorithms.SSSP_s": "s",
    "algorithms.self_s": "s",
    "algorithms.landmark_matrix_s": "s",
    "algorithms.multi_source_s": "s",
    "session.plan_self_s": "s",
    "session.partition_hit_ratio": "ratio",
    "session.partition_lookups": "count",
    "analysis.correlate_s": "s",
    "serve.preload_s": "s",
    "serve.run_batch_s": "s",
    "serve.exact_p50_ms": "ms",
    "serve.estimate_p50_ms": "ms",
    "serve.pagerank_p50_ms": "ms",
    "serve.component_p50_ms": "ms",
    "serve.neighbors_p50_ms": "ms",
    "serve.latency_p99_ms": "ms",
    "serve.latency_samples": "count",
    "serve.keys_per_batch": "count",
    "serve.engine_runs": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_lookups": "count",
    "serve.generator_lag_ms": "ms",
    "ooc.chunks_s": "s",
    "ooc.write_shards_s": "s",
    "ooc.load_s": "s",
    "ooc.stream_supersteps_s": "s",
    "ooc.ingest_edges_per_s": "1/s",
    "ooc.shard_bytes": "bytes",
    "ooc.replication_factor": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "host.calib_ms": "ms",
}

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: The host-speed probe's time on the reference host (2-core VM, Python
#: 3.11, numpy 2.4) at its normal speed; timings are scaled to this speed.
REF_PROBE_MS = 5.0
#: Probes around a measurement whose median sets its scale factor.
PROBE_WINDOW = 5


@dataclass
class Context:
    """What one benchmark invocation was asked to do."""

    workload: str
    seed: int
    seconds: float
    root: Path
    work_dir: Path

    @property
    def run_script(self) -> Path:
        return self.root / "pipebench" / "run.py"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], share: float) -> float:
    """The ``share`` quantile (0..1) by linear interpolation."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), share))


_PROBE_DATA = np.random.default_rng(0).random(100_000)


def probe_ms() -> float:
    """One run of the host-speed probe: a fixed pure-Python plus numpy loop."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    np.sort(_PROBE_DATA)
    return (time.perf_counter() - start) * 1000.0


def host_calib_ms() -> float:
    """``host.calib_ms``: the median of seven probes (a run-level diagnostic)."""
    return median([probe_ms() for _ in range(7)])


def scale_factors(probes: Sequence[float]) -> List[float]:
    """Per-measurement factors to the reference speed, from the probe taken
    before each measurement (median of the ``PROBE_WINDOW`` nearest)."""
    half = PROBE_WINDOW // 2
    factors = []
    for index in range(len(probes)):
        lo = max(0, min(index - half, len(probes) - PROBE_WINDOW))
        factors.append(REF_PROBE_MS / median(probes[lo:lo + PROBE_WINDOW]))
    return factors


@dataclass
class UnitLog:
    """Wall times of timed units, by unit kind (e.g. one kind per dataset)."""

    #: ``(unit id, kind, start, end)`` per timed unit, in run order.
    units: List[Tuple[int, str, float, float]] = field(default_factory=list)
    #: The probe run just before each unit, in ms.
    probes: List[float] = field(default_factory=list)

    @property
    def samples(self) -> Dict[str, List[float]]:
        """Unscaled unit times by kind."""
        by_kind: Dict[str, List[float]] = defaultdict(list)
        for _, kind, start, end in self.units:
            by_kind[kind].append(end - start)
        return by_kind

    def factors(self) -> List[float]:
        return scale_factors(self.probes)

    def per_kind(
        self, times: Optional[Sequence[float]] = None, scaled: bool = True
    ) -> Dict[str, float]:
        """Per kind, ``times`` (default: the unit times) reduced to one: the
        median of the times scaled to the reference host speed, or, with
        ``scaled`` false, the fastest unscaled time."""
        if times is None:
            times = [end - start for _, _, start, end in self.units]
        factors = self.factors() if scaled else [1.0] * len(times)
        by_kind: Dict[str, List[float]] = defaultdict(list)
        for (_, kind, _, _), value, factor in zip(self.units, times, factors):
            by_kind[kind].append(value * factor)
        reduce = median if scaled else min
        return {kind: reduce(values) for kind, values in by_kind.items()}

    def pass_seconds(self, scaled: bool = True) -> float:
        """Time of one pass over every unit kind: the sum of the kind times."""
        return sum(self.per_kind(scaled=scaled).values())

    def typical_unit_seconds(self, scaled: bool = True) -> float:
        """The geometric mean of the kind times: every kind weighs the same,
        whatever its size."""
        values = list(self.per_kind(scaled=scaled).values())
        return math.exp(sum(math.log(value) for value in values) / len(values))


def run_units(
    kinds: Sequence[str],
    unit: Callable[[str], object],
    seconds: float,
    log: UnitLog,
    after: Optional[Callable[[str, object], None]] = None,
    tracer=None,
    min_passes: int = 3,
) -> int:
    """Run ``unit(kind)`` over ``kinds`` in passes until ``seconds`` elapse.

    Only whole passes are run, and at least ``min_passes``, so every kind
    has the same number of samples.  ``after(kind, output)`` runs outside
    the timed region (correctness bookkeeping).  Returns the unit count.
    """
    deadline = time.perf_counter() + seconds
    count = 0
    passes = 0
    while passes < min_passes or time.perf_counter() < deadline:
        for kind in kinds:
            gc.collect()
            log.probes.append(probe_ms())
            if tracer is not None:
                tracer.unit = count
            start = time.perf_counter()
            output = unit(kind)
            end = time.perf_counter()
            if tracer is not None:
                tracer.unit = None
            log.units.append((count, kind, start, end))
            count += 1
            if after is not None:
                after(kind, output)
        passes += 1
    return count


def timed_setups(
    setup: Callable[[], object],
    release: Optional[Callable[[object], None]] = None,
    reps: int = SETUP_SAMPLES,
) -> Tuple[float, List[float], object]:
    """Run ``setup`` ``reps`` times, each scaled by probes taken around it.

    Returns the median scaled time, the unscaled times and the last
    set-up's result; ``release`` disposes of the others, untimed.
    """
    scaled, raw = [], []
    result = None
    for rep in range(reps):
        if rep and release is not None:
            release(result)
        before = [probe_ms() for _ in range(3)]
        start = time.perf_counter()
        result = setup()
        elapsed = time.perf_counter() - start
        around = before + [probe_ms() for _ in range(3)]
        raw.append(elapsed)
        scaled.append(elapsed * REF_PROBE_MS / median(around))
    return median(scaled), raw, result


def sample_setup(ctx: Context) -> Tuple[float, List[float]]:
    """Time fresh-process set-ups of the workload (see :func:`timed_setups`).

    Each child starts the interpreter, imports the program, prepares the
    workload's inputs and runs one discarded warm-up unit, then exits.
    """
    command = [
        sys.executable, str(ctx.run_script),
        "--workload", ctx.workload, "--seed", str(ctx.seed), "--setup-only",
    ]

    def setup() -> None:
        child = subprocess.run(
            command, cwd=ctx.root, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=150,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{child.stderr}")

    setup_s, raw, _ = timed_setups(setup)
    return setup_s, raw


def own_peak_rss_mib() -> float:
    """High-water resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ran(self, count: int = 1) -> None:
        self.attempted += count

    def expect(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


def emit(
    metrics: Dict[str, float],
    units: Dict[str, str],
    checks: Checks,
    diagnostics: Dict[str, object],
) -> None:
    """Print the diagnostics line, then the result line (always the last)."""
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    for reason in checks.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": int(checks.attempted),
        "failed": int(checks.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result), flush=True)
