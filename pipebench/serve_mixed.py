"""``serve_mixed``: ``repro serve`` under an open-loop request mix.

The daemon runs as a subprocess over one social dataset.  One client
process sends a seeded Poisson schedule at a fixed rate over two
keep-alive connections; a request that falls due while both connections
are busy waits in the client's queue, and that wait counts: latency is
measured from each request's due time.  The rate sits far below the
daemon's capacity on a 2-core host, so a 1.5x slow episode builds no
backlog.

Latency and daemon CPU time are scaled to the reference host speed by the
host-speed probe (see :mod:`pipebench.common`).  The client runs the probe
in the gaps of the schedule -- whenever no request is in flight and the
next one is not due for ``PROBE_GAP_S`` -- so the probes sample the host
all through the window without delaying a request.  A request's latency is
scaled by the median probe within a second of its due time.

Mix: 50% landmark estimates, 20% exact SSSP (every source queried twice,
so the query cache sees repeats), 10% PageRank top-k, 10% components and
10% neighbors, fixed per block of 10 requests.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .common import REF_PROBE_MS, Checks, Context, median, percentile, probe_ms, timed_setups

DATASET = "orkut"
SCALE = 1.0
PARTITIONER = "Hybrid"
PARTITIONS = 16
LANDMARKS = 5
BATCH_WINDOW_MS = 2
RATE_PER_S = 80.0
CONNECTIONS = 2
#: The generator yields in a tight loop for this long before a due time.
SPIN_S = 0.002
#: The client probes the host only while idle with at least this long
#: before the next due time (a probe takes about 5 ms).
PROBE_GAP_S = 0.012
#: Probes within this many seconds of a request's due time scale it.
PROBE_SPAN_S = 1.0
#: Requests per kind in every block of 10 consecutive requests (shuffled
#: within the block), so each second of the schedule carries the same mix.
MIX = (("estimate", 5), ("exact", 2), ("pagerank", 1), ("component", 1), ("neighbors", 1))
TOP_K = 10
#: Answers per kind checked against networkx.
ORACLE_SAMPLES = 60
STARTUP_TIMEOUT_S = 120.0

_BANNER = re.compile(r"http://([\d.]+):(\d+)")


@dataclass(frozen=True)
class Request:
    kind: str
    path: str
    offset: float  # seconds after the schedule starts


@dataclass
class Outcome:
    due: float
    issued: float
    sent: float
    done: float
    status: int
    body: dict

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


# ----------------------------------------------------------------------
# Daemon process
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, ctx: Context, trace_out: Optional[Path] = None) -> None:
        serve_args = [
            "serve", "--scale", str(SCALE), "--seed", str(ctx.seed),
            "--datasets", DATASET, "--partitioner", PARTITIONER,
            "--partitions", str(PARTITIONS), "--landmarks", str(LANDMARKS),
            "--batch-window-ms", str(BATCH_WINDOW_MS), "--top-k", str(TOP_K),
            "--port", "0",
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            script = ctx.root / "pipebench" / "traced_daemon.py"
            command = [sys.executable, str(script), str(trace_out), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        ctx.work_dir.mkdir(parents=True, exist_ok=True)
        self.log_path = ctx.work_dir / f"daemon-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            command, cwd=ctx.root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _BANNER.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
        self.kill()
        raise RuntimeError(f"daemon never printed its banner; see {self.log_path}")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the daemon has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the daemon's /proc status")

    def shutdown(self) -> None:
        try:
            asyncio.run(_one(self.host, self.port, "/shutdown", method="POST"))
            self.proc.communicate(timeout=30)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
async def _exchange(reader, writer, path: str, method: str = "GET") -> Tuple[int, dict]:
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii"))
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("daemon closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


async def _one(host: str, port: int, path: str, method: str = "GET") -> Tuple[int, dict]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await _exchange(reader, writer, path, method)
    finally:
        writer.close()
        await writer.wait_closed()


async def _drive(
    host: str, port: int, schedule: List[Request]
) -> Tuple[List[Outcome], List[Tuple[float, float]]]:
    """Send ``schedule`` open loop over ``CONNECTIONS`` keep-alive connections.

    Returns the outcomes and the ``(time, probe ms)`` host-speed probes run
    in idle gaps.
    """
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: List[Optional[Outcome]] = [None] * len(schedule)
    probes: List[Tuple[float, float]] = []
    in_flight = 0
    start = time.perf_counter() + 0.05

    async def generator() -> None:
        for index, request in enumerate(schedule):
            due = start + request.offset
            while True:
                remaining = due - time.perf_counter()
                if remaining <= SPIN_S:
                    break
                if in_flight == 0 and queue.empty() and remaining > PROBE_GAP_S:
                    probes.append((time.perf_counter(), probe_ms()))
                else:
                    await asyncio.sleep(min(remaining - SPIN_S, 0.001))
            # The loop's timers fire up to a millisecond late; yield in a
            # tight loop for the last stretch so requests leave on time.
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            queue.put_nowait((index, due, time.perf_counter()))
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    async def connection() -> None:
        nonlocal in_flight
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                index, due, issued = item
                in_flight += 1
                sent = time.perf_counter()
                status, body = await _exchange(reader, writer, schedule[index].path)
                outcomes[index] = Outcome(due, issued, sent, time.perf_counter(), status, body)
                in_flight -= 1
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(generator(), *(connection() for _ in range(CONNECTIONS)))
    return outcomes, probes


def build_schedule(rng: random.Random, vertices: List[int], seconds: float) -> List[Request]:
    """Poisson arrivals at ``RATE_PER_S`` for ``seconds``, in ``MIX`` blocks.

    Each exact-SSSP source is drawn once and queried twice, in a seeded
    order, so half the exact queries can be answered by the query cache
    and every run does the same number of engine sweeps.
    """
    block = [kind for kind, count in MIX for _ in range(count)]
    slots: List[Tuple[str, float]] = []
    kinds: List[str] = []
    offset = rng.expovariate(RATE_PER_S)
    while offset < seconds:
        if not kinds:
            kinds = rng.sample(block, len(block))
        slots.append((kinds.pop(), offset))
        offset += rng.expovariate(RATE_PER_S)
    exact = sum(1 for kind, _ in slots if kind == "exact")
    sources = rng.sample(vertices, (exact + 1) // 2) * 2
    rng.shuffle(sources)
    schedule: List[Request] = []
    for kind, offset in slots:
        vertex = rng.choice(vertices)
        if kind == "estimate":
            path = f"/distance?source={rng.choice(vertices)}&target={vertex}"
        elif kind == "exact":
            path = f"/distance?source={sources.pop()}&target={vertex}&exact=1"
        elif kind == "pagerank":
            path = f"/pagerank/top?k={TOP_K}"
        elif kind == "component":
            path = f"/component?vertex={vertex}"
        else:
            direction = rng.choice(("out", "in"))
            path = f"/neighbors?vertex={vertex}&direction={direction}"
        schedule.append(Request(kind, path, offset))
    return schedule


def warm_up(daemon: Daemon, vertices: List[int]) -> None:
    """The discarded warm-up unit: one request of each kind (the first
    PageRank and component requests build their lazy whole-graph runs)."""
    source, target = vertices[0], vertices[-1]
    paths = [
        f"/distance?source={source}&target={target}",
        f"/distance?source={source}&target={target}&exact=1",
        f"/pagerank/top?k={TOP_K}",
        f"/component?vertex={source}",
        f"/neighbors?vertex={source}",
    ]

    async def run() -> None:
        for path in paths:
            status, body = await _one(daemon.host, daemon.port, path)
            if status != 200:
                raise RuntimeError(f"warm-up {path} answered {status}: {body}")

    asyncio.run(run())


def stats(daemon: Daemon) -> dict:
    status, body = asyncio.run(_one(daemon.host, daemon.port, "/stats"))
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return body


@dataclass
class Window:
    """One measured stretch of the schedule against one daemon."""

    schedule: List[Request]
    outcomes: List[Outcome]
    cpu_seconds: float
    #: ``(time, probe ms)`` host-speed probes run in the schedule's gaps.
    probes: List[Tuple[float, float]]
    stats_before: dict
    stats_after: dict
    start: float
    end: float

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        return [
            outcome.latency_ms
            for request, outcome in zip(self.schedule, self.outcomes)
            if kind is None or request.kind == kind
        ]

    @property
    def factor(self) -> float:
        """The window's factor to the reference host speed."""
        return REF_PROBE_MS / median([probe for _, probe in self.probes])

    def latency_ms(self, scaled: bool = True) -> float:
        """Median latency from the due time, each scaled by nearby probes."""
        if not scaled:
            return median(self.latencies())
        times = np.array([when for when, _ in self.probes])
        values = np.array([probe for _, probe in self.probes])
        scaled_latencies = []
        for outcome in self.outcomes:
            near = values[np.abs(times - outcome.due) <= PROBE_SPAN_S]
            factor = REF_PROBE_MS / float(np.median(near)) if near.size else self.factor
            scaled_latencies.append(outcome.latency_ms * factor)
        return median(scaled_latencies)

    def work_per_s(self, scaled: bool = True) -> float:
        """Requests answered per second of daemon CPU time."""
        served = sum(1 for outcome in self.outcomes if outcome.status == 200)
        return served / (self.cpu_seconds * (self.factor if scaled else 1.0))


def measure(daemon: Daemon, schedule: List[Request]) -> Window:
    before = stats(daemon)
    cpu_before = daemon.cpu_seconds()
    start = time.perf_counter()
    outcomes, probes = asyncio.run(_drive(daemon.host, daemon.port, schedule))
    end = time.perf_counter()
    cpu = daemon.cpu_seconds() - cpu_before
    return Window(schedule, outcomes, cpu, probes, before, stats(daemon), start, end)


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def verify(ctx: Context, graph, window: Window, checks: Checks) -> None:
    """Status of every answer, and a seeded sample per kind against networkx."""
    import networkx as nx
    import numpy as np

    from .oracle import component_labels, digraph

    g = digraph(graph)
    labels = component_labels(g)
    sizes: Dict[int, int] = {}
    for label in labels.values():
        sizes[label] = sizes.get(label, 0) + 1
    distances: Dict[int, Dict[int, int]] = {}

    def hops(source: int, target: int) -> Optional[int]:
        if source not in distances:
            distances[source] = nx.single_source_shortest_path_length(g, source)
        return distances[source].get(target)

    by_kind: Dict[str, List[Tuple[Request, Outcome]]] = {}
    for request, outcome in zip(window.schedule, window.outcomes):
        if outcome.status != 200:
            checks.expect(False, f"serve {request.path} answered {outcome.status}: {outcome.body}")
        else:
            by_kind.setdefault(request.kind, []).append((request, outcome))
    rng = random.Random(ctx.seed)
    for kind, answered in by_kind.items():
        sample = rng.sample(answered, min(ORACLE_SAMPLES, len(answered)))
        checks.ran(len(answered) - len(sample))
        for request, outcome in sample:
            body = outcome.body
            if kind in ("estimate", "exact"):
                true = hops(body["source"], body["target"])
                if body["method"] == "estimate":
                    ok = true is not None and body["distance"] >= true
                else:
                    ok = body["distance"] == true
            elif kind == "pagerank":
                ranks = [row["rank"] for row in body["top"]]
                ok = len(ranks) == TOP_K and ranks == sorted(ranks, reverse=True)
            elif kind == "component":
                vertex = body["vertex"]
                ok = (
                    body["component"] == labels[vertex]
                    and body["component_size"] == sizes[labels[vertex]]
                    and body["num_components"] == len(sizes)
                )
            else:
                vertex = body["vertex"]
                ends = graph.dst[graph.src == vertex] if body["direction"] == "out" else (
                    graph.src[graph.dst == vertex]
                )
                ok = body["degree"] == ends.size and np.isin(body["neighbors"], ends).all()
            checks.expect(bool(ok), f"serve {request.path}: wrong answer {body}")


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _client_inputs(ctx: Context):
    from repro import load_dataset

    graph = load_dataset(DATASET, scale=SCALE, seed=ctx.seed)
    return graph, graph.vertex_ids.tolist()


def _started(ctx: Context, vertices: List[int], trace_out: Optional[Path] = None) -> Daemon:
    daemon = Daemon(ctx, trace_out)
    try:
        warm_up(daemon, vertices)
    except BaseException:
        daemon.kill()
        raise
    return daemon


def run(ctx: Context):
    """The untraced run: ``(metrics, checks, diagnostics)``."""
    graph, vertices = _client_inputs(ctx)
    schedule = build_schedule(random.Random(ctx.seed), vertices, ctx.seconds)
    setup_s, setup_raw, daemon = timed_setups(lambda: _started(ctx, vertices), Daemon.shutdown)
    try:
        window = measure(daemon, schedule)
        rss = daemon.peak_rss_mib()
    finally:
        daemon.shutdown()
    checks = Checks()
    verify(ctx, graph, window, checks)
    latencies = window.latencies()
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "work_per_s": window.work_per_s(),
        "latency_ms": window.latency_ms(),
    }
    diagnostics = {
        "unscaled": {
            "latency_ms": window.latency_ms(scaled=False),
            "work_per_s": window.work_per_s(scaled=False),
        },
        "unscaled_setup_samples_s": setup_raw,
        "probe_factor": window.factor,
        "probes": len(window.probes),
        "latency_p99_ms": percentile(latencies, 0.99),
        "requests": len(latencies),
        "daemon_cpu_s": window.cpu_seconds,
        "window_s": window.end - window.start,
    }
    return metrics, checks, diagnostics


def _window_spans(tracer, window: Window):
    return [
        (index, span) for index, span in enumerate(tracer.spans)
        if window.start <= span[1] and span[2] <= window.end
    ]


def _ancestor_named(tracer, index: int, name: str) -> bool:
    parent = tracer.spans[index][3]
    while parent >= 0:
        if tracer.spans[parent][0] == name:
            return True
        parent = tracer.spans[parent][3]
    return False


def run_traced(ctx: Context):
    """An untraced half window, then the traced full window.

    Returns the per-layer metrics, the checks and the daemon's tracer.
    """
    from .tracing import ALGORITHMS, SUPERSTEP_COUNTERS, Tracer

    graph, vertices = _client_inputs(ctx)
    schedule = build_schedule(random.Random(ctx.seed), vertices, ctx.seconds)
    baseline = [request for request in schedule if request.offset < ctx.seconds / 2.0]
    daemon = _started(ctx, vertices)
    try:
        plain = measure(daemon, baseline)
    finally:
        daemon.shutdown()

    trace_out = ctx.work_dir / "daemon-trace.json"
    daemon = _started(ctx, vertices, trace_out)
    try:
        window = measure(daemon, schedule)
    finally:
        daemon.shutdown()
    server = Tracer.load(trace_out)
    checks = Checks()
    verify(ctx, graph, window, checks)

    requests = max(1, len(window.outcomes))
    spans = _window_spans(server, window)

    def per_request(name: str) -> float:
        return sum(span[2] - span[1] for _, span in spans if span[0] == name) / requests

    def call_median(name: str, under: Optional[str] = None) -> float:
        durations = [
            span[2] - span[1] for index, span in spans
            if span[0] == name and (under is None or _ancestor_named(server, index, under))
        ]
        return median(durations) if durations else 0.0

    def setup_span(name: str) -> float:
        return sum(
            span[2] - span[1] for span in server.spans
            if span[0] == name and span[1] < window.start
        )

    layers: Dict[str, float] = {
        "serve.preload_s": setup_span("serve.preload"),
        "algorithms.landmark_matrix_s": setup_span("algorithms.landmark_matrix"),
        "serve.run_batch_s": call_median("serve.run_batch"),
        "algorithms.multi_source_s": call_median("algorithms.multi_source", "serve.run_batch"),
        "engine.pregel_s": per_request("engine.pregel"),
        "engine.build_s": per_request("engine.build"),
    }
    for algorithm in ALGORITHMS:
        layers[f"algorithms.{algorithm}_s"] = per_request(f"algorithms.{algorithm}")
    for counter in ("supersteps",) + SUPERSTEP_COUNTERS:
        layers[f"engine.{counter}"] = sum(
            server.span_counts.get(index, {}).get(f"engine.{counter}", 0.0) for index, _ in spans
        ) / requests
    for kind, _ in MIX:
        values = window.latencies(kind)
        layers[f"serve.{kind}_p50_ms"] = median(values) if values else 0.0
    latencies = window.latencies()
    batcher_before = window.stats_before["batcher"]
    batcher_after = window.stats_after["batcher"]
    batches = batcher_after["batches"] - batcher_before["batches"]
    cache_before = window.stats_before["query_cache"]
    cache_after = window.stats_after["query_cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    lags = [(outcome.issued - outcome.due) * 1000.0 for outcome in window.outcomes]
    covered = sum(outcome.done - outcome.issued for outcome in window.outcomes)
    waited = sum(outcome.done - outcome.due for outcome in window.outcomes)
    layers.update({
        "serve.latency_p99_ms": percentile(latencies, 0.99),
        "serve.latency_samples": len(latencies),
        "serve.keys_per_batch": (
            (batcher_after["batched_keys"] - batcher_before["batched_keys"]) / max(1, batches)
        ),
        "serve.engine_runs": window.stats_after["engine_runs"] - window.stats_before["engine_runs"],
        "serve.cache_hit_ratio": hits / max(1, lookups),
        "serve.cache_lookups": lookups,
        "serve.generator_lag_ms": percentile(lags, 0.99),
        "trace.coverage": covered / waited if waited > 0 else 0.0,
        "trace.overhead": window.latency_ms() / plain.latency_ms() - 1.0,
    })
    return layers, checks, server
