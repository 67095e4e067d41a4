"""In-memory spans around the program's layers, for the traced run only.

:func:`install` wraps the public entry point of each layer -- at the
defining module attribute and at every ``from ... import`` site already
bound in a ``repro`` module -- and :func:`uninstall` puts the originals
back.  Untraced runs never import this module, so they patch nothing.

A span records ``name, start, end, parent, unit, thread``.  Spans are kept
in a list and written once, as Chrome Trace Event JSON, when the run ends.
A call nested inside a span of the same name (``super().assign``, say) is
not recorded again, so per-name totals never double count.  Self time is a
span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .common import UnitLog, median

#: Span name prefixes of the layers; ``algorithms.<ABBR>`` spans are
#: ``run_algorithm`` calls.
ALGORITHMS = ("PR", "CC", "TR", "SSSP")


class Tracer:
    """Process-local span and counter store."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, unit id or None, thread id]``
        self.spans: List[list] = []
        #: ``(unit id, counter name) -> value``
        self.counts: Dict[Tuple[Optional[int], str], float] = defaultdict(float)
        #: ``span index -> {counter name: value}`` for counts made by a span
        self.span_counts: Dict[int, Dict[str, float]] = defaultdict(dict)
        self.unit: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def is_open(self, name: str) -> bool:
        return any(self.spans[index][0] == name for index in self._stack())

    def begin(self, name: str) -> int:
        stack = self._stack()
        record = [
            name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
            self.unit, threading.get_ident(),
        ]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, value: float, span: int) -> None:
        """Count ``value`` for the current unit and for span ``span``."""
        with self._lock:
            self.counts[(self.unit, name)] += value
            counts = self.span_counts[span]
            counts[name] = counts.get(name, 0.0) + value

    def wrap(
        self,
        function: Callable,
        name: Union[str, Callable[..., str]],
        on_result: Optional[Callable[["Tracer", object, int], None]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            if tracer.is_open(span_name):
                return function(*args, **kwargs)
            index = tracer.begin(span_name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(tracer, result, index)
            return result

        return traced

    # -- patching ----------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module_name: str, attr: str, name, on_result=None) -> None:
        original = getattr(sys.modules[module_name], attr)
        traced = self.wrap(original, name, on_result)
        for module in list(sys.modules.values()):
            module_name_ = getattr(module, "__name__", "") or ""
            if not module_name_.startswith(("repro", "pipebench")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, traced)

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name))

    def patch_lazy_build(self, cls: type, attr: str, cache_attr: str, name: str) -> None:
        """Span the first (building) access of a cached property or method."""
        tracer = self
        member = cls.__dict__[attr]
        getter = member.fget if isinstance(member, property) else member

        @functools.wraps(getter)
        def traced(obj, *args):
            if getattr(obj, cache_attr) is not None or tracer.is_open(name):
                return getter(obj, *args)
            index = tracer.begin(name)
            try:
                return getter(obj, *args)
            finally:
                tracer.end(index)

        self._set(cls, attr, property(traced) if isinstance(member, property) else traced)

    def patch_generator(self, cls: type, attr: str, name: str) -> None:
        """Span each ``next()`` of a generator method (the producer's time)."""
        tracer = self
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def traced(obj, *args, **kwargs):
            iterator = original(obj, *args, **kwargs)
            while True:
                index = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                yield item

        self._set(cls, attr, traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- persistence -------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write spans and counters as plain JSON (the daemon's hand-off)."""
        payload = {
            "spans": self.spans,
            "counts": [[unit, name, value] for (unit, name), value in self.counts.items()],
            "span_counts": [[index, counts] for index, counts in self.span_counts.items()],
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: Path) -> "Tracer":
        payload = json.loads(Path(path).read_text())
        tracer = cls()
        tracer.spans = payload["spans"]
        for unit, name, value in payload["counts"]:
            tracer.counts[(unit, name)] += value
        for index, counts in payload["span_counts"]:
            tracer.span_counts[index] = counts
        return tracer


def _count_edges(tracer: Tracer, graph, span: int) -> None:
    tracer.add("datasets.edges", graph.num_edges, span)


#: ``SuperstepRecord`` fields summed into ``engine.<field>`` counters.
SUPERSTEP_COUNTERS = ("edges_scanned", "messages_remote", "messages_local")


def _count_supersteps(tracer: Tracer, result, span: int) -> None:
    records = result.report.supersteps
    tracer.add("engine.supersteps", len(records), span)
    for field in SUPERSTEP_COUNTERS:
        tracer.add(f"engine.{field}", sum(getattr(r, field) for r in records), span)


def _subclasses(cls: type) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(tracer: Tracer) -> Tracer:
    """Wrap every measured layer's public entry points."""
    import repro  # noqa: F401  (binds the re-export sites first)
    import repro.ooc  # noqa: F401
    import repro.serve  # noqa: F401
    from repro.algorithms.registry import canonical_algorithm_name
    from repro.engine.partitioned_graph import PartitionedGraph
    from repro.ooc.chunks import SyntheticChunkSource
    from repro.partitioning.base import PartitionStrategy
    from repro.serve.service import GraphService
    from repro.session.plan import ExperimentPlan

    def algorithm_span(*args, **kwargs) -> str:
        return "algorithms." + canonical_algorithm_name(args[0] if args else kwargs["name"])

    tracer.patch_function(
        "repro.datasets.catalog", "load_dataset", "datasets.generate", _count_edges
    )
    tracer.patch_function("repro.metrics.partition_metrics", "compute_metrics", "metrics.compute")
    tracer.patch_function("repro.engine.pregel", "pregel", "engine.pregel", _count_supersteps)
    tracer.patch_function("repro.algorithms.registry", "run_algorithm", algorithm_span)
    tracer.patch_function("repro.analysis.correlation", "correlation_table", "analysis.correlate")
    tracer.patch_function(
        "repro.algorithms.shortest_paths", "build_landmark_matrix", "algorithms.landmark_matrix"
    )
    tracer.patch_function(
        "repro.algorithms.shortest_paths", "multi_source_distances", "algorithms.multi_source"
    )
    tracer.patch_function("repro.ooc.shards", "write_shards", "ooc.write_shards")
    tracer.patch_function("repro.ooc.mmap_graph", "load_sharded_graph", "ooc.load")
    tracer.patch_function(
        "repro.ooc.pregel_stream", "pregel_stream_supersteps", "ooc.stream_supersteps"
    )
    tracer.patch_method(ExperimentPlan, "run", "session.plan")
    tracer.patch_method(GraphService, "preload", "serve.preload")
    tracer.patch_method(GraphService, "run_batch", "serve.run_batch")
    for cls in set(_subclasses(PartitionStrategy)):
        if "assign" in cls.__dict__:
            tracer.patch_method(cls, "assign", "partitioning.assign")
    tracer.patch_lazy_build(PartitionedGraph, "partitions", "_partitions", "engine.build")
    tracer.patch_lazy_build(PartitionedGraph, "routing", "_routing", "engine.build")
    tracer.patch_lazy_build(PartitionedGraph, "triplets", "_triplets", "engine.build")
    tracer.patch_generator(SyntheticChunkSource, "chunks", "ooc.chunks")
    return tracer


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------
class SpanView:
    """Per-unit totals and self times of a tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        spans = tracer.spans
        child_time = defaultdict(float)
        for name, start, end, parent, unit, thread in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.total: Dict[Tuple[Optional[int], str], float] = defaultdict(float)
        self.self_time: Dict[Tuple[Optional[int], str], float] = defaultdict(float)
        self.calls: Dict[Tuple[Optional[int], str], int] = defaultdict(int)
        self.top: Dict[Optional[int], float] = defaultdict(float)
        for index, (name, start, end, parent, unit, thread) in enumerate(spans):
            duration = end - start
            self.total[(unit, name)] += duration
            self.self_time[(unit, name)] += duration - child_time[index]
            self.calls[(unit, name)] += 1
            if parent < 0:
                self.top[unit] += duration

    def names(self) -> List[str]:
        return sorted({name for _, name in self.total})

    def per_pass(self, log: UnitLog, value: Callable[[int], float]) -> float:
        """Sum over unit kinds of the median per-unit ``value(unit id)``."""
        by_kind: Dict[str, List[float]] = defaultdict(list)
        for unit, kind, _, _ in log.units:
            by_kind[kind].append(value(unit))
        return sum(median(values) for values in by_kind.values())

    def pass_total(self, log: UnitLog, name: str) -> float:
        return self.per_pass(log, lambda unit: self.total.get((unit, name), 0.0))

    def pass_self(self, log: UnitLog, names: Iterable[str]) -> float:
        names = list(names)
        return self.per_pass(
            log, lambda unit: sum(self.self_time.get((unit, n), 0.0) for n in names)
        )

    def pass_count(self, log: UnitLog, name: str) -> float:
        return self.per_pass(log, lambda unit: self.tracer.counts.get((unit, name), 0.0))

    def coverage(self, log: UnitLog) -> float:
        """Share of timed unit wall time covered by top-level spans."""
        wall = sum(end - start for _, _, start, end in log.units)
        covered = sum(self.top.get(unit, 0.0) for unit, _, _, _ in log.units)
        return covered / wall if wall > 0 else 0.0


def layer_metrics(view: SpanView, log: UnitLog) -> Dict[str, float]:
    """The per-layer metrics a pass of timed units yields."""
    metrics = {
        "datasets.generate_s": view.pass_total(log, "datasets.generate"),
        "datasets.edges": view.pass_count(log, "datasets.edges"),
        "partitioning.assign_s": view.pass_total(log, "partitioning.assign"),
        "metrics.compute_s": view.pass_total(log, "metrics.compute"),
        "engine.build_s": view.pass_total(log, "engine.build"),
        "engine.pregel_s": view.pass_total(log, "engine.pregel"),
        "algorithms.self_s": view.pass_self(log, [f"algorithms.{a}" for a in ALGORITHMS]),
        "session.plan_self_s": view.pass_self(log, ["session.plan"]),
        "analysis.correlate_s": view.pass_total(log, "analysis.correlate"),
        "ooc.chunks_s": view.pass_total(log, "ooc.chunks"),
        "ooc.write_shards_s": view.pass_total(log, "ooc.write_shards"),
        "ooc.load_s": view.pass_total(log, "ooc.load"),
        "ooc.stream_supersteps_s": view.pass_total(log, "ooc.stream_supersteps"),
        "trace.coverage": view.coverage(log),
    }
    for counter in ("supersteps",) + SUPERSTEP_COUNTERS:
        metrics[f"engine.{counter}"] = view.pass_count(log, f"engine.{counter}")
    for algorithm in ALGORITHMS:
        metrics[f"algorithms.{algorithm}_s"] = view.pass_total(log, f"algorithms.{algorithm}")
    return metrics


def print_table(view: SpanView, log: Optional[UnitLog], title: str) -> None:
    """Per-layer self-time table: timed units per pass, then set-up totals."""
    names = view.names()
    print(f"== {title}: per-layer time (timed units: per pass, median per kind) ==")
    print(f"{'span':32s} {'calls/pass':>10s} {'total s':>10s} {'self s':>10s} {'self %':>7s}")
    if log is not None and log.units:
        walls = {unit: end - start for unit, _, start, end in log.units}
        pass_wall = view.per_pass(log, walls.__getitem__)
        rows = []
        for name in names:
            total = view.pass_total(log, name)
            if total <= 0:
                continue
            self_s = view.pass_self(log, [name])
            calls = view.per_pass(log, lambda unit: view.calls.get((unit, name), 0))
            rows.append((self_s, name, calls, total))
        for self_s, name, calls, total in sorted(rows, reverse=True):
            share = 100.0 * self_s / pass_wall if pass_wall > 0 else 0.0
            print(f"{name:32s} {calls:10.0f} {total:10.4f} {self_s:10.4f} {share:6.1f}%")
        print(f"{'(pass wall time)':32s} {'':10s} {pass_wall:10.4f}")
    setup = [
        (view.self_time[(None, name)], name) for name in names if (None, name) in view.total
    ]
    if setup:
        print("-- outside timed units (set-up, daemon threads): totals --")
        for self_s, name in sorted(setup, reverse=True):
            print(
                f"{name:32s} {view.calls[(None, name)]:10d} "
                f"{view.total[(None, name)]:10.4f} {self_s:10.4f}"
            )


def write_chrome_trace(path: Path, processes: Dict[str, Tracer], log: Optional[UnitLog]) -> None:
    """All spans (one Chrome "process" per tracer) plus the timed units."""
    events = []
    origin = min(
        (span[1] for tracer in processes.values() for span in tracer.spans),
        default=0.0,
    )
    for pid, (label, tracer) in enumerate(processes.items(), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}})
        for name, start, end, parent, unit, thread in tracer.spans:
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": thread,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"unit": unit, "parent": parent},
            })
    if log is not None:
        for unit, kind, start, end in log.units:
            events.append({
                "name": f"unit:{kind}", "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"unit": unit},
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))
