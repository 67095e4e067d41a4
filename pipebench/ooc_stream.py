"""``ooc_stream``: chunked ingest into a fresh store, then streamed PR and CC.

A unit streams a seeded :class:`~repro.ooc.chunks.SyntheticChunkSource`
through the 2D partitioner into mmap shards in a **fresh**
:class:`~repro.session.store.ArtifactStore` directory (the only workload
that writes to the store), then runs PageRank and Connected Components
over the shards, one partition chunk at a time.  Every unit is identical,
so the fastest ingest and streamed-superstep times are taken directly.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional

from .common import Checks, Context, UnitLog, run_units

EDGES = 100_000
VERTICES = 12_500
SKEW = 2.0
PARTITIONER = "2D"
PARTITIONS = 16
CHUNK_EDGES = 32_768
ITERATIONS = 10
#: Unit times are not scaled by the host-speed probe: these I/O- and
#: array-heavy units slow down only about half as much as the pure-Python
#: probe in a slow stretch, so scaling over-corrects (see NOTES.md).
SCALED = False


def _directory_bytes(root: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(root)
        for name in names
    )


class State:
    def __init__(self, ctx: Context) -> None:
        self.seed = ctx.seed
        self.work_dir = ctx.work_dir
        self.counter = 0
        self.ingest: List[float] = []
        self.stream: List[float] = []
        self.edges_scanned = 0
        self.replication_factor = 0.0
        self.shard_bytes = 0
        self.reference = None

    def source(self):
        from repro.ooc import SyntheticChunkSource

        return SyntheticChunkSource(
            VERTICES, EDGES, seed=self.seed, skew=SKEW, chunk_edges=CHUNK_EDGES
        )

    def unit(self, kind: str):
        from repro.algorithms import run_algorithm
        from repro.ooc import ingest_source
        from repro.session.store import ArtifactStore

        self.counter += 1
        store_dir = self.work_dir / f"store-{self.counter}"
        start = time.perf_counter()
        graph, report = ingest_source(
            ArtifactStore(store_dir), self.source(), PARTITIONER, PARTITIONS,
            seed=self.seed, chunk_edges=CHUNK_EDGES,
        )
        ingested = time.perf_counter()
        results = [run_algorithm(name, graph, num_iterations=ITERATIONS) for name in ("PR", "CC")]
        done = time.perf_counter()
        self.ingest.append(ingested - start)
        self.stream.append(done - ingested)
        return store_dir, graph, report, results

    def compute_reference(self) -> None:
        """PR and CC of the in-memory engine over the materialised stream."""
        from repro import PartitionedGraph
        from repro.algorithms import run_algorithm
        from repro.ooc import materialize

        pgraph = PartitionedGraph.partition(materialize(self.source()), PARTITIONER, PARTITIONS)
        self.reference = [
            (result.vertex_values, result.report.supersteps)
            for result in (
                run_algorithm(name, pgraph, num_iterations=ITERATIONS) for name in ("PR", "CC")
            )
        ]

    def finish_unit(self, checks: Optional[Checks], output) -> None:
        """Compare with the in-memory engine, then drop the unit's store."""
        store_dir, graph, report, results = output
        self.replication_factor = report.replication_factor
        self.shard_bytes = _directory_bytes(store_dir)
        self.edges_scanned = sum(
            record.edges_scanned for result in results for record in result.report.supersteps
        )
        graph.release()
        shutil.rmtree(store_dir)
        if checks is None:
            return
        for name, result, (values, supersteps) in zip(("PR", "CC"), results, self.reference):
            checks.expect(
                result.vertex_values == values and result.report.supersteps == supersteps,
                f"ooc_stream/{name}: streamed result differs from the in-memory engine",
            )


def prepare(ctx: Context) -> State:
    state = State(ctx)
    state.finish_unit(None, state.unit("job"))  # discarded warm-up unit
    return state


def measure(ctx: Context, state: State, seconds: float, log: UnitLog, checks: Checks,
            tracer=None) -> None:
    if state.reference is None:
        state.compute_reference()
    state.ingest.clear()
    state.stream.clear()
    run_units(
        ["job"], state.unit, seconds, log,
        after=lambda kind, output: state.finish_unit(checks, output),
        tracer=tracer, min_passes=5,
    )


def verify(ctx: Context, state: State, checks: Checks) -> None:
    """Every unit is compared with the in-memory engine as it finishes."""


def e2e(state: State, log: UnitLog, scaled: bool) -> Dict[str, float]:
    return {
        "work_per_s": state.edges_scanned / log.per_kind(state.stream, scaled)["job"],
        "latency_ms": log.typical_unit_seconds(scaled) * 1000.0,
    }


def layers(state: State, log: UnitLog) -> Dict[str, float]:
    return {
        "ooc.ingest_edges_per_s": EDGES / log.per_kind(state.ingest, SCALED)["job"],
        "ooc.shard_bytes": state.shard_bytes,
        "ooc.replication_factor": state.replication_factor,
    }
