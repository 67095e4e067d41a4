"""``run_cold``: ``repro run`` shaped work, one fresh session per dataset.

A unit is what ``repro run --datasets <d> --partitions 128 --algorithm pr``
does in a fresh process: a new :class:`~repro.session.Session` with no
store generates the dataset, places it with the six paper partitioners at
128 partitions (each placement computes its Section 3.1 metrics), runs
PageRank on every placement, and correlates the records.  Units cycle over
the nine catalog datasets.  Generation dominates this workload.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List

from .common import Checks, Context, UnitLog, run_units

SCALE = 0.25
PARTITIONS = 128
#: PR cells per unit: one per paper partitioner.
CELLS_PER_UNIT = 6
#: Placements checked against networkx per run.
ORACLE_SAMPLES = 2
#: Whether unit times are scaled to the reference host speed (see
#: pipebench.common); measured to lower this workload's run-to-run spread.
SCALED = True


def record_fingerprint(records) -> str:
    """Everything a record derives from the inputs (not its wall time)."""
    return json.dumps(
        [
            [r.dataset, r.partitioner, r.num_partitions, r.algorithm,
             repr(r.simulated_seconds), r.num_supersteps, repr(r.metrics)]
            for r in records
        ]
    )


class State:
    def __init__(self, ctx: Context) -> None:
        from repro import PAPER_DATASET_NAMES

        self.seed = ctx.seed
        self.datasets: List[str] = list(PAPER_DATASET_NAMES)
        self.reference: Dict[str, str] = {}
        self.partition_hits = 0
        self.partition_lookups = 0

    def unit(self, dataset: str):
        from repro import Session
        from repro.analysis import correlation_table

        session = Session(scale=SCALE, seed=self.seed)
        plan = session.plan().datasets(dataset).granularities(PARTITIONS).algorithms("PR")
        records = plan.run(workers=1)
        table = correlation_table(records)
        return records, table, session.stats

    def check_unit(self, checks: Checks, dataset: str, output) -> None:
        """Every repeat of a dataset must reproduce its first records exactly."""
        records, table, stats = output
        self.partition_hits += stats.partition_hits
        self.partition_lookups += stats.partition_hits + stats.partition_misses
        checks.ran(len(records) - 1)
        fingerprint = record_fingerprint(records) + json.dumps(table, sort_keys=True)
        first = self.reference.setdefault(dataset, fingerprint)
        checks.expect(
            len(records) == CELLS_PER_UNIT and fingerprint == first,
            f"run_cold/{dataset}: records differ from the dataset's first unit",
        )


def prepare(ctx: Context) -> State:
    state = State(ctx)
    state.unit(state.datasets[0])  # discarded warm-up unit
    return state


def measure(ctx: Context, state: State, seconds: float, log: UnitLog, checks: Checks,
            tracer=None) -> None:
    run_units(
        state.datasets, state.unit, seconds, log,
        after=lambda dataset, output: state.check_unit(checks, dataset, output),
        tracer=tracer,
    )


def verify(ctx: Context, state: State, checks: Checks) -> None:
    from repro import PAPER_PARTITIONER_NAMES, Session

    from .oracle import check_placement

    rng = random.Random(ctx.seed)
    for _ in range(ORACLE_SAMPLES):
        dataset = rng.choice(state.datasets)
        partitioner = rng.choice(list(PAPER_PARTITIONER_NAMES))
        pgraph = Session(scale=SCALE, seed=ctx.seed).partitioned(
            dataset, partitioner, PARTITIONS, engine_ready=True
        )
        check_placement(checks, pgraph, f"run_cold/{dataset}/{partitioner}/{PARTITIONS}")


def e2e(state: State, log: UnitLog, scaled: bool) -> Dict[str, float]:
    cells = CELLS_PER_UNIT * len(log.samples)
    return {
        "work_per_s": cells / log.pass_seconds(scaled),
        "latency_ms": log.typical_unit_seconds(scaled) * 1000.0,
    }


def layers(state: State, log: UnitLog) -> Dict[str, float]:
    return {
        "session.partition_hit_ratio": state.partition_hits / max(1, state.partition_lookups),
        "session.partition_lookups": state.partition_lookups,
    }
