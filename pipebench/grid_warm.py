"""``grid_warm``: the paper grid re-run on one long-lived session.

Set-up generates the nine datasets and builds every paper partitioner at
128 and 256 partitions with engine state materialised.  A unit re-runs
PR, CC, TR and SSSP over one dataset's 12 cached placements (48 cells)
through ``ExperimentPlan.run(workers=1)``, so the timed work is all engine
and algorithms: generation and partitioning show only in ``setup_s``.
"""

from __future__ import annotations

import random
from typing import Dict, List

from .common import Checks, Context, UnitLog, run_units
from .run_cold import record_fingerprint

SCALE = 0.25
GRANULARITIES = (128, 256)
ALGORITHMS = ("PR", "CC", "TR", "SSSP")
#: Cells checked against networkx per run.
ORACLE_SAMPLES = 3
#: Whether unit times are scaled to the reference host speed (see
#: pipebench.common); measured to lower this workload's run-to-run spread.
SCALED = True


class State:
    def __init__(self, ctx: Context) -> None:
        from repro import PAPER_DATASET_NAMES, PAPER_PARTITIONER_NAMES, Session

        self.datasets: List[str] = list(PAPER_DATASET_NAMES)
        self.partitioners: List[str] = list(PAPER_PARTITIONER_NAMES)
        self.session = Session(scale=SCALE, seed=ctx.seed)
        for dataset in self.datasets:
            for partitioner in self.partitioners:
                for partitions in GRANULARITIES:
                    self.session.partitioned(dataset, partitioner, partitions, engine_ready=True)
        self.cells_per_unit = len(self.partitioners) * len(GRANULARITIES) * len(ALGORITHMS)
        self.reference: Dict[str, str] = {}
        #: Session cache accounting around the timed units.
        self.stats_before = self.stats_after = self.session.stats

    def unit(self, dataset: str):
        return (
            self.session.plan()
            .datasets(dataset)
            .granularities(*GRANULARITIES)
            .algorithms(*ALGORITHMS)
            .run(workers=1)
        )

    def check_unit(self, checks: Checks, dataset: str, records) -> None:
        """Every repeat of a dataset's grid must reproduce its first records."""
        checks.ran(len(records) - 1)
        fingerprint = record_fingerprint(records)
        first = self.reference.setdefault(dataset, fingerprint)
        checks.expect(
            len(records) == self.cells_per_unit and fingerprint == first,
            f"grid_warm/{dataset}: records differ from the dataset's first unit",
        )


def prepare(ctx: Context) -> State:
    state = State(ctx)
    state.unit(state.datasets[0])  # discarded warm-up unit
    return state


def measure(ctx: Context, state: State, seconds: float, log: UnitLog, checks: Checks,
            tracer=None) -> None:
    state.stats_before = state.session.stats
    run_units(
        state.datasets, state.unit, seconds, log,
        after=lambda dataset, records: state.check_unit(checks, dataset, records),
        tracer=tracer,
    )
    state.stats_after = state.session.stats


def verify(ctx: Context, state: State, checks: Checks) -> None:
    from .oracle import check_placement

    rng = random.Random(ctx.seed)
    for _ in range(ORACLE_SAMPLES):
        dataset = rng.choice(state.datasets)
        partitioner = rng.choice(state.partitioners)
        partitions = rng.choice(GRANULARITIES)
        pgraph = state.session.partitioned(dataset, partitioner, partitions, engine_ready=True)
        check_placement(checks, pgraph, f"grid_warm/{dataset}/{partitioner}/{partitions}")


def e2e(state: State, log: UnitLog, scaled: bool) -> Dict[str, float]:
    cells = state.cells_per_unit * len(log.samples)
    return {
        "work_per_s": cells / log.pass_seconds(scaled),
        "latency_ms": log.typical_unit_seconds(scaled) * 1000.0,
    }


def layers(state: State, log: UnitLog) -> Dict[str, float]:
    before, after = state.stats_before, state.stats_after
    hits = after.partition_hits - before.partition_hits
    lookups = hits + after.partition_misses - before.partition_misses
    return {
        "session.partition_hit_ratio": hits / max(1, lookups),
        "session.partition_lookups": lookups,
    }
