"""The benchmark's workloads: inputs, one timed execution, checks.

Every workload builds ``instances`` independent inputs from the run's
seed (instance ``i`` uses seed ``100 * seed + i``), so one run averages
over several graphs and its counts do not hinge on one graph's shape.

One *repetition* executes one instance end to end.  Its wall runs from
the engine's construction until results are in hand and ``close()`` has
returned, so it includes pool spawn, result collection and shutdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import oracle
from repro.algorithms._common import gather
from repro.algorithms.pagerank import DAMPING, PageRankScatterBulk
from repro.algorithms.wcc import WCCBasicBulk
from repro.core.engine import ChannelEngine
from repro.graph.generators import erdos_renyi, grid_road, rmat
from repro.graph.partition import hash_partition
from repro.streaming import EpochEngine, SSSPStream, synthesize_stream

#: worker processes / simulated workers, sized for a 2-CPU host: the
#: process workloads run 2 workers plus the waiting parent
WORKERS = 2

#: input sizes; "tiny" is for the smoke test only
SIZES = {
    "full": {
        "pagerank-process": {"vertices": 100_000, "avg_degree": 8.0},
        "wcc-sim": {"scale": 17, "edge_factor": 8},
        "sssp-stream-process": {"rows": 150, "cols": 150, "batches": 6,
                                "insertions": 100, "deletions": 100},
    },
    "tiny": {
        "pagerank-process": {"vertices": 2_000, "avg_degree": 8.0},
        "wcc-sim": {"scale": 10, "edge_factor": 8},
        "sssp-stream-process": {"rows": 20, "cols": 20, "batches": 2,
                                "insertions": 10, "deletions": 10},
    },
}


@dataclass
class Instance:
    """One input: graph, partition, optional update stream, reference."""

    seed: int
    graph: object
    partition: np.ndarray
    setup: dict  # seconds per setup step, plus "total"
    batches: list = field(default_factory=list)
    source: int | None = None
    reference: list = field(default_factory=list)  # one entry per engine run


@dataclass
class Outcome:
    """What one repetition produced."""

    wall: float
    epoch_times: list  # per incremental run (the single run for one-shot)
    metrics: list  # MetricsCollector per engine run
    values: list  # dense result array per engine run (dropped once checked)
    spawned: int
    affected: int = 0


# -- setup --------------------------------------------------------------------
def _timed(setup: dict, key: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    setup[key] = time.perf_counter() - t0
    return out


def _finish(seed, graph, setup, t0, **kwargs) -> Instance:
    partition = _timed(setup, "graph.partition", hash_partition,
                       graph.num_vertices, WORKERS, seed=seed)
    inst = Instance(seed, graph, partition, setup, **kwargs)
    setup["total"] = time.perf_counter() - t0
    return inst


def setup_pagerank(seed: int, size: dict) -> Instance:
    setup: dict = {}
    t0 = time.perf_counter()
    graph = _timed(setup, "graph.build", erdos_renyi, size["vertices"],
                   size["avg_degree"], seed=seed, directed=True)
    return _finish(seed, graph, setup, t0)


def setup_wcc(seed: int, size: dict) -> Instance:
    setup: dict = {}
    t0 = time.perf_counter()
    graph = _timed(setup, "graph.build", rmat, size["scale"],
                   edge_factor=size["edge_factor"], seed=seed, directed=False)
    return _finish(seed, graph, setup, t0)


def setup_sssp(seed: int, size: dict) -> Instance:
    setup: dict = {}
    t0 = time.perf_counter()
    graph = _timed(setup, "graph.build", grid_road, size["rows"], size["cols"],
                   seed=seed)
    batches = _timed(setup, "streaming.synthesize", synthesize_stream, graph,
                     size["batches"], size["insertions"], size["deletions"],
                     seed=seed)
    # the thinned grid can strand a corner; start from the smallest vertex
    # of the largest component so every seed relaxes a road-sized region
    comp = oracle.components(graph)
    source = int(np.bincount(comp).argmax())
    return _finish(seed, graph, setup, t0, batches=batches, source=source)


# -- references (outside every timed region) ------------------------------------
def reference_pagerank(inst: Instance) -> list:
    return [oracle.pagerank(inst.graph, PageRankScatterBulk.iterations, DAMPING)]


def reference_components(inst: Instance) -> list:
    return [oracle.components(inst.graph)]


def reference_sssp(inst: Instance) -> list:
    return oracle.stream_distances(inst.graph, inst.batches, inst.source)


# -- one timed repetition ---------------------------------------------------------
def _run_engine(inst: Instance, program, executor: str, dtype) -> Outcome:
    t0 = time.perf_counter()
    engine = ChannelEngine(inst.graph, program, num_workers=WORKERS,
                           partition=inst.partition, executor=executor)
    try:
        t_run = time.perf_counter()
        result = engine.run()
        run_s = time.perf_counter() - t_run
    finally:
        engine.close()
    wall = time.perf_counter() - t0
    spawned = engine.backend.pool.spawn_count if executor == "process" else 0
    values = gather(result, inst.graph.num_vertices, dtype=dtype)
    return Outcome(wall, [run_s], [result.metrics], [values], spawned)


def execute_pagerank(inst: Instance) -> Outcome:
    return _run_engine(inst, PageRankScatterBulk, "process", np.float64)


def execute_wcc(inst: Instance) -> Outcome:
    return _run_engine(inst, WCCBasicBulk, "sim", np.int64)


def execute_sssp(inst: Instance) -> Outcome:
    t0 = time.perf_counter()
    stream = EpochEngine(inst.graph, SSSPStream(source=inst.source),
                         num_workers=WORKERS, partition=inst.partition,
                         executor="process")
    epoch_times = []
    try:
        stream.bootstrap()
        for batch in inst.batches:
            t_epoch = time.perf_counter()
            stream.run_epoch(batch)
            epoch_times.append(time.perf_counter() - t_epoch)
        spawned = stream.pool.spawn_count
    finally:
        stream.close()
    wall = time.perf_counter() - t0
    history = stream.history
    n = inst.graph.num_vertices
    values = [gather(h.result, n, dtype=np.float64) for h in history]
    return Outcome(
        wall,
        epoch_times,
        [h.result.metrics for h in history],
        values,
        spawned,
        affected=sum(h.affected for h in history[1:]),
    )


# -- checks ------------------------------------------------------------------------
def plant_error(values: np.ndarray, kind: str) -> None:
    """Plant one wrong value (for showing that the check catches it)."""
    if kind == "partition":
        # a vertex with an edge-mate alone in a class of its own
        values[int(np.argmax(values != np.arange(values.size)))] = -1
    elif kind == "ranks":
        values[0] *= 1.5
    else:
        finite = np.flatnonzero(np.isfinite(values) & (values > 0))
        values[finite[0]] += 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int  # inputs per run (full size)
    setup: object
    reference: object
    execute: object
    compare: object
    kind: str  # what plant_error corrupts


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pagerank-process", 3, setup_pagerank, reference_pagerank,
                 execute_pagerank, oracle.same_ranks, "ranks"),
        Workload("wcc-sim", 6, setup_wcc, reference_components,
                 execute_wcc, oracle.same_partition, "partition"),
        Workload("sssp-stream-process", 4, setup_sssp, reference_sssp,
                 execute_sssp, oracle.same_distances, "distances"),
    )
}


def check(workload: Workload, inst: Instance, out: Outcome, plant: bool) -> int:
    """Number of engine runs whose result disagrees with the reference."""
    bad = 0
    for values, reference in zip(out.values, inst.reference, strict=True):
        if plant:
            plant_error(values, workload.kind)
        if not workload.compare(values, reference):
            bad += 1
    return bad
