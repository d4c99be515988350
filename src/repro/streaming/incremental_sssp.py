"""Incremental SSSP: delta-faithful re-relaxation with deletion-triggered
invalidation.

Distances only ever *shrink* under Bellman-Ford relaxation, so the two
halves of a delta need different treatment:

* **insertions** can only shorten paths — seeding the inserted arcs'
  sources and re-relaxing converges from the warm distances directly.
* **deletions** can lengthen paths, so warm distances that *depended* on a
  deleted arc are poison.  The planner walks the old shortest-path DAG
  downstream from each deleted arc (``dist[v] == dist[u] + w``, exact FP
  equality — the stored distances were produced by that very addition)
  and invalidates the closure back to ``inf``.  Surviving in-neighbors of
  the invalidated region are seeded to re-relax it.

Because relaxation's fixed point on the mutated graph is unique — path
lengths are folded left-to-right along each path in both runs and MIN is
exact — the refreshed distances are bit-identical to a cold full run.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.sssp import run_sssp
from repro.core import BulkVertexProgram, CombinedMessage, MIN_F64, ProgramSpec
from repro.graph.graph import Graph
from repro.streaming.delta import ApplyStats
from repro.streaming.plan import RefreshPlan, StreamAlgorithm, in_neighbor_mask
from repro.util import expand_ranges

__all__ = ["SSSPIncrementalBulk", "SSSPStream", "invalidated_by_deletions"]


class SSSPIncrementalBulk(BulkVertexProgram):
    """Warm-started Bellman-Ford relaxation.

    Superstep 1 re-announces ``dist + w`` from every seeded vertex with a
    finite warm distance (invalidated vertices hold ``inf`` and stay
    silent); later supersteps are exactly the cold
    :class:`~repro.algorithms.sssp.SSSPBasicBulk` relax-on-improvement
    loop.  With ``warm_dist = [0 at source, inf elsewhere]`` and all
    vertices seeded, superstep 1 degenerates to the cold program's
    source-only kick-off.

    ``announce_targets`` restricts superstep 1 to destinations that can
    actually use a re-announcement: the invalidated region plus inserted
    arcs' heads.  Dropping the rest is sound — for a surviving arc
    ``(u, v)`` between surviving vertices, the old fixed point already
    guarantees ``dist(v) <= dist(u) + w`` — and spares the flood of
    no-op messages a large boundary would otherwise send.
    """

    warm_dist: np.ndarray  # (n,) float64, set by the planner
    announce_targets: np.ndarray | None = None  # (n,) bool, None = all

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, MIN_F64)
        self.dist = self.warm_dist[worker.local_ids].copy()

    def compute_bulk(self, active: np.ndarray) -> None:
        worker = self.worker
        adj = worker.local_adjacency()
        if self.step_num == 1:
            settled = active[np.isfinite(self.dist[active])]
            dists = self.dist[settled]
        else:
            inbox, _ = self.msg.get_messages()
            m = inbox[active]
            improved = m < self.dist[active]
            settled = active[improved]
            dists = m[improved]
            self.dist[settled] = dists
        if settled.size:
            dsts = adj.gather(settled)
            w = adj.gather_weights(settled)
            vals = np.repeat(dists, adj.degrees[settled]) + w
            if self.step_num == 1 and self.announce_targets is not None:
                keep = self.announce_targets[dsts]
                dsts, vals = dsts[keep], vals[keep]
            self.msg.send_messages(dsts, vals)
        worker.halt_bulk(active)

    def finalize(self) -> np.ndarray:
        return self.dist


def invalidated_by_deletions(
    old_graph: Graph, dist: np.ndarray, stats: ApplyStats, source: int
) -> np.ndarray:
    """Boolean mask of vertices whose warm distance may have flowed
    through a deleted arc (downstream closure over the old SP-DAG)."""
    n = old_graph.num_vertices
    inval = np.zeros(n, dtype=bool)
    if stats.del_src.size == 0:
        return inval
    w = (
        stats.del_weights
        if stats.del_weights is not None
        else np.ones(stats.del_src.size)
    )
    u, v = stats.del_src, stats.del_dst
    hit = np.isfinite(dist[u]) & (dist[v] == dist[u] + w) & (v != source)
    frontier = np.unique(v[hit])
    indptr, indices, weights = old_graph.indptr, old_graph.indices, old_graph.weights
    while frontier.size:
        inval[frontier] = True
        deg = indptr[frontier + 1] - indptr[frontier]
        pos = expand_ranges(indptr[frontier], deg)
        x = indices[pos]
        wx = np.ones(x.size) if weights is None else weights[pos]
        p = np.repeat(frontier, deg)
        ok = (
            (x != source)
            & ~inval[x]
            & np.isfinite(dist[p])
            & (dist[x] == dist[p] + wx)
        )
        frontier = np.unique(x[ok])
    return inval


class SSSPStream(StreamAlgorithm):
    name = "sssp"

    def __init__(self, source: int = 0):
        self.source = source

    def plan(
        self,
        old_graph: Graph,
        new_graph: Graph,
        stats: ApplyStats | None,
        state: dict | None,
        refresh: str,
    ) -> RefreshPlan:
        n_new = new_graph.num_vertices
        if refresh == "full" or state is None or stats is None:
            warm = np.full(n_new, np.inf)
            warm[self.source] = 0.0
            plan_seeds, affected, mode, targets = None, n_new, "full", None
        else:
            dist = state["dist"]
            n_old = dist.size
            inval = invalidated_by_deletions(old_graph, dist, stats, self.source)
            warm = np.concatenate([dist, np.full(n_new - n_old, np.inf)])
            warm[:n_old][inval] = np.inf
            seed = np.zeros(n_new, dtype=bool)
            # surviving boundary: whoever can still reach the invalidated
            # region in the new graph re-announces its distance
            if inval.any():
                inval_new = np.zeros(n_new, dtype=bool)
                inval_new[:n_old] = inval
                seed |= in_neighbor_mask(new_graph, inval_new)
            seed[stats.ins_src] = True
            seed &= np.isfinite(warm)  # silent vertices need not wake
            plan_seeds = np.flatnonzero(seed)
            affected = int(inval.sum() + stats.ins_src.size)
            mode = "incremental"
            # step-1 announcements only help where warm state was torn up
            targets = np.zeros(n_new, dtype=bool)
            targets[:n_old] = inval
            targets[stats.ins_dst] = True

        # a ProgramSpec (rather than an anonymous type(...)) so the plan
        # can cross into a persistent worker pool's live processes
        program = ProgramSpec(
            SSSPIncrementalBulk,
            {"warm_dist": warm, "announce_targets": targets},
        )
        return RefreshPlan(
            program_factory=program, seeds=plan_seeds, affected=affected, mode=mode
        )

    def collect(self, engine, result) -> dict:
        return {"dist": result.data.astype(np.float64)}

    def cold_run(self, graph: Graph, num_workers: int, partition: np.ndarray):
        return run_sssp(
            graph,
            source=self.source,
            variant="basic",
            mode="bulk",
            num_workers=num_workers,
            partition=partition,
        )
