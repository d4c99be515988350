"""Incremental WCC: hash-min with component-merge wakeup.

Old labels are converged hash-min labels (the min vertex id of each weak
component), which doubles as a component id map — that is what makes the
deletion story cheap to plan centrally:

* **insertions** can only merge components; waking the two endpoints and
  letting the usual hash-min wave run re-labels the losing component.
* **deletions** can split a component, and hash-min cannot raise a label,
  so a component a deletion *actually disconnected* is *reset* (labels
  back to ``v``) and re-run from scratch — a cold run confined to those
  components.  Most deletions on well-connected graphs disconnect
  nothing, so the planner first probes each deleted edge with a bounded
  BFS on the mutated graph: finding the far endpoint within
  ``probe_cap`` visits proves the component survived intact and no reset
  is needed.  An exhausted probe is treated (conservatively) as a split.
  Untouched components are never activated.

The refresh program is the cold :class:`~repro.algorithms.wcc.WCCBasicBulk`
with one change: in superstep 1 it broadcasts its *warm* label instead of
its own id.  Since labels are exact ints under a MIN combine, the final
labels are bit-identical to a cold full run on the mutated graph.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.wcc import run_wcc
from repro.core import BulkVertexProgram, CombinedMessage, MIN_I64, ProgramSpec
from repro.graph.graph import Graph
from repro.streaming.delta import ApplyStats
from repro.streaming.plan import RefreshPlan, StreamAlgorithm

__all__ = ["WCCIncrementalBulk", "WCCStream"]


class WCCIncrementalBulk(BulkVertexProgram):
    """Warm-started hash-min over the ``"both"``-direction adjacency.

    ``warm_labels`` (class attribute, baked in by the planner) holds the
    label each vertex starts from: previous-epoch labels, with reset
    components set back to ``label[v] = v``.  With ``warm_labels =
    arange(n)`` and all vertices seeded this is exactly the cold
    :class:`~repro.algorithms.wcc.WCCBasicBulk`.
    """

    warm_labels: np.ndarray  # (n,) int64, set by the planner

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, MIN_I64)
        self.label = self.warm_labels[worker.local_ids].copy()

    def compute_bulk(self, active: np.ndarray) -> None:
        worker = self.worker
        adj = worker.local_adjacency("both")
        if self.step_num == 1:
            senders = active
            new = self.label[active]
        else:
            inbox, _ = self.msg.get_messages()
            m = inbox[active]
            improved = m < self.label[active]
            senders = active[improved]
            new = m[improved]
            self.label[senders] = new
        if senders.size:
            dsts = adj.gather(senders)
            self.msg.send_messages(dsts, np.repeat(new, adj.degrees[senders]))
        worker.halt_bulk(active)

    def finalize(self) -> np.ndarray:
        return self.label


def still_connected(graph: Graph, u: int, v: int, cap: int) -> bool:
    """Bounded undirected BFS: ``True`` proves ``u`` and ``v`` remain
    weakly connected; ``False`` after ``cap`` visits proves nothing (the
    caller must treat it as a possible split)."""
    if u == v:
        return True
    seen = {u}
    frontier = [u]
    while frontier and len(seen) < cap:
        nxt = []
        for x in frontier:
            nbrs = (
                graph.neighbors(x)
                if not graph.directed
                else np.concatenate([graph.neighbors(x), graph.in_neighbors(x)])
            )
            for y in nbrs.tolist():
                if y == v:
                    return True
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) >= cap:
                        break
        frontier = nxt
    return False


class WCCStream(StreamAlgorithm):
    """``probe_cap`` bounds the per-deleted-edge reconnection probe
    (0 disables probing — every touched component resets)."""

    name = "wcc"

    def __init__(self, probe_cap: int = 1024):
        self.probe_cap = probe_cap

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
            warm = np.arange(n_new, dtype=np.int64)
            plan_seeds, affected, mode = None, n_new, "full"
        else:
            labels = state["labels"]
            n_old = labels.size
            warm = np.concatenate(
                [labels, np.arange(n_old, n_new, dtype=np.int64)]
            )
            seed = np.zeros(n_new, dtype=bool)
            if stats.del_src.size:
                # probe each deleted edge; reset only components whose
                # endpoints could not be re-connected (possible split)
                lo = np.minimum(stats.del_src, stats.del_dst)
                hi = np.maximum(stats.del_src, stats.del_dst)
                pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
                split = [
                    (int(u), int(v))
                    for u, v in pairs
                    if not still_connected(new_graph, int(u), int(v), self.probe_cap)
                ]
                if split:
                    comp_ids = np.unique(
                        np.array([labels[x] for uv in split for x in uv])
                    )
                    reset = np.isin(labels, comp_ids)
                    idx = np.flatnonzero(reset)
                    warm[idx] = idx
                    seed[idx] = True
            # component-merge wakeup: insertion endpoints re-announce labels
            seed[stats.ins_src] = True
            seed[stats.ins_dst] = True
            plan_seeds = np.flatnonzero(seed)
            affected, mode = int(plan_seeds.size), "incremental"

        # a ProgramSpec (rather than an anonymous type(...)) so the plan
        # can cross into a persistent worker pool's live processes
        program = ProgramSpec(WCCIncrementalBulk, {"warm_labels": warm})
        return RefreshPlan(
            program_factory=program, seeds=plan_seeds, affected=affected, mode=mode
        )

    def collect(self, engine, result) -> dict:
        return {"labels": result.data.astype(np.int64)}

    def cold_run(self, graph: Graph, num_workers: int, partition: np.ndarray):
        return run_wcc(
            graph,
            variant="basic",
            mode="bulk",
            num_workers=num_workers,
            partition=partition,
        )
