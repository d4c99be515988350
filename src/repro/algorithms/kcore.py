"""k-core decomposition: the coreness of every vertex.

Distributed h-index iteration (Montresor et al.'s locality-based k-core):
every vertex starts with ``core = degree`` and repeatedly lowers it to
the *h-index* of its neighbors' current estimates (the largest ``h`` such
that at least ``h`` neighbors claim ``core >= h``).  Estimates only
decrease and converge to the true coreness.

Each vertex needs its neighbors' *individual* estimates — not a
reduction — so messages are ``(sender, estimate)`` pairs over a
DirectMessage channel; only vertices whose estimate dropped re-broadcast,
and vote-to-halt gives message-driven termination.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather
from repro.core import ChannelEngine, DirectMessage, Vertex, VertexProgram
from repro.graph.graph import Graph
from repro.runtime.serialization import INT32, pair_codec

__all__ = ["KCore", "run_kcore", "h_index"]

PAIR = pair_codec(INT32, INT32, name="kcore_pair")


def h_index(values: np.ndarray) -> int:
    """Largest h such that at least h entries are >= h."""
    if values.size == 0:
        return 0
    vals = np.sort(values)[::-1]
    ranks = np.arange(1, vals.size + 1)
    ok = vals >= ranks
    return int(ranks[ok][-1]) if ok.any() else 0


class KCore(VertexProgram):
    """H-index iteration to the coreness fixpoint."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = DirectMessage(worker, value_codec=PAIR)
        self.core = np.zeros(worker.num_local, dtype=np.int64)
        # per-vertex map: neighbor id -> last announced estimate
        self.heard: list[dict[int, int]] = [dict() for _ in range(worker.num_local)]

    def _broadcast(self, v: Vertex, est: int) -> None:
        send = self.msg.send_message
        payload = (v.id, est)
        for e in v.edges:
            send(int(e), payload)

    def compute(self, v: Vertex) -> None:
        i = v.local
        if self.step_num == 1:
            self.core[i] = v.out_degree
            if v.out_degree:
                self._broadcast(v, int(self.core[i]))
            v.vote_to_halt()
            return
        heard = self.heard[i]
        for rec in self.msg.get_iterator(v):
            heard[int(rec["a"])] = int(rec["b"])
        if heard:
            est = h_index(np.fromiter(heard.values(), dtype=np.int64, count=len(heard)))
            if est < self.core[i]:
                self.core[i] = est
                self._broadcast(v, est)
        v.vote_to_halt()

    def finalize(self) -> np.ndarray:
        return self.core


def run_kcore(graph: Graph, **engine_kwargs):
    """Compute coreness; returns ``(core_numbers, EngineResult)``."""
    if graph.directed:
        raise ValueError("k-core expects an undirected graph")
    result = ChannelEngine(graph, KCore, **engine_kwargs).run()
    return gather(result, graph.num_vertices), result
