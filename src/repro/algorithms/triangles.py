"""Triangle counting (undirected), the classic Pregel wedge-check.

Orient every edge from lower to higher id.  For each oriented wedge
``u -> v, u -> w`` (``v < w``), vertex ``u`` sends a probe ``w`` to ``v``;
``v`` confirms a triangle iff ``w`` is among its (oriented) neighbors.
Every triangle ``a < b < c`` is found exactly once — as ``a``'s wedge
``(b, c)`` checked at ``b``.

Communication is one probe per wedge, so this is the most
message-intensive algorithm in the library; the per-vertex probe lists
make it a natural DirectMessage workload, with an Aggregator reducing the
global count.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    Aggregator,
    ChannelEngine,
    DirectMessage,
    SUM_I64,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import Graph
from repro.runtime.serialization import INT32

__all__ = ["TriangleCounting", "run_triangles"]


class TriangleCounting(VertexProgram):
    """Three supersteps: probe, check, read the aggregate."""

    def __init__(self, worker):
        super().__init__(worker)
        self.probes = DirectMessage(worker, value_codec=INT32)
        self.agg = Aggregator(worker, SUM_I64)
        self.total = 0

    def _oriented(self, v: Vertex) -> np.ndarray:
        nbrs = v.edges
        return np.unique(nbrs[nbrs > v.id])

    def compute(self, v: Vertex) -> None:
        if self.step_num == 1:
            higher = self._oriented(v)
            # probe v's smaller oriented neighbor with each larger one
            send = self.probes.send_message
            for i in range(higher.size):
                for j in range(i + 1, higher.size):
                    send(int(higher[i]), int(higher[j]))
            v.vote_to_halt()
        elif self.step_num == 2:
            mine = set(self._oriented(v).tolist())
            found = sum(1 for w in self.probes.get_iterator(v).tolist() if w in mine)
            if found:
                self.agg.add(found)
            v.vote_to_halt()
        else:
            self.total = int(self.agg.result())
            v.vote_to_halt()

    def before_superstep(self) -> None:
        # steps 2 and 3 need every vertex that must check or read
        if self.worker.step_num in (1, 2):
            self.worker.activate_local_bulk(np.arange(self.worker.num_local))

    def finalize(self) -> np.ndarray:
        return np.full(self.worker.num_local, self.total)


def run_triangles(graph: Graph, **engine_kwargs):
    """Count triangles; returns ``(count, EngineResult)``."""
    if graph.directed:
        raise ValueError("triangle counting expects an undirected graph")
    result = ChannelEngine(graph, TriangleCounting, **engine_kwargs).run()
    counts = np.unique(result.data)
    assert counts.size == 1, "aggregator must broadcast one global count"
    return int(counts[0]), result
