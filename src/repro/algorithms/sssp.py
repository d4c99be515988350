"""Single-source shortest paths (weighted, non-negative).

Not part of the paper's tables but one of its motivating algorithms;
included as a library algorithm and example workload.

* ``SSSPBasic`` — Bellman-Ford-style relaxation over a
  ``CombinedMessage(MIN)`` channel, the classic Pregel SSSP.
* ``SSSPPropagation`` — the ``Propagation`` channel with
  ``edge_fn = dist + w``: the relaxation runs to fixpoint inside one
  superstep.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, resolve_mode
from repro.core import (
    BulkVertexProgram,
    ChannelEngine,
    CombinedMessage,
    MIN_F64,
    Propagation,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import Graph

__all__ = [
    "SSSPBasic",
    "SSSPBasicBulk",
    "SSSPPropagation",
    "run_sssp",
    "make_sssp_program",
]


def _weights(v: Vertex) -> np.ndarray:
    g = v._worker.graph
    if g.weighted:
        return v.edge_weights
    return np.ones(v.out_degree)


class SSSPBasic(VertexProgram):
    """Pregel-style SSSP: relax on message arrival."""

    source = 0

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, MIN_F64)
        self.dist = np.full(worker.num_local, np.inf)

    def _relax(self, v: Vertex, d: float) -> None:
        self.dist[v.local] = d
        send = self.msg.send_message
        for e, w in zip(v.edges, _weights(v)):
            send(int(e), d + float(w))

    def compute(self, v: Vertex) -> None:
        if self.step_num == 1:
            if v.id == self.source:
                self._relax(v, 0.0)
        else:
            m = float(self.msg.get_message(v))
            if m < self.dist[v.local]:
                self._relax(v, m)
        v.vote_to_halt()

    def finalize(self) -> np.ndarray:
        return self.dist


class SSSPBasicBulk(BulkVertexProgram):
    """Bulk port of :class:`SSSPBasic`: Bellman-Ford relaxation with whole
    -frontier edge gathers (weights come from the local CSR view)."""

    source = 0

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, MIN_F64)
        self.dist = np.full(worker.num_local, np.inf)

    def compute_bulk(self, active: np.ndarray) -> None:
        worker = self.worker
        adj = worker.local_adjacency()
        if self.step_num == 1:
            li = worker.local_index(self.source)
            settled = (
                np.asarray([li], dtype=np.int64) if li >= 0 else np.empty(0, np.int64)
            )
            dists = np.zeros(settled.size)
        else:
            inbox, _ = self.msg.get_messages()
            m = inbox[active]
            improved = m < self.dist[active]
            settled = active[improved]
            dists = m[improved]
        if settled.size:
            self.dist[settled] = dists
            dsts = adj.gather(settled)
            w = adj.gather_weights(settled)
            self.msg.send_messages(
                dsts, np.repeat(dists, adj.degrees[settled]) + w
            )
        worker.halt_bulk(active)

    def finalize(self) -> np.ndarray:
        return self.dist


class SSSPPropagation(VertexProgram):
    """SSSP on the Propagation channel (weighted relaxation to fixpoint)."""

    source = 0

    def __init__(self, worker):
        super().__init__(worker)
        self.prop = Propagation(worker, MIN_F64, edge_fn=lambda w, d: w + d)
        self.dist = np.full(worker.num_local, np.inf)

    def compute(self, v: Vertex) -> None:
        if self.step_num == 1:
            self.prop.add_edges(v, v.edges, _weights(v))
            if v.id == self.source:
                self.prop.set_value(v, 0.0)
        else:
            self.dist[v.local] = self.prop.get_value(v)
            v.vote_to_halt()

    def finalize(self) -> np.ndarray:
        return self.dist


_VARIANTS = {
    "basic": {"scalar": SSSPBasic, "bulk": SSSPBasicBulk},
    "prop": {"scalar": SSSPPropagation},
}


def make_sssp_program(variant: str, source: int, mode: str = "scalar"):
    """A program class with the source baked in."""
    base = resolve_mode(_VARIANTS, variant, mode)
    return type(base.__name__, (base,), {"source": source})


def run_sssp(
    graph: Graph,
    source: int = 0,
    variant: str = "basic",
    mode: str = "scalar",
    **engine_kwargs,
):
    """Run SSSP; returns ``(dists, EngineResult)`` (inf = unreachable).

    ``mode="bulk"`` selects the columnar compute path (``"basic"`` only).
    """
    program = make_sssp_program(variant, source, mode)
    result = ChannelEngine(graph, program, **engine_kwargs).run()
    return gather(result, graph.num_vertices, dtype=np.float64), result
