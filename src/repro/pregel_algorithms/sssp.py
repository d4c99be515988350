"""SSSP on the Pregel+ baseline (single message type, global min
combiner — the easy case Pregel was designed for)."""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather
from repro.core.combiner import MIN_F64
from repro.graph.graph import Graph
from repro.pregel import PregelPlusEngine, PregelProgram
from repro.runtime.serialization import FLOAT64

__all__ = ["SSSPPregel", "run_sssp_pregel"]


class SSSPPregel(PregelProgram):
    message_codec = FLOAT64
    combiner = MIN_F64
    source = 0

    def __init__(self, worker):
        super().__init__(worker)
        self.dist = np.full(worker.num_local, np.inf)

    def _relax(self, v, d: float) -> None:
        self.dist[v.local] = d
        g = self.worker.graph
        ws = v.edge_weights if g.weighted else np.ones(v.out_degree)
        for e, w in zip(v.edges, ws):
            v.send_message(int(e), d + float(w))

    def compute(self, v, messages) -> None:
        if self.step_num == 1:
            if v.id == self.source:
                self._relax(v, 0.0)
        elif messages is not None and messages < self.dist[v.local]:
            self._relax(v, float(messages))
        v.vote_to_halt()

    def finalize(self) -> np.ndarray:
        return self.dist


def run_sssp_pregel(graph: Graph, source: int = 0, **engine_kwargs):
    """Run Pregel+ SSSP; returns ``(dists, EngineResult)``."""
    program = type("SSSPPregel", (SSSPPregel,), {"source": source})
    result = PregelPlusEngine(graph, program, mode="basic", **engine_kwargs).run()
    return gather(result, graph.num_vertices, dtype=np.float64), result
