"""Min-Label strongly connected components (Yan et al., the paper's
Table VII workload).

Each outer iteration over the remaining ("alive") subgraph:

1. **trim** — vertices with no alive in-neighbor or no alive out-neighbor
   are trivial SCCs and drop out;
2. **forward/backward label propagation** — every alive vertex seeds its
   own id; the minimum reachable id flows along out-edges (``fwd``) and
   along in-edges (``bwd``) until fixpoint;
3. **detect** — vertices with ``fwd == bwd == L`` form the SCC of ``L``
   and drop out.

The iteration repeats until no vertex is alive.  Label propagation is the
convergence bottleneck ("the algorithm suffers the problem of low
convergence speed"); the ``SCCPropagation`` variant swaps the two
label channels for ``Propagation`` channels — the paper's "quick fix ...
not possible in any of the existing systems" — collapsing each
propagation phase into a single superstep.

The phase controller runs in ``before_superstep`` on every worker,
driven only by aggregator results, so all workers stay in lockstep.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather
from repro.core import (
    Aggregator,
    ChannelEngine,
    CombinedMessage,
    MIN_I32,
    Propagation,
    SUM_I32,
    SUM_I64,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import Graph

__all__ = ["SCCBasic", "SCCPropagation", "run_scc"]

_I32_MAX = int(np.iinfo(np.int32).max)


class _SCCBase(VertexProgram):
    """Shared state and phase controller for both SCC variants."""

    def __init__(self, worker):
        super().__init__(worker)
        # trim pings: "you have an alive in-neighbor" / "... out-neighbor"
        self.ping_in = CombinedMessage(worker, SUM_I32)
        self.ping_out = CombinedMessage(worker, SUM_I32)
        self.agg_alive = Aggregator(worker, SUM_I64)

        n = worker.num_local
        self.alive = np.ones(n, dtype=bool)
        self.scc = np.full(n, -1, dtype=np.int64)
        self.state = "init"

    # -- helpers --------------------------------------------------------
    def _wake_alive(self) -> None:
        self.worker.activate_local_bulk(np.flatnonzero(self.alive))

    def _die(self, v: Vertex, label: int) -> None:
        self.alive[v.local] = False
        self.scc[v.local] = label
        v.vote_to_halt()

    def _send_pings(self, v: Vertex) -> None:
        g = self.worker.graph
        send_in = self.ping_in.send_message  # tells receivers: alive in-nbr
        for e in g.neighbors(v.id):
            send_in(int(e), 1)
        send_out = self.ping_out.send_message  # tells receivers: alive out-nbr
        for e in g.in_neighbors(v.id):
            send_out(int(e), 1)

    def _trim(self, v: Vertex) -> bool:
        """Returns True if v survives (has alive in- and out-neighbors)."""
        if not (self.ping_in.has_message(v) and self.ping_out.has_message(v)):
            self._die(v, v.id)
            return False
        return True

    def finalize(self) -> np.ndarray:
        return self.scc


class SCCBasic(_SCCBase):
    """Min-Label with standard channels: each propagation hop costs one
    superstep."""

    def __init__(self, worker):
        super().__init__(worker)
        self.fmsg = CombinedMessage(worker, MIN_I32)
        self.bmsg = CombinedMessage(worker, MIN_I32)
        self.agg_change = Aggregator(worker, SUM_I64)
        n = worker.num_local
        self.fwd = np.full(n, _I32_MAX, dtype=np.int64)
        self.bwd = np.full(n, _I32_MAX, dtype=np.int64)

    # -- controller ----------------------------------------------------------
    def before_superstep(self) -> None:
        s = self.state
        if s == "init":
            self.state = "ping"
        elif s == "ping":
            self.state = "apply"
            self._wake_alive()
        elif s == "apply":
            self.state = "prop"
        elif s == "prop":
            if self.agg_change.result() == 0:
                self.state = "detect"
                self._wake_alive()
        elif s == "detect":
            # survivors are still active; if none survived the engine stops
            self.state = "ping"

    # -- per-phase vertex logic -------------------------------------------------
    def compute(self, v: Vertex) -> None:
        i = v.local
        if not self.alive[i]:
            v.vote_to_halt()
            return
        s = self.state
        if s == "ping":
            self._send_pings(v)
        elif s == "apply":
            if not self._trim(v):
                return
            self.fwd[i] = v.id
            self.bwd[i] = v.id
            self._forward(v, v.id)
            self._backward(v, v.id)
            self.agg_change.add(1)
        elif s == "prop":
            changed = 0
            mf = int(self.fmsg.get_message(v))
            if mf < self.fwd[i]:
                self.fwd[i] = mf
                self._forward(v, mf)
                changed += 1
            mb = int(self.bmsg.get_message(v))
            if mb < self.bwd[i]:
                self.bwd[i] = mb
                self._backward(v, mb)
                changed += 1
            self.agg_change.add(changed)
        elif s == "detect":
            if self.fwd[i] == self.bwd[i]:
                self._die(v, int(self.fwd[i]))
            else:
                self.fwd[i] = _I32_MAX
                self.bwd[i] = _I32_MAX
                self.agg_alive.add(1)

    def _forward(self, v: Vertex, label: int) -> None:
        send = self.fmsg.send_message
        for e in self.worker.graph.neighbors(v.id):
            send(int(e), label)

    def _backward(self, v: Vertex, label: int) -> None:
        send = self.bmsg.send_message
        for e in self.worker.graph.in_neighbors(v.id):
            send(int(e), label)


class SCCPropagation(_SCCBase):
    """Min-Label with Propagation channels for the forward/backward label
    phases: each propagation converges within one superstep."""

    def __init__(self, worker):
        super().__init__(worker)
        self.fprop = Propagation(worker, MIN_I32)
        self.bprop = Propagation(worker, MIN_I32)

    def before_superstep(self) -> None:
        s = self.state
        if s == "init":
            self.state = "ping"
        elif s == "ping":
            # reset the propagation channels for this iteration's subgraph
            self.fprop.reset()
            self.bprop.reset()
            self.state = "apply"
            self._wake_alive()
        elif s == "apply":
            self.state = "detect"
            self._wake_alive()
        elif s == "detect":
            self.state = "ping"

    def compute(self, v: Vertex) -> None:
        i = v.local
        if not self.alive[i]:
            v.vote_to_halt()
            return
        s = self.state
        if s == "ping":
            self._send_pings(v)
        elif s == "apply":
            if not self._trim(v):
                return
            g = self.worker.graph
            self.fprop.add_edges(v, g.neighbors(v.id))
            self.fprop.set_value(v, v.id)
            self.bprop.add_edges(v, g.in_neighbors(v.id))
            self.bprop.set_value(v, v.id)
        elif s == "detect":
            f = int(self.fprop.get_value(v))
            b = int(self.bprop.get_value(v))
            if f == b:
                self._die(v, f)
            else:
                self.agg_alive.add(1)


def run_scc(graph: Graph, variant: str = "basic", **engine_kwargs):
    """Run Min-Label SCC; returns ``(labels, EngineResult)`` where
    ``labels[v]`` identifies v's strongly connected component.

    ``variant`` is ``"basic"`` or ``"prop"``.
    """
    if not graph.directed:
        raise ValueError("SCC needs a directed graph")
    program = {"basic": SCCBasic, "prop": SCCPropagation}[variant]
    result = ChannelEngine(graph, program, **engine_kwargs).run()
    return gather(result, graph.num_vertices), result
