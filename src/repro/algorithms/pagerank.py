"""PageRank with channels (Fig. 1 of the paper).

Two variants:

* ``PageRankBasic`` — a ``CombinedMessage`` for rank shares plus an
  ``Aggregator`` collecting dead-end rank (the paper's Fig. 1 verbatim).
* ``PageRankScatter`` — the one-line change of Section III-B: the message
  channel becomes a ``ScatterCombine`` (static messaging pattern), which
  the paper reports as a 3.03–3.16× speedup with ~1/3 fewer message bytes.

Each variant also has a bulk port (``mode="bulk"`` on :func:`run_pagerank`)
whose ``compute_bulk`` replaces the per-vertex Python loop with whole
-active-set NumPy passes; results and channel traffic are identical to the
scalar path (see ARCHITECTURE.md).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather, resolve_mode
from repro.core import (
    Aggregator,
    BulkVertexProgram,
    ChannelEngine,
    CombinedMessage,
    MirroredScatter,
    ScatterCombine,
    SUM_F64,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import Graph

__all__ = [
    "PageRankBasic",
    "PageRankScatter",
    "PageRankMirrored",
    "PageRankBasicBulk",
    "PageRankScatterBulk",
    "PageRankMirroredBulk",
    "run_pagerank",
]

DAMPING = 0.85
DEFAULT_ITERS = 30


class _PageRankBase(VertexProgram):
    """Common PageRank logic; subclasses provide the message channel."""

    iterations = DEFAULT_ITERS

    def __init__(self, worker):
        super().__init__(worker)
        self.agg = Aggregator(worker, SUM_F64)
        self.rank = np.zeros(worker.num_local)

    # subclasses: read the combined share sum for v
    def _incoming(self, v: Vertex) -> float:
        raise NotImplementedError

    # subclasses: send share to all of v's out-edges
    def _outgoing(self, v: Vertex, share: float) -> None:
        raise NotImplementedError

    def _setup(self, v: Vertex) -> None:
        """First-superstep channel initialization hook."""

    def compute(self, v: Vertex) -> None:
        n = self.num_vertices
        if self.step_num == 1:
            self._setup(v)
            self.rank[v.local] = 1.0 / n
        else:
            # s: rank mass collected from dead ends, redistributed uniformly
            s = self.agg.result() / n
            self.rank[v.local] = (1.0 - DAMPING) / n + DAMPING * (
                self._incoming(v) + s
            )
        if self.step_num <= self.iterations:
            num_edges = v.out_degree
            if num_edges > 0:
                self._outgoing(v, self.rank[v.local] / num_edges)
            else:
                self.agg.add(self.rank[v.local])
        else:
            v.vote_to_halt()

    def finalize(self) -> np.ndarray:
        return self.rank


class PageRankBasic(_PageRankBase):
    """Standard-channel PageRank (CombinedMessage + Aggregator)."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, SUM_F64)

    def _incoming(self, v: Vertex) -> float:
        return float(self.msg.get_message(v))

    def _outgoing(self, v: Vertex, share: float) -> None:
        send = self.msg.send_message
        for e in v.edges:
            send(int(e), share)


class PageRankScatter(_PageRankBase):
    """ScatterCombine PageRank — the paper's one-line optimization."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = ScatterCombine(worker, SUM_F64)

    def _setup(self, v: Vertex) -> None:
        if v.out_degree > 0:
            self.msg.add_edges(v, v.edges)

    def _incoming(self, v: Vertex) -> float:
        return float(self.msg.get_message(v))

    def _outgoing(self, v: Vertex, share: float) -> None:
        self.msg.set_message(v, share)


class PageRankMirrored(PageRankScatter):
    """PageRank over the :class:`MirroredScatter` extension channel
    (mirroring as a channel — sender-side combining above a degree
    threshold, receiver-side expansion)."""

    mirror_threshold = 16

    def __init__(self, worker):
        _PageRankBase.__init__(self, worker)
        self.msg = MirroredScatter(worker, SUM_F64, threshold=self.mirror_threshold)


class _PageRankBulkBase(BulkVertexProgram):
    """Columnar PageRank: the scalar per-vertex recurrence applied to the
    whole active set at once.  Channel construction order matches
    :class:`_PageRankBase` so per-channel metrics labels line up."""

    iterations = DEFAULT_ITERS

    def __init__(self, worker):
        super().__init__(worker)
        self.agg = Aggregator(worker, SUM_F64)
        self.rank = np.zeros(worker.num_local)

    # subclasses: one-time channel setup over the local adjacency
    def _setup_bulk(self, adj) -> None:
        pass

    # subclasses: full-length combined-inbox array (indexed by local idx)
    def _incoming_bulk(self) -> np.ndarray:
        raise NotImplementedError

    # subclasses: scatter shares[i] along senders[i]'s out-edges
    def _outgoing_bulk(self, adj, senders: np.ndarray, shares: np.ndarray) -> None:
        raise NotImplementedError

    def compute_bulk(self, active: np.ndarray) -> None:
        worker = self.worker
        adj = worker.local_adjacency()
        n = self.num_vertices
        if self.step_num == 1:
            self._setup_bulk(adj)
            self.rank[active] = 1.0 / n
        else:
            # s: rank mass collected from dead ends, redistributed uniformly
            s = self.agg.result() / n
            incoming = self._incoming_bulk()
            self.rank[active] = (1.0 - DAMPING) / n + DAMPING * (
                incoming[active] + s
            )
        if self.step_num <= self.iterations:
            deg = adj.degrees[active]
            has_out = deg > 0
            senders = active[has_out]
            if senders.size:
                self._outgoing_bulk(adj, senders, self.rank[senders] / deg[has_out])
            dead = active[~has_out]
            if dead.size:
                self.agg.add_bulk(self.rank[dead])
        else:
            worker.halt_bulk(active)

    def finalize(self) -> np.ndarray:
        return self.rank


class PageRankBasicBulk(_PageRankBulkBase):
    """Bulk port of :class:`PageRankBasic` (CombinedMessage + Aggregator)."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, SUM_F64)

    def _incoming_bulk(self) -> np.ndarray:
        return self.msg.get_messages()[0]

    def _outgoing_bulk(self, adj, senders, shares) -> None:
        dsts = adj.gather(senders)
        self.msg.send_messages(dsts, np.repeat(shares, adj.degrees[senders]))


class PageRankScatterBulk(_PageRankBulkBase):
    """Bulk port of :class:`PageRankScatter` (static scatter pattern)."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = ScatterCombine(worker, SUM_F64)

    def _setup_bulk(self, adj) -> None:
        src = np.repeat(np.arange(self.num_local, dtype=np.int64), adj.degrees)
        self.msg.add_edges_bulk(src, adj.indices)

    def _incoming_bulk(self) -> np.ndarray:
        return self.msg.get_messages()[0]

    def _outgoing_bulk(self, adj, senders, shares) -> None:
        self.msg.set_messages(senders, shares)


class PageRankMirroredBulk(PageRankScatterBulk):
    """Bulk port of :class:`PageRankMirrored`."""

    mirror_threshold = 16

    def __init__(self, worker):
        _PageRankBulkBase.__init__(self, worker)
        self.msg = MirroredScatter(worker, SUM_F64, threshold=self.mirror_threshold)


_VARIANTS = {
    "basic": {"scalar": PageRankBasic, "bulk": PageRankBasicBulk},
    "scatter": {"scalar": PageRankScatter, "bulk": PageRankScatterBulk},
    "mirror": {"scalar": PageRankMirrored, "bulk": PageRankMirroredBulk},
}


def run_pagerank(
    graph: Graph,
    variant: str = "basic",
    iterations: int = DEFAULT_ITERS,
    mode: str = "scalar",
    **engine_kwargs,
):
    """Run PageRank; returns ``(ranks, EngineResult)``.

    ``variant`` is ``"basic"``, ``"scatter"``, or ``"mirror"``;
    ``mode`` selects the per-vertex (``"scalar"``) or whole-active-set
    (``"bulk"``) compute path — both produce identical ranks and traffic.
    """
    base = resolve_mode(_VARIANTS, variant, mode)
    program = type(base.__name__, (base,), {"iterations": iterations})
    result = ChannelEngine(graph, program, **engine_kwargs).run()
    return gather(result, graph.num_vertices, dtype=np.float64), result
