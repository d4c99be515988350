"""The Shiloach–Vishkin (S-V) connected-components algorithm —
the paper's flagship example of *composing* optimized channels
(Section III-C, Tables IV and VI).

Each round every vertex ``u`` of the disjoint-set forest either

* **tree merging** — if its parent ``D[u]`` is a root: compute
  ``t = min(D[e] for e in Nbr[u])`` and, when ``t < D[u]``, ask the root
  to point at ``t`` (min-combined remote update), or
* **pointer jumping** — otherwise shortcut ``D[u] := D[D[u]]``,

until ``D`` stabilizes (checked with an aggregator).  Three communication
patterns appear simultaneously, and each maps to a channel choice:

==================  ==========================  ==========================
pattern             basic channel               optimized channel
==================  ==========================  ==========================
read ``D[D[u]]``    two DirectMessage channels  RequestRespond
neighbor minimum    CombinedMessage(MIN)        ScatterCombine(MIN)
root update         CombinedMessage(MIN)        (already optimal)
==================  ==========================  ==========================

``make_sv_program(use_reqresp, use_scatter)`` yields the four Table VI
variants.  A round costs 4 supersteps with the request/reply emulation
and 3 with the RequestRespond channel.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather
from repro.core import (
    Aggregator,
    ChannelEngine,
    CombinedMessage,
    DirectMessage,
    MIN_I32,
    RequestRespond,
    ScatterCombine,
    SUM_I64,
    Vertex,
    VertexProgram,
)
from repro.graph.graph import Graph
from repro.runtime.serialization import INT32

__all__ = ["make_sv_program", "run_sv", "SV_VARIANTS"]

SV_VARIANTS = ("basic", "reqresp", "scatter", "both")


class _SVBase(VertexProgram):
    """Shared S-V logic; channel choices come from class flags."""

    use_reqresp = False
    use_scatter = False

    def __init__(self, worker):
        super().__init__(worker)
        if self.use_reqresp:
            self.rr = RequestRespond(
                worker,
                respond_fn=lambda v: int(self.D[v.local]),
                codec=INT32,
                respond_fn_bulk=lambda idx: self.D[idx],
            )
        else:
            self.req = DirectMessage(worker, value_codec=INT32)
            self.reply = DirectMessage(worker, value_codec=INT32)
        if self.use_scatter:
            self.bcast = ScatterCombine(worker, MIN_I32)
        else:
            self.bcast = CombinedMessage(worker, MIN_I32)
        self.upd = CombinedMessage(worker, MIN_I32)
        self.agg = Aggregator(worker, SUM_I64)

        self.D = np.zeros(worker.num_local, dtype=np.int64)
        self.tmin = np.zeros(worker.num_local, dtype=np.int64)
        self.changed = np.zeros(worker.num_local, dtype=np.int8)

    # -- phase plumbing ------------------------------------------------------
    @property
    def cycle(self) -> int:
        return 3 if self.use_reqresp else 4

    def _phase(self) -> int:
        return (self.step_num - 1) % self.cycle + 1

    # -- per-phase actions -----------------------------------------------------
    def _start_round(self, v: Vertex) -> None:
        """Phase 1: ask for the grandparent, broadcast D to neighbors."""
        i = v.local
        if self.step_num == 1:
            self.D[i] = v.id
            if self.use_scatter and v.out_degree > 0:
                self.bcast.add_edges(v, v.edges)
        elif self.agg.result() == 0:
            v.vote_to_halt()
            return
        d = int(self.D[i])
        if self.use_reqresp:
            self.rr.add_request(v, d)
        else:
            self.req.send_message(d, v.id)
        if self.use_scatter:
            self.bcast.set_message(v, d)
        else:
            send = self.bcast.send_message
            for e in v.edges:
                send(int(e), d)

    def _answer_and_gather(self, v: Vertex) -> None:
        """Phase 2 (basic only): answer pointer requests, store the
        neighborhood minimum."""
        i = v.local
        d = int(self.D[i])
        for requester in self.req.get_iterator(v):
            self.reply.send_message(int(requester), d)
        self.tmin[i] = self.bcast.get_message(v)

    def _merge_or_jump(self, v: Vertex, gp: int, t: int) -> None:
        """The branch of the Palgol listing: tree merging vs jumping."""
        i = v.local
        d = int(self.D[i])
        if gp == d:
            # parent is a root: propose the neighborhood minimum to it
            if t < d:
                self.upd.send_message(d, t)
        else:
            # pointer jumping (path halving)
            self.D[i] = gp
            self.changed[i] = 1

    def _apply_updates(self, v: Vertex) -> None:
        """Last phase: roots adopt the minimum proposal; count changes."""
        i = v.local
        delta = int(self.changed[i])
        self.changed[i] = 0
        m = int(self.upd.get_message(v))
        if m < self.D[i]:
            self.D[i] = m
            delta += 1
        self.agg.add(delta)

    # -- dispatch ---------------------------------------------------------------
    def compute(self, v: Vertex) -> None:
        phase = self._phase()
        if self.use_reqresp:
            if phase == 1:
                self._start_round(v)
            elif phase == 2:
                gp = int(self.rr.get_respond(int(self.D[v.local])))
                t = int(self.bcast.get_message(v))
                self._merge_or_jump(v, gp, t)
            else:
                self._apply_updates(v)
        else:
            if phase == 1:
                self._start_round(v)
            elif phase == 2:
                self._answer_and_gather(v)
            elif phase == 3:
                replies = self.reply.get_iterator(v)
                gp = int(replies[0])
                self._merge_or_jump(v, gp, int(self.tmin[v.local]))
            else:
                self._apply_updates(v)

    def finalize(self) -> np.ndarray:
        return self.D


def make_sv_program(use_reqresp: bool = False, use_scatter: bool = False):
    """Build the S-V program class for one of the four channel combos."""
    name = f"SV_{'rr' if use_reqresp else 'msg'}_{'sc' if use_scatter else 'cm'}"
    return type(name, (_SVBase,), {"use_reqresp": use_reqresp, "use_scatter": use_scatter})


def run_sv(graph: Graph, variant: str = "basic", **engine_kwargs):
    """Run S-V connected components; returns ``(labels, EngineResult)``.

    ``labels[v]`` is the minimum vertex id of v's component.  ``variant``
    is one of ``basic`` / ``reqresp`` / ``scatter`` / ``both``.
    """
    flags = {
        "basic": (False, False),
        "reqresp": (True, False),
        "scatter": (False, True),
        "both": (True, True),
    }[variant]
    program = make_sv_program(*flags)
    result = ChannelEngine(graph, program, **engine_kwargs).run()
    return gather(result, graph.num_vertices), result
