"""The S-V algorithm on the Pregel+ baseline.

S-V mixes four message purposes (pointer requests, replies, neighborhood
broadcasts, min-updates), so with one monolithic message type every value
must carry a tag — ``(tag:int32, value:int32)`` — and no global combiner
is legal (min-combining the broadcast would corrupt the requests).  This
is exactly the Section II-B problem: wider messages *and* no combining.

``mode="basic"`` runs the 4-superstep round; ``mode="reqresp"`` uses
Pregel+'s request-respond paradigm for the grandparent read (3-superstep
round, ``(id, tagged-value)`` response echoes).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather
from repro.core.combiner import SUM_I64
from repro.graph.graph import Graph
from repro.pregel import PregelPlusEngine, PregelProgram
from repro.runtime.serialization import INT32, struct_codec

__all__ = ["SVPregelBasic", "SVPregelReqResp", "run_sv_pregel"]

#: the monolithic tagged message type
TAGGED = struct_codec([("tag", INT32), ("val", INT32)], name="sv_tagged")

TAG_REQ, TAG_REPLY, TAG_BCAST, TAG_UPD = range(4)

_I32_MAX = int(np.iinfo(np.int32).max)


class _SVPregelBase(PregelProgram):
    message_codec = TAGGED
    combiner = None  # heterogeneous messages: no global combiner is legal
    aggregator_combiner = SUM_I64

    cycle = 4

    def __init__(self, worker):
        super().__init__(worker)
        n = worker.num_local
        self.D = np.zeros(n, dtype=np.int64)
        self.tmin = np.full(n, _I32_MAX, dtype=np.int64)
        self.changed = np.zeros(n, dtype=np.int8)

    def _phase(self) -> int:
        return (self.step_num - 1) % self.cycle + 1

    def _broadcast_pointer(self, v) -> None:
        d = int(self.D[v.local])
        for e in v.edges:
            v.send_message(int(e), (TAG_BCAST, d))

    def _merge_or_jump(self, v, gp: int, t: int) -> None:
        i = v.local
        d = int(self.D[i])
        if gp == d:
            if t < d:
                v.send_message(d, (TAG_UPD, t))
        else:
            self.D[i] = gp
            self.changed[i] = 1

    def _apply_updates(self, v, msgs) -> None:
        i = v.local
        delta = int(self.changed[i])
        self.changed[i] = 0
        m = min((val for tag, val in msgs if tag == TAG_UPD), default=_I32_MAX)
        if m < self.D[i]:
            self.D[i] = m
            delta += 1
        self.aggregate(delta)

    def finalize(self) -> np.ndarray:
        return self.D


class SVPregelBasic(_SVPregelBase):
    """4-superstep S-V round with tagged messages."""

    cycle = 4

    def compute(self, v, messages) -> None:
        i = v.local
        phase = self._phase()
        msgs = messages if messages else []
        if phase == 1:
            if self.step_num == 1:
                self.D[i] = v.id
            elif self.agg_result == 0:
                v.vote_to_halt()
                return
            v.send_message(int(self.D[i]), (TAG_REQ, v.id))
            self._broadcast_pointer(v)
        elif phase == 2:
            d = int(self.D[i])
            t = _I32_MAX
            for tag, val in msgs:
                if tag == TAG_REQ:
                    v.send_message(int(val), (TAG_REPLY, d))
                elif tag == TAG_BCAST and val < t:
                    t = val
            self.tmin[i] = t
        elif phase == 3:
            gp = next(val for tag, val in msgs if tag == TAG_REPLY)
            self._merge_or_jump(v, int(gp), int(self.tmin[i]))
        else:
            self._apply_updates(v, msgs)


class SVPregelReqResp(_SVPregelBase):
    """3-superstep S-V round using Pregel+'s reqresp mode for the
    grandparent read."""

    cycle = 3

    def respond_value(self, local_idx: int):
        return (TAG_REPLY, int(self.D[local_idx]))

    def compute(self, v, messages) -> None:
        i = v.local
        phase = self._phase()
        msgs = messages if messages else []
        if phase == 1:
            if self.step_num == 1:
                self.D[i] = v.id
            elif self.agg_result == 0:
                v.vote_to_halt()
                return
            v.request(int(self.D[i]))
            self._broadcast_pointer(v)
        elif phase == 2:
            gp = int(v.get_resp(int(self.D[i]))[1])
            t = min((val for tag, val in msgs if tag == TAG_BCAST), default=_I32_MAX)
            self._merge_or_jump(v, gp, int(t))
        else:
            self._apply_updates(v, msgs)


def run_sv_pregel(graph: Graph, mode: str = "basic", **engine_kwargs):
    """Run Pregel+ S-V; ``mode`` is ``"basic"`` or ``"reqresp"``.
    Returns ``(labels, EngineResult)``."""
    program = {"basic": SVPregelBasic, "reqresp": SVPregelReqResp}[mode]
    engine = PregelPlusEngine(graph, program, mode=mode, **engine_kwargs)
    result = engine.run()
    return gather(result, graph.num_vertices), result
