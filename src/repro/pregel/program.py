"""Pregel+ program and vertex API.

The programming model mirrors Pregel: ``compute(v, messages)`` is called
on every active vertex with the messages delivered to it, and the vertex
handle exposes ``send_message``/``broadcast``/``request``/``get_resp``
plus ``vote_to_halt``.  Unlike the channel system, all traffic shares one
message type (``message_codec``) and at most one global combiner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.combiner import Combiner
from repro.runtime.serialization import Codec, INT64

if TYPE_CHECKING:  # pragma: no cover
    from repro.pregel.system import _PregelWorker

__all__ = ["PregelProgram", "PregelVertex"]


class PregelVertex:
    """Flyweight vertex handle for Pregel+ programs."""

    __slots__ = ("_worker", "id", "local")

    def __init__(self, worker: "_PregelWorker") -> None:
        self._worker = worker
        self.id = -1
        self.local = -1

    def _bind(self, local_idx: int) -> "PregelVertex":
        self.local = local_idx
        self.id = int(self._worker.local_ids[local_idx])
        return self

    # -- adjacency -------------------------------------------------------
    @property
    def out_degree(self) -> int:
        return self._worker.graph.out_degree(self.id)

    @property
    def edges(self) -> np.ndarray:
        return self._worker.graph.neighbors(self.id)

    @property
    def edge_weights(self) -> np.ndarray:
        return self._worker.graph.edge_weights(self.id)

    # -- communication ------------------------------------------------------
    def send_message(self, dst: int, value) -> None:
        self._worker.send_message(dst, value)

    def broadcast(self, value) -> None:
        """Send ``value`` to every out-neighbor (the pattern the ghost
        mode's mirroring optimizes)."""
        self._worker.broadcast(self.id, value)

    def request(self, dst: int) -> None:
        """reqresp mode: ask for ``dst``'s respond value (next superstep)."""
        self._worker.add_request(dst)

    def get_resp(self, dst: int):
        """reqresp mode: the value requested from ``dst`` last superstep."""
        return self._worker.get_resp(dst)

    # -- control ----------------------------------------------------------
    def vote_to_halt(self) -> None:
        self._worker.halt(self.local)

    @property
    def step_num(self) -> int:
        return self._worker.step_num


class PregelProgram:
    """Base class for Pregel+ vertex programs.

    Class attributes configure the monolithic message layer:

    ``message_codec``
        The single wire codec shared by *all* messages in the program.
    ``combiner``
        Optional global combiner; legal only if every message in the
        program admits it (this is Pregel's rule the paper criticizes).
    ``aggregator_combiner``
        Optional combiner enabling the global aggregator.
    ``respond_value``
        reqresp mode: ``(program, local_idx) -> value``, the attribute
        served to requesters.
    """

    message_codec: Codec = INT64
    combiner: Combiner | None = None
    aggregator_combiner: Combiner | None = None

    def __init__(self, worker: "_PregelWorker") -> None:
        self.worker = worker

    def compute(self, v: PregelVertex, messages) -> None:
        """``messages`` is the combined value (with a global combiner) or a
        list of values (without); ``None``/empty when nothing arrived."""
        raise NotImplementedError

    def before_superstep(self) -> None:
        """Per-worker hook before every superstep (same contract as the
        channel system's :meth:`VertexProgram.before_superstep`)."""

    def respond_value(self, local_idx: int):  # pragma: no cover - overridden
        raise NotImplementedError("reqresp mode needs respond_value()")

    def finalize(self) -> np.ndarray | None:
        return None

    # -- context ------------------------------------------------------------
    @property
    def step_num(self) -> int:
        return self.worker.step_num

    @property
    def num_vertices(self) -> int:
        return self.worker.graph.num_vertices

    # -- aggregator -----------------------------------------------------------
    def aggregate(self, value) -> None:
        self.worker.aggregate(value)

    @property
    def agg_result(self):
        """Aggregate of last superstep's contributions (None in step 1)."""
        return self.worker.agg_result
