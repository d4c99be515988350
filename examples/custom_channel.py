"""Extending the channel library: a custom Top-K channel.

The paper's Fig. 3 contract — ``initialize / serialize / deserialize /
again`` — is the whole interface an expert needs to add an optimization.
This example implements a **TopK channel** (a bounded aggregator that
keeps the k largest (score, vertex) pairs, merging per worker before
anything hits the wire) and uses it to track the top PageRank vertices
online, without a second pass over the result.

Run:  python examples/custom_channel.py
"""

import heapq

import numpy as np

from repro import Aggregator, Channel, ChannelEngine, CombinedMessage, SUM_F64, VertexProgram
from repro.graph import rmat
from repro.runtime.serialization import FLOAT64, INT32

_MASTER = 0


class TopKChannel(Channel):
    """Global top-k reduction: each vertex offers (score, id); every
    worker keeps only its k best before sending, the master merges, and
    the global top-k is readable everywhere next superstep.

    Wire format per round-0 payload: k' records of (id:int32, score:f64).
    Round 1 broadcasts the merged list — two exchange rounds, like the
    Aggregator.
    """

    def __init__(self, worker, k: int):
        super().__init__(worker)
        self.k = k
        self._local: list[tuple[float, int]] = []  # min-heap of (score, id)
        self._merged: list[tuple[float, int]] = []  # master scratch
        self._result: list[tuple[int, float]] = []

    # -- vertex-facing API ----------------------------------------------
    def offer(self, vid: int, score: float) -> None:
        """Propose (vid, score) for the global top-k."""
        if len(self._local) < self.k:
            heapq.heappush(self._local, (score, vid))
        elif score > self._local[0][0]:
            heapq.heapreplace(self._local, (score, vid))

    def result(self) -> list[tuple[int, float]]:
        """Last superstep's global top-k, best first."""
        return list(self._result)

    # -- the Fig. 3 contract ------------------------------------------------
    def _encode(self, pairs: list[tuple[float, int]]) -> bytes:
        ids = INT32.encode_array([vid for _, vid in pairs])
        scores = FLOAT64.encode_array([s for s, _ in pairs])
        return ids + scores

    def _decode(self, payload) -> list[tuple[float, int]]:
        count = len(payload) // (INT32.itemsize + FLOAT64.itemsize)
        ids = INT32.decode_array(payload[: count * INT32.itemsize])
        scores = FLOAT64.decode_array(payload[count * INT32.itemsize :], count)
        return [(float(s), int(v)) for s, v in zip(scores, ids)]

    def serialize(self) -> None:
        me = self.worker.worker_id
        if self.round == 0:
            if self._local:
                self.emit(_MASTER, self._encode(self._local))
                if me != _MASTER:
                    self.worker.count_net_messages(len(self._local))
                self._local = []
        elif self.round == 1 and me == _MASTER:
            payload = self._encode(self._merged)
            for peer in range(self.num_workers):
                self.emit(peer, payload)
            self.worker.count_net_messages(
                (self.num_workers - 1) * len(self._merged)
            )

    def deserialize(self, payloads) -> None:
        if self.round == 0:
            if self.worker.worker_id == _MASTER:
                candidates: list[tuple[float, int]] = []
                for _src, payload in payloads:
                    candidates.extend(self._decode(payload))
                self._merged = heapq.nlargest(self.k, candidates)
        elif self.round == 1:
            for _src, payload in payloads:
                best = self._decode(payload)
                self._result = [(vid, s) for s, vid in sorted(best, reverse=True)]
        self.round += 1

    def again(self) -> bool:
        return self.round == 1 and self.worker.worker_id == _MASTER


class PageRankTopK(VertexProgram):
    """PageRank that reports the global top-10 as it converges."""

    ITERATIONS = 15
    K = 10

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, SUM_F64)
        self.agg = Aggregator(worker, SUM_F64)
        self.topk = TopKChannel(worker, k=self.K)
        self.rank = np.zeros(worker.num_local)

    def compute(self, v):
        n = self.num_vertices
        if self.step_num == 1:
            self.rank[v.local] = 1.0 / n
        else:
            s = self.agg.result() / n
            self.rank[v.local] = 0.15 / n + 0.85 * (self.msg.get_message(v) + s)
        self.topk.offer(v.id, float(self.rank[v.local]))
        if self.step_num <= self.ITERATIONS:
            if v.out_degree > 0:
                share = self.rank[v.local] / v.out_degree
                for e in v.edges:
                    self.msg.send_message(int(e), share)
            else:
                self.agg.add(self.rank[v.local])
        else:
            v.vote_to_halt()

    def finalize(self):
        return self.rank


def main():
    graph = rmat(11, edge_factor=8, seed=5)
    print(f"input: {graph}\n")
    engine = ChannelEngine(graph, PageRankTopK, num_workers=8)
    result = engine.run()

    # every worker holds the same broadcast top-k, and it ranks the same
    # vertices as sorting the run's result.data (one rank per vertex)
    tops = [worker.program.topk.result() for worker in engine.workers]
    assert all(t == tops[0] for t in tops)
    assert {vid for vid, _ in tops[0]} == set(
        np.argsort(-result.data, kind="stable")[: PageRankTopK.K].tolist()
    )
    print(f"global top-{PageRankTopK.K} PageRank vertices (via the custom channel):")
    for vid, score in tops[0]:
        print(f"  vertex {vid:6d}   rank {score:.6f}")

    m = result.metrics
    print(
        f"\nwhole run: {m.supersteps} supersteps, "
        f"{m.total_net_bytes / 1e6:.2f} MB network traffic — the top-k "
        f"channel added only {PageRankTopK.K}-record payloads per worker "
        f"per superstep."
    )


if __name__ == "__main__":
    main()
