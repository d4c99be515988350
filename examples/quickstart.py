"""Quickstart: PageRank over channels, and the one-line optimization.

This is the paper's Fig. 1 walk-through: write PageRank with a
CombinedMessage channel plus an Aggregator, then swap the message channel
for a ScatterCombine (Section III-B) and watch the traffic drop.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    Aggregator,
    ChannelEngine,
    CombinedMessage,
    ScatterCombine,
    SUM_F64,
    VertexProgram,
)
from repro.graph import rmat


class PageRank(VertexProgram):
    """The Fig. 1 program: rank shares over `msg`, dead-end mass over
    `agg`."""

    ITERATIONS = 30

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, SUM_F64)  # <- the one line to change
        self.agg = Aggregator(worker, SUM_F64)
        self.rank = np.zeros(worker.num_local)

    def compute(self, v):
        n = self.num_vertices
        if self.step_num == 1:
            self.rank[v.local] = 1.0 / n
        else:
            sink = self.agg.result() / n
            self.rank[v.local] = 0.15 / n + 0.85 * (self.msg.get_message(v) + sink)
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
        # one row per local vertex; the engine places it at global ids
        return self.rank


class PageRankScatter(PageRank):
    """The optimized version: a ScatterCombine channel for the static
    messaging pattern.  Only the channel construction and the send path
    change — five lines, as the paper says."""

    def __init__(self, worker):
        super().__init__(worker)
        self.msg = ScatterCombine(worker, SUM_F64)

    def compute(self, v):
        if self.step_num == 1 and v.out_degree > 0:
            self.msg.add_edges(v, v.edges)  # register the static edges once
        n = self.num_vertices
        if self.step_num == 1:
            self.rank[v.local] = 1.0 / n
        else:
            sink = self.agg.result() / n
            self.rank[v.local] = 0.15 / n + 0.85 * (self.msg.get_message(v) + sink)
        if self.step_num <= self.ITERATIONS:
            if v.out_degree > 0:
                self.msg.set_message(v, self.rank[v.local] / v.out_degree)
            else:
                self.agg.add(self.rank[v.local])
        else:
            v.vote_to_halt()


def main():
    graph = rmat(12, edge_factor=8, seed=7)
    print(f"input: {graph}")

    results = {}
    for name, program in [("basic", PageRank), ("scatter-combine", PageRankScatter)]:
        result = ChannelEngine(graph, program, num_workers=8).run()
        m = result.metrics
        results[name] = result
        print(
            f"{name:16s}  simulated time {m.simulated_time:7.3f}s   "
            f"network {m.total_net_bytes / 1e6:7.2f} MB   "
            f"supersteps {m.supersteps}"
        )

    # identical ranks either way; result.data[v] is vertex v's rank
    basic = results["basic"].data
    scatter = results["scatter-combine"].data
    worst = np.abs(basic - scatter).max()
    print(f"max |rank difference| between variants: {worst:.2e}")

    top = np.argsort(-basic, kind="stable")[:5]
    print("top-5 vertices:", ", ".join(f"{v} ({basic[v]:.5f})" for v in top))


if __name__ == "__main__":
    main()
