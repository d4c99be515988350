"""Blogel's hash-min connected components block program.

This is the >100-line block-level program the paper contrasts with the
10-line Propagation-channel version: the user must hand-write the
in-block fixpoint (a frontier relaxation over the block's subgraph),
boundary-message generation, and incremental re-propagation on message
arrival.  Labels travel as ``int32`` — Blogel's partition-aware message
format — which is why its message volume undercuts the generic channel.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._common import gather
from repro.blogel.system import BlockProgram, BlogelEngine
from repro.graph.graph import Graph
from repro.runtime.serialization import INT32
from repro.util import expand_ranges, group_starts

__all__ = ["BlogelWCC", "run_wcc_blogel"]


class BlogelWCC(BlockProgram):
    """Hash-min WCC as a block program."""

    value_codec = INT32

    def __init__(self, engine: BlogelEngine, block_id: int, local_ids: np.ndarray):
        super().__init__(engine, block_id, local_ids)
        graph = engine.graph
        n = self.num_local
        self.labels = self.local_ids.copy()  # init: own id

        # build the block-local CSR over undirected adjacency
        local_index = np.full(graph.num_vertices, -1, dtype=np.int64)
        local_index[local_ids] = np.arange(n)
        srcs, dsts = [], []
        for i, vid in enumerate(local_ids):
            nbrs = graph.neighbors(int(vid))
            if graph.directed:
                nbrs = np.concatenate([nbrs, graph.in_neighbors(int(vid))])
            srcs.append(np.full(nbrs.size, i, dtype=np.int64))
            dsts.append(nbrs.astype(np.int64))
        src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
        dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        counts = np.bincount(src, minlength=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.edst_global = dst
        self.edst_local = local_index[dst]  # -1 for boundary edges
        self._local_index = local_index
        self._first = True

    # -- the hand-written block fixpoint ------------------------------------
    def _propagate(self, frontier: np.ndarray) -> dict[int, int]:
        """Push labels to a local fixpoint; collect boundary updates."""
        labels = self.labels
        indptr = self.indptr
        boundary: dict[int, int] = {}
        while frontier.size:
            counts = indptr[frontier + 1] - indptr[frontier]
            eidx = expand_ranges(indptr[frontier], counts)
            if eidx.size == 0:
                break
            lab = labels[np.repeat(frontier, counts)]
            tgt_local = self.edst_local[eidx]
            remote = tgt_local < 0
            if remote.any():
                rdst = self.edst_global[eidx[remote]]
                rlab = lab[remote]
                for d, l in zip(rdst.tolist(), rlab.tolist()):
                    old = boundary.get(d)
                    if old is None or l < old:
                        boundary[d] = l
            mask = ~remote
            if not mask.any():
                break
            tgt, l = tgt_local[mask], lab[mask]
            order = np.argsort(tgt, kind="stable")
            tgt_s, l_s = tgt[order], l[order]
            uniq, starts = group_starts(tgt_s)
            folded = np.minimum.reduceat(l_s, starts)
            new = np.minimum(labels[uniq], folded)
            changed = new != labels[uniq]
            upd = uniq[changed]
            labels[upd] = new[changed]
            frontier = upd
        return boundary

    def block_compute(self, incoming) -> list[tuple[int, object]]:
        dsts, vals = incoming
        if self._first:
            self._first = False
            frontier = np.arange(self.num_local)
        else:
            local = self._local_index[dsts]
            vals = np.asarray(vals, dtype=np.int64)
            # combine duplicates, then apply improvements
            order = np.argsort(local, kind="stable")
            ls, vs = local[order], vals[order]
            uniq, starts = group_starts(ls)
            folded = np.minimum.reduceat(vs, starts)
            new = np.minimum(self.labels[uniq], folded)
            changed = new != self.labels[uniq]
            frontier = uniq[changed]
            self.labels[frontier] = new[changed]
        if frontier.size == 0:
            return []
        boundary = self._propagate(frontier)
        return [(d, int(l)) for d, l in boundary.items()]

    def finalize(self) -> np.ndarray:
        return self.labels


def run_wcc_blogel(graph: Graph, **engine_kwargs):
    """Run Blogel WCC; returns ``(labels, EngineResult)``."""
    result = BlogelEngine(graph, BlogelWCC, **engine_kwargs).run()
    return gather(result, graph.num_vertices), result
