"""Out-of-core scale benchmark: disk-built RMAT graphs (BENCH_scale.json).

For each ``--scales`` entry this script proves the out-of-core story end
to end on one row:

1. **Disk build** — :func:`repro.graph.generators.rmat_to_disk` streams
   a ``2**scale * edge_factor``-arc RMAT graph through the two-pass
   counting CSR build into an mmap store; the full edge list is never in
   RAM.  ``build_wall_s`` and the store's on-disk footprint are recorded.
2. **Parity** — the same PageRank (scatter, bulk) runs on the simulated
   backend over an **in-memory copy** of the CSR arrays and on the
   process backend over the **mmap store** (attach-by-path: children get
   a path, not segments).  The row's ``parity`` flag demands
   bit-identical ranks, per-channel traffic breakdown, and
   superstep/byte/message totals — one flag covering both the
   memory-vs-mmap store swap and the sim-vs-process executor swap.
3. **Bounded memory** — a sampler thread polls the run's live-metrics
   segment (PR 8's ``rss_bytes`` gauge, republished by every worker at
   every superstep); each worker's first publish lands right after the
   graph attach and before any compute, so ``peak - first`` is the RSS
   the *run* added (the absolute baseline is polluted by fork-inherited
   parent pages, so growth is the honest quantity).  ``rss_ok`` requires
   the worst worker's growth to stay under the full edge-list size
   (``arcs * 16`` bytes).  The store contributes only the owned
   adjacency slice each worker faults in (``arcs * 8 / workers``,
   contiguous under the degree partition); the rest of the growth is
   per-superstep message temporaries, also ``~arcs * 8 / workers``
   scaled by a small constant — which is why the bound assumes the
   default 4 workers.  A worker materializing the edge list or the full
   CSR blows straight through it.

The artifact is gated in CI by ``check_regression.py`` (kind
``scale``): parity and ``rss_ok`` always, work fields exactly, walls
only between ``speedup_valid`` artifacts.

Run directly::

    PYTHONPATH=src python benchmarks/bench_scale.py                   # scales 16 + 19 (~10M arcs)
    PYTHONPATH=src python benchmarks/bench_scale.py --scales 16 --out BENCH_scale_smoke.json
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from _provenance import write_artifact
from repro.algorithms.pagerank import run_pagerank
from repro.bench.tables import render_rows
from repro.graph.generators import rmat_to_disk
from repro.graph.graph import Graph
from repro.graph.partition import degree_range_partition


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _identical(a, b) -> bool:
    da, db = a[0], b[0]
    same_data = np.array_equal(da, db) if isinstance(da, np.ndarray) else da == db
    ma, mb = a[-1].metrics, b[-1].metrics
    return bool(
        same_data
        and np.array_equal(a[-1].data, b[-1].data)
        and ma.channel_breakdown() == mb.channel_breakdown()
        and ma.supersteps == mb.supersteps
        and ma.total_rounds == mb.total_rounds
        and ma.total_net_bytes == mb.total_net_bytes
        and ma.total_local_bytes == mb.total_local_bytes
        and ma.total_messages == mb.total_messages
    )


class _RssSampler(threading.Thread):
    """Poll a live segment for per-worker RSS: first publish and peak.

    Workers zero-publish their slot during build — after attaching the
    graph store, before any compute — so the first non-zero ``rss_bytes``
    seen per worker is the pre-compute baseline.
    """

    def __init__(self, live, interval: float = 0.02):
        super().__init__(name="bench-scale-rss", daemon=True)
        self.live = live
        self.interval = interval
        self.first: dict[int, int] = {}
        self.peak: dict[int, int] = {}
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            self.sample()
            self._halt.wait(self.interval)

    def sample(self) -> None:
        try:
            rows = self.live.snapshot()
        except Exception:  # segment mid-teardown
            return
        for row in rows:
            w, rss = int(row["worker"]), int(row["rss_bytes"])
            if rss > 0:
                self.first.setdefault(w, rss)
                self.peak[w] = max(self.peak.get(w, 0), rss)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)
        self.sample()  # the final published values


def bench_one(
    scale: int,
    edge_factor: int,
    workers: int,
    iterations: int,
    seed: int,
    chunk_edges: int,
    store_root: Path,
) -> dict:
    from repro.obs import LiveMetrics

    store_dir = store_root / f"rmat{scale}"
    t0 = time.perf_counter()
    graph = rmat_to_disk(
        store_dir,
        scale=scale,
        edge_factor=edge_factor,
        seed=seed,
        chunk_edges=chunk_edges,
    )
    build_wall = time.perf_counter() - t0
    arcs = graph.num_edges
    edgelist_bytes = arcs * 16  # two int64 endpoints per arc
    on_disk = graph.store.footprint()["on_disk_bytes"]
    part = degree_range_partition(graph, workers)

    def runner(g, **kw):
        return run_pagerank(
            g,
            variant="scatter",
            iterations=iterations,
            mode="bulk",
            num_workers=workers,
            partition=part,
            **kw,
        )

    # the memory-store twin: same CSR bytes on the heap (the pre-PR-9
    # world), driven on the simulated backend
    mem = Graph.from_csr(
        graph.num_vertices,
        np.array(graph.indptr),
        np.array(graph.indices),
        directed=graph.directed,
        validate=False,
    )
    t0 = time.perf_counter()
    sim = runner(mem)
    sim_wall = time.perf_counter() - t0
    del mem

    live = LiveMetrics.create(workers)
    sampler = _RssSampler(live)
    try:
        sampler.start()
        t0 = time.perf_counter()
        proc = runner(graph, executor="process", live=live)
        run_wall = time.perf_counter() - t0
    finally:
        sampler.stop()
        live.close(unlink=True)

    growth = [
        sampler.peak[w] - sampler.first[w] for w in sorted(sampler.peak)
    ]
    peak_growth = max(growth, default=0)
    peak_abs = max(sampler.peak.values(), default=0)
    m = sim[-1].metrics
    return {
        "workload": "pr-scatter-bulk",
        "workers": workers,
        "scale": scale,
        "vertices": graph.num_vertices,
        "arcs": arcs,
        "edgelist_mb": round(edgelist_bytes / 1e6, 3),
        "store_mb": round(on_disk / 1e6, 3),
        "supersteps": m.supersteps,
        "net_mb": round(m.total_net_bytes / 1e6, 3),
        "build_wall_s": round(build_wall, 4),
        "sim_wall_s": round(sim_wall, 4),
        "run_wall_s": round(run_wall, 4),
        "peak_rss_mb": round(peak_abs / 1e6, 3),
        "peak_rss_growth_mb": round(peak_growth / 1e6, 3),
        "rss_growth_ratio": round(peak_growth / edgelist_bytes, 4),
        # the out-of-core claim: no worker's RSS ever grew by the edge-list
        # size.  Growth is dominated by per-superstep message temporaries
        # (a few times arcs*8/workers); the store itself contributes only
        # the owned adjacency slice each worker faults in (arcs*8/workers,
        # contiguous under the degree partition).  Materializing the edge
        # list or the full CSR per worker blows straight through this.
        "rss_ok": bool(peak_growth < edgelist_bytes),
        "rss_samples": len(sampler.peak),
        "parity": _identical(sim, proc),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales",
        type=int,
        nargs="+",
        default=[16, 19],
        help="RMAT scales: 2**scale vertices each (default: 16 19 — "
        "scale 19 at the default edge factor is the ~10M-arc row)",
    )
    parser.add_argument(
        "--edge-factor",
        type=int,
        default=20,
        help="generated arcs per vertex (default 20)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="process-backend workers (default 4; the rss_ok bound assumes "
        "enough workers that per-worker message temporaries stay under "
        "the edge-list size)",
    )
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--chunk-edges",
        type=int,
        default=1 << 20,
        help="arcs per generation chunk; (seed, chunk-edges) identify the "
        "exact graph, so changing this invalidates work-parity baselines",
    )
    parser.add_argument(
        "--store-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="where to build the mmap stores (default: a fresh temp dir, "
        "deleted afterwards; pass a dir to keep/reuse the stores)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_scale.json",
        help="output JSON path (default: repo-root BENCH_scale.json)",
    )
    args = parser.parse_args(argv)

    cpus = _cpus()
    tmp = None
    if args.store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="bench_scale_")
        store_root = Path(tmp.name)
    else:
        store_root = args.store_dir
        store_root.mkdir(parents=True, exist_ok=True)
    try:
        rows = [
            bench_one(
                scale,
                args.edge_factor,
                args.workers,
                args.iterations,
                args.seed,
                args.chunk_edges,
                store_root,
            )
            for scale in args.scales
        ]
    finally:
        if tmp is not None:
            tmp.cleanup()

    print(
        render_rows(
            rows,
            title=(
                f"out-of-core RMAT, edge factor {args.edge_factor}, "
                f"{args.workers} workers ({cpus} cpus)"
            ),
            cols=list(rows[0]),
        )
    )
    if cpus < 2:
        print(
            f"NOTE: only {cpus} cpu visible — run_wall_s measures protocol "
            "overhead, not parallel speedup (parity and rss_ok are still "
            "meaningful)",
            file=sys.stderr,
        )

    write_artifact(
        args.out,
        rows,
        edge_factor=args.edge_factor,
        seed=args.seed,
        iterations=args.iterations,
        workers=args.workers,
        chunk_edges=args.chunk_edges,
        cpus=cpus,
        speedup_valid=cpus >= 2,
    )

    broken = [
        f"scale {r['scale']}: {field}"
        for r in rows
        for field in ("parity", "rss_ok")
        if not r[field]
    ]
    if broken:
        print(f"SCALE CONTRACT VIOLATION in: {', '.join(broken)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
