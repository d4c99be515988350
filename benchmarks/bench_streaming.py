"""Incremental-vs-cold streaming refresh benchmark (BENCH_streaming.json).

For every streaming algorithm (incremental PageRank / WCC / SSSP) and a
sweep of delta sizes (0.01%–10% of the graph's edges by default), two
:class:`~repro.streaming.epoch.EpochEngine` s consume the *same* update
stream — one refreshing incrementally, one re-running from scratch every
epoch — and every epoch asserts the two produced **bit-identical**
``result.data`` (the script exits non-zero otherwise; the CI smoke leans
on that).  Reported per row, averaged over the epochs:

* ``speedup``      — cold wall time / incremental wall time;
* ``byte_ratio``   — incremental network bytes / cold network bytes;
* ``affected_pct`` — how much of the graph the refresh plan recomputed.

Run directly::

    PYTHONPATH=src python benchmarks/bench_streaming.py                  # road grid, 8 workers
    PYTHONPATH=src python benchmarks/bench_streaming.py --dataset stream-er \\
        --delta-fracs 0.001 0.01 --epochs 3 --workers 4                  # smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from _provenance import write_artifact
from repro.bench.datasets import load_dataset
from repro.bench.tables import render_rows
from repro.graph.partition import hash_partition
from repro.streaming import STREAM_ALGORITHMS, EpochEngine, synthesize_stream

DEFAULT_FRACS = [0.0001, 0.001, 0.01, 0.1]


def _algo_params(name: str, graph, iterations: int) -> dict:
    if name == "pagerank":
        return {"iterations": iterations}
    if name == "sssp":
        # a high-degree source keeps most of the graph reachable
        return {"source": int(np.argmax(graph.out_degrees))}
    return {}


def bench_cell(
    name: str,
    graph,
    frac: float,
    num_workers: int,
    epochs: int,
    iterations: int,
    seed: int,
    executor: str = "sim",
) -> dict:
    m = graph.num_input_edges
    k = max(1, int(round(frac * m)))
    ins = k - k // 2
    dele = k // 2
    batches = synthesize_stream(graph, epochs, ins, dele, seed=seed)
    partition = hash_partition(graph.num_vertices, num_workers, seed=seed)
    params = _algo_params(name, graph, iterations)

    engines = {
        mode: EpochEngine(
            graph,
            STREAM_ALGORITHMS[name](**params),
            num_workers=num_workers,
            refresh=mode,
            partition=partition,
            executor=executor,
        )
        for mode in ("incremental", "full")
    }
    wall = {mode: 0.0 for mode in engines}
    for eng in engines.values():
        eng.bootstrap()

    identical = True
    affected = 0
    bytes_total = {mode: 0 for mode in engines}
    steps_total = {mode: 0 for mode in engines}
    for batch in batches:
        results = {}
        for mode, eng in engines.items():
            t0 = time.perf_counter()
            epoch = eng.run_epoch(batch)
            wall[mode] += time.perf_counter() - t0
            # read totals off the collector, not the EngineResult
            # pass-throughs: those are None when metrics are disabled, and
            # a byte comparison fed by silent zeros would pass vacuously
            bytes_total[mode] += epoch.result.metrics.total_net_bytes
            steps_total[mode] += epoch.result.metrics.supersteps
            results[mode] = epoch
        identical = identical and np.array_equal(
            results["incremental"].data, results["full"].data
        )
        affected += results["incremental"].affected

    for eng in engines.values():
        eng.close()

    n_epochs = len(batches)
    return {
        "algorithm": name,
        "executor": executor,
        "delta_frac": frac,
        "batch_edges": ins + dele,
        "epochs": n_epochs,
        "affected_pct": round(100 * affected / (n_epochs * graph.num_vertices), 2),
        "inc_supersteps": round(steps_total["incremental"] / n_epochs, 1),
        "cold_supersteps": round(steps_total["full"] / n_epochs, 1),
        "inc_wall_s": round(wall["incremental"] / n_epochs, 4),
        "cold_wall_s": round(wall["full"] / n_epochs, 4),
        "speedup": round(wall["full"] / max(wall["incremental"], 1e-9), 2),
        "inc_mb": round(bytes_total["incremental"] / n_epochs / 1e6, 4),
        "cold_mb": round(bytes_total["full"] / n_epochs / 1e6, 4),
        "byte_ratio": round(
            bytes_total["incremental"] / max(bytes_total["full"], 1), 3
        ),
        "identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="stream-road")
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument(
        "--executor",
        choices=["sim", "process"],
        default="sim",
        help="execution backend for every epoch (process epochs share one "
        "persistent worker pool per engine)",
    )
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument(
        "--iterations", type=int, default=10, help="PageRank iterations"
    )
    parser.add_argument(
        "--delta-fracs",
        type=float,
        nargs="+",
        default=DEFAULT_FRACS,
        help="batch sizes as fractions of the edge count",
    )
    parser.add_argument(
        "--algorithms",
        nargs="*",
        choices=sorted(STREAM_ALGORITHMS),
        default=sorted(STREAM_ALGORITHMS),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_streaming.json",
    )
    args = parser.parse_args(argv)

    graph = load_dataset(args.dataset)
    rows = []
    for name in args.algorithms:
        for frac in args.delta_fracs:
            rows.append(
                bench_cell(
                    name,
                    graph,
                    frac,
                    args.workers,
                    args.epochs,
                    args.iterations,
                    args.seed,
                    executor=args.executor,
                )
            )
    print(
        render_rows(
            rows,
            title=(
                f"incremental vs cold refresh ({args.dataset}, "
                f"{args.workers} workers, {args.epochs} epochs/cell, "
                f"{args.executor} executor)"
            ),
            cols=list(rows[0]),
        )
    )
    write_artifact(
        args.out,
        rows,
        dataset=args.dataset,
        workers=args.workers,
        epochs=args.epochs,
        seed=args.seed,
        executor=args.executor,
    )

    broken = [
        f"{r['algorithm']}@{r['delta_frac']}" for r in rows if not r["identical"]
    ]
    if broken:
        print(f"REFRESH NOT BIT-IDENTICAL in: {', '.join(broken)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
