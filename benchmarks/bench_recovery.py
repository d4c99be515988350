"""Fault-tolerance benchmark (BENCH_recovery.json).

Measures, per workload, what the fault-tolerance subsystem costs and
buys:

* **checkpoint overhead** — modeled checkpoint write time as a
  percentage of the failure-free simulated runtime;
* **recovery cost vs. failure superstep** — inject a deterministic
  failure ("worker 1 dies at the end of superstep S") and recover with
  both modes, reporting recovery time and bytes (rollback reloads every
  worker and re-executes; confined reloads only the dead worker and
  replays the survivors' frame logs);
* **correctness** — every failure run must reproduce the failure-free
  run's ``result.data`` and message/byte totals bit-for-bit; the script
  exits non-zero otherwise, which is what the CI smoke asserts.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_recovery.py                     # facebook, 8 workers
    PYTHONPATH=src python benchmarks/bench_recovery.py --dataset tree --workers 4 --fail 1:2
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from _provenance import write_artifact
from repro.algorithms.bfs import run_bfs
from repro.algorithms.pagerank import run_pagerank
from repro.algorithms.sssp import run_sssp
from repro.algorithms.wcc import run_wcc
from repro.bench.datasets import load_dataset
from repro.bench.tables import render_rows
from repro.core.recovery import FailureSchedule

#: name -> runner(graph, **engine_kwargs); mix of bulk ports and a
#: Propagation-channel workload (whose supersteps are few but heavy)
WORKLOADS = {
    "pr-scatter-bulk": lambda g, **kw: run_pagerank(
        g, variant="scatter", iterations=10, mode="bulk", **kw
    ),
    "wcc-bulk": lambda g, **kw: run_wcc(g, variant="basic", mode="bulk", **kw),
    "bfs-bulk": lambda g, **kw: run_bfs(g, variant="basic", mode="bulk", **kw),
    "sssp-prop": lambda g, **kw: run_sssp(g, variant="prop", **kw),
}


def _identical(a, b) -> bool:
    ma, mb = a[-1].metrics, b[-1].metrics
    return bool(
        np.array_equal(a[-1].data, b[-1].data)
        and ma.total_messages == mb.total_messages
        and ma.total_net_bytes == mb.total_net_bytes
        and ma.supersteps == mb.supersteps
    )


def bench_workload(
    name: str,
    graph,
    num_workers: int,
    checkpoint_every: int,
    fails: list[tuple[int, int]] | None,
    executor: str = "sim",
) -> list[dict]:
    runner = WORKLOADS[name]
    # the failure-free reference stays on the simulator: recovered runs on
    # *any* backend must reproduce it bit for bit
    baseline = runner(graph, num_workers=num_workers)
    base_time = baseline[-1].metrics.simulated_time

    ckpt = runner(
        graph,
        num_workers=num_workers,
        checkpoint_every=checkpoint_every,
        executor=executor,
    )
    cm = ckpt[-1].metrics
    rows = [
        {
            "workload": name,
            "executor": executor,
            "mode": "checkpoint-only",
            "fail_at": None,
            "supersteps": baseline[-1].metrics.supersteps,
            "checkpoint_pct": round(100 * cm.checkpoint_time / max(base_time, 1e-12), 2),
            "checkpoint_bytes": cm.checkpoint_bytes,
            "log_bytes": cm.log_bytes,
            "recovery_bytes": 0,
            "recovery_time": 0.0,
            "identical": _identical(ckpt, baseline),
        }
    ]

    steps = baseline[-1].metrics.supersteps
    if fails is None:
        # early and late failure of worker 1; the early one is placed just
        # past a checkpoint boundary so replay cost is visible (a failure
        # *at* a boundary recovers from the checkpoint it just wrote).
        # Prop workloads terminate in 2-3 supersteps, collapsing the two.
        early = min(checkpoint_every + 1, steps - 1)
        candidates = {early, max(1, steps - 1)}
        fails = [(1, s) for s in sorted(candidates) if s >= 1]
    for worker, superstep in fails:
        if superstep > steps:
            print(
                f"  [skip] {name}: failure at superstep {superstep} never fires "
                f"(run terminates after {steps})",
                file=sys.stderr,
            )
            continue
        for mode in ("rollback", "confined"):
            out = runner(
                graph,
                num_workers=num_workers,
                checkpoint_every=checkpoint_every,
                failures=[(worker, superstep)],
                recovery=mode,
                executor=executor,
            )
            m = out[-1].metrics
            rows.append(
                {
                    "workload": name,
                    "executor": executor,
                    "mode": mode,
                    "fail_at": f"{worker}:{superstep}",
                    "supersteps": out[-1].metrics.supersteps,
                    "checkpoint_pct": round(
                        100 * m.checkpoint_time / max(base_time, 1e-12), 2
                    ),
                    "checkpoint_bytes": m.checkpoint_bytes,
                    "log_bytes": m.log_bytes,
                    "recovery_bytes": m.recovery_bytes,
                    "recovery_time": round(m.recovery_time, 6),
                    "identical": _identical(out, baseline),
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="facebook")
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument(
        "--executor",
        choices=["sim", "process"],
        default="sim",
        help="execution backend for the checkpointed/failing runs; with "
        "'process' the injected failure kills a real worker OS process "
        "and recovery restores a respawned replacement (the baseline "
        "stays simulated either way)",
    )
    parser.add_argument("--checkpoint-every", type=int, default=2)
    parser.add_argument(
        "--fail",
        action="append",
        default=[],
        metavar="W:S",
        help="explicit failure(s) to inject (default: early + late kill of worker 1)",
    )
    parser.add_argument(
        "--workloads",
        nargs="*",
        choices=sorted(WORKLOADS),
        default=sorted(WORKLOADS),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_recovery.json",
    )
    args = parser.parse_args(argv)

    if not args.workloads:
        print("--workloads needs at least one workload name", file=sys.stderr)
        return 2
    if args.fail:
        try:
            fails = FailureSchedule.from_specs(args.fail, args.workers).pending()
        except ValueError as exc:
            print(f"bad --fail schedule: {exc}", file=sys.stderr)
            return 2
    else:
        fails = None
    graph = load_dataset(args.dataset)
    rows: list[dict] = []
    vacuous: list[str] = []
    for name in args.workloads:
        wrows = bench_workload(
            name,
            graph,
            args.workers,
            args.checkpoint_every,
            fails,
            executor=args.executor,
        )
        if not any(r["mode"] in ("rollback", "confined") for r in wrows):
            vacuous.append(name)
        rows.extend(wrows)

    print(
        render_rows(
            rows,
            title=(
                f"fault tolerance ({args.dataset}, {args.workers} workers, "
                f"checkpoint every {args.checkpoint_every}, "
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
        checkpoint_every=args.checkpoint_every,
        executor=args.executor,
    )

    broken = [f"{r['workload']}/{r['mode']}@{r['fail_at']}" for r in rows if not r["identical"]]
    if broken:
        print(f"RECOVERY NOT BIT-IDENTICAL in: {', '.join(broken)}", file=sys.stderr)
        return 1
    if vacuous:
        # a recovery smoke that injected nothing must not pass green
        print(
            "NO FAILURE EVER FIRED in: " + ", ".join(vacuous)
            + " (scheduled superstep past termination?)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
