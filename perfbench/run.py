"""End-to-end and per-layer benchmark of the channel engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``pagerank-process``, ``wcc-sim`` and ``sssp-stream-process``
(see ``perfbench/README.md`` for why each one).
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` runs untraced and traced repetitions and reports the
per-layer ledger.  A record of the run (provenance, per-repetition
samples) goes to ``.perfbench_out/`` in the repository root, and a traced
run also writes its spans there.  ``--size tiny`` and ``--plant-error``
exist for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: inputs are rebuilt (and discarded) until setup has taken this long, so
#: setup_s is a median over enough builds even when one build is quick
SETUP_SECONDS = 1.0

#: channel labels ("<channel id>:<class>") the workloads register, as
#: metric-name fragments ("<id>-<class>")
CHANNEL_LABELS = ("0:Aggregator", "1:ScatterCombine", "0:CombinedMessage")
PHASES = ("barrier", "compute", "serialize", "exchange")


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--plant-error", action="store_true",
                    help="corrupt one value of every checked result")
    return ap.parse_args(argv)


# -- isolation: leaked processes and shared-memory segments -------------------
def child_pids() -> set[int]:
    """PIDs whose parent is this process (read from /proc)."""
    me = os.getpid()
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.add(int(entry))
    return out


class LeakGuard:
    """Counts child processes and shared-memory segments that outlive a
    repetition, and removes them when the run ends.

    Segments are attributed by name: the guard records every segment this
    process creates, so segments of other processes sharing ``/dev/shm``
    never count."""

    def __init__(self) -> None:
        from multiprocessing import resource_tracker, shared_memory

        # the tracker is a long-lived helper of this process, not a leak
        resource_tracker.ensure_running()
        self.baseline = child_pids()
        self.created: set[str] = set()
        self.leaked_pids: set[int] = set()
        self.leaked_segments: set[str] = set()
        self._init = shared_memory.SharedMemory.__init__
        created, init, pid = self.created, self._init, os.getpid()

        def recording_init(shm, name=None, create=False, size=0, **kwargs):
            init(shm, name, create, size, **kwargs)
            if create and os.getpid() == pid:
                created.add(shm.name)

        shared_memory.SharedMemory.__init__ = recording_init

    def check(self) -> bool:
        """Record what outlived the repetition that just ended."""
        pids = child_pids() - self.baseline
        segments = {n for n in self.created if os.path.exists(f"/dev/shm/{n}")}
        self.created.clear()
        self.leaked_pids |= pids
        self.leaked_segments |= segments
        return bool(pids or segments)

    def cleanup(self) -> None:
        import signal
        from multiprocessing import resource_tracker, shared_memory

        shared_memory.SharedMemory.__init__ = self._init
        for pid in self.leaked_pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        for name in self.leaked_segments:
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            segment.close()
            segment.unlink()
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


# -- one repetition ---------------------------------------------------------------
def run_rep(workload, inst, guard, ledger, plant) -> dict:
    from workloads import check

    runs = len(inst.reference)
    first = ledger.mark() if ledger is not None else 0
    try:
        out = workload.execute(inst)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        guard.check()
        return {"attempted": runs, "failed": runs, "outcome": None,
                "instance": inst.seed}
    rep = {"attempted": runs, "outcome": out, "instance": inst.seed}
    if ledger is not None:
        rep["self_s"], rep["calls"] = ledger.self_times(first)
        rep["counters"] = dict(ledger.counters)
    bad = check(workload, inst, out, plant)
    out.values = None
    # checked before collecting garbage: a pool that only the cyclic
    # collector would shut down was not closed explicitly
    if guard.check():
        print(f"leak after instance {inst.seed}: processes "
              f"{sorted(guard.leaked_pids)}, segments "
              f"{sorted(guard.leaked_segments)}", file=sys.stderr)
        bad = runs
    rep["failed"] = bad
    # free this repetition's engines (they hold reference cycles) now, so
    # neither the next repetition's wall nor peak_rss_mb depends on when
    # the cyclic collector happens to run
    gc.collect()
    return rep


def measure(workload, instances, seconds, guard, ledger, plant) -> list[dict]:
    """Complete cycles over all instances (so each weighs the same): as
    many as fit in ``seconds`` judging by the first one, rounded to the
    nearest whole number and at least one."""
    reps: list[dict] = []

    def cycle() -> None:
        for inst in instances:
            reps.append(run_rep(workload, inst, guard, ledger, plant))

    start = time.perf_counter()
    cycle()
    for _ in range(round(seconds / (time.perf_counter() - start)) - 1):
        cycle()
    return reps


# -- metrics ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + largest_child) / 1024.0  # ru_maxrss is in KiB on Linux


def instance_mean(reps, fn) -> float:
    """Mean over instances of a per-repetition count (each instance's
    count is deterministic, so the first repetition of each stands)."""
    per_instance = {}
    for rep in reps:
        if rep["outcome"] is not None:
            per_instance.setdefault(rep["instance"], fn(rep["outcome"]))
    return statistics.fmean(per_instance.values()) if per_instance else 0.0


def end_to_end(reps, builds) -> dict:
    done = [r["outcome"] for r in reps if r["outcome"] is not None]
    return {
        "wall_s": (median([o.wall for o in done]), "s"),
        "setup_s": (median([b["total"] for b in builds]), "s"),
        "epoch_s": (median([t for o in done for t in o.epoch_times]), "s"),
        "modeled_s": (
            median([sum(m.simulated_time for m in o.metrics) for o in done]), "s"
        ),
        "net_mb": (
            instance_mean(reps, lambda o: sum(m.total_net_bytes for m in o.metrics))
            / 1e6,
            "MB",
        ),
        "messages": (
            instance_mean(reps, lambda o: sum(m.total_messages for m in o.metrics)),
            "count",
        ),
        "supersteps": (
            instance_mean(reps, lambda o: sum(m.supersteps for m in o.metrics)),
            "count",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(plain, traced, builds, span_names) -> dict:
    ok = [r for r in traced if r["outcome"] is not None]
    metrics: dict = {}

    def put(name, values, unit):
        metrics[name] = (median(values), unit)

    for step in ("graph.build", "graph.partition", "streaming.synthesize"):
        put(f"{step}_s", [b.get(step, 0.0) for b in builds], "s")
    for name in span_names:
        put(f"{name}_s", [r["self_s"].get(name, 0.0) for r in ok], "s")
    put("unattributed_s",
        [r["outcome"].wall - sum(r["self_s"].values()) for r in ok], "s")
    for phase in PHASES:
        put(f"phase.{phase}_s",
            [sum(m.phase_totals().get(phase, 0.0) for m in r["outcome"].metrics)
             for r in ok], "s")
    put("pool.spawned", [r["outcome"].spawned for r in ok], "count")
    put("control.reply_mb",
        [r["counters"].get("control.reply_bytes", 0.0) / 1e6 for r in ok], "MB")
    put("combiner.accumulate_calls",
        [r["calls"].get("combiner.accumulate", 0) for r in ok], "count")
    put("combiner.misaligned_frac",
        [r["counters"].get("combiner.misaligned", 0.0)
         / max(r["calls"].get("combiner.accumulate", 0), 1) for r in ok], "ratio")
    put("codec.encoded_mb",
        [r["counters"].get("codec.encoded_bytes", 0.0) / 1e6 for r in ok], "MB")
    for label in CHANNEL_LABELS:
        key = label.replace(":", "-")
        traffic = [
            [m.channel_breakdown().get(label) for m in r["outcome"].metrics]
            for r in ok
        ]
        put(f"channel.{key}.net_mb",
            [sum(t["net_bytes"] for t in run if t) / 1e6 for run in traffic], "MB")
        put(f"channel.{key}.messages",
            [sum(t["messages"] for t in run if t) for run in traffic], "count")
    put("streaming.affected_vertices", [r["outcome"].affected for r in ok], "count")
    plain_wall = [r["outcome"].wall for r in plain if r["outcome"] is not None]
    metrics["trace_overhead_s"] = (
        median([r["outcome"].wall for r in ok]) - median(plain_wall), "s"
    )
    return metrics


def provenance(args, instances) -> dict:
    import numpy as np
    from repro.bench.runner import git_describe

    git = git_describe()
    first = instances[0]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "instance_seeds": [i.seed for i in instances],
        "vertices": first.graph.num_vertices,
        "arcs": [int(i.graph.indices.size) for i in instances],
        "batches": len(first.batches),
        "batch_sizes": [b.size for b in first.batches],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": git,
        # None outside a git checkout: cleanliness cannot be known there
        "dirty": None if git == "unknown" else git.endswith("-dirty"),
    }


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from ledger import Ledger, install
    from workloads import SIZES, WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    workload = WORKLOADS[args.workload]
    size = SIZES[args.size][args.workload]
    count = workload.instances if args.size == "full" else 2
    seeds = [100 * args.seed + i for i in range(count)]
    t0 = time.perf_counter()
    instances = [workload.setup(seed, size) for seed in seeds]
    builds = [inst.setup for inst in instances]
    while time.perf_counter() - t0 < SETUP_SECONDS:
        builds += [workload.setup(seed, size).setup for seed in seeds]
    for inst in instances:
        inst.reference = workload.reference(inst)

    guard = LeakGuard()
    ledger = None
    try:
        if args.trace:
            plain = measure(workload, instances, args.seconds / 2, guard, None,
                            args.plant_error)
            ledger = Ledger()
            install(ledger)
            try:
                traced = measure(workload, instances, args.seconds / 2, guard,
                                 ledger, args.plant_error)
            finally:
                ledger.uninstall()
            reps = plain + traced
            metrics = per_layer(plain, traced, builds, ledger.names)
        else:
            reps = measure(workload, instances, args.seconds, guard, None,
                           args.plant_error)
            metrics = end_to_end(reps, builds)
    finally:
        guard.cleanup()

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": provenance(args, instances),
        "repetitions": len(reps),
        "samples": [
            {"instance": r["instance"], "failed": r["failed"],
             "wall_s": r["outcome"].wall,
             "supersteps": sum(m.supersteps for m in r["outcome"].metrics),
             "messages": sum(m.total_messages for m in r["outcome"].metrics)}
            for r in reps if r["outcome"] is not None
        ],
        "setup_s": builds,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if ledger is not None:
        ledger.write(out_dir / f"{stem}.spans.jsonl")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
