"""Per-layer ledger for the traced benchmark run.

The ledger wraps public functions of the program's modules from the
benchmark's own code (nothing under ``src/`` changes), records one span
per call -- name, start, end, parent -- in memory, and turns the spans of
one repetition into per-layer self times and call counts.

A span's *self time* is its duration minus the time its child spans
cover.  Spans nest strictly (the parent process that runs the benchmark
is single-threaded), so the self times of all spans inside a wall window
add up to the time the top-level spans cover, and ``unattributed_s`` is
the wall minus that sum.

Worker processes forked from a traced parent inherit the wrappers; the
wrappers check the process id and call straight through there, so
children pay one comparison per call and record nothing (parent-side
wrappers cannot see inside children).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict


class Ledger:
    """Spans and counters of one traced benchmark run."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: one ``[name, start, end, parent_index]`` list per call
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: per-repetition counters (bytes, flagged calls), reset by ``mark``
        self.counters: dict[str, float] = defaultdict(float)
        #: span names the installed wrappers record, in install order
        self.names: list[str] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans --------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def mark(self) -> int:
        """Start a new repetition: returns the index its spans start at
        and clears the counters."""
        self.counters.clear()
        return len(self.spans)

    def self_times(self, first: int) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name, over the spans
        recorded since index ``first``."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, _ in self.spans[first:]:
            seconds[name] += end - start
            calls[name] += 1
        for name, start, end, parent in self.spans[first:]:
            if parent >= first:
                seconds[self.spans[parent][0]] -= end - start
        return dict(seconds), dict(calls)

    # -- instrumentation ----------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` (a class or a module attribute) with a
        span-recording wrapper.  ``on_call(args, result)`` runs after each
        traced call to update counters.  ``uninstall`` restores it."""
        had_own = attr in vars(owner)
        func = vars(owner)[attr] if had_own else getattr(owner, attr)
        ledger = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if os.getpid() != ledger.pid:
                return func(*args, **kwargs)
            idx = ledger.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                ledger.close(idx)
            if on_call is not None:
                on_call(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, func, had_own))
        if name not in self.names:
            self.names.append(name)

    def uninstall(self) -> None:
        for owner, attr, func, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, func)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line (done once, at the end)."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": None if parent < 0 else parent}
                    )
                    + "\n"
                )


def install(ledger: Ledger) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    from repro.core.channels import CombinedMessage
    from repro.core.combiner import Combiner
    from repro.core.engine import ChannelEngine
    from repro.core.worker import Worker
    from repro.runtime import serialization
    from repro.runtime.buffers import BufferExchange
    from repro.runtime.executor import SimBackend
    from repro.runtime.parallel import protocol
    from repro.runtime.parallel.backend import ProcessBackend
    from repro.runtime.parallel.pool import WorkerPool
    from repro.streaming import DeltaGraph, EpochEngine, SSSPStream

    counters = ledger.counters

    def count_accumulate(args, _result):
        values = args[3]
        if not values.flags.aligned:
            counters["combiner.misaligned"] += 1

    def count_encoded(_args, result):
        counters["codec.encoded_bytes"] += len(result)

    def count_reply(args, _result):
        counters["control.reply_bytes"] += len(args[0])

    ledger.wrap(ChannelEngine, "__init__", "engine.init")
    for backend in (SimBackend, ProcessBackend):
        for attr, name in (
            ("begin_run", "executor.begin_run"),
            ("barrier_vote", "executor.barrier"),
            ("compute_phase", "executor.compute"),
            ("exchange_phase", "executor.exchange"),
            ("collect_results", "executor.collect"),
            ("shutdown", "executor.close"),
        ):
            ledger.wrap(backend, attr, name)
    ledger.wrap(EpochEngine, "close", "executor.close")
    ledger.wrap(WorkerPool, "ensure", "pool.ensure")
    ledger.wrap(WorkerPool, "gather", "pool.gather")
    ledger.wrap(WorkerPool, "read_vote", "pool.vote_wait")
    ledger.wrap(WorkerPool, "shutdown", "pool.shutdown")
    ledger.wrap(protocol, "decode_state", "control.decode", count_reply)
    ledger.wrap(Worker, "run_compute", "worker.compute")
    # the one channel class whose kernels run in this process (wcc-sim);
    # on the process workloads the channels run inside the workers
    ledger.wrap(CombinedMessage, "serialize", "channel.CombinedMessage.serialize")
    ledger.wrap(CombinedMessage, "deserialize", "channel.CombinedMessage.deserialize")
    ledger.wrap(Combiner, "accumulate_at", "combiner.accumulate", count_accumulate)
    ledger.wrap(serialization.Codec, "encode_array", "codec.encode", count_encoded)
    ledger.wrap(serialization.Codec, "decode_array", "codec.decode")
    ledger.wrap(serialization.BufferReader, "read_array", "codec.decode")
    ledger.wrap(BufferExchange, "exchange", "buffers.exchange")
    ledger.wrap(DeltaGraph, "apply", "streaming.apply")
    ledger.wrap(DeltaGraph, "view", "streaming.view")
    ledger.wrap(SSSPStream, "plan", "streaming.plan")
    ledger.wrap(SSSPStream, "collect", "streaming.collect")

