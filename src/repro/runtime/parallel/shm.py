"""Shared-memory primitives: read-only array export and SPSC ring buffers.

Two independent facilities live here:

* **Array export** (:class:`SharedArrayExport` / :func:`attach_array`) —
  the parent exports each array once (one copy into a fresh segment);
  every worker process attaches by name and gets a read-only zero-copy
  view.  The specs that travel to the children are plain
  ``(name, dtype, shape)`` tuples, so they cross the control pipes
  through the same tagged-binary codec as everything else.

* **The data plane** — :class:`RingBuffer`, a single-producer /
  single-consumer byte FIFO over a ``SharedMemory`` segment (codec frame
  bytes flow worker-to-worker through one ring per ordered worker
  pair), and :class:`VoteSegment`, one pool-owned segment with a
  seqlock slot per worker that carries the barrier votes (see
  ARCHITECTURE.md §9).
"""

from __future__ import annotations

import struct
import time
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SharedArrayExport",
    "attach_array",
    "RingBuffer",
    "VoteSegment",
    "untrack_segment",
    "DEFAULT_RING_CAPACITY",
]


def _spec(name: str, arr: np.ndarray) -> dict:
    return {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}


class SharedArrayExport:
    """Parent-side owner of a set of shared-memory arrays.

    ``share()`` copies an array into a new segment and returns its spec;
    ``close()`` releases (and by default unlinks) every segment.  The
    parent must keep this object alive for as long as children are
    attached.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []

    def share(self, arr: np.ndarray) -> dict:
        arr = np.ascontiguousarray(arr)
        # zero-size segments are rejected by the OS; keep 1 byte and let
        # the spec's shape reconstruct the empty view
        seg = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
        self._segments.append(seg)
        if arr.nbytes:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
            view[...] = arr
        return _spec(seg.name, arr)

    def share_writable(self, arr: np.ndarray) -> tuple[dict, np.ndarray]:
        """Like :meth:`share`, but also return the parent's live view of
        the segment, so the parent can rewrite the shared contents in
        place later (children attach the same buffer and observe the
        update — used for ownership migration at quiescent barriers)."""
        arr = np.ascontiguousarray(arr)
        seg = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
        self._segments.append(seg)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        if arr.nbytes:
            view[...] = arr
        return _spec(seg.name, arr), view

    def close(self, unlink: bool = True) -> None:
        for seg in self._segments:
            try:
                seg.close()
                if unlink:
                    seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []

    def __enter__(self) -> "SharedArrayExport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_array(
    spec: dict, unregister: bool = False
) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Map a shared array read-only in this process.

    Returns the view *and* the segment handle; the caller must keep the
    handle alive while the view is in use and ``close()`` it afterwards
    (never ``unlink()`` — the parent owns the segment).

    ``unregister`` works around bpo-39959 for **spawned** children: their
    private resource tracker would treat the attached segment as leaked
    on exit and unlink it under the parent.  Forked children share the
    parent's tracker, where attaching is an idempotent re-register —
    unregistering there would instead erase the parent's claim, so the
    caller must pass ``unregister`` matching the start method in use.
    """
    seg = shared_memory.SharedMemory(name=spec["name"])
    if unregister:
        untrack_segment(seg)
    shape = tuple(spec["shape"])
    arr = np.ndarray(shape, dtype=np.dtype(spec["dtype"]), buffer=seg.buf)
    arr.flags.writeable = False
    return arr, seg


def untrack_segment(seg: shared_memory.SharedMemory) -> None:
    """Drop this process's private resource-tracker claim on a segment
    another process owns (bpo-39959; see :func:`attach_array`).  Shared
    by every independent attacher in the tree — spawned workers, the
    live-metrics plane (`repro.obs.live`), external `repro top`."""
    try:  # pragma: no cover - spawn-only path
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass


# ---------------------------------------------------------------------------
# SPSC ring buffers and the barrier-vote segment (the process data plane)
# ---------------------------------------------------------------------------

#: default per-ring data capacity; big enough that a typical superstep's
#: frames to one peer fit without wrapping, small enough that an 8-worker
#: pool's 56 rings stay modest (56 MiB)
DEFAULT_RING_CAPACITY = 1 << 20

# header layout: the producer-owned and consumer-owned cursors sit on
# separate cache lines so the two processes never write the same line
_OFF_HEAD = 0  # consumer cursor (monotonic, u64) — written by the reader
_OFF_TAIL = 64  # producer cursor (monotonic, u64) — written by the writer
_HEADER_SIZE = 128

_U64 = struct.Struct("<Q")

#: spin iterations before the vote wait starts sleeping
_SPIN = 200
#: ceiling for the backoff sleep (keeps peer-death detection prompt)
_MAX_SLEEP = 0.002


class RingBuffer:
    """A single-producer/single-consumer byte FIFO in shared memory.

    The ring is a plain byte stream with two non-blocking primitives,
    ``write_some``/``read_some`` (move as many bytes as space/data
    allow), which the worker's frame pump interleaves across peers.
    There are no futexes and no OS handles to inherit — everything lives
    in the segment, so a respawned replacement worker adopts the live
    cursors just by attaching.

    Cursors are monotonic u64s (data offset = cursor mod capacity), so
    "empty" (head == tail) and "exactly full" (tail - head == capacity)
    are distinct without a wasted byte.  Exactly one process may advance
    tail and exactly one may advance head.
    """

    __slots__ = ("_seg", "_buf", "capacity", "spec")

    def __init__(self, seg: shared_memory.SharedMemory, capacity: int) -> None:
        self._seg = seg
        self._buf = seg.buf
        self.capacity = int(capacity)
        self.spec = {"name": seg.name, "capacity": int(capacity)}

    # -- lifecycle -----------------------------------------------------------
    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_CAPACITY) -> "RingBuffer":
        if capacity < 16:
            raise ValueError("ring capacity must be at least 16 bytes")
        seg = shared_memory.SharedMemory(create=True, size=_HEADER_SIZE + capacity)
        seg.buf[:_HEADER_SIZE] = bytes(_HEADER_SIZE)
        return cls(seg, capacity)

    @classmethod
    def attach(cls, spec: dict, unregister: bool = False) -> "RingBuffer":
        seg = shared_memory.SharedMemory(name=spec["name"])
        if unregister:
            untrack_segment(seg)
        return cls(seg, spec["capacity"])

    def close(self, unlink: bool = False) -> None:
        _close_segment(self, unlink)

    # -- cursor access ---------------------------------------------------------
    def _load(self, off: int) -> int:
        return _U64.unpack_from(self._buf, off)[0]

    def _store(self, off: int, value: int) -> None:
        _U64.pack_into(self._buf, off, value)

    @property
    def pending(self) -> int:
        """Bytes currently buffered (written but not yet consumed)."""
        return self._load(_OFF_TAIL) - self._load(_OFF_HEAD)

    # -- non-blocking primitives ----------------------------------------------
    def write_some(self, data) -> int:
        """Copy as much of ``data`` into the ring as fits; returns the
        number of bytes consumed from ``data`` (0 when full)."""
        head = self._load(_OFF_HEAD)
        tail = self._load(_OFF_TAIL)
        space = self.capacity - (tail - head)
        if space <= 0:
            return 0
        data = memoryview(data)
        n = min(space, len(data))
        pos = tail % self.capacity
        first = min(n, self.capacity - pos)
        base = _HEADER_SIZE
        self._buf[base + pos : base + pos + first] = data[:first]
        if n > first:
            self._buf[base : base + (n - first)] = data[first:n]
        # publish after the payload copy: the consumer only trusts bytes
        # below tail
        self._store(_OFF_TAIL, tail + n)
        return n

    def read_some(self, max_bytes: int | None = None) -> bytes:
        """Consume up to ``max_bytes`` available bytes (b"" when empty)."""
        head = self._load(_OFF_HEAD)
        tail = self._load(_OFF_TAIL)
        avail = tail - head
        if avail <= 0:
            return b""
        n = avail if max_bytes is None else min(avail, max_bytes)
        pos = head % self.capacity
        first = min(n, self.capacity - pos)
        base = _HEADER_SIZE
        if n > first:
            out = bytes(self._buf[base + pos : base + pos + first]) + bytes(
                self._buf[base : base + (n - first)]
            )
        else:
            out = bytes(self._buf[base + pos : base + pos + n])
        self._store(_OFF_HEAD, head + n)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingBuffer({self.spec['name']}, cap={self.capacity}, pending={self.pending})"


# one seqlock slot per worker, each on its own cache line: [seq u64][value u64]
_SLOT_SIZE = 64
_OFF_SLOT_SEQ = 0
_OFF_SLOT_VAL = 8


class VoteSegment:
    """The pool's barrier-vote plane: one shared segment holding one
    seqlock slot per worker.

    Each superstep, worker ``w`` publishes its active-vertex count into
    slot ``w`` under the parent-issued sequence number, then reads every
    peer's slot; all workers (and the parent) independently compute the
    same global total.  Exactly one process writes each slot; any number
    may read it — reading never consumes anything.
    """

    __slots__ = ("_seg", "_buf", "num_workers", "spec")

    def __init__(self, seg: shared_memory.SharedMemory, num_workers: int) -> None:
        self._seg = seg
        self._buf = seg.buf
        self.num_workers = int(num_workers)
        self.spec = {"name": seg.name, "num_workers": int(num_workers)}

    @classmethod
    def create(cls, num_workers: int) -> "VoteSegment":
        size = _SLOT_SIZE * num_workers
        seg = shared_memory.SharedMemory(create=True, size=size)
        seg.buf[:size] = bytes(size)
        return cls(seg, num_workers)

    @classmethod
    def attach(cls, spec: dict, unregister: bool = False) -> "VoteSegment":
        seg = shared_memory.SharedMemory(name=spec["name"])
        if unregister:
            untrack_segment(seg)
        return cls(seg, spec["num_workers"])

    def close(self, unlink: bool = False) -> None:
        _close_segment(self, unlink)

    def write_slot(self, w: int, seq: int, value: int) -> None:
        """Publish ``value`` into slot ``w`` under sequence number ``seq``
        (worker ``w`` only).  Readers spinning on ``seq`` see the payload
        fully written first."""
        base = w * _SLOT_SIZE
        _U64.pack_into(self._buf, base + _OFF_SLOT_VAL, value)
        _U64.pack_into(self._buf, base + _OFF_SLOT_SEQ, seq)

    def peek_slot(self, w: int) -> tuple[int, int]:
        """(seq, value) currently in slot ``w`` — non-blocking."""
        base = w * _SLOT_SIZE
        seq = _U64.unpack_from(self._buf, base + _OFF_SLOT_SEQ)[0]
        return seq, _U64.unpack_from(self._buf, base + _OFF_SLOT_VAL)[0]

    def read_slot(self, w: int, seq: int, check=None) -> int:
        """Block until slot ``w`` reaches sequence ``seq``; returns its
        value.  ``check`` is invoked periodically once the wait starts
        sleeping and may raise to abort it (the parent raises
        ``WorkerProcessError`` from its process-liveness check, which is
        how a worker dying before it votes surfaces instead of hanging)."""
        spins = 0
        while True:
            have, value = self.peek_slot(w)
            if have >= seq:
                return value
            spins += 1
            if spins > _SPIN:
                time.sleep(min(_MAX_SLEEP, 5e-5 * (spins - _SPIN)))
                if check is not None:
                    check()


def _close_segment(owner, unlink: bool) -> None:
    try:
        owner._buf = None
        owner._seg.close()
        if unlink:
            owner._seg.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
