"""User-facing program base class.

A :class:`VertexProgram` plays the role of the paper's ``Worker`` subclass
(e.g. ``PageRankWorker`` in Fig. 1): its constructor creates the channels,
``compute`` holds the per-vertex logic.  One instance is created per worker
by the engine, so instance attributes are per-worker state (the idiomatic
place for NumPy state arrays indexed by ``v.local``).

Differences from the paper's C++ API, by design:

* channel methods that refer to "the current vertex" take the
  :class:`~repro.core.vertex.Vertex` handle explicitly — explicit data flow
  is both more Pythonic and directly testable;
* per-vertex state lives in program-owned arrays rather than a
  ``value()`` struct, per the NumPy idiom of keeping hot state columnar.

Two compute paths exist (see ARCHITECTURE.md for when to use which):

* :class:`VertexProgram` — ``compute(v)`` is called once per active vertex.
* :class:`BulkVertexProgram` — ``compute_bulk(active)`` is called once per
  worker per superstep with the whole active set as a NumPy index array.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.vertex import Vertex
    from repro.core.worker import Worker

#: state value types the generic ``state_dict`` captures besides arrays
_SCALAR_STATE = (bool, int, float, str, bytes, np.bool_, np.integer, np.floating)

__all__ = ["VertexProgram", "BulkVertexProgram", "ProgramSpec"]


class ProgramSpec:
    """A program factory as *data*: an importable base class plus the
    class attributes to bake onto a dynamically created subclass.

    ``ProgramSpec(Base, {"warm": arr})(worker)`` behaves exactly like
    ``type("Base", (Base,), {"warm": arr})(worker)`` — the streaming
    planners used the latter to parameterize refresh programs with
    per-epoch schedules — but unlike an anonymous ``type(...)`` product,
    a spec survives ``pickle``: the base travels by reference (it must
    be importable) and the attributes by value.  That is what lets a
    persistent worker pool receive *next epoch's program* over a control
    pipe instead of being respawned around a new in-memory class
    (:meth:`repro.runtime.parallel.pool.WorkerPool.reconfigure`).

    The attribute dict is deliberately shared, not copied: every worker's
    subclass sees the same array objects, exactly as class attributes on
    one shared dynamic class would (each *process* still gets its own
    copy through pickling, as with any cross-process state).
    """

    __slots__ = ("base", "attrs", "name")

    def __init__(self, base: type, attrs: dict | None = None, name: str | None = None):
        self.base = base
        self.attrs = dict(attrs) if attrs else {}
        self.name = name or base.__name__

    def __call__(self, worker: "Worker"):
        cls = type(self.name, (self.base,), self.attrs)
        return cls(worker)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProgramSpec({self.base.__module__}.{self.base.__qualname__}, "
            f"attrs={sorted(self.attrs)})"
        )


def _capturable(value) -> bool:
    if value is None or isinstance(value, (np.ndarray,) + _SCALAR_STATE):
        return True
    if isinstance(value, (list, tuple)):
        return all(_capturable(v) for v in value)
    if isinstance(value, dict):
        return all(_capturable(k) and _capturable(v) for k, v in value.items())
    return False


class VertexProgram:
    """Base class for channel-based vertex programs.

    The engine calls :meth:`compute` once per active vertex per superstep;
    see ARCHITECTURE.md for the layer map and the columnar alternative,
    :class:`BulkVertexProgram`.
    """

    #: dispatch flag read by :meth:`Worker.run_compute`
    is_bulk = False

    def __init__(self, worker: "Worker") -> None:
        self.worker = worker

    # -- the algorithm ---------------------------------------------------
    def compute(self, v: "Vertex") -> None:
        raise NotImplementedError

    def before_superstep(self) -> None:
        """Called once per worker before every superstep, *including* ones
        where this worker has no active vertices.

        Multi-phase algorithms (Min-Label SCC, Boruvka MSF) use this as a
        distributed phase controller: every worker advances the same state
        machine from globally consistent inputs (aggregator results), and
        may wake vertices for the upcoming phase via
        ``self.worker.activate_local_bulk``.
        """

    def finalize(self) -> np.ndarray | None:
        """Called once after termination; return one NumPy array with a row
        per ``self.worker.local_ids`` entry (no object dtype on the process
        executor), or ``None``.  Rows land in :class:`EngineResult.data`."""
        return None

    # -- checkpointing ----------------------------------------------------
    def state_dict(self) -> dict:
        """This worker's per-program state, for checkpointing.

        The default captures every instance attribute that is a NumPy
        array, a scalar (including str/bytes), ``None``, or a
        list/tuple/dict of those — which covers all in-tree programs,
        scalar and bulk alike, since per-vertex state lives in
        program-owned arrays.  Channels checkpoint themselves (the engine
        calls each channel's ``snapshot()`` separately) and the worker
        handle is re-bound on restore, so both are skipped here.

        Raises ``TypeError`` on any other attribute type rather than
        silently dropping state — programs holding exotic state must
        override this (and :meth:`load_state_dict`).
        """
        from repro.core.channel import Channel

        state = {}
        for name, value in vars(self).items():
            if name == "worker" or isinstance(value, Channel):
                continue
            if not _capturable(value):
                raise TypeError(
                    f"{type(self).__name__}.{name} ({type(value).__name__}) "
                    "is not checkpointable by the generic state_dict(); "
                    "override state_dict()/load_state_dict()"
                )
            state[name] = value.copy() if isinstance(value, np.ndarray) else value
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore the attributes captured by :meth:`state_dict`.

        Same-shape arrays are copied **in place** so anything that
        aliased the old array (a channel ``respond_fn_bulk`` closure, a
        cached view) keeps seeing the restored state.
        """
        for name, value in state.items():
            current = getattr(self, name, None)
            if (
                isinstance(current, np.ndarray)
                and isinstance(value, np.ndarray)
                and current.shape == value.shape
                and current.dtype == value.dtype
            ):
                current[...] = value
            else:
                setattr(self, name, value.copy() if isinstance(value, np.ndarray) else value)

    # -- context helpers (mirror the paper's Worker API) --------------------
    @property
    def step_num(self) -> int:
        """1-based superstep number (the paper's ``step_num()``)."""
        return self.worker.step_num

    @property
    def num_vertices(self) -> int:
        """Total vertices in the graph (the paper's ``get_vnum()``)."""
        return self.worker.graph.num_vertices

    @property
    def num_local(self) -> int:
        """Vertices owned by this worker."""
        return self.worker.num_local


class BulkVertexProgram(VertexProgram):
    """Base class for columnar (whole-active-set) vertex programs.

    Instead of one ``compute(v)`` call per active vertex, the worker makes
    a single :meth:`compute_bulk` call per superstep, passing the sorted
    local indices of the active set.  Implementations operate on
    program-owned NumPy state arrays and the channels' array APIs
    (``set_messages``, ``send_messages``, ``get_messages``,
    ``add_edges_bulk``, ``Aggregator.add_bulk``), plus the worker's
    vectorized control surface (``halt_bulk``, ``activate_local_bulk``,
    ``local_adjacency``).  ARCHITECTURE.md documents the porting recipe
    and the FP-ordering rules that keep bulk output bit-identical to the
    scalar original.
    """

    is_bulk = True

    def compute_bulk(self, active: "np.ndarray") -> None:
        """Run one superstep over the whole active set (sorted local
        indices).  Called exactly once per worker per superstep with a
        non-empty frontier."""
        raise NotImplementedError

    def compute(self, v: "Vertex") -> None:  # pragma: no cover - guard
        raise TypeError(
            f"{type(self).__name__} is a bulk program; the engine calls "
            "compute_bulk(active), never per-vertex compute()"
        )
