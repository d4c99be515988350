"""Shared helpers for the algorithm modules."""

from __future__ import annotations

import numpy as np

from repro.core.engine import EngineResult

__all__ = ["gather", "run_engine", "resolve_mode"]


def resolve_mode(variants: dict, variant: str, mode: str):
    """Pick the program class for ``(variant, mode)`` from a table of
    ``{variant: {"scalar": cls, "bulk": cls}}`` entries.

    Raises ``ValueError`` for unknown variants/modes and for variants
    that have no bulk port (e.g. the Propagation-channel versions, whose
    compute is already trivial — see ARCHITECTURE.md).
    """
    if variant not in variants:
        raise ValueError(f"unknown variant {variant!r}; have {sorted(variants)}")
    modes = variants[variant]
    if mode not in ("scalar", "bulk"):
        raise ValueError(f"mode must be 'scalar' or 'bulk', got {mode!r}")
    if mode not in modes:
        raise ValueError(
            f"variant {variant!r} has no {mode!r} port; available: {sorted(modes)}"
        )
    return modes[mode]


def gather(result: EngineResult, n: int, dtype=np.int64) -> np.ndarray:
    """A ``dtype`` copy of ``result.data``, checked to hold ``n`` rows."""
    if result.data is None or len(result.data) != n:
        raise ValueError(f"result.data does not hold {n} per-vertex rows")
    return result.data.astype(dtype)


def run_engine(engine_cls, graph, program, **kwargs):
    """Instantiate and run an engine; forwards partition/num_workers/etc."""
    max_supersteps = kwargs.pop("max_supersteps", 100_000)
    engine = engine_cls(graph, program, **kwargs)
    return engine.run(max_supersteps=max_supersteps)
