"""Smoke test of the benchmark: every workload at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from multiprocessing import shared_memory
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result = result_of(run(workload, trace))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_error_is_counted_as_failure(workload):
    result = result_of(run(workload, 0, "--plant-error"))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_leak_guard_counts_surviving_segment_and_child():
    sys.path.insert(0, str(HERE))
    from run import LeakGuard

    guard = LeakGuard()
    try:
        assert not guard.check()
        segment = shared_memory.SharedMemory(create=True, size=16)
        segment.close()
        child = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(60,))
        child.start()
        assert guard.check()
        assert guard.leaked_segments == {segment.name}
        assert guard.leaked_pids == {child.pid}
    finally:
        guard.cleanup()
    assert not os.path.exists(f"/dev/shm/{segment.name}")
    assert not os.path.exists(f"/proc/{child.pid}")


def test_self_time_subtracts_child_spans():
    sys.path.insert(0, str(HERE))
    from ledger import Ledger

    ledger = Ledger()
    first = ledger.mark()
    outer = ledger.open("outer")
    inner = ledger.open("inner")
    ledger.close(inner)
    ledger.close(outer)
    ledger.spans[outer][1:3] = [0.0, 3.0]
    ledger.spans[inner][1:3] = [1.0, 2.0]
    seconds, calls = ledger.self_times(first)
    assert seconds == {"outer": 2.0, "inner": 1.0}
    assert calls == {"outer": 1, "inner": 1}
