"""Counted work: interpreted opcodes per harness op, pinned per queue kind.

A wall-clock gate follows the host: on a busy machine a 1.5x slowdown can
pass it.  An opcode count at a fixed seed and op budget repeats exactly, so a
band around it catches a change in the work each op does on every run.

The set-up is the harness's: one thread, k = 256, uniform32 keys, a 3 000-item
prefill through ``bench._prefill``, then 2 000 ops of ``ThreadWorkload.next``
plus the handle call, as ``bench._worker`` makes them.  Every opcode in every
frame below the op loop counts, the workload's and the queue's alike.
Counts are CPython 3.11's; other versions compile to other opcodes.
"""
import sys

import pytest

from pqbench import bench
from pqbench.baseline import LockedHeap
from pqbench.bench import BenchConfig, _build_run, _prefill
from pqbench.workload import INSERT

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="opcode counts are pinned for CPython 3.11")

OPS = 2000
BAND = 0.05
# opcodes per op at seed 1
PINNED = {"klsm": 273.8, "seqlsm": 176.8, "multiq": 132.6, "globallock": 47.0}


def _run_ops(next_op, insert, delete_min, ops):
    """The harness's op loop, run untraced: only the frames it calls count."""
    for _ in range(ops):
        kind, key = next_op()
        if kind == INSERT:
            insert(key)
        else:
            delete_min()


def opcodes_per_op(queue, seed=1, ops=OPS):
    cfg = BenchConfig(queue=queue, k=256, threads=1, keys="uniform32",
                      prefill=3000, seed=seed)
    _, wls, handles = _build_run(cfg, 0)
    _prefill(cfg, wls, handles)
    args = (wls[0].next, handles[0].insert, handles[0].delete_min, ops)
    count = 0

    def on_event(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return on_event

    def on_call(frame, event, arg):
        if frame.f_code is _run_ops.__code__:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_event

    sys.settrace(on_call)
    try:
        _run_ops(*args)
    finally:
        sys.settrace(None)
    return count / ops


@pytest.mark.parametrize("queue", sorted(PINNED))
def test_opcodes_per_op_are_pinned(queue):
    got = opcodes_per_op(queue)
    assert got == pytest.approx(PINNED[queue], rel=BAND), (
        f"{queue}: {got:.1f} opcodes per op, pinned at {PINNED[queue]}")


def test_count_repeats_exactly():
    assert opcodes_per_op("globallock") == opcodes_per_op("globallock")


class _SlowerHandle:
    """A globallock handle that does about half an op's work again."""

    def __init__(self, handle):
        self.handle = handle

    def insert(self, key):
        for _ in range(4):
            pass
        return self.handle.insert(key)

    def delete_min(self):
        for _ in range(4):
            pass
        return self.handle.delete_min()


class _SlowerHeap(LockedHeap):
    def register(self, rng=None):
        return _SlowerHandle(super().register(rng))


def test_band_catches_one_and_a_half_times_the_work(monkeypatch):
    monkeypatch.setattr(bench, "make_queue", lambda cfg: _SlowerHeap())
    got = opcodes_per_op("globallock")
    assert got / PINNED["globallock"] == pytest.approx(1.5, abs=0.1)
    assert got != pytest.approx(PINNED["globallock"], rel=BAND)
