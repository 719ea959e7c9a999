"""Counted work: interpreted opcodes per harness op, pinned per queue kind.

A wall-clock gate follows the host: on a busy machine a 1.5x slowdown can
pass it.  An opcode count at a fixed seed and op budget repeats exactly, so a
band around it catches a change in the work each op does on every run.

The set-up is the harness's: one thread, k = 256, uniform32 keys, a 3 000-item
prefill through ``bench._prefill``, then 2 000 ops of ``ThreadWorkload.next``
plus the handle call, as ``bench._worker`` makes them.  Every opcode in every
frame below the op loop counts, the workload's and the queue's alike.
Counts are CPython 3.11's; other versions compile to other opcodes.

``klsm-two-handles`` counts klsm's shared path: two handles, so the local
parts are shared ``Lsm``s and claims take locks, at the ``quality-2t`` shape
(uniform16 keys, a 10 000-item prefill), driven from one OS thread.  A
seeded schedule picks the handle of each of the 2 000 ops; then handle 0
drains the queue as ``bench.run_quality_rep`` does, spying on handle 1 once
its own part runs dry.  The count is per op and drained item.
"""
import random
import sys

import pytest

from pqbench import bench
from pqbench.baseline import LockedHeap
from pqbench.bench import BenchConfig, _build_run, _prefill
from pqbench.dlsm import DlsmHandle
from pqbench.workload import INSERT

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="opcode counts are pinned for CPython 3.11")

OPS = 2000
BAND = 0.05
# opcodes per op at seed 1
PINNED = {"klsm": 273.8, "seqlsm": 176.8, "multiq": 132.6, "globallock": 47.0,
          "klsm-two-handles": 333.6}
TWO_HANDLES = dict(queue="klsm", threads=2, keys="uniform16", prefill=10_000)


def _run_ops(steps, drain):
    """The harness's op loop, then a drain until the queue is observed empty,
    run untraced: only the frames they call count.  Returns the number of
    items drained."""
    for next_op, insert, delete_min in steps:
        kind, key = next_op()
        if kind == INSERT:
            insert(key)
        else:
            delete_min()
    return len(list(iter(drain, None))) if drain else 0


def _set_up(name, seed, ops):
    """The arguments of :func:`_run_ops` for input ``name``, prefilled."""
    if name == "klsm-two-handles":
        cfg = BenchConfig(k=256, seed=seed, **TWO_HANDLES)
    else:
        cfg = BenchConfig(queue=name, k=256, threads=1, keys="uniform32",
                          prefill=3000, seed=seed)
    _, wls, handles = _build_run(cfg, 0)
    _prefill(cfg, wls, handles)
    calls = [(wl.next, h.insert, h.delete_min) for wl, h in zip(wls, handles)]
    if len(calls) == 1:
        return calls * ops, None
    rng = random.Random(seed)
    return ([calls[rng.randrange(len(calls))] for _ in range(ops)],
            handles[0].delete_min)


def opcodes_per_op(name, seed=1, ops=OPS):
    args = _set_up(name, seed, ops)
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
        drained = _run_ops(*args)
    finally:
        sys.settrace(None)
    return count / (ops + drained)


@pytest.mark.parametrize("queue", sorted(PINNED))
def test_opcodes_per_op_are_pinned(queue):
    got = opcodes_per_op(queue)
    assert got == pytest.approx(PINNED[queue], rel=BAND), (
        f"{queue}: {got:.1f} opcodes per op, pinned at {PINNED[queue]}")


def test_two_handle_input_runs_spies_and_locked_claims(monkeypatch):
    spy = DlsmHandle.spy
    copied = []

    def counted(handle):
        copied.append(spy(handle))
        return copied[-1]

    monkeypatch.setattr(DlsmHandle, "spy", counted)
    steps, drain = _set_up("klsm-two-handles", 1, OPS)
    assert drain.__self__.q.claims._locks
    _run_ops(steps, drain)
    assert len(copied) > 100 and any(copied)


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
