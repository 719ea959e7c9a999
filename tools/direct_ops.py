"""Direct-call cost of each queue kind, in ns per op, with an A/B mode.

Each measurement is one fresh interpreter pinned to one core.  It imports
``pqbench`` from a source tree, then, per round, builds the queue, inserts
a prefill of uniform 32-bit keys through one handle and times a list of
pre-drawn mixed ops (half inserts, half deletes, drawn at a fixed seed)
called straight on the handle: no harness, no workload object.  Around
each timed pass it times a fixed stdlib heap workload (a copy of
``perfbench/child.py``'s ``reference_mops``), and rescales the pass's ns/op
to a host on which that workload runs at ``REF_MOPS``, so the host's speed
drift between processes cancels.  A process reports the minimum over its
rounds of the raw and of the rescaled ns/op, the cyclic garbage
collector's collections per 1 000 timed ops (the ``gc.get_stats()`` delta
over each timed pass, summed over its rounds), and the Python calls per
op of one untimed pass over the same script under ``sys.setprofile``.
The call count repeats exactly; it stands next to the time, never for it.

    python tools/direct_ops.py                       # this checkout
    python tools/direct_ops.py --src ../parent/src --src src --pairs 8

Every ``--src`` is run once per pair, in alternating order, so host drift
falls on both sides alike.  The report gives, per kind and source, the
median of the processes' raw and rescaled ns/op, each with its quartiles,
and the medians of their collections per 1 000 ops and calls per op;
with two sources it adds the second's median rescaled ns/op over the
first's and how many pairs the second won, then the same from the raw
figures.  Standard library only.
"""
from __future__ import annotations

import argparse
import gc
import heapq
import os
import random
import subprocess
import sys
import time

KINDS = ("globallock", "multiq", "seqlsm", "klsm")
HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.join(os.path.dirname(HERE), "src")
# operations of one reference measurement, as in perfbench/child.py
REF_OPS = 12_000
# the reference speed, in Mops/s, that rescaled ns/op are scaled to (the
# speed perfbench/run.py rescales its throughput to)
REF_MOPS = 0.30


def make_queue(kind: str):
    from pqbench import Klsm, LockedHeap, MultiQueue, SeqLsmQueue
    if kind == "klsm":
        return Klsm(256, 1)
    if kind == "multiq":
        return MultiQueue(1, 4)
    if kind == "globallock":
        return LockedHeap()
    return SeqLsmQueue()


class _RefItem:
    __slots__ = ("key", "seq")

    def __init__(self, key: int, seq: int):
        self.key = key
        self.seq = seq

    def __lt__(self, other: "_RefItem") -> bool:
        return (self.key, self.seq) < (other.key, other.seq)


def reference_mops() -> float:
    """Speed, in Mops/s, of a fixed pure-Python heap workload: push and pop
    of small objects compared by a Python method, the kind of work the
    queues do, but none of the program's code."""
    heap = [_RefItem(i * 7919 % 65536, i) for i in range(2000)]
    heapq.heapify(heap)
    x = 12345
    t0 = time.perf_counter()
    for i in range(REF_OPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        if x & 1:
            heapq.heappush(heap, _RefItem(x >> 15, i))
        else:
            heapq.heappop(heap)
    return REF_OPS / (time.perf_counter() - t0) / 1e6


def collections() -> int:
    """Cyclic-GC collections so far, over every generation."""
    return sum(gen["collections"] for gen in gc.get_stats())


def draw(prefill: int, ops: int, seed: int):
    """The prefill's keys and the op script (a key to insert, or None for
    a delete), drawn at ``seed``."""
    rng = random.Random(seed)
    keys = [rng.getrandbits(32) for _ in range(prefill)]
    script = [rng.getrandbits(32) if rng.random() < 0.5 else None
              for _ in range(ops)]
    return keys, script


def prefilled(kind: str, keys, seed: int):
    """A fresh queue's handle, with ``keys`` inserted through it."""
    h = make_queue(kind).register(random.Random(seed))
    for key in keys:
        h.insert(key)
    return h


def run(h, script) -> None:
    insert, delete_min = h.insert, h.delete_min
    for key in script:
        if key is None:
            delete_min()
        else:
            insert(key)


def time_ops(kind: str, prefill: int, ops: int, rounds: int,
             seed: int = 1, settle=None):
    """The minimum raw and rescaled ns/op over ``rounds`` of one timed
    pass over ``ops`` pre-drawn ops after a ``prefill``, each round on a
    fresh queue, and the collections per 1 000 ops that the timed passes
    ran.  A pass is rescaled by the geometric mean of the reference speeds
    timed just before and just after it.  ``settle``, if given, is called
    after each prefill (``gc.freeze``, say)."""
    keys, script = draw(prefill, ops, seed)
    best = scaled = float("inf")
    gcs = 0
    for r in range(rounds):
        h = prefilled(kind, keys, seed + r)
        if settle is not None:
            settle()
        ref = reference_mops()
        gc0 = collections()
        t0 = time.perf_counter_ns()
        run(h, script)
        ns = (time.perf_counter_ns() - t0) / ops
        gcs += collections() - gc0
        ref = (ref * reference_mops()) ** 0.5
        best = min(best, ns)
        scaled = min(scaled, ns * ref / REF_MOPS)
    return best, scaled, gcs * 1000 / (rounds * ops)


def calls_per_op(kind: str, prefill: int, ops: int, seed: int = 1) -> float:
    """Python call events per op of one untimed pass over the script that
    :func:`time_ops` times, counted by ``sys.setprofile``.  The count
    repeats exactly at a seed; it stands next to time, never for it."""
    keys, script = draw(prefill, ops, seed)
    h = prefilled(kind, keys, seed)
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(on_event)
    try:
        run(h, script)
    finally:
        sys.setprofile(None)
    # run's own frame was entered after the profiler was set
    return (calls - 1) / ops


def child(args) -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, args.child_src)
    print(*time_ops(args.child, args.prefill, args.ops, args.rounds),
          calls_per_op(args.child, args.prefill, args.ops))


def measure(src: str, kind: str, args):
    """``(ns/op, rescaled ns/op, collections per 1 000 ops, calls per
    op)`` from one fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", kind,
           "--child-src", src, "--prefill", str(args.prefill),
           "--ops", str(args.ops), "--rounds", str(args.rounds)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return tuple(map(float, out.stdout.split()))


def quartiles(xs):
    xs = sorted(xs)
    n = len(xs)

    def at(q):
        i = q * (n - 1)
        lo = int(i)
        hi = min(lo + 1, n - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (i - lo)

    return at(0.25), at(0.5), at(0.75)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", action="append",
                    help="a source tree holding pqbench (repeat for A/B)")
    ap.add_argument("--queue", action="append", choices=KINDS,
                    help="queue kinds to run (default: all)")
    ap.add_argument("--prefill", type=int, default=30_000)
    ap.add_argument("--ops", type=int, default=60_000)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--pairs", type=int, default=1,
                    help="processes per kind and source")
    ap.add_argument("--child", choices=KINDS, help=argparse.SUPPRESS)
    ap.add_argument("--child-src", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args)
        return 0
    srcs = [os.path.abspath(s) for s in args.src or [DEFAULT_SRC]]
    kinds = args.queue or list(KINDS)
    for kind in kinds:
        # one list per --src, so a tree given twice is measured twice
        runs = [[] for _ in srcs]
        sides = list(range(len(srcs)))
        for p in range(args.pairs):
            for i in sides if p % 2 == 0 else sides[::-1]:
                runs[i].append(measure(srcs[i], kind, args))
        for src, rs in zip(srcs, runs):
            q1, med, q3 = quartiles([r[0] for r in rs])
            s1, smed, s3 = quartiles([r[1] for r in rs])
            gcs = quartiles([r[2] for r in rs])[1]
            calls = quartiles([r[3] for r in rs])[1]
            print(f"{kind:<10} {med:8.1f} ns/op  (quartiles {q1:.1f}-{q3:.1f})"
                  f"  {smed:8.1f} rescaled ns/op  (quartiles {s1:.1f}-{s3:.1f})"
                  f"  {gcs:6.2f} gc/1k ops  {calls:6.3f} calls/op  {src}")
        if len(srcs) == 2:
            # the rescaled figures decide; the raw ones follow for reference
            for col, label in ((1, ""), (0, " raw")):
                a, b = ([r[col] for r in rs] for rs in runs)
                ratio = quartiles(b)[1] / quartiles(a)[1]
                wins = sum(y < x for x, y in zip(a, b))
                print(f"{kind:<10}{label} second/first {ratio:.3f}, second "
                      f"faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
