"""Direct-call cost of each queue kind, in ns per op, with an A/B mode.

Each measurement is one fresh interpreter pinned to one core.  It imports
``pqbench`` from a source tree, then, per round, builds the queue, inserts
a prefill of uniform 32-bit keys through one handle and times a list of
pre-drawn mixed ops (half inserts, half deletes, drawn at a fixed seed)
called straight on the handle: no harness, no workload object.  A process
reports the minimum over its rounds, and the cyclic garbage collector's
collections per 1 000 timed ops (the ``gc.get_stats()`` delta over each
timed pass, summed over its rounds).

    python tools/direct_ops.py                       # this checkout
    python tools/direct_ops.py --src ../parent/src --src src --pairs 8

Every ``--src`` is run once per pair, in alternating order, so host drift
falls on both sides alike.  The report gives, per kind and source, the
median of the processes' ns/op with its quartiles and the median of their
collections per 1 000 ops; with two sources it adds the second's median
ns/op over the first's and how many pairs the second won.  Standard
library only.
"""
from __future__ import annotations

import argparse
import gc
import os
import random
import subprocess
import sys
import time

KINDS = ("globallock", "multiq", "seqlsm", "klsm")
HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.join(os.path.dirname(HERE), "src")


def make_queue(kind: str):
    from pqbench import Klsm, LockedHeap, MultiQueue, SeqLsmQueue
    if kind == "klsm":
        return Klsm(256, 1)
    if kind == "multiq":
        return MultiQueue(1, 4)
    if kind == "globallock":
        return LockedHeap()
    return SeqLsmQueue()


def collections() -> int:
    """Cyclic-GC collections so far, over every generation."""
    return sum(gen["collections"] for gen in gc.get_stats())


def time_ops(kind: str, prefill: int, ops: int, rounds: int,
             seed: int = 1):
    """The minimum ns/op over ``rounds`` of one timed pass over ``ops``
    pre-drawn ops after a ``prefill``, each round on a fresh queue, and
    the collections per 1 000 ops that the timed passes ran."""
    rng = random.Random(seed)
    keys = [rng.getrandbits(32) for _ in range(prefill)]
    script = [rng.getrandbits(32) if rng.random() < 0.5 else None
              for _ in range(ops)]
    best = float("inf")
    gcs = 0
    for r in range(rounds):
        h = make_queue(kind).register(random.Random(seed + r))
        insert, delete_min = h.insert, h.delete_min
        for key in keys:
            insert(key)
        gc0 = collections()
        t0 = time.perf_counter_ns()
        for key in script:
            if key is None:
                delete_min()
            else:
                insert(key)
        best = min(best, (time.perf_counter_ns() - t0) / ops)
        gcs += collections() - gc0
    return best, gcs * 1000 / (rounds * ops)


def child(args) -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, args.child_src)
    print(*time_ops(args.child, args.prefill, args.ops, args.rounds))


def measure(src: str, kind: str, args):
    """``(ns/op, collections per 1 000 ops)`` from one fresh process."""
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
        runs = {src: [] for src in srcs}
        for p in range(args.pairs):
            order = srcs if p % 2 == 0 else srcs[::-1]
            for src in order:
                runs[src].append(measure(src, kind, args))
        for src in srcs:
            q1, med, q3 = quartiles([ns for ns, _ in runs[src]])
            gcs = quartiles([gc for _, gc in runs[src]])[1]
            print(f"{kind:<10} {med:8.1f} ns/op  (quartiles {q1:.1f}-{q3:.1f})"
                  f"  {gcs:6.2f} gc/1k ops  {src}")
        if len(srcs) == 2:
            a, b = ([ns for ns, _ in runs[s]] for s in srcs)
            ratio = quartiles(b)[1] / quartiles(a)[1]
            wins = sum(y < x for x, y in zip(a, b))
            print(f"{kind:<10} second/first {ratio:.3f}, second faster in "
                  f"{wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
