"""Two small klsm levers, measured: ``gc.freeze()`` after the prefill, and
``Slsm._swap``'s mutex at one thread.

The collector: klsm is timed as ``tools/direct_ops.py`` times it (the same
prefill, op script, rounds and rescaling, one fresh pinned process per
measurement) with the cyclic collector on, frozen after each prefill
(``gc.freeze()``, so the prefilled items leave its generations), and off.
Each pair runs the three modes once, in rotating order.  The report gives
each mode's median raw and rescaled ns/op with quartiles, and how many
pairs ``frozen`` and ``off`` beat ``on`` (rescaled, then raw).

The mutex: one untimed pass of the same script counts ``Slsm._swap``
calls per op, and ``timeit`` takes the minimum cost of an uncontended
``with lock: pass``; their product bounds what the mutex costs per op.

    python tools/levers.py                    # this checkout, 7 pairs
    python tools/levers.py --src ../other/src --pairs 3

Standard library only.
"""
from __future__ import annotations

import argparse
import gc
import os
import subprocess
import sys
import threading
import timeit

import direct_ops

MODES = {"on": None, "frozen": gc.freeze, "off": gc.disable}


def swaps_per_op(prefill: int, ops: int, seed: int = 1) -> float:
    from pqbench.slsm import Slsm
    keys, script = direct_ops.draw(prefill, ops, seed)
    h = direct_ops.prefilled("klsm", keys, seed)
    swap = Slsm._swap
    swaps = 0

    def counted(slsm, old, new):
        nonlocal swaps
        swaps += 1
        return swap(slsm, old, new)

    Slsm._swap = counted
    try:
        direct_ops.run(h, script)
    finally:
        Slsm._swap = swap
    return swaps / ops


def lock_ns() -> float:
    """Minimum ns of one uncontended ``with lock: pass``."""
    n = 100_000
    t = timeit.repeat("with lock: pass", number=n, repeat=7,
                      globals={"lock": threading.Lock()})
    return min(t) / n * 1e9


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=direct_ops.DEFAULT_SRC,
                    help="a source tree holding pqbench")
    ap.add_argument("--prefill", type=int, default=30_000)
    ap.add_argument("--ops", type=int, default=60_000)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--pairs", type=int, default=7)
    ap.add_argument("--child", choices=MODES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    if args.child:
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        sys.path.insert(0, src)
        print(*direct_ops.time_ops("klsm", args.prefill, args.ops,
                                   args.rounds, settle=MODES[args.child]))
        return 0
    modes = list(MODES)
    runs = {m: [] for m in modes}
    for p in range(args.pairs):
        for m in modes[p % 3:] + modes[:p % 3]:
            cmd = [sys.executable, os.path.abspath(__file__), "--child", m,
                   "--src", src, "--prefill", str(args.prefill),
                   "--ops", str(args.ops), "--rounds", str(args.rounds)]
            out = subprocess.run(cmd, check=True, capture_output=True,
                                 text=True).stdout
            runs[m].append(tuple(map(float, out.split())))
    for m in modes:
        q1, med, q3 = direct_ops.quartiles([r[0] for r in runs[m]])
        s1, smed, s3 = direct_ops.quartiles([r[1] for r in runs[m]])
        line = (f"klsm gc {m:<6} {med:8.1f} ns/op  (quartiles {q1:.1f}-"
                f"{q3:.1f})  {smed:8.1f} rescaled ns/op  (quartiles "
                f"{s1:.1f}-{s3:.1f})")
        if m != "on":
            wins = [sum(r[c] < o[c] for r, o in zip(runs[m], runs["on"]))
                    for c in (1, 0)]
            line += (f"  faster than on in {wins[0]} (raw {wins[1]}) of "
                     f"{args.pairs} pairs")
        print(line)
    sys.path.insert(0, src)
    swaps = swaps_per_op(args.prefill, args.ops)
    ns = lock_ns()
    print(f"klsm Slsm._swap {swaps:.4f} calls/op  x  {ns:.1f} ns per "
          f"uncontended lock  =  {swaps * ns:.2f} ns/op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
