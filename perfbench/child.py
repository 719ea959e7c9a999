"""Child-process side of the benchmark: runs one job of units, streams results.

``python3 perfbench/child.py '<job json>'`` imports pqbench in a fresh
interpreter, runs every unit of the job in order and prints one line
``PB <json>`` per finished unit, flushed at once, so a parent that kills a
hung child still holds every unit that finished before the hang.  An
exception inside a unit is printed to stderr and reported as a failed unit;
the remaining units still run.

Unit kinds:

- ``tput``: one ``run_throughput_rep`` repetition.
- ``quality``: one ``run_quality_rep`` repetition with the conservation
  self-check on; the benchmark computes rank percentiles from the ranks
  that ``replay_ranks`` returned and, after the unit, checks the rank
  bound itself (:func:`rank_violations`).
- ``conservation``: one ``run_conservation`` repetition (untimed check).
- ``quality_mem``: a quality repetition under ``tracemalloc``.

In a job without tracing, the child times a fixed reference workload
(:func:`reference_mops`) before and after every ``tput`` and ``quality``
unit.  It records the geometric mean of the two speeds as ``ref_mops`` and
the time they took as ``ref_s``; the benchmark uses them to take the
host's speed drift out of its time-based metrics.

In a job with ``"traced": true``, units that name a ``section`` run with
the program's public entry points wrapped by :class:`tracer.Tracer`; the
other units run on the unwrapped program.  The job ends with a ``trace``
record.
"""
from __future__ import annotations

import heapq
import importlib.util
import json
import os
import re
import sys
import time
import traceback
import tracemalloc
from bisect import bisect_left, bisect_right

RECORD_PREFIX = "PB "
# operations of one reference measurement, about 40 ms
REF_OPS = 12_000
_LOSS_RE = re.compile(r"(\d+) items lost, (\d+) items fabricated")


def _emit_line(rec: dict) -> None:
    print(RECORD_PREFIX + json.dumps(rec), flush=True)


def rank_quantile(sorted_ranks, q: float) -> float:
    """q-quantile of integer ranks, interpolated within the rank's bin.

    Rank r is taken to cover (r-1, r], as for grouped data, so the result
    moves smoothly with the share of deletions at each rank instead of
    jumping by whole ranks.
    """
    n = len(sorted_ranks)
    if n == 0:
        return 0.0
    target = q * n
    v = sorted_ranks[min(int(target), n - 1)]
    below = bisect_left(sorted_ranks, v)
    equal = bisect_right(sorted_ranks, v) - below
    return v - 1 + (target - below) / equal


def environment() -> dict:
    from pqbench.bench import pinning_supported
    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "python": sys.version.split()[0],
        "gil": "enabled" if gil is None or gil() else "disabled",
        "cores": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pinning": pinning_supported(),
        "no_pin_env": os.environ.get("PQBENCH_NO_PIN"),
        "scipy": importlib.util.find_spec("scipy") is not None,
    }


class _RefItem:
    __slots__ = ("key", "seq")

    def __init__(self, key: int, seq: int):
        self.key = key
        self.seq = seq

    def __lt__(self, other: "_RefItem") -> bool:
        return (self.key, self.seq) < (other.key, other.seq)


def reference_mops(pin: bool) -> float:
    """Speed, in Mops/s, of a fixed pure-Python heap workload: push and pop
    of small objects compared by a Python method, the kind of work the
    queues do, but none of the program's code.

    With ``pin`` it runs on the core the harness pins worker 0 to.  The
    host's speed drifts by tens of percent over seconds to minutes; the
    queues' throughput follows this workload's speed far more closely than
    a plain arithmetic loop's.
    """
    cores = sorted(os.sched_getaffinity(0)) if pin else None
    if pin:
        os.sched_setaffinity(0, {cores[0]})
    try:
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
        elapsed = time.perf_counter() - t0
    finally:
        if pin:
            os.sched_setaffinity(0, set(cores))
    return REF_OPS / elapsed / 1e6


def rank_violations(records, bound) -> int:
    """Deletions in a merged quality log whose rank exceeds ``bound``.

    The rank is taken under the queues' own total order ``(key, seq)``:
    the count of live items at or below the deleted one.  Unlike the
    program's replay, which charges every live duplicate of the deleted
    key, this is exact when keys repeat, so a strict queue scores rank 1.
    """
    from pqbench.ranks import INSERT
    if bound is None:
        return 0
    order = sorted((r.key, r.seq) for r in records if r.kind == INSERT)
    pos = {seq: i for i, (_, seq) in enumerate(order, 1)}
    n = len(order)
    tree = [0] * (n + 1)
    over = 0
    for r in records:
        i = pos[r.seq]
        if r.kind == INSERT:
            delta = 1
        else:
            delta = -1
            j, rank = i, 0
            while j:
                rank += tree[j]
                j &= j - 1
            over += rank > bound
        while i <= n:
            tree[i] += delta
            i += i & -i
    return over


class _RankCapture:
    """Keeps the ranks and the log of the latest replay; installed where
    bench imported ``replay_ranks`` so quality reps report percentiles, not
    just the mean, and the benchmark can check the rank bound itself."""

    def __init__(self, bench_module):
        self.ranks = None
        self.records = None
        self._bench = bench_module
        self._replay = bench_module.replay_ranks
        bench_module.replay_ranks = self._capture

    def _capture(self, records):
        self.records = records
        self.ranks = self._replay(records)
        return self.ranks

    def uninstall(self) -> None:
        self._bench.replay_ranks = self._replay


def _loss(err) -> int:
    m = _LOSS_RE.search(str(err))
    return int(m.group(1)) + int(m.group(2)) if m else 1


def _run(bench, kind, cfg, rep, capture, rec):
    if kind == "tput":
        return bench.run_throughput_rep(cfg, rep)
    if kind == "conservation":
        return bench.run_conservation(cfg, rep)
    if kind == "quality":
        capture.ranks = capture.records = None
        return bench.run_quality_rep(cfg, rep)
    if kind == "quality_mem":
        tracemalloc.start()
        try:
            r = bench.run_quality_rep(cfg, rep)
            rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return r
    raise ValueError(f"unknown unit kind {kind!r}")


def run_unit(unit: dict, capture: _RankCapture, tracer) -> dict:
    from pqbench import bench

    kind = unit["kind"]
    cfg = bench.BenchConfig(reps=1, **unit["cfg"])
    rec = {"kind": kind, "queue": cfg.queue, "round": unit.get("round", 0),
           "ok": True}
    # the reference rescales the untraced run's time-based metrics
    timed = tracer is None and kind in ("tput", "quality")
    pin = bench.pinning_supported()
    t_ref = time.perf_counter()
    ref = reference_mops(pin) if timed else None
    ref_s = time.perf_counter() - t_ref
    if tracer is not None:
        tracer.begin(unit.get("section"))
    t0 = time.perf_counter()
    try:
        r = _run(bench, kind, cfg, unit["rep"], capture, rec)
    except bench.SelfCheckError as e:
        rec.update(ok=False, error=str(e), lost=_loss(e))
        return rec
    except Exception as e:  # one broken unit must not hide the others
        traceback.print_exc()
        rec.update(ok=False, error=f"{type(e).__name__}: {e}")
        return rec
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            rec.update(tracer.end())
    rec.update(wall_s=wall, window_s=r.elapsed, ops=r.ops_total,
               inserts=r.inserts, deletes=r.deletes, absent=r.absent_deletes,
               mops=r.mops_per_sec)
    if timed:
        t_ref = time.perf_counter()
        rec["ref_mops"] = (ref * reference_mops(pin)) ** 0.5
        rec["ref_s"] = ref_s + time.perf_counter() - t_ref
    if kind == "quality":
        ranks = sorted(capture.ranks or ())
        rec.update(
            # the program's count, duplicate-key artefact included
            violations=r.violations or 0,
            # checked here, outside every timed span
            rank_violations=rank_violations(capture.records or (), cfg.bound),
            rank_n=len(ranks),
            rank_mean=r.rank_mean,
            rank_p99=rank_quantile(ranks, 0.99),
            events=cfg.prefill + r.inserts + r.deletes,
        )
        capture.records = None
    elif kind == "quality_mem":
        rec["events"] = cfg.prefill + r.inserts + r.deletes
    return rec


def run_job(job: dict, emit=_emit_line) -> None:
    """Run every unit of ``job`` in this process, emitting one record each."""
    t0 = time.perf_counter()
    import pqbench.bench
    emit({"kind": "env", "import_s": time.perf_counter() - t0, **environment()})
    capture = _RankCapture(pqbench.bench)
    tracer = None
    if job.get("traced"):
        from tracer import Tracer
        tracer = Tracer()
    try:
        for unit in job["units"]:
            if tracer is not None:
                wrapped = unit.get("section") is not None
                if wrapped and not tracer.installed:
                    tracer.install()
                elif not wrapped and tracer.installed:
                    tracer.uninstall()
            emit(run_unit(unit, capture, tracer))
        if tracer is not None:
            emit({"kind": "trace", **tracer.report()})
    finally:
        if tracer is not None:
            tracer.uninstall()
        capture.uninstall()


if __name__ == "__main__":
    run_job(json.loads(sys.argv[1]))
