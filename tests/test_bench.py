"""Benchmark harness: config validation, statistics, runs, self-checks."""
import dataclasses
import heapq
import math
import os
import random
import statistics
import sys
import threading
import time

import pytest

from conftest import item, key_seq
from pqbench import bench
from pqbench.baseline import LockedHeap, SeqLsmQueue
from pqbench.bench import (QUEUE_KINDS, BenchConfig, ConfigError,
                           LogOverflowError, RepResult, SelfCheckError,
                           WorkerError, _build_run, _prefill, aggregate,
                           make_queue, mean_ci95,
                           pinning_supported, run_benchmark, run_conservation,
                           run_quality_rep, run_throughput_rep)
from pqbench.core import SEQ_THREAD_SHIFT, make_seq
from pqbench.klsm import Klsm
from pqbench.multiqueue import MultiQueue
from pqbench.ranks import INSERT, OpRecord, RankStats
from pqbench.workload import DELETE, ThreadWorkload


def cfg(**kw):
    base = dict(queue="globallock", threads=1, prefill=0, duration_s=0.05,
                reps=1, seed=42, workload="uniform", keys="uniform32")
    base.update(kw)
    return BenchConfig(**base)


def deletes_only(monkeypatch):
    """Every timed op of every thread becomes a delete; prefill still
    inserts."""
    monkeypatch.setattr(ThreadWorkload, "next", lambda self: (DELETE, None))


# ----------------------------------------------------------------------
# configuration

@pytest.mark.parametrize("bad", [
    dict(queue="nope"),
    dict(workload="nope"),
    dict(keys="nope"),
    dict(mode="latency"),
    dict(k=-1, queue="klsm"),
    dict(c=0, queue="multiq"),
    dict(threads=0),
    # thread ids fill the seq bits above SEQ_THREAD_SHIFT; validate builds
    # nothing, so no queue or thread is made at this count
    dict(queue="klsm", threads=(1 << (64 - SEQ_THREAD_SHIFT)) + 1),
    dict(queue="seqlsm", threads=4),
    dict(prefill=-1),
    dict(duration_s=0.0),
    dict(duration_s=-1.0),
    dict(duration_s=math.nan),
    dict(duration_s=math.inf),
    dict(duration_s=1e300),
    dict(reps=0),
    dict(workload="split", threads=2, depend_on_deleted=True),
    dict(workload="split", threads=1),
    dict(mode="quality", prefill=bench.MAX_LOG_EVENTS + 1),
])
def test_validate_rejects(bad):
    with pytest.raises(ConfigError):
        cfg(**bad).validate()


def test_validate_accepts_defaults():
    BenchConfig().validate()


def test_validate_accepts_every_thread_id_a_seq_holds():
    cfg(queue="klsm", threads=1 << (64 - SEQ_THREAD_SHIFT)).validate()


def test_validate_reads_the_log_cap_at_call_time(monkeypatch):
    """Only a quality prefill is logged, and it may fill the cap exactly."""
    monkeypatch.setattr(bench, "MAX_LOG_EVENTS", 100)
    cfg(mode="quality", prefill=100).validate()
    cfg(prefill=101).validate()
    with pytest.raises(ConfigError):
        cfg(mode="quality", prefill=101).validate()


def test_bound_per_queue():
    assert cfg(queue="klsm", k=128, threads=4).bound == 513
    assert cfg(queue="klsm", k=128, threads=20).bound == 2561
    assert cfg(queue="globallock").bound == 1
    assert cfg(queue="seqlsm").bound == 1
    assert cfg(queue="multiq").bound is None


def test_make_queue_kinds():
    q = make_queue(cfg(queue="klsm", k=64, threads=3))
    assert isinstance(q, Klsm) and q.k == 64 and q.dlsm.nthreads == 3
    q = make_queue(cfg(queue="multiq", threads=8, c=4))
    assert isinstance(q, MultiQueue) and q.n == 32
    assert isinstance(make_queue(cfg(queue="globallock")), LockedHeap)
    assert isinstance(make_queue(cfg(queue="seqlsm")), SeqLsmQueue)


@pytest.mark.parametrize("queue", QUEUE_KINDS)
def test_insert_takes_no_payload(queue):
    h = make_queue(cfg(queue=queue)).register()
    for payload in (None, "payload"):
        with pytest.raises(TypeError):
            h.insert(5, payload)
    assert key_seq(h.insert(5))[0] == 5


@pytest.mark.parametrize("queue", QUEUE_KINDS)
def test_insert_takes_int_keys_only(queue):
    h = make_queue(cfg(queue=queue)).register()
    with pytest.raises(TypeError):
        h.insert(1.5)
    assert h.delete_min() is None


@pytest.mark.parametrize("make,args,per_handle", [
    (Klsm, (16, 2), True),
    (MultiQueue, (2, 4), True),
    (LockedHeap, (), False),
    (SeqLsmQueue, (), False),
], ids=["klsm", "multiq", "globallock", "seqlsm"])
def test_seq_layout_per_queue_kind(make, args, per_handle):
    """Per-handle kinds give handle t's i-th insert ``make_seq(t) + i``; the
    one-heap kinds give the n-th insert of the queue ``make_seq(0) + n``.
    Inserts alternate between two handles, so a counter that is shared or
    reset by mistake fails here by name."""
    queue = make(*args)
    handles = [queue.register(random.Random(t)) for t in range(2)]
    for i in range(40):     # 40 per handle: klsm with k=16 spills
        for t, h in enumerate(handles):
            want = make_seq(t) + i if per_handle else make_seq(0) + 2 * i + t
            got = key_seq(h.insert(1000 - i))[1]
            assert got == want, (f"handle {t}, insert {i}: seq {got:#x}, "
                                 f"want {want:#x}")


# ----------------------------------------------------------------------
# statistics

T975_DF1 = 12.706204736432095
T975_DF29 = 2.0452296421327034


def test_mean_ci95_constant_samples():
    m, half = mean_ci95([4.0, 4.0, 4.0])
    assert m == 4.0
    assert half == 0.0


def test_mean_ci95_two_samples():
    m, half = mean_ci95([2.0, 4.0])
    assert m == 3.0
    assert statistics.stdev([2.0, 4.0]) == pytest.approx(math.sqrt(2))
    # s/sqrt(n) == 1 here, so the half-width is the t quantile itself
    assert half == pytest.approx(T975_DF1, rel=1e-9)


def test_mean_ci95_single_sample_has_no_interval():
    m, half = mean_ci95([7.5])
    assert m == 7.5
    assert half is None


def test_mean_ci95_matches_formula_on_30_samples():
    rng = random.Random(99)
    xs = [rng.uniform(0, 100) for _ in range(30)]
    m, half = mean_ci95(xs)
    expect_m = sum(xs) / 30
    expect_half = T975_DF29 * statistics.stdev(xs) / math.sqrt(30)
    assert m == pytest.approx(expect_m, rel=1e-9)
    assert half == pytest.approx(expect_half, rel=1e-9)


def test_mean_ci95_matches_statistics_on_near_constant_samples():
    """Samples far from zero that differ in their sixth digit: a sum of
    squares about the mean must not cancel away the spread."""
    rng = random.Random(7)
    for n in (2, 3, 30, 1000):
        xs = [1e6 * (1 + rng.gauss(0, 1e-6)) for _ in range(n)]
        m, half = mean_ci95(xs)
        assert m == statistics.fmean(xs)
        expect = bench._t975(n - 1) * statistics.stdev(xs) / math.sqrt(n)
        assert half == pytest.approx(expect, rel=1e-12)


# Student-t 0.975 quantiles by degrees of freedom, generated once with
# scipy.stats.t.ppf(0.975, df)
T975_REFERENCE = [
    (1, 12.706204736174694),
    (2, 4.302652729749462),
    (29, 2.045229642132703),
    (30, 2.0422724563012378),
    (31, 2.039513446396408),
    (60, 2.0002978220142604),
    (120, 1.9799304050824402),
    (1000, 1.9623390808264083),
]


@pytest.mark.parametrize("df,t975", T975_REFERENCE)
def test_mean_ci95_t_quantile_matches_reference(df, t975):
    rng = random.Random(df)
    xs = [rng.uniform(0, 100) for _ in range(df + 1)]
    _, half = mean_ci95(xs)
    expect = t975 * statistics.stdev(xs) / math.sqrt(df + 1)
    assert half == pytest.approx(expect, rel=1e-7)


# ----------------------------------------------------------------------
# run construction

def test_repetition_seeds_are_deterministic_and_distinct():
    c = cfg(queue="klsm", threads=2)
    _, wls_a, _ = _build_run(c, 0)
    _, wls_b, _ = _build_run(c, 0)
    _, wls_c, _ = _build_run(c, 1)
    ops_a = [wls_a[0].next() for _ in range(10)]
    ops_b = [wls_b[0].next() for _ in range(10)]
    ops_c = [wls_c[0].next() for _ in range(10)]
    assert ops_a == ops_b
    assert ops_a != ops_c


def test_prefill_populates_queue():
    c = cfg(queue="klsm", k=16, threads=2, prefill=500)
    queue, wls, handles = _build_run(c, 0)
    _prefill(c, wls, handles)
    assert len(queue.live_items()) == 500


def test_prefill_split_workload_uses_inserters_only():
    c = cfg(queue="globallock", threads=4, workload="split", prefill=100)
    queue, wls, handles = _build_run(c, 0)
    _prefill(c, wls, handles)
    assert len(queue.live_items()) == 100


# ----------------------------------------------------------------------
# repetitions

def test_throughput_rep_counts_operations():
    r = run_throughput_rep(cfg(queue="klsm", k=8, threads=2, prefill=100,
                               duration_s=0.1), 0)
    assert r.ops_total == r.inserts + r.deletes > 0
    assert r.elapsed >= 0.1
    assert r.mops_per_sec == pytest.approx(r.ops_total / r.elapsed / 1e6)
    assert r.rank_mean is None


def test_delete_only_run_reports_absent_deletes(monkeypatch):
    deletes_only(monkeypatch)
    r = run_throughput_rep(cfg(duration_s=0.05), 0)
    assert r.inserts == 0
    assert r.deletes == 0
    assert r.absent_deletes > 0


@pytest.mark.parametrize("kind,threads", [
    ("klsm", 2), ("multiq", 2), ("globallock", 2), ("seqlsm", 1),
])
def test_conservation_run_per_queue(kind, threads):
    r = run_conservation(cfg(queue=kind, threads=threads, prefill=200,
                             duration_s=0.15))
    assert r.ops_total > 0


def test_quality_rep_globallock_ranks_are_exactly_one():
    r = run_quality_rep(cfg(mode="quality", prefill=100, duration_s=0.1), 0)
    assert r.rank_mean == 1.0
    assert r.rank_max == 1
    assert r.violations == 0


@pytest.mark.parametrize("queue", ["globallock", "seqlsm"])
def test_quality_rep_strict_queues_rank_one_on_duplicate_keys(queue):
    r = run_quality_rep(cfg(queue=queue, keys="uniform8", mode="quality",
                            prefill=300, duration_s=0.1), 0)
    assert r.deletes > 0
    assert r.rank_max == 1
    assert r.violations == 0


def test_quality_rep_klsm_respects_bound():
    c = cfg(queue="klsm", k=16, threads=2, mode="quality", prefill=500,
            duration_s=0.15)
    r = run_quality_rep(c, 0)
    assert r.deletes > 0
    assert r.rank_max <= c.bound
    assert r.violations == 0


def test_quality_rep_logs_prefill_inserts(monkeypatch):
    # no timed inserts: every delete consumes a prefill item, so the
    # replay only balances if prefill made it into the log
    deletes_only(monkeypatch)
    c = cfg(mode="quality", prefill=50, duration_s=0.1)
    r = run_quality_rep(c, 0)
    assert r.inserts == 0
    assert r.deletes == 50
    assert r.rank_mean == 1.0


def test_quality_log_is_one_list_in_commit_order(monkeypatch):
    # the benchmark captures replay_ranks' input where bench bound it and
    # reads it as the run's history, so that list must be born in order
    replay = bench.replay_ranks
    seen = []

    def capture(records):
        seen.append(records)
        return replay(records)

    def no_merge(logs):
        raise AssertionError("quality mode merged per-thread logs")

    monkeypatch.setattr(bench, "replay_ranks", capture)
    monkeypatch.setattr(bench, "merge_logs", no_merge)
    c = cfg(queue="klsm", k=16, threads=2, mode="quality", prefill=300,
            duration_s=0.1)
    r = run_quality_rep(c, 0)
    (log,) = seen
    assert type(log) is list
    assert all(type(rec) is OpRecord for rec in log)
    assert [rec.timestamp for rec in log] == list(range(1, len(log) + 1))
    assert all(rec.kind == INSERT for rec in log[:c.prefill])
    assert len(log) == c.prefill + r.inserts + r.deletes
    assert {rec.thread for rec in log[c.prefill:]} == {0, 1}


def test_quality_rep_overflow(monkeypatch):
    monkeypatch.setattr(bench, "MAX_LOG_EVENTS", 100)
    with pytest.raises(LogOverflowError):
        run_quality_rep(cfg(mode="quality", duration_s=0.5), 0)


def test_quality_log_cap_counts_all_threads_and_prefill(monkeypatch):
    # 600 prefill inserts plus at most 600 deletes fit a 1200-event cap,
    # however the two threads split the deletes between them
    deletes_only(monkeypatch)
    monkeypatch.setattr(bench, "MAX_LOG_EVENTS", 1200)
    c = cfg(mode="quality", threads=2, prefill=600, duration_s=0.2)
    r = run_quality_rep(c, 0)
    assert r.deletes == 600
    monkeypatch.setattr(bench, "MAX_LOG_EVENTS", 599)
    with pytest.raises(LogOverflowError):
        run_quality_rep(c, 0)


class _StubQueue:
    """Queue stand-in: inserts are dropped, ``fail`` makes every op raise."""

    def __init__(self, fail=False):
        self.fail = fail
        self.seq = 0

    def register(self, rng=None):
        return self

    def insert(self, key):
        if self.fail:
            raise KeyError("stub queue failure")
        self.seq += 1
        return item(key, make_seq(0) + self.seq)

    def delete_min(self):
        if self.fail:
            raise KeyError("stub queue failure")
        return None


@pytest.mark.parametrize("run", [run_throughput_rep, run_quality_rep])
def test_worker_exception_surfaces_as_worker_error(monkeypatch, run):
    monkeypatch.setattr(bench, "make_queue", lambda c: _StubQueue(fail=True))
    t0 = time.perf_counter()
    with pytest.raises(WorkerError) as e:
        run(cfg(threads=2, duration_s=30.0), 0)
    assert isinstance(e.value.__cause__, KeyError)
    # the failure ends the window instead of waiting out the duration
    assert time.perf_counter() - t0 < 10.0


def test_worker_that_cannot_start_surfaces_as_worker_error(monkeypatch):
    """The second of two workers fails to start: the first is released
    from the barrier and joined before the error surfaces."""
    start = threading.Thread.start
    calls = []

    def start_once(self):
        calls.append(self)
        if len(calls) == 2:
            raise RuntimeError("can't start new thread")
        start(self)

    before = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", start_once)
    with pytest.raises(WorkerError) as e:
        run_throughput_rep(cfg(threads=2, duration_s=30.0), 0)
    assert isinstance(e.value.__cause__, RuntimeError)
    assert threading.active_count() == before


def test_conservation_passes_when_every_key_is_accounted_for():
    bench._check_conservation(iter([7, 7, 3, 9, 7]), iter([7, 9]), [3, 7, 7])


def test_conservation_names_lost_and_fabricated_counts():
    with pytest.raises(SelfCheckError) as e:
        bench._check_conservation([7, 7, 3, 9], [7, 9, 9], [8])
    assert str(e.value) == ("conservation violated: 2 items lost, "
                            "2 items fabricated")


@pytest.mark.parametrize("run", [run_conservation, run_quality_rep])
def test_self_check_catches_a_dropped_item(monkeypatch, run):
    monkeypatch.setattr(bench, "make_queue", lambda c: _StubQueue())
    with pytest.raises(SelfCheckError):
        run(cfg(prefill=10), 0)


def test_self_check_defaults_to_quality_mode_only(monkeypatch):
    """Quality mode and ``run_conservation`` check conservation; a
    throughput rep never does."""
    monkeypatch.setattr(bench, "make_queue", lambda c: _StubQueue())
    run_throughput_rep(cfg(prefill=10), 0)    # unchecked: the drop passes
    with pytest.raises(SelfCheckError):
        run_conservation(cfg(prefill=10), 0)
    with pytest.raises(SelfCheckError):
        run_quality_rep(cfg(prefill=10, mode="quality"), 0)


# ----------------------------------------------------------------------
# the one op loop and its recorders

def test_every_rep_kind_runs_the_one_op_loop_on_every_worker(monkeypatch):
    worker = bench._worker
    entered = []

    def spy(idx, *args):
        entered.append((idx, threading.get_ident()))
        return worker(idx, *args)

    monkeypatch.setattr(bench, "_worker", spy)
    c = cfg(queue="klsm", k=8, threads=3, prefill=60, mode="quality")
    for run in (run_throughput_rep, run_conservation, run_quality_rep):
        entered.clear()
        assert run(c, 0).ops_total > 0
        assert sorted(i for i, _ in entered) == [0, 1, 2]
        threads = {t for _, t in entered}
        assert len(threads) == 3 and threading.get_ident() not in threads


def test_throughput_rep_builds_no_recorder(monkeypatch):
    class Built(Exception):
        pass

    def built(self, *args):
        raise Built

    monkeypatch.setattr(bench._Tracked, "__init__", built)
    monkeypatch.setattr(bench._Logged, "__init__", built)
    c = cfg(threads=2, prefill=50)
    assert run_throughput_rep(c, 0).ops_total > 0
    for run in (run_conservation, run_quality_rep):
        with pytest.raises(Built):
            run(c, 0)


def test_overflowing_quality_rep_records_one_op_a_thread_past_the_cap(
        monkeypatch):
    """The op that takes the log past the cap closes the window, so each
    thread finishes at most the op it is in: at most one record a thread
    past the cap, and no waiting out the duration."""
    made = []
    record = bench.OpRecord

    def counted(*args):
        made.append(args[0])
        return record(*args)

    monkeypatch.setattr(bench, "OpRecord", counted)
    monkeypatch.setattr(bench, "MAX_LOG_EVENTS", 400)
    c = cfg(queue="multiq", threads=3, prefill=100, duration_s=30.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    t0 = time.perf_counter()
    try:
        with pytest.raises(LogOverflowError):
            run_quality_rep(c, 0)
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - t0 < 10.0
    assert 400 < len(made) <= 400 + c.threads


# ----------------------------------------------------------------------
# aggregation and full runs

def rep(i, mops, rank_mean=None, violations=None):
    return RepResult(i, 1000, 500, 500, 0, 1.0, mops,
                     rank_mean=rank_mean, rank_std=0.0 if rank_mean else None,
                     rank_max=int(rank_mean) if rank_mean else None,
                     violations=violations)


def test_aggregate_throughput_only():
    s = aggregate([rep(0, 1.0), rep(1, 3.0)])
    assert s.mops_mean == 2.0
    assert s.mops_ci95 == pytest.approx(T975_DF1, rel=1e-9)
    assert s.rank_mean is None


def test_aggregate_single_rep_interval_absent():
    s = aggregate([rep(0, 2.0)])
    assert s.mops_ci95 is None


def test_aggregate_sums_violations():
    s = aggregate([rep(0, 1.0, rank_mean=2.0, violations=1),
                   rep(1, 1.0, rank_mean=4.0, violations=2)])
    assert s.rank_mean == 3.0
    assert s.violations == 3
    assert s.rank_max == 4


def test_rank_stats_are_the_rep_results_rank_fields():
    """``run_quality_rep`` copies a ``RankStats`` into a ``RepResult`` by
    field name."""
    names = [f.name for f in dataclasses.fields(RepResult)]
    assert names[-len(RankStats._fields):] == list(RankStats._fields)


def test_run_benchmark_end_to_end():
    res = run_benchmark(cfg(reps=2, duration_s=0.05))
    assert res.config.bound == 1
    assert len(res.reps) == 2
    assert res.summary.mops_mean > 0


def test_pinning_respects_opt_out(monkeypatch):
    monkeypatch.setenv("PQBENCH_NO_PIN", "1")
    assert not pinning_supported()
    with pytest.warns(RuntimeWarning):
        run_benchmark(cfg(duration_s=0.05))


class _RefItem:
    """Heap entry compared by a Python method, like the queues' work."""

    __slots__ = ("key", "seq")

    def __init__(self, key, seq):
        self.key = key
        self.seq = seq

    def __lt__(self, other):
        return (self.key, self.seq) < (other.key, other.seq)


REF_OPS = 15_000     # 30–55 ms on a 2-vCPU host


def reference_mops():
    """Speed of a fixed stdlib workload, heapq push and pop of _RefItem,
    on the core the harness pins worker 0 to: a measure of the host's
    speed at this moment that runs none of the program's code."""
    cores = sorted(os.sched_getaffinity(0)) if pinning_supported() else None
    if cores:
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
        if cores:
            os.sched_setaffinity(0, set(cores))
    return REF_OPS / elapsed / 1e6


def test_single_thread_throughput_is_stable_across_runs():
    """Two seeds run in turns (a b a b a b), so a drift in the host's speed
    reaches both; each rep's rate is divided by the reference workload's
    speed, timed right before and after it, so that a change of speed from
    one rep to the next cancels too.  Their median rescaled rates must
    agree within 25%."""
    c = cfg(prefill=1000, duration_s=1 / 3)
    runs = {0: [], 1: []}
    for _ in range(3):
        for rep in runs:
            before = reference_mops()
            mops = run_throughput_rep(c, rep).mops_per_sec
            runs[rep].append(mops / statistics.fmean(
                (before, reference_mops())))
    a, b = (statistics.median(r) for r in runs.values())
    assert a > 0 and b > 0
    assert max(a, b) / min(a, b) < 1.25
