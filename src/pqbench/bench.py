"""Benchmark harness: timed multi-thread runs with statistics.

Every mode runs one per-thread op loop, :func:`_worker`, over a handle.
Throughput mode gives it the queue's own handles, unperturbed, and reports
million-ops-per-second over the wall-clock window.  Quality mode gives it
:class:`_Logged` recorders, which log every operation into one list shared
by all threads, each op and the append of its record as one step under a
global commit lock: the list is born in history order, a record's
timestamp is its 1-based position, and replayed ranks reflect the queue,
not scheduler preemption.  Quality throughput is logging-perturbed by design.

Each repetition builds a fresh queue, prefills it according to the
workload, releases all threads from a barrier, and stops them with a
flag after the configured duration, or as soon as a worker raises.
Repetition r derives its seed as ``seed + 1000003 * r``.
"""
from __future__ import annotations

import math
import os
import threading
import time
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, compress, repeat
from operator import eq, itemgetter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .baseline import LockedHeap, SeqLsmQueue
from .core import SEQ_MASK, SEQ_THREAD_SHIFT
from .klsm import Klsm, rank_bound
from .multiqueue import MultiQueue
from .ranks import OpRecord, replay_ranks, summarize_ranks
# unused here, but kept bound: tracers patch merge_logs in this module
from .ranks import merge_logs  # noqa: F401
from .workload import (DELETE, INSERT, KEY_KINDS, WORKLOAD_KINDS,
                       ThreadWorkload, inserter_ids, prefill_shares, stream)

QUEUE_KINDS = ("klsm", "multiq", "globallock", "seqlsm")
MODES = ("throughput", "quality")

REP_SEED_STRIDE = 1000003
MAX_LOG_EVENTS = 20_000_000
# a seq holds its thread id in the bits above SEQ_THREAD_SHIFT
MAX_THREADS = 1 << (64 - SEQ_THREAD_SHIFT)


class ConfigError(ValueError):
    """Invalid benchmark configuration."""


class LogOverflowError(RuntimeError):
    """A quality run produced more events than the configured cap."""


class SelfCheckError(RuntimeError):
    """A run-level invariant (item conservation) failed."""


class WorkerError(RuntimeError):
    """A worker thread raised; the original exception is the cause."""


@dataclass
class BenchConfig:
    queue: str = "klsm"
    k: int = 256
    c: int = 4
    threads: int = 1
    workload: str = "uniform"
    keys: str = "uniform32"
    prefill: int = 1_000_000
    duration_s: float = 10.0
    reps: int = 30
    seed: int = 0
    mode: str = "throughput"
    depend_on_deleted: bool = False

    def validate(self) -> None:
        if self.queue not in QUEUE_KINDS:
            raise ConfigError(f"unknown queue kind {self.queue!r}")
        if self.workload not in WORKLOAD_KINDS:
            raise ConfigError(f"unknown workload {self.workload!r}")
        if self.keys not in KEY_KINDS:
            raise ConfigError(f"unknown key distribution {self.keys!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.k < 0:
            raise ConfigError("k must be >= 0")
        if self.c < 1:
            raise ConfigError("c must be >= 1")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ConfigError(f"threads must be between 1 and {MAX_THREADS}")
        if self.queue == "seqlsm" and self.threads != 1:
            raise ConfigError("seqlsm is single-threaded; use --threads 1")
        if self.workload == "split" and self.threads < 2:
            raise ConfigError("split needs --threads >= 2 to delete at all")
        if self.workload == "split" and self.depend_on_deleted:
            raise ConfigError("--depend-on-deleted has no effect under split: "
                              "its inserting threads never delete")
        if self.prefill < 0:
            raise ConfigError("prefill must be >= 0")
        # nan fails both comparisons; past TIMEOUT_MAX, Event.wait overflows
        if not 0 < self.duration_s <= threading.TIMEOUT_MAX:
            raise ConfigError("duration must be positive and at most "
                              f"{threading.TIMEOUT_MAX:.0f} s")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if self.mode == "quality" and self.prefill > MAX_LOG_EVENTS:
            raise ConfigError(f"a quality prefill logs every insert; "
                              f"at most {MAX_LOG_EVENTS} fit the log")

    @property
    def bound(self) -> Optional[int]:
        """Worst-case deletion rank, or None when no guarantee exists."""
        if self.queue == "klsm":
            return rank_bound(self.k, self.threads)
        if self.queue in ("globallock", "seqlsm"):
            return 1
        return None


def make_queue(cfg: BenchConfig):
    if cfg.queue == "klsm":
        return Klsm(cfg.k, cfg.threads)
    if cfg.queue == "multiq":
        return MultiQueue(cfg.threads, cfg.c)
    if cfg.queue == "globallock":
        return LockedHeap()
    return SeqLsmQueue()


@dataclass
class RepResult:
    repetition: int
    ops_total: int
    inserts: int
    deletes: int
    absent_deletes: int
    elapsed: float
    mops_per_sec: float
    rank_mean: Optional[float] = None
    rank_std: Optional[float] = None
    rank_max: Optional[int] = None
    violations: Optional[int] = None


@dataclass
class Summary:
    ops_total_mean: float
    mops_mean: float
    mops_ci95: Optional[float]    # None with a single repetition
    rank_mean: Optional[float] = None
    rank_mean_ci95: Optional[float] = None
    rank_std_mean: Optional[float] = None
    rank_max: Optional[int] = None
    violations: Optional[int] = None


@dataclass
class BenchResult:
    config: BenchConfig
    reps: List[RepResult]
    summary: Summary


# Student-t 0.975 quantiles for 1..30 degrees of freedom
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)
_Z975 = 1.959963984540054


def _t975(df: int) -> float:
    """Student-t 0.975 quantile: tabulated up to 30 degrees of freedom,
    beyond that the Cornish-Fisher expansion (Abramowitz & Stegun 26.7.5),
    whose relative error there stays below 2e-8."""
    if df <= len(_T975):
        return _T975[df - 1]
    x = _Z975
    x2 = x * x
    g1 = x * (x2 + 1) / 4
    g2 = x * ((5 * x2 + 16) * x2 + 3) / 96
    g3 = x * (((3 * x2 + 19) * x2 + 17) * x2 - 15) / 384
    g4 = x * ((((79 * x2 + 776) * x2 + 1482) * x2 - 1920) * x2 - 945) / 92160
    return x + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def mean_ci95(xs: Sequence[float]) -> Tuple[float, Optional[float]]:
    """Sample mean and the half-width of its 95% confidence interval.

    The interval needs at least two samples; with one, the half-width is
    reported as None (absent), not zero.
    """
    n = len(xs)
    m = math.fsum(xs) / n
    if n < 2:
        return m, None
    # sums of squares shifted by one sample: constant samples give exactly 0
    d = [x - xs[0] for x in xs]
    var = (math.fsum(v * v for v in d) - math.fsum(d) ** 2 / n) / (n - 1)
    return m, _t975(n - 1) * math.sqrt(var / n)


# ----------------------------------------------------------------------
# thread pinning

def pinning_supported() -> bool:
    if os.environ.get("PQBENCH_NO_PIN"):
        return False
    return hasattr(os, "sched_setaffinity")


def _pin_self(index: int) -> bool:
    """Pin the calling thread to a core, ascending by worker index."""
    if not pinning_supported():
        return False
    try:
        cores = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cores[index % len(cores)]})
        return True
    except OSError:
        return False


# ----------------------------------------------------------------------
# the op loop and its recorders

def _worker(idx, handle, wl, barrier, running, out):
    """Every mode's per-thread op loop.  ``handle`` is the queue's own or a
    recorder around it, which keeps what each op did."""
    _pin_self(idx)
    # bound after any tracer has wrapped them; an empty ``running`` stops
    next_op, insert, delete_min = wl.next, handle.insert, handle.delete_min
    note = wl.note_deleted if wl.depend_on_deleted else None
    barrier.wait()
    ins = dels = absent = 0
    while running:
        kind, key = next_op()
        if kind == INSERT:
            insert(key)
            ins += 1
        elif (it := delete_min()) is None:
            absent += 1
        else:
            dels += 1
            if note is not None:
                note(it >> 64)
    out[idx] = (ins, dels, absent)


def _insert_all(handle, keys: List[int]):
    """One insert per key: by the handle's ``prefill`` where it has one."""
    prefill = getattr(handle, "prefill", None)
    if prefill is not None:
        return prefill(keys)
    return [handle.insert(key) for key in keys]


class _Tracked:
    """Runs a handle's ops and keeps the keys they insert and delete."""

    def __init__(self, handle, inserted: List[int], deleted: List[int]):
        self.handle, self.inserted, self.deleted = handle, inserted, deleted

    def prefill(self, keys: List[int]) -> None:
        self.inserted.extend(it >> 64 for it in _insert_all(self.handle, keys))

    def insert(self, key: int):
        self.inserted.append(key)
        return self.handle.insert(key)

    def delete_min(self):
        it = self.handle.delete_min()
        if it is not None:
            self.deleted.append(it >> 64)
        return it


class _Logged:
    """Runs thread ``idx``'s ops, each as one step under ``commit`` with the
    append of its :class:`OpRecord` to the shared ``log``: the log is born
    in history order, and a record's timestamp is its 1-based position.
    The op that takes the log past ``MAX_LOG_EVENTS`` clears ``running``
    and sets ``stop``, so no thread runs more than one op past the cap."""

    def __init__(self, log: List[OpRecord], commit, idx, handle, running, stop):
        self.log, self.commit, self.idx, self.handle = log, commit, idx, handle
        self.running, self.stop = running, stop
        # bound once, after any tracer has wrapped them: they run per op
        self._insert, self._delete_min = handle.insert, handle.delete_min

    def prefill(self, keys: List[int]) -> None:
        log, items = self.log, _insert_all(self.handle, keys)
        log.extend(OpRecord(INSERT, it >> 64, it & SEQ_MASK, ts, self.idx)
                   for ts, it in enumerate(items, len(log) + 1))

    def insert(self, key: int):
        log = self.log
        with self.commit:
            it = self._insert(key)
            log.append(OpRecord(INSERT, key, it & SEQ_MASK, len(log) + 1,
                                self.idx))
        if len(log) > MAX_LOG_EVENTS:  # unlocked: a stale read costs one op
            self._close()
        return it

    def delete_min(self):
        log = self.log
        with self.commit:
            it = self._delete_min()
            if it is not None:
                log.append(OpRecord(DELETE, it >> 64, it & SEQ_MASK,
                                    len(log) + 1, self.idx))
        if len(log) > MAX_LOG_EVENTS:
            self._close()
        return it

    def _close(self) -> None:
        self.running.clear()
        self.stop.set()


# ----------------------------------------------------------------------
# single repetition

def _build_run(cfg: BenchConfig, rep: int):
    seed = cfg.seed + REP_SEED_STRIDE * rep
    queue = make_queue(cfg)
    wls = [
        ThreadWorkload(cfg.workload, cfg.keys, seed, i, cfg.threads,
                       depend_on_deleted=cfg.depend_on_deleted)
        for i in range(cfg.threads)
    ]
    handles = [queue.register(stream(seed, i, "queue")) for i in range(cfg.threads)]
    return queue, wls, handles


def _prefill(cfg: BenchConfig, wls, handles):
    """Each inserting thread's share, in turn.  A handle with ``prefill``
    (klsm, seqlsm, a recorder) takes the share at once; the others insert
    each key as it is drawn, since a list of drawn keys is cold in cache
    by the time it is read back."""
    ids = inserter_ids(cfg.workload, cfg.threads)
    shares = prefill_shares(cfg.prefill, len(ids))
    for tid, share in zip(ids, shares):
        handle, key = handles[tid], wls[tid].prefill_key
        prefill = getattr(handle, "prefill", None)
        if prefill is not None:
            prefill([key() for _ in range(share)])
        else:
            for _ in range(share):
                handle.insert(key())


def _drain(handle) -> List[int]:
    return [it >> 64 for it in iter(handle.delete_min, None)]


def _check_conservation(inserted: Iterable[int], deleted: Iterable[int],
                        drained: Iterable[int]) -> None:
    """Inserted keys must be the deleted plus the drained keys, as multisets:
    both sides are counted and compared (``dict.__eq__``; counting leaves no
    zero entries) in C, and the differences built only on a mismatch."""
    inserted = Counter(inserted)
    consumed = Counter(chain(deleted, drained))
    if not dict.__eq__(consumed, inserted):
        lost = inserted - consumed
        fabricated = consumed - inserted
        raise SelfCheckError(
            f"conservation violated: {sum(lost.values())} items lost, "
            f"{sum(fabricated.values())} items fabricated"
        )


def _run_rep(cfg: BenchConfig, rep: int, record=None):
    """One repetition's lifecycle around :func:`_worker`.

    Builds a fresh queue; ``record(i, handle, running, stop)``, if given,
    wraps thread i's handle in a recorder for the prefill and the window.
    Starts one thread per worker and opens the timed window at a barrier;
    clearing ``running`` closes it, after the duration or once ``stop`` is
    set.  A worker that raises, or a thread that cannot start, stops the
    others and surfaces as :class:`WorkerError`.  Returns the queue's own
    handles, which drain unrecorded, and the repetition's operation counts.
    """
    _, wls, own = _build_run(cfg, rep)
    running = [True]
    stop = threading.Event()
    handles = (own if record is None else
               [record(i, h, running, stop) for i, h in enumerate(own)])
    _prefill(cfg, wls, handles)
    barrier = threading.Barrier(cfg.threads + 1)
    out: List[Optional[Tuple[int, int, int]]] = [None] * cfg.threads
    errors: List[Tuple[int, BaseException]] = []

    def fail(i: int, e: BaseException) -> None:
        # the first entry is the cause; others broke on the barrier
        errors.append((i, e))
        stop.set()
        barrier.abort()

    def run(i: int) -> None:
        try:
            _worker(i, handles[i], wls[i], barrier, running, out)
        except BaseException as e:  # re-raised in the calling thread
            fail(i, e)

    workers: List[threading.Thread] = []
    for i in range(cfg.threads):
        w = threading.Thread(target=run, args=(i,), daemon=True)
        try:
            w.start()
        except RuntimeError as e:  # no thread left to start
            fail(i, e)
            break
        workers.append(w)
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a worker failed before the window opened; stop is set
    t0 = time.perf_counter()
    stop.wait(cfg.duration_s)
    running.clear()
    elapsed = time.perf_counter() - t0
    for w in workers:
        w.join()
    if errors:
        i, e = errors[0]
        raise WorkerError(f"worker {i} failed: {type(e).__name__}: {e}") from e
    ins, dels, absent = map(sum, zip(*out))
    ops = ins + dels
    return own, RepResult(rep, ops, ins, dels, absent, elapsed,
                          ops / elapsed / 1e6)


def run_throughput_rep(cfg: BenchConfig, rep: int) -> RepResult:
    return _run_rep(cfg, rep)[1]


def run_conservation(cfg: BenchConfig, rep: int = 0) -> RepResult:
    """Throughput-style run over :class:`_Tracked` recorders that verifies
    item conservation: inserted keys = deleted keys + keys drained
    afterwards through the queue's own handle, as multisets.
    Tracking adds work to every operation, so its timings are not
    comparable with those of :func:`run_throughput_rep`.
    """
    inserted: List[int] = []
    deleted: List[int] = []
    handles, result = _run_rep(cfg, rep, lambda i, handle, running, stop:
                               _Tracked(handle, inserted, deleted))
    _check_conservation(inserted, deleted, _drain(handles[0]))
    return result


def run_quality_rep(cfg: BenchConfig, rep: int) -> RepResult:
    log: List[OpRecord] = []
    handles, result = _run_rep(cfg, rep,
                               partial(_Logged, log, threading.Lock()))
    if len(log) > MAX_LOG_EVENTS:
        raise LogOverflowError(
            f"quality log exceeded {MAX_LOG_EVENTS} events; shorten the run"
        )

    ranks = replay_ranks(log)
    stats = summarize_ranks(ranks, bound=cfg.bound)

    keys = list(map(itemgetter(1), log))
    kinds = list(map(itemgetter(0), log))
    _check_conservation(compress(keys, map(eq, kinds, repeat(INSERT))),
                        compress(keys, map(eq, kinds, repeat(DELETE))),
                        _drain(handles[0]))

    return replace(result, **stats._asdict())


# ----------------------------------------------------------------------
# full runs

def aggregate(results: Sequence[RepResult]) -> Summary:
    n = len(results)
    mops_mean, mops_ci = mean_ci95([r.mops_per_sec for r in results])
    summary = Summary(
        ops_total_mean=math.fsum(r.ops_total for r in results) / n,
        mops_mean=mops_mean,
        mops_ci95=mops_ci,
    )
    if results and results[0].rank_mean is not None:
        rm, rci = mean_ci95([r.rank_mean for r in results])
        summary.rank_mean = rm
        summary.rank_mean_ci95 = rci
        summary.rank_std_mean = math.fsum(r.rank_std for r in results) / n
        summary.rank_max = max(r.rank_max for r in results)
        if all(r.violations is not None for r in results):
            summary.violations = sum(r.violations for r in results)
    return summary


def run_benchmark(cfg: BenchConfig) -> BenchResult:
    cfg.validate()
    if not pinning_supported():
        warnings.warn("thread pinning unavailable; running unpinned",
                      RuntimeWarning, stacklevel=2)
    rep_fn: Callable[[BenchConfig, int], RepResult]
    rep_fn = run_quality_rep if cfg.mode == "quality" else run_throughput_rep
    results = [rep_fn(cfg, rep) for rep in range(cfg.reps)]
    return BenchResult(cfg, results, aggregate(results))
