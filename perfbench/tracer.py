"""Outside-in tracing of pqbench's layers for the traced benchmark run.

The tracer replaces public entry points of the program's classes and
module functions with wrappers; the program itself is not changed.  Every
wrapped call made inside a timed window records a span: its wall time
(``perf_counter_ns``), its busy time (``thread_time_ns``) and its self time
(wall minus the wrapped calls it made).  On two threads under the GIL, wall
minus busy is mostly time spent waiting for the interpreter lock.  Counting
wrappers record how often a call happened and what it returned.

A window opens at the first ``ThreadWorkload.next`` call of a repetition,
because the harness generates operations only inside the timed window, and
closes when the repetition returns or its log merge starts.  Prefill and
post-window draining therefore record nothing.  The offline rank pipeline
(``merge_logs``, ``replay_ranks``) is timed whenever a unit is open.

Spans stay in memory, grouped by section (the queue under test), and are
summarised by :meth:`Tracer.report` when the job ends.
"""
from __future__ import annotations

import importlib
import threading
from array import array
from collections import Counter
from time import perf_counter_ns, thread_time_ns

# (module, class or None for a module function, attribute, span name)
SPANS = (
    ("pqbench.workload", "ThreadWorkload", "next", "workload.next"),
    ("pqbench.core", "Lsm", "insert", "core.lsm_insert"),
    # Lsm.delete_min is peek_min then pop_head; klsm calls the two apart
    # (DlsmHandle.peek, then consume), so both queues are timed per step
    ("pqbench.core", "Lsm", "peek_min", "core.lsm_peek"),
    ("pqbench.core", "Lsm", "pop_head", "core.lsm_delete"),
    ("pqbench.dlsm", "DlsmHandle", "insert", "dlsm.insert"),
    ("pqbench.slsm", "Slsm", "insert_batch", "slsm.insert_batch"),
    ("pqbench.slsm", "Slsm", "peek_candidate", "slsm.peek"),
    ("pqbench.klsm", "KlsmHandle", "insert", "klsm.insert"),
    ("pqbench.klsm", "KlsmHandle", "delete_min", "klsm.delete"),
    ("pqbench.multiqueue", "MqHandle", "insert", "multiq.insert"),
    ("pqbench.multiqueue", "MqHandle", "delete_min", "multiq.delete"),
    ("pqbench.baseline", "LockedHeapHandle", "insert", "baseline.insert"),
    ("pqbench.baseline", "LockedHeapHandle", "delete_min", "baseline.delete"),
    ("pqbench.baseline", "SeqLsmQueue", "insert", "baseline.insert"),
    ("pqbench.baseline", "SeqLsmQueue", "delete_min", "baseline.delete"),
)

# merge_sorted_live is looked up as a module global, so it is patched in
# every module that calls it
MERGE_SITES = ("pqbench.core", "pqbench.slsm")


class _Samples:
    __slots__ = ("wall", "busy", "self_")

    def __init__(self):
        self.wall = array("q")
        self.busy = array("q")
        self.self_ = array("q")


class _Section:
    def __init__(self):
        self.spans = {}
        self.counts = Counter()
        self.offline = Counter()  # ranks.* total ns, outside any window


class _ThreadState:
    """One worker thread's span stack and counters for one repetition."""

    __slots__ = ("stack", "outer", "counts")

    def __init__(self):
        self.stack = []
        self.outer = 0
        self.counts = Counter()


def _pct(xs, q):
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _summary(samples):
    wall = sorted(samples.wall)
    if not wall:
        return {"n": 0, "p50": 0.0, "p99": 0.0, "busy_p50": 0.0,
                "self_p50": 0.0}
    return {
        "n": len(wall),
        "p50": _pct(wall, 0.5),
        "p99": _pct(wall, 0.99),
        "busy_p50": _pct(sorted(samples.busy), 0.5),
        "self_p50": _pct(sorted(samples.self_), 0.5),
    }


class Tracer:
    """Installs wrappers around pqbench's public entry points."""

    def __init__(self):
        self._patches = []
        self._sections = {}
        self._tls = threading.local()
        self._gen = 0
        self._threads = []
        self.section = None
        self.armed = False
        self.recording = False
        self.queue = None
        self._slsm_version = None

    # -- lifecycle ------------------------------------------------------

    def install(self) -> None:
        for mod_name, cls_name, attr, name in SPANS:
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        for mod_name in MERGE_SITES:
            mod = importlib.import_module(mod_name)
            self._patch(mod, "merge_sorted_live",
                        self._merge_counter(mod.merge_sorted_live))
        core = importlib.import_module("pqbench.core")
        dlsm = importlib.import_module("pqbench.dlsm")
        bench = importlib.import_module("pqbench.bench")
        self._patch(core.ClaimTable, "try_claim",
                    self._claim_counter(core.ClaimTable.try_claim))
        self._patch(dlsm.DlsmHandle, "consume",
                    self._call_counter("dlsm.consume", dlsm.DlsmHandle.consume))
        self._patch(bench, "make_queue", self._queue_capture(bench.make_queue))
        self._patch(bench, "merge_logs", self._offline("ranks.merge", bench.merge_logs))
        self._patch(bench, "replay_ranks", self._offline("ranks.replay", bench.replay_ranks))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def begin(self, section) -> None:
        """Start a unit; calls are recorded only when ``section`` is set."""
        self._gen += 1
        self._threads = []
        self.queue = None
        self._slsm_version = None
        self.section = section
        self.armed = section is not None
        if section is not None:
            self._sections.setdefault(section, _Section())

    def end(self) -> dict:
        """Close the unit; returns its time inside wrapped calls and the
        number of shared-window rebuilds during its window."""
        self.recording = False
        self.armed = False
        out = {"outer_ns": 0, "slsm_rebuilds": 0}
        if self.section is None:
            return out
        sec = self._sections[self.section]
        for st in self._threads:
            out["outer_ns"] += st.outer
            sec.counts.update(st.counts)
        if self._slsm_version is not None:
            out["slsm_rebuilds"] = self.queue.slsm.version - self._slsm_version
        self.section = None
        return out

    def report(self) -> dict:
        """Per-section span summaries and counts, plus ``pooled``: each span
        summarised over every section whose name has no ``.`` in it (the
        throughput sections, which are named after their queue)."""
        pooled = {}
        for name, sec in self._sections.items():
            if "." in name:
                continue
            for span, samples in sec.spans.items():
                acc = pooled.setdefault(span, _Samples())
                acc.wall.extend(samples.wall)
                acc.busy.extend(samples.busy)
                acc.self_.extend(samples.self_)
        return {
            "sections": {
                name: {
                    "spans": {s: _summary(v) for s, v in sec.spans.items()},
                    "counts": dict(sec.counts),
                    "offline_ns": dict(sec.offline),
                }
                for name, sec in self._sections.items()
            },
            "pooled": {s: _summary(v) for s, v in pooled.items()},
        }

    # -- per-thread state -----------------------------------------------

    def _state(self) -> _ThreadState:
        tls = self._tls
        if getattr(tls, "gen", None) != self._gen:
            tls.gen = self._gen
            tls.state = _ThreadState()
            self._threads.append(tls.state)  # list.append is atomic
        return tls.state

    def _open_window(self) -> None:
        q = self.queue
        if self._slsm_version is None and hasattr(q, "slsm"):
            self._slsm_version = q.slsm.version
        self.recording = True

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        opens_window = name == "workload.next"

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                if not (opens_window and tracer.armed):
                    return fn(*args, **kwargs)
                tracer._open_window()
            st = tracer._state()
            stack = st.stack
            frame = [name, 0]
            stack.append(frame)
            w0 = perf_counter_ns()
            b0 = thread_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                b1 = thread_time_ns()
                w1 = perf_counter_ns()
                stack.pop()
                wall = w1 - w0
                if stack:
                    stack[-1][1] += wall
                else:
                    st.outer += wall
                spans = tracer._sections[tracer.section].spans
                samples = spans.get(name)
                if samples is None:
                    samples = spans.setdefault(name, _Samples())
                samples.wall.append(wall)
                samples.busy.append(b1 - b0)
                samples.self_.append(wall - frame[1])

        return wrapper

    def _merge_counter(self, fn):
        tracer = self

        def merge_sorted_live(*args):
            out = fn(*args)
            if tracer.recording:
                c = tracer._state().counts
                c["core.merge_calls"] += 1
                c["core.merge_items"] += len(out)
            return out

        return merge_sorted_live

    def _claim_counter(self, fn):
        tracer = self

        def try_claim(claims, item):
            won = fn(claims, item)
            if tracer.recording:
                c = tracer._state().counts
                c["core.claim"] += 1
                if not won:
                    c["core.claim_fail"] += 1
            return won

        return try_claim

    def _call_counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.recording:
                tracer._state().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _queue_capture(self, fn):
        tracer = self

        def make_queue(cfg):
            q = fn(cfg)
            tracer.queue = q
            return q

        return make_queue

    def _offline(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.recording = False  # the timed window is over
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            if tracer.section is not None:
                tracer._sections[tracer.section].offline[name] += perf_counter_ns() - t0
            return result

        return wrapper
