"""Reachability guard: every function in the queue layers must be reached by
the harness itself, so code that only tests call cannot grow back unseen.

One short throughput rep, one quality rep and one conservation run per queue
kind, at 1 and 2 threads, run under ``sys.setprofile`` and
``threading.setprofile``; every function defined in the queue modules must
then have been entered, apart from the reference views and hooks named in
``ALLOWED``.
"""
import importlib
import sys
import threading

from pqbench.bench import (QUEUE_KINDS, BenchConfig, run_conservation,
                           run_quality_rep, run_throughput_rep)

MODULES = ("core", "dlsm", "slsm", "klsm", "multiqueue", "baseline")

# reference views that tests read, and entry points that tools patch or call
ALLOWED_NAMES = {"live_items", "check", "__repr__"}
ALLOWED = {
    "Klsm.bound", "Slsm.version", "Slsm.window_items",
    "LockedHeap.insert", "LockedHeap.delete_min", "SeqLsmQueue.register",
}


def defined_functions():
    """Qualified name -> code object of every function, method and property
    getter written in the queue modules."""
    out = {}
    for name in MODULES:
        mod = importlib.import_module("pqbench." + name)
        for obj in vars(mod).values():
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for m in members:
                if isinstance(m, property):
                    m = m.fget
                elif isinstance(m, (staticmethod, classmethod)):
                    m = m.__func__
                code = getattr(m, "__code__", None)
                if code is not None and code.co_filename == mod.__file__:
                    out[code.co_qualname] = code
    return out


def reached_codes():
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    old_sys, old_threading = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for queue in QUEUE_KINDS:
            for threads in (1, 2):
                if queue == "seqlsm" and threads == 2:
                    continue
                cfg = BenchConfig(queue=queue, k=16, threads=threads,
                                  prefill=400, duration_s=0.02, reps=1,
                                  seed=threads)
                run_throughput_rep(cfg, 0)
                run_quality_rep(cfg, 0)
                run_conservation(cfg, 0)
    finally:
        sys.setprofile(old_sys)
        threading.setprofile(old_threading)
    return seen


def test_allow_list_names_existing_functions():
    defined = defined_functions()
    assert ALLOWED <= set(defined)
    assert ALLOWED_NAMES <= {q.rsplit(".", 1)[-1] for q in defined}


def test_every_queue_layer_function_is_reached_by_the_harness():
    defined = defined_functions()
    seen = reached_codes()
    unreached = sorted(
        q for q, code in defined.items()
        if code not in seen and q not in ALLOWED
        and q.rsplit(".", 1)[-1] not in ALLOWED_NAMES)
    assert not unreached, f"only tests reach: {unreached}"
