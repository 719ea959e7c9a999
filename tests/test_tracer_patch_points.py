"""The traced benchmark wraps pqbench entry points by name; a renamed or
removed entry point, or a worker that does not call the wrapped one, must
fail here, not only in the benchmark's own tests."""
import importlib
import importlib.util
import os
import threading

import pytest

from pqbench.bench import (BenchConfig, run_conservation, run_quality_rep,
                           run_throughput_rep)
from pqbench.workload import ThreadWorkload

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores_every_patch_point():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, old in patches:
            assert owner.__dict__[attr] is not old, (owner, attr)
    finally:
        tracer.uninstall()
    assert not tracer.installed
    for owner, attr, old in patches:
        assert owner.__dict__[attr] is old, (owner, attr)


HANDLE_CLASSES = {
    "klsm": ("pqbench.klsm", "KlsmHandle"),
    "multiq": ("pqbench.multiqueue", "MqHandle"),
    "globallock": ("pqbench.baseline", "LockedHeapHandle"),
    "seqlsm": ("pqbench.baseline", "SeqLsmQueue"),
}


@pytest.mark.parametrize("queue", sorted(HANDLE_CLASSES))
def test_workers_call_the_class_methods_a_tracer_wraps(queue, monkeypatch):
    """The tracer wraps ``ThreadWorkload.next`` and the handle methods at
    class level before a repetition starts.  Each worker must then call
    the wrapped ``next`` once per op, absent deletes included, and the
    wrapped ``insert``/``delete_min`` once per counted insert and delete:
    a method bound before the patch, or an op done around the method,
    fails here."""
    calls = []   # list.append is atomic; prefill and drain run in main

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ThreadWorkload, "next",
                        counted("next", ThreadWorkload.next))
    mod, cls = HANDLE_CLASSES[queue]
    handle_cls = getattr(importlib.import_module(mod), cls)
    for name in ("insert", "delete_min"):
        monkeypatch.setattr(handle_cls, name,
                            counted(name, getattr(handle_cls, name)))
    threads = 1 if queue == "seqlsm" else 2
    cfg = BenchConfig(queue=queue, k=16, threads=threads, prefill=200,
                      duration_s=0.05, reps=1, seed=3)
    for run in (run_throughput_rep, run_conservation, run_quality_rep):
        calls.clear()
        r = run(cfg, 0)
        assert r.ops_total > 0
        assert calls.count("next") == r.inserts + r.deletes + r.absent_deletes
        assert calls.count("insert") == r.inserts
        assert calls.count("delete_min") == r.deletes + r.absent_deletes
