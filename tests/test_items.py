"""The item protocol: every queue kind returns the int ``key << 64 | seq``.

``globallock``, ``multiq`` and ``seqlsm`` return plain ints, which the
cyclic collector does not track; ``klsm`` returns
:class:`pqbench.core.Item`s, whose class carries its ``taken`` flag.  The
harness reads every kind the same way, by shift and mask, and the tests
read them by ``divmod``.
"""
import gc
import threading
from collections import Counter
from functools import partial

import pytest

from conftest import drain, key_seq
from pqbench import bench
from pqbench.bench import QUEUE_KINDS, BenchConfig
from pqbench.core import Item
from pqbench.ranks import DELETE, INSERT
from pqbench.workload import ThreadWorkload

OPS = 400


def build(queue, **shape):
    cfg = BenchConfig(queue=queue, k=16, threads=1, prefill=300, seed=5,
                      duration_s=0.05, **shape)
    return (cfg, *bench._build_run(cfg, 0))


@pytest.mark.parametrize("queue", ["globallock", "multiq", "seqlsm"])
def test_plain_kinds_return_untracked_ints(queue):
    cfg, q, wls, handles = build(queue)
    bench._prefill(cfg, wls, handles)
    h = handles[0]
    prefilled = q.live_items()
    assert len(prefilled) == cfg.prefill
    inserted = h.insert(7)
    assert key_seq(inserted)[0] == 7
    items = prefilled + [inserted] + drain(h.delete_min)
    assert len(items) == 2 * (cfg.prefill + 1)
    assert all(type(it) is int and not gc.is_tracked(it) for it in items)


@pytest.mark.parametrize("queue", ["klsm"])
def test_lsm_kinds_return_items(queue):
    cfg, q, wls, handles = build(queue)
    h = handles[0]
    items = h.prefill([3, 1, 2]) + [h.insert(0)] + q.live_items()
    items += drain(h.delete_min)
    assert len(items) == 12
    assert all(isinstance(it, Item) for it in items)
    assert sorted(key_seq(it)[0] for it in items[-4:]) == [0, 1, 2, 3]


class _Raw:
    """A recorder that keeps what each op returned, untouched."""

    def __init__(self, handle, got):
        self.handle, self.got = handle, got

    def insert(self, key):
        it = self.handle.insert(key)
        self.got.append((INSERT, it))
        return it

    def delete_min(self):
        it = self.handle.delete_min()
        if it is not None:
            self.got.append((DELETE, it))
        return it


def scripted(queue, record):
    """The queue's own handle after a seeded prefill and ``OPS`` ops, all
    through ``record(handle, running, stop)``, and the ops' raw items."""
    cfg, _, wls, handles = build(queue)
    rec = record(handles[0], [True], threading.Event())
    bench._prefill(cfg, wls, [rec])
    got = []
    raw = _Raw(rec, got)
    for _ in range(OPS):
        kind, key = wls[0].next()
        if kind == INSERT:
            raw.insert(key)
        else:
            raw.delete_min()
    return handles[0], got


@pytest.mark.parametrize("queue", QUEUE_KINDS)
def test_recorders_read_the_same_keys_and_seqs(queue):
    """``_Logged`` logs the (key, seq) of every item an op returns, and
    ``_Tracked`` keeps the same keys; the items left in the queue are the
    logged inserts less the logged deletes, seqs included."""
    log = []
    handle, got = scripted(queue, partial(bench._Logged, log,
                                          threading.Lock(), 0))
    records = [(r.kind, r.key, r.seq) for r in log]
    window = records[len(records) - len(got):]
    assert window == [(kind, *key_seq(it)) for kind, it in got]
    live = (Counter(r[1:] for r in records if r[0] == INSERT)
            - Counter(r[1:] for r in records if r[0] == DELETE))
    assert Counter(map(key_seq, drain(handle.delete_min))) == live

    inserted, deleted = [], []
    scripted(queue, lambda handle, running, stop:
             bench._Tracked(handle, inserted, deleted))
    assert inserted == [key for kind, key, _ in records if kind == INSERT]
    assert deleted == [key for kind, key, _ in records if kind == DELETE]


@pytest.mark.parametrize("queue", QUEUE_KINDS)
def test_depend_on_deleted_notes_each_deleted_key(queue, monkeypatch):
    noted = []
    note = ThreadWorkload.note_deleted
    monkeypatch.setattr(ThreadWorkload, "note_deleted",
                        lambda wl, key: noted.append(key) or note(wl, key))
    cfg = build(queue, depend_on_deleted=True)[0]
    got = []
    r = bench._run_rep(cfg, 0, lambda i, handle, running, stop:
                       _Raw(handle, got))[1]
    assert r.deletes > 0
    deleted = [it for kind, it in got if kind == DELETE]
    assert noted == [key_seq(it)[0] for it in deleted]
    assert all(type(key) is int for key in noted)
