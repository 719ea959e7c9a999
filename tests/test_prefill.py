"""The harness prefill against one insert per key: exact state.

``bench._prefill`` lets klsm and seqlsm build the state their inserts
would leave in sorted runs.  Each case here prefills three fresh runs of
one configuration: through the harness with ``bench._Logged`` recorders
around the handles, through it with ``bench._Tracked`` recorders, and
through the per-item loop kept below as the reference.  It then compares
every block, count, window member, ``Slsm.version`` and next seq, the quality log and the conservation track, and finally the seqs a
fixed op mix deletes.
"""
import random
import threading
from functools import partial

import pytest

from pqbench import bench
from pqbench.baseline import SeqLsmQueue
from pqbench.core import Lsm, make_seq
from pqbench.klsm import Klsm
from pqbench.ranks import INSERT, OpRecord
from pqbench.workload import inserter_ids, prefill_shares

from conftest import item, key_seq

KS = (0, 1, 3, 4, 5, 16, 100, 256)
KEYS = ("uniform8", "unique32", "ascending", "descending")
MIX_OPS = 600


def reference_prefill(cfg, wls, handles, log, inserted):
    """One insert per prefill key, in the harness's thread and key order."""
    ids = inserter_ids(cfg.workload, cfg.threads)
    for tid, share in zip(ids, prefill_shares(cfg.prefill, len(ids))):
        handle, wl = handles[tid], wls[tid]
        for _ in range(share):
            key = wl.prefill_key()
            it = handle.insert(key)
            seq = key_seq(it)[1]
            log.append(OpRecord(INSERT, key, seq, len(log) + 1, tid))
            inserted.append(key)


def harness_prefill(cfg, record):
    """``bench._prefill`` on a fresh run, through ``record(i, handle,
    running, stop)`` around each handle as ``bench._run_rep`` wraps them;
    returns the queue and its own handles."""
    queue, wls, handles = bench._build_run(cfg, 0)
    running, stop = [True], threading.Event()
    wrapped = [record(i, h, running, stop) for i, h in enumerate(handles)]
    bench._prefill(cfg, wls, wrapped)
    assert running and not stop.is_set()
    return queue, handles


def blocks(bs):
    return [(b.capacity, b.head, list(b.items)) for b in bs]


def state(queue, handles):
    if isinstance(queue, SeqLsmQueue):
        return (blocks(queue.lsm.blocks), queue.lsm.size,
                queue._seqs.__reduce__())
    s = queue.slsm._state
    return (
        [(blocks(h.dlsm.local.blocks), h.dlsm.local.size,
          h._seqs.__reduce__()) for h in handles],
        blocks(s.blocks), list(s.members), s.version,
    )


def deleted_seqs(queue, handles, seed):
    """Seqs deleted by a fixed mix of inserts and deletes, then a drain."""
    rng = random.Random(seed)
    out = []
    for _ in range(MIX_OPS):
        handle = rng.choice(handles)
        if rng.random() < 0.5:
            handle.insert(rng.getrandbits(16))
        else:
            it = handle.delete_min()
            out.append(None if it is None else key_seq(it)[1])
    for handle in handles:
        while (it := handle.delete_min()) is not None:
            out.append(key_seq(it)[1])
    version = queue.slsm.version if isinstance(queue, Klsm) else 0
    return out, version


def check_same_as_per_item(cfg):
    ref_q, ref_wls, ref_hs = bench._build_run(cfg, 0)
    ref_log, ref_inserted = [], []
    reference_prefill(cfg, ref_wls, ref_hs, ref_log, ref_inserted)
    log, inserted, deleted = [], [], []
    runs = [
        harness_prefill(cfg, partial(bench._Logged, log, threading.Lock())),
        harness_prefill(cfg, lambda i, handle, running, stop:
                        bench._Tracked(handle, inserted, deleted)),
    ]
    ref_state = state(ref_q, ref_hs)
    for q, hs in runs:
        assert state(q, hs) == ref_state
    assert log == ref_log
    assert inserted == ref_inserted and deleted == []
    ref_deleted = deleted_seqs(ref_q, ref_hs, cfg.seed)
    for q, hs in runs:
        assert deleted_seqs(q, hs, cfg.seed) == ref_deleted


def sizes(k):
    return sorted({0, 1, 7, k, k + 1, 257, 1000, 5003})


@pytest.mark.parametrize("threads", (1, 2, 3))
@pytest.mark.parametrize("k", KS)
def test_klsm_prefill_matches_per_item_inserts(k, threads):
    for i, n in enumerate(sizes(k)):
        keys = KEYS[(i + k) % len(KEYS)]
        check_same_as_per_item(bench.BenchConfig(
            queue="klsm", k=k, threads=threads, keys=keys, prefill=n,
            seed=1000 * k + 10 * threads + i))


@pytest.mark.parametrize("keys", KEYS)
def test_seqlsm_prefill_matches_per_item_inserts(keys):
    for i, n in enumerate(sizes(256)):
        check_same_as_per_item(bench.BenchConfig(
            queue="seqlsm", keys=keys, prefill=n, seed=i))


@pytest.mark.parametrize("k", (0, 5, 16))
@pytest.mark.parametrize("workload, threads, depend", [
    ("split", 2, False), ("split", 3, False), ("alternating", 2, True),
    ("alternating", 3, True)])
def test_klsm_prefill_matches_per_item_under_other_workloads(
        k, workload, threads, depend):
    for n in (7, k + 1, 1000):
        check_same_as_per_item(bench.BenchConfig(
            queue="klsm", k=k, threads=threads, workload=workload,
            depend_on_deleted=depend, keys="ascending", prefill=n, seed=n))


def test_fill_needs_an_empty_lsm():
    lsm = Lsm()
    lsm.insert(item(5, make_seq(0)))
    with pytest.raises(ValueError):
        lsm.fill([item(1, make_seq(0) + 1)])
    assert lsm.size == 1 and len(lsm.blocks) == 1


@pytest.mark.parametrize("n", (0, 1, 2, 3, 6, 7, 8, 100))
def test_fill_leaves_the_blocks_of_n_inserts(n):
    rng = random.Random(n)
    items = [item(rng.getrandbits(8), make_seq(0) + i) for i in range(n)]
    filled, inserted = Lsm(), Lsm()
    filled.fill(items)
    for it in items:
        inserted.insert(it)
    filled.check()
    assert blocks(filled.blocks) == blocks(inserted.blocks)
    assert filled.size == inserted.size == n
