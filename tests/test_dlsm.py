"""Per-thread queues with spy copying: locality, duplication, conservation."""
import heapq
import random
import threading

import pytest

from conftest import drain, item
import pqbench.core as core
from pqbench.core import ClaimTable, make_seq
from pqbench.dlsm import DlsmShared

# the parts hold no claim table; these tests claim through one, as Klsm does
CLAIMS = ClaimTable()


def group(threads):
    return DlsmShared(threads)


def fill(handle, keys):
    for i, k in enumerate(keys):
        handle.insert(item(k, make_seq(handle.owner) + i))


def delete_min(handle):
    """What ``KlsmHandle.delete_min`` does with the local part: peek, win
    the item in the claim table, then consume it; a lost claim peeks
    again."""
    while True:
        loc = handle.peek()
        if loc is None:
            return None
        blk, it = loc
        if CLAIMS.try_claim(it):
            handle.consume(blk)
            return it


def test_register_assigns_distinct_slots():
    shared = group(3)
    owners = [shared.register().owner for _ in range(3)]
    assert sorted(owners) == [0, 1, 2]
    with pytest.raises(RuntimeError):
        shared.register()


def test_single_thread_matches_heap_oracle():
    shared = group(1)
    h = shared.register()
    rng = random.Random(11)
    oracle = []
    for i in range(2000):
        if oracle and rng.random() < 0.45:
            got = delete_min(h)
            assert (got.key, got.seq) == heapq.heappop(oracle)
        else:
            key = rng.getrandbits(12)
            h.insert(item(key, make_seq(0) + i))
            heapq.heappush(oracle, (key, make_seq(0) + i))
    got = drain(delete_min, h)
    assert [(it.key, it.seq) for it in got] == sorted(oracle)


def test_locality_before_any_spy():
    shared = group(2)
    h0, h1 = shared.register(), shared.register()
    fill(h0, [1, 3, 5])
    fill(h1, [2, 4, 6])
    assert sorted(it.key for it in h0.local.live_items()) == [1, 3, 5]
    assert sorted(it.key for it in h1.local.live_items()) == [2, 4, 6]


def test_delete_returns_local_min_not_global():
    shared = group(2)
    h0, h1 = shared.register(), shared.register()
    fill(h0, [4, 8])
    fill(h1, [1])
    assert delete_min(h0).key == 4


def test_spy_copies_victim_when_local_empty():
    shared = group(2)
    h0, h1 = shared.register(), shared.register()
    fill(h1, [7, 9])
    assert delete_min(h0).key == 7


def test_all_empty_returns_none():
    shared = group(2)
    h0, _ = shared.register(), shared.register()
    assert delete_min(h0) is None


def test_spy_with_single_thread_copies_nothing():
    shared = group(1)
    h = shared.register()
    assert h.spy() == 0


def test_spy_reports_victim_item_count():
    shared = group(2)
    h0, h1 = shared.register(), shared.register()
    fill(h1, [10, 20, 30, 40, 50])
    assert h0.spy() == 5


def test_consecutive_spies_copy_identical_snapshot():
    shared = group(3)
    h0, h1, h2 = (shared.register() for _ in range(3))
    fill(h0, [3, 1, 4, 1, 5])
    first = sorted((it.key, it.seq) for it in h1.local.live_items()) if h1.spy() else []
    second = sorted((it.key, it.seq) for it in h2.local.live_items()) if h2.spy() else []
    assert first and first == second


def test_published_snapshots_satisfy_block_invariants():
    shared = group(2)
    h0, _ = shared.register(), shared.register()
    rng = random.Random(5)
    for i in range(500):
        h0.insert(item(rng.getrandbits(10), make_seq(0) + i))
        if rng.random() < 0.3:
            delete_min(h0)
    for blk in shared.slots[0]:
        blk.check()


def test_published_snapshot_blocks_never_change():
    """Pops and spills after publishing build new blocks; the blocks a
    spying thread may be reading keep their head, capacity and items."""
    shared = group(2)
    h0, _ = shared.register(), shared.register()
    fill(h0, range(7))               # blocks of capacity 4, 2 and 1
    snap = shared.slots[0]
    before = [(blk.head, blk.capacity, blk.items, list(blk.items))
              for blk in snap]
    for _ in range(3):
        assert delete_min(h0) is not None
    h0.local.spill_largest()
    h0.publish()
    assert shared.slots[0] is not snap
    assert [(blk.head, blk.capacity) for blk in snap] == [
        (head, cap) for head, cap, _, _ in before]
    for blk, (_, _, items, contents) in zip(snap, before):
        assert blk.items is items and items == contents
        blk.check()


def test_spy_skips_fully_consumed_snapshots():
    """A stale all-dead snapshot must not hide victims further along."""
    shared = group(3)
    h0, h1, h2 = (shared.register() for _ in range(3))
    fill(h1, [1, 2, 3])
    drain(delete_min, h1)    # h1's published snapshot may retain dead items
    fill(h2, [42])
    assert delete_min(h0).key == 42


def test_claims_prevent_double_delivery_after_spy():
    shared = group(2)
    h0, h1 = shared.register(), shared.register()
    fill(h0, range(100))
    # h1 copies everything h0 published, then both race to delete
    assert h1.spy() == 100
    seen = [it.seq for h in (h0, h1) for it in drain(delete_min, h)]
    assert len(seen) == 100
    assert len(set(seen)) == 100


def test_concurrent_hammer_conserves_items():
    nthreads = 4
    per_thread = 300
    shared = group(nthreads)
    handles = [shared.register() for _ in range(nthreads)]
    got = [[] for _ in range(nthreads)]
    barrier = threading.Barrier(nthreads)

    def worker(idx):
        rng = random.Random(idx)
        h = handles[idx]
        barrier.wait()
        inserted = 0
        while inserted < per_thread:
            if rng.random() < 0.6:
                h.insert(item(rng.getrandbits(16), make_seq(idx) + inserted))
                inserted += 1
            else:
                it = delete_min(h)
                if it is not None:
                    got[idx].append(it)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for idx in range(nthreads):
        got[idx].extend(drain(delete_min, handles[idx]))
    seqs = [it.seq for per in got for it in per]
    assert len(seqs) == nthreads * per_thread
    assert len(set(seqs)) == len(seqs)


def test_spy_memoizes_dead_snapshots_until_republish():
    shared = group(2)
    a, b = shared.register(), shared.register()
    fill(b, [1, 2])
    assert delete_min(a).key == 1
    assert delete_min(a).key == 2
    assert delete_min(a) is None
    assert 1 in a._dead_snaps          # b's snapshot proven fully consumed
    assert delete_min(a) is None      # served by the memo, not a rescan
    b.insert(item(3, make_seq(1) + 2))  # republish replaces the snapshot
    assert delete_min(a).key == 3


def test_one_thread_group_publishes_nothing():
    """With one thread no spy can read a snapshot, so none is built."""
    shared = group(1)
    h = shared.register()
    fill(h, [3, 1, 2])
    assert delete_min(h).key == 1
    assert shared.slots == [()]
    assert [it.key for it in drain(delete_min, h)] == [2, 3]


def test_kept_size_matches_block_occupancy_after_every_op(monkeypatch):
    """``Lsm.size`` is a kept count.  It must equal the summed block
    occupancy after every op: through remote claims in the shared claim
    table, spies, pops that shrink a block, spills, and merges that drop
    taken items."""
    drops = []
    place = core.place

    def counting_place(*args):
        dropped = place(*args)
        drops.append(dropped)
        return dropped

    monkeypatch.setattr(core, "place", counting_place)
    shared = group(2)
    handles = [shared.register(), shared.register()]
    counters = [0, 0]
    copied = 0
    rng = random.Random(23)
    for _ in range(4000):
        h = rng.choice(handles)
        r = rng.random()
        if r < 0.45:
            h.insert(item(rng.getrandbits(8), make_seq(h.owner) + counters[h.owner]))
            counters[h.owner] += 1
        elif r < 0.7:
            delete_min(h)
        elif r < 0.88:
            # another thread claims one of this handle's live items
            live = list(h.local.live_items())
            if live:
                assert CLAIMS.try_claim(rng.choice(live))
        elif r < 0.96:
            copied += h.spy()
        else:
            h.local.spill_largest()
        for g in handles:
            assert g.local.size == sum(
                blk.occupancy for blk in g.local.blocks)
    assert copied > 0
    assert any(drops)
