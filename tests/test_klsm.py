"""Composed queue: spilling, two-way deletes, rank bound, conservation."""
import heapq
import random
import sys
import threading
from collections import Counter

import pytest

from conftest import drain, item
from pqbench.core import ClaimTable, Lsm
from pqbench.klsm import Klsm, rank_bound


def test_rank_bound_values():
    assert rank_bound(128, 4) == 513
    assert rank_bound(128, 20) == 2561
    assert rank_bound(0, 1) == 1


def test_validation():
    # the parts check their own arguments, the shared part's k first
    with pytest.raises(ValueError, match="k must be >= 0"):
        Klsm(-1, 1)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        Klsm(4, 0)
    with pytest.raises(ValueError, match="k must be >= 0"):
        Klsm(-1, 0)


def test_fifth_insert_spills_largest_block():
    q = Klsm(k=4, threads=1)
    h = q.register(random.Random(0))
    for key in [10, 20, 30, 40, 50]:
        h.insert(key)
    assert h.dlsm.local.size == 1
    assert sorted(it.key for it in q.slsm.live_items()) == [10, 20, 30, 40]


def test_published_blocks_keep_their_heads_while_the_owner_pops():
    """Only a one-thread group's local part pops in place: with two
    threads, a snapshot another thread may spy must stay as published."""
    assert Klsm(k=4, threads=1).register().dlsm.local.private
    q = Klsm(k=64, threads=2)
    h = q.register(random.Random(0))
    q.register(random.Random(1))
    assert not h.dlsm.local.private
    for key in range(48):   # blocks 32 and 16, all local
        h.insert(key)
    snap = q.dlsm.slots[0]
    published = [(blk, blk.capacity, blk.head, list(blk.items)) for blk in snap]
    assert [cap for _, cap, _, _ in published] == [32, 16]
    assert [h.delete_min().key for _ in range(40)] == list(range(40))
    assert q.dlsm.slots[0] is not snap
    assert [(blk, blk.capacity, blk.head, list(blk.items))
            for blk in snap] == published


def test_k0_sends_every_insert_to_shared_part():
    q = Klsm(k=0, threads=1)
    h = q.register(random.Random(0))
    for key in [3, 1, 2]:
        h.insert(key)
    assert h.dlsm.local.size == 0
    assert sorted(it.key for it in q.slsm.live_items()) == [1, 2, 3]


def test_large_k_keeps_shared_part_empty():
    q = Klsm(k=10_000, threads=1)
    h = q.register(random.Random(0))
    for i in range(1000):
        h.insert(i)
    assert not q.slsm.live_items()
    assert h.dlsm.local.size == 1000


def test_delete_takes_smaller_of_both_parts():
    from pqbench.core import Block, make_seq

    q = Klsm(k=100, threads=1)       # large k: nothing spills, window is tiny
    h = q.register(random.Random(0))
    h.insert(7)
    q.slsm.insert_batch(Block(1, [item(3, make_seq(7))]))
    assert h.delete_min().key == 3   # shared min 3 beats local min 7
    assert h.delete_min().key == 7
    assert h.delete_min() is None


def test_delete_prefers_local_then_draws_from_shared_window():
    q = Klsm(k=4, threads=1)
    h = q.register(random.Random(0))
    for key in [9, 8, 7, 6, 3]:      # spill pushes {6..9} shared, 3 stays local
        h.insert(key)
    assert sorted(it.key for it in q.slsm.live_items()) == [6, 7, 8, 9]
    assert h.delete_min().key == 3   # local min beats every shared candidate
    rest = [it.key for it in drain(h.delete_min)]
    assert sorted(rest) == [6, 7, 8, 9]   # any draw order is allowed


def test_strict_degeneracy_matches_heap_oracle():
    """P=1 with k=0 behaves as an exact priority queue."""
    q = Klsm(k=0, threads=1)
    h = q.register(random.Random(4))
    rng = random.Random(44)
    oracle = []
    for i in range(5000):
        if oracle and rng.random() < 0.45:
            got = h.delete_min()
            want = heapq.heappop(oracle)
            assert (got.key, got.seq) == want
        else:
            key = rng.getrandbits(12)
            it = h.insert(key)
            heapq.heappush(oracle, (key, it.seq))
    got = drain(h.delete_min)
    assert [(it.key, it.seq) for it in got] == sorted(oracle)


def test_single_thread_rank_never_exceeds_k_plus_1():
    k = 8
    q = Klsm(k=k, threads=1)
    h = q.register(random.Random(2))
    rng = random.Random(22)
    live = {}
    for i in range(400):
        it = h.insert(rng.getrandbits(16))
        live[it.seq] = it.key
    for _ in range(400):
        it = h.delete_min()
        smaller = sum(1 for v in live.values() if v <= live[it.seq])
        assert smaller <= rank_bound(k, 1)
        del live[it.seq]
    assert h.delete_min() is None


def test_empty_queue_returns_none():
    q = Klsm(k=4, threads=2)
    h = q.register(random.Random(0))
    q.register(random.Random(1))
    assert h.delete_min() is None


def test_live_count_tracks_inserts_and_deletes():
    q = Klsm(k=4, threads=1)
    h = q.register(random.Random(0))
    for i in range(20):
        h.insert(i)
    assert len(q.live_items()) == 20
    for _ in range(5):
        h.delete_min()
    assert len(q.live_items()) == 15


def test_live_count_reads_local_parts_without_snapshots():
    """A one-thread group publishes nothing, so the count comes from the
    handle's own blocks and the shared part."""
    q = Klsm(k=4, threads=1)
    h = q.register(random.Random(0))
    for i in range(20):
        h.insert(i)
    assert q.dlsm.slots == [()]
    assert q.slsm.live_items()
    assert len(q.live_items()) == 20


def test_live_count_counts_spied_copies_once():
    q = Klsm(k=64, threads=2)
    a, b = q.register(random.Random(1)), q.register(random.Random(2))
    for i in range(30):
        a.insert(i)
    # b's local part is empty, so it copies a's snapshot before deleting
    assert b.delete_min().key == 0
    assert b.dlsm.local.size == 29
    assert len(q.live_items()) == 29
    for i in range(30, 40):
        b.insert(i)
    assert len(q.live_items()) == 39


def test_lost_claim_peeks_again_and_returns_the_next_item():
    """Another claimant wins the local head between this delete's peek and
    its claim; the delete must peek again and hand out the next item.
    Two thread slots, one handle: the local part is shared, so a second
    claimant can exist (a one-thread local part is private: nobody else
    claims its items)."""
    q = Klsm(k=8, threads=2)        # nothing spills: every item stays local
    h = q.register(random.Random(0))
    for key in range(5):
        h.insert(key)
    local = h.dlsm.local
    raced = []
    peek_candidate = q.slsm.peek_candidate

    def racing_peek(rng):
        if not raced:
            _, head = local.peek_min()
            assert q.claims.try_claim(head)
            raced.append(head)
        return peek_candidate(rng)

    q.slsm.peek_candidate = racing_peek
    got = h.delete_min()
    assert [it.key for it in raced] == [0]
    assert got.key == 1 and got is not raced[0]
    assert local.size == sum(blk.occupancy for blk in local.blocks)
    rest = drain(h.delete_min)
    assert [it.key for it in rest] == [2, 3, 4]
    assert all(it is not raced[0] for it in rest)
    assert local.size == sum(blk.occupancy for blk in local.blocks) == 0


def test_concurrent_hammer_conserves_and_progresses():
    nthreads = 4
    per_thread = 400
    q = Klsm(k=16, threads=nthreads)
    handles = [q.register(random.Random(500 + i)) for i in range(nthreads)]
    got = [[] for _ in range(nthreads)]
    barrier = threading.Barrier(nthreads)

    def worker(idx):
        rng = random.Random(idx * 3 + 1)
        h = handles[idx]
        barrier.wait()
        inserted = 0
        while inserted < per_thread:
            if rng.random() < 0.6:
                h.insert(rng.getrandbits(16))
                inserted += 1
            else:
                it = h.delete_min()
                if it is not None:
                    got[idx].append(it)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    got[0].extend(drain(handles[0].delete_min))
    seqs = [it.seq for per in got for it in per]
    assert len(seqs) == nthreads * per_thread
    assert len(set(seqs)) == len(seqs)


def test_spied_blocks_spilled_again_keep_shared_blocks_valid():
    """A thread spills blocks it spied from another, whose owner spills
    them too; no shared block may then hold one item twice."""
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for run in range(20):
            q = Klsm(k=4, threads=2)

            def worker(idx):
                h = q.register(random.Random(run * 10 + idx))
                rng = random.Random(run * 10 + idx + 100)
                for _ in range(3000):
                    if rng.random() < 0.5:
                        h.insert(rng.getrandbits(8))
                    else:
                        h.delete_min()

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for blk in q.slsm._state.blocks:
                blk.check()
    finally:
        sys.setswitchinterval(old_interval)


def test_one_thread_klsm_claims_without_a_lock(monkeypatch):
    """One handle is the only claimant, so its table has no lock; every
    delete still claims through ``ClaimTable.try_claim``, once, and wins."""
    assert Klsm(k=4, threads=2).claims._locks
    won = []
    try_claim = ClaimTable.try_claim

    def counted(table, it):
        won.append(try_claim(table, it))
        return won[-1]

    monkeypatch.setattr(ClaimTable, "try_claim", counted)
    q = Klsm(k=4, threads=1)
    assert q.claims._locks == []
    h = q.register(random.Random(0))
    for key in range(40):        # spills: claims come from both parts
        h.insert(key * 7 % 40)
    assert q.slsm.live_items()
    got = drain(h.delete_min)
    assert sorted(it.key for it in got) == list(range(40))
    assert won == [True] * 40 and all(it.taken for it in got)


def test_one_thread_klsm_never_mutates_a_block_it_let_go(monkeypatch):
    """A private local part reuses the last block its insert carry popped.
    A block it spilled, or one the shared part holds, has left the local
    part: its capacity, head and item list (object and contents) stay as
    they were when it was first seen."""
    seen = {}

    def record(blk):
        if id(blk) not in seen:   # the block is kept, so its id stays its own
            seen[id(blk)] = (blk, blk.capacity, blk.head, blk.items,
                             list(blk.items))

    spill_largest = Lsm.spill_largest

    def spill(lsm):
        blk = spill_largest(lsm)
        record(blk)
        return blk

    monkeypatch.setattr(Lsm, "spill_largest", spill)
    q = Klsm(k=8, threads=1)
    h = q.register(random.Random(5))
    assert h.dlsm.local.private
    rng = random.Random(7)
    for _ in range(3000):
        if rng.random() < 0.6:
            h.insert(rng.getrandbits(12))
        else:
            h.delete_min()
        for blk in q.slsm._state.blocks:
            record(blk)
    assert len(seen) > 100
    for blk, cap, head, its, copy in seen.values():
        assert (blk.capacity, blk.head) == (cap, head)
        assert blk.items is its and its == copy


def test_two_registrations_share_claim_table():
    q = Klsm(k=2, threads=2)
    h0 = q.register(random.Random(0))
    h1 = q.register(random.Random(1))
    for key in [5, 6, 7]:        # spill sends blocks to the shared part
        h0.insert(key)
    first = h1.delete_min()      # h1 reaches h0's items via spy or slsm
    second = h0.delete_min()
    assert first is not None and second is not None
    assert first.seq != second.seq
