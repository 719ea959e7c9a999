"""Strict baseline queues: exactness, in-lock timestamps, conservation."""
import heapq
import random
import threading
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import key_seq
from pqbench.baseline import LockedHeap, SeqLsmQueue


def test_locked_heap_pops_sorted():
    q = LockedHeap()
    for key in [3, 1, 2]:
        q.insert(key)
    assert [key_seq(q.delete_min())[0] for _ in range(3)] == [1, 2, 3]
    assert q.delete_min() is None


def test_locked_heap_ops_leave_the_lock_free():
    """Every insert and delete releases the heap's lock: a delete of the
    empty heap and an insert that fails on its key included."""
    q = LockedHeap()
    assert q.delete_min() is None
    assert not q._lock.locked()
    for key in (2, 1, 3):
        q.insert(key)
        assert not q._lock.locked()
    with pytest.raises(TypeError):
        q.insert("not an int")
    assert not q._lock.locked()
    while q.delete_min() is not None:
        assert not q._lock.locked()
    assert not q._lock.locked()


def test_locked_heap_single_item():
    q = LockedHeap()
    it = q.insert(9)
    assert q.delete_min() is it
    assert q.delete_min() is None


def test_locked_heap_tie_break_is_insertion_order():
    q = LockedHeap()
    first = q.insert(5)
    second = q.insert(5)
    assert q.delete_min() is first
    assert q.delete_min() is second


@given(st.lists(st.one_of(st.integers(0, 3), st.none()), max_size=200))
def test_locked_heap_drains_in_key_seq_order(ops):
    """Keys with many ties, interleaved with deletions (None)."""
    q = LockedHeap()
    live = set()
    for key in ops:
        if key is None:
            it = q.delete_min()
            assert (it is None) == (not live)
            if it is not None:
                assert key_seq(it) == min(live)
                live.remove(key_seq(it))
        else:
            it = q.insert(key)
            live.add(key_seq(it))
    out = []
    while (it := q.delete_min()) is not None:
        out.append(key_seq(it))
    assert out == sorted(live)


def test_locked_heap_concurrent_conservation():
    q = LockedHeap()
    nthreads = 4
    per_thread = 500
    got = [[] for _ in range(nthreads)]
    barrier = threading.Barrier(nthreads)

    def worker(idx):
        rng = random.Random(idx)
        barrier.wait()
        inserted = 0
        while inserted < per_thread:
            if rng.random() < 0.6:
                q.insert(rng.getrandbits(16))
                inserted += 1
            else:
                it = q.delete_min()
                if it is not None:
                    got[idx].append(it)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    while True:
        it = q.delete_min()
        if it is None:
            break
        got[0].append(it)
    seqs = [key_seq(it)[1] for per in got for it in per]
    assert len(seqs) == nthreads * per_thread
    assert len(set(seqs)) == len(seqs)


def test_seq_queue_matches_heap_oracle():
    q = SeqLsmQueue()
    rng = random.Random(61)
    oracle = []
    for _ in range(3000):
        if oracle and rng.random() < 0.45:
            got = q.delete_min()
            assert key_seq(got) == heapq.heappop(oracle)
        else:
            key = rng.getrandbits(12)
            it = q.insert(key)
            heapq.heappush(oracle, (key, key_seq(it)[1]))
    out = []
    while True:
        it = q.delete_min()
        if it is None:
            break
        out.append(key_seq(it))
    assert out == sorted(oracle)


def test_seq_queue_live_count():
    q = SeqLsmQueue()
    for i in range(10):
        q.insert(i)
    q.delete_min()
    assert len(q.live_items()) == 9
    assert sorted(key_seq(it)[0] for it in q.live_items()) == list(range(1, 10))


def test_handles_share_the_queue():
    q = LockedHeap()
    h1 = q.register()
    h2 = q.register()
    h1.insert(2)
    h2.insert(1)
    assert key_seq(h1.delete_min())[0] == 1
    assert key_seq(h2.delete_min())[0] == 2
