"""Randomized multi-heap queue: structure, uniformity, conservation."""
import heapq
import math
import random
import threading
from collections import Counter

import pytest

from conftest import drain, is_heap, key_seq
from pqbench.multiqueue import DELETE_ATTEMPTS, MqHandle, MultiQueue
from pqbench.ranks import DELETE, INSERT, OpRecord, replay_ranks


@pytest.mark.parametrize("c,p,n", [(4, 8, 32), (1, 1, 1), (4, 1, 4)])
def test_subqueue_count(c, p, n):
    assert MultiQueue(threads=p, c=c).n == n


def test_validation():
    with pytest.raises(ValueError):
        MultiQueue(threads=0)
    with pytest.raises(ValueError):
        MultiQueue(threads=1, c=0)


def test_single_queue_degenerates_to_locked_heap():
    q = MultiQueue(threads=1, c=1)
    h = q.register(random.Random(0))
    rng = random.Random(10)
    oracle = []
    for i in range(2000):
        if oracle and rng.random() < 0.45:
            got = h.delete_min()
            assert key_seq(got) == heapq.heappop(oracle)
        else:
            key = rng.getrandbits(12)
            it = h.insert(key)
            heapq.heappush(oracle, (key, key_seq(it)[1]))
    got = drain(h.delete_min)
    assert [key_seq(it) for it in got] == sorted(oracle)


def test_insert_placement_uniform_chi_square():
    q = MultiQueue(threads=1, c=4)
    h = q.register(random.Random(99))
    trials = 10_000
    for i in range(trials):
        h.insert(i)
    counts = [len(heap) for heap in q.heaps]
    assert sum(counts) == trials
    expected = trials / q.n
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    df = q.n - 1
    assert chi2 <= df + 5 * math.sqrt(2 * df)


def test_heaps_keep_heap_property_under_ops():
    q = MultiQueue(threads=2, c=4)
    h = q.register(random.Random(5))
    rng = random.Random(55)
    for i in range(3000):
        if rng.random() < 0.6:
            h.insert(rng.getrandbits(16))
        else:
            h.delete_min()
    assert all(is_heap(heap) for heap in q.heaps)


def test_delete_pops_a_queue_local_minimum():
    """Whatever comes back was the minimum of its own sub-queue."""
    q = MultiQueue(threads=1, c=4)
    h = q.register(random.Random(3))
    for i in range(100):
        h.insert(i)
    snapshot = [list(heap) for heap in q.heaps]
    it = h.delete_min()
    assert any(heap and min(heap) is it for heap in snapshot)


def test_empty_returns_none_via_sweep():
    q = MultiQueue(threads=2, c=4)
    h = q.register(random.Random(0))
    assert h.delete_min() is None
    h.insert(1)
    assert key_seq(h.delete_min())[0] == 1
    assert h.delete_min() is None


def test_sweep_finds_last_items():
    """Near-empty states must still surrender their items, never lose them."""
    q = MultiQueue(threads=4, c=4)   # 16 queues, 3 items: sampling misses a lot
    h = q.register(random.Random(8))
    for key in [5, 1, 9]:
        h.insert(key)
    assert sorted(key_seq(it)[0] for it in drain(h.delete_min)) == [1, 5, 9]


def test_conservation_single_threaded():
    q = MultiQueue(threads=2, c=4)
    h = q.register(random.Random(21))
    rng = random.Random(12)
    inserted = []
    removed = []
    for _ in range(2000):
        if rng.random() < 0.55:
            key = rng.getrandbits(10)
            h.insert(key)
            inserted.append(key)
        else:
            it = h.delete_min()
            if it is not None:
                removed.append(key_seq(it)[0])
    removed.extend(key_seq(it)[0] for it in drain(h.delete_min))
    assert Counter(removed) == Counter(inserted)


def test_concurrent_hammer_conserves_items():
    nthreads = 4
    per_thread = 400
    q = MultiQueue(threads=nthreads, c=4)
    handles = [q.register(random.Random(70 + i)) for i in range(nthreads)]
    got = [[] for _ in range(nthreads)]
    barrier = threading.Barrier(nthreads)

    def worker(idx):
        rng = random.Random(idx)
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
    seqs = [key_seq(it)[1] for per in got for it in per]
    assert len(seqs) == nthreads * per_thread
    assert len(set(seqs)) == len(seqs)
    assert all(is_heap(heap) for heap in q.heaps)


def test_mean_rank_grows_with_queue_count():
    """More sub-queues relax ordering further (no theoretical bound)."""

    def mean_rank(c, ops=4000):
        q = MultiQueue(threads=1, c=c)
        h = q.register(random.Random(31))
        rng = random.Random(13)
        live = {}
        ranks = []
        for i in range(ops):
            if not live or rng.random() < 0.5:
                # unique keys keep the pessimistic duplicate rule out of play
                key, seq = key_seq(h.insert(rng.getrandbits(16) << 12 | i))
                live[seq] = key
            else:
                key, seq = key_seq(h.delete_min())
                rank = sum(1 for v in live.values() if v <= key)
                ranks.append(rank)
                del live[seq]
        return sum(ranks) / len(ranks)

    exact = mean_rank(1)
    relaxed = mean_rank(32)
    assert exact == 1.0
    assert relaxed > exact


# the hold model of discrete-event simulation: every step deletes the
# minimum and inserts a key a random amount above it, so an item that one
# heap keeps too long falls further behind the others as the run goes on
HOLD_PREFILL = 4000
HOLDS = 40_000
# over seeds 0-99, two choices kept the first and last quarters within
# 1.15x of each other, and one choice drifted at least 1.84x apart
FLAT = 1.4


def quarter_mean_ranks(seed):
    """Mean rank of the first and the last quarter of a hold run on 32
    heaps, driven from one thread and replayed from its logged history."""
    q = MultiQueue(threads=8)
    h = q.register(random.Random(seed))
    keys = random.Random(seed + 1)
    log = []

    def record(kind, it):
        log.append(OpRecord(kind, *key_seq(it), len(log), 0))

    for _ in range(HOLD_PREFILL):
        record(INSERT, h.insert(keys.getrandbits(20)))
    for _ in range(HOLDS):
        it = h.delete_min()
        record(DELETE, it)
        record(INSERT, h.insert(key_seq(it)[0] + keys.getrandbits(20)))
    ranks = replay_ranks(log)
    n = len(ranks) // 4
    return sum(ranks[:n]) / n, sum(ranks[-n:]) / n


def is_flat(first, last):
    return max(first, last) < FLAT * min(first, last)


def one_choice_delete_min(self):
    """``MqHandle.delete_min`` with one random heap instead of the better
    of two (one thread, so no lock)."""
    i = self.getrandbits(self.bits)
    while i >= self.n:
        i = self.getrandbits(self.bits)
    h = self.heaps[i]
    if not h:
        return self._sweep()
    it = heapq.heappop(h)
    self.tops[i] = h[0] if h else None
    return it


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_choice_rank_stays_flat_over_a_long_run(seed):
    """With two choices the expected rank is O(c*P) at every point of a
    run (Alistarh, Kopinsky, Li & Nadiradze, PODC 2017)."""
    first, last = quarter_mean_ranks(seed)
    assert is_flat(first, last), (first, last)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flat_rank_gate_fails_a_one_choice_delete(monkeypatch, seed):
    monkeypatch.setattr(MqHandle, "delete_min", one_choice_delete_min)
    first, last = quarter_mean_ranks(seed)
    assert not is_flat(first, last), (first, last)


class RandrangeMultiQueue:
    """The MultiQueue's choices for one thread, whose try-locks always
    succeed, written with ``random.randrange``."""

    def __init__(self, n, rng):
        self.n = n
        self.rng = rng
        self.heaps = [[] for _ in range(n)]

    def insert(self, it):
        heapq.heappush(self.heaps[self.rng.randrange(self.n)], it)

    def delete_min(self):
        n, heaps = self.n, self.heaps
        for _ in range(DELETE_ATTEMPTS):
            if n == 1:
                i = 0
            else:
                i = self.rng.randrange(n)
                j = self.rng.randrange(n - 1)
                if j >= i:
                    j += 1
                if not heaps[i] and not heaps[j]:
                    continue
                if not heaps[i] or (heaps[j] and heaps[j][0] < heaps[i][0]):
                    i = j
            if heaps[i]:
                return heapq.heappop(heaps[i])
        live = [h for h in heaps if h]
        return heapq.heappop(min(live, key=lambda h: h[0])) if live else None


@pytest.mark.parametrize("c,p", [(1, 1), (2, 1), (3, 1), (5, 1), (4, 2),
                                 (4, 8)])
def test_draws_match_randrange_reference(c, p):
    """Every insert lands in the heap ``randrange`` picks, every delete
    returns the item the reference pops, and both leave the generator in
    the same state: the inlined draws are ``randrange``'s, for any n."""
    q = MultiQueue(threads=p, c=c)
    rng = random.Random(c * 100 + p)
    h = q.register(rng)
    ref_rng = random.Random(c * 100 + p)
    ref = RandrangeMultiQueue(q.n, ref_rng)
    ops = random.Random(7)
    for step in range(1500):
        # insert-heavy, then delete-heavy, so the queue also runs empty
        if ops.random() < (0.6 if step < 800 else 0.3):
            it = h.insert(ops.getrandbits(8))
            ref.insert(it)
            assert q.heaps == ref.heaps, step
        else:
            assert h.delete_min() is ref.delete_min(), step
    while True:
        it = h.delete_min()
        assert it is ref.delete_min()
        if it is None:
            break
    assert q.heaps == ref.heaps
    assert rng.getstate() == ref_rng.getstate()
