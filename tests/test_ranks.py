"""Rank replay: hand examples, brute-force and Fenwick oracles, log
plumbing."""
import bisect
import heapq
import math
import random
import statistics
from itertools import accumulate, chain
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from conftest import brute_ranks, random_history
from pqbench import ranks
from pqbench.ranks import (DELETE, INSERT, CorruptLogError, OpRecord,
                           merge_logs, replay_ranks, summarize_ranks)


def ins(key, seq, ts, thread=0):
    return OpRecord(INSERT, key, seq, ts, thread)


def dele(key, seq, ts, thread=0):
    return OpRecord(DELETE, key, seq, ts, thread)


class Fenwick:
    """Prefix-sum counter over indices 1..n."""

    __slots__ = ("n", "tree")

    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        tree = self.tree
        while i <= self.n:
            tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        tree = self.tree
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return s


def fenwick_ranks(records):
    """O(log n) reference for valid logs: a Fenwick tree over the inserted
    items' (key, seq) positions."""
    inserted = sorted((r.key, r.seq) for r in records if r.kind == INSERT)
    pos = {seq: i for i, (_, seq) in enumerate(inserted, 1)}
    fen = Fenwick(len(pos))
    ranks = []
    for r in records:
        i = pos[r.seq]
        if r.kind == DELETE:
            ranks.append(fen.prefix(i))
        fen.add(i, 1 if r.kind == INSERT else -1)
    return ranks


# ----------------------------------------------------------------------
# hand examples

def test_rank_with_one_smaller_live_item():
    log = [ins(10, 0, 1), ins(5, 1, 2), dele(10, 0, 3)]
    assert replay_ranks(log) == [2]


def test_rank_of_true_minimum_is_1():
    log = [ins(10, 0, 1), ins(5, 1, 2), dele(5, 1, 3)]
    assert replay_ranks(log) == [1]


def test_live_duplicate_with_smaller_seq_counts():
    log = [ins(7, 0, 1), ins(7, 1, 2), dele(7, 1, 3)]
    assert replay_ranks(log) == [2]


def test_live_duplicate_with_larger_seq_does_not_count():
    log = [ins(7, 0, 1), ins(7, 1, 2), dele(7, 0, 3)]
    assert replay_ranks(log) == [1]


def test_interleaved_sequence():
    log = [ins(3, 0, 1), ins(1, 1, 2), dele(1, 1, 3), ins(2, 2, 4),
           dele(2, 2, 5), dele(3, 0, 6)]
    assert replay_ranks(log) == [1, 1, 1]


# ----------------------------------------------------------------------
# oracle equivalence

def test_replay_matches_brute_force_on_random_logs():
    rng = random.Random(20260823)
    for _ in range(200):
        log = random_history(rng, events=400)
        assert replay_ranks(log) == brute_ranks(log)


def test_replay_matches_brute_force_with_many_duplicates():
    rng = random.Random(5)
    log = random_history(rng, events=2000, key_range=3)
    assert replay_ranks(log) == brute_ranks(log)


def relaxed_history(rng, prefill, ops, key_range):
    """A log from a relaxed queue: most deletes take one of the four
    smallest live items, one in ten takes a random live item."""
    recs = [ins(rng.randrange(key_range), seq, seq) for seq in range(prefill)]
    heap = [(r.key, r.seq) for r in recs]
    heapq.heapify(heap)
    seq = prefill
    for ts in range(prefill, prefill + ops):
        if heap and rng.random() < 0.5:
            if rng.random() < 0.1:
                key, s = heap.pop(rng.randrange(len(heap)))
                heapq.heapify(heap)
            else:
                smallest = [heapq.heappop(heap)
                            for _ in range(min(len(heap), rng.randrange(1, 5)))]
                key, s = smallest.pop()
                for item in smallest:
                    heapq.heappush(heap, item)
            recs.append(dele(key, s, ts))
        else:
            key = rng.randrange(key_range)
            recs.append(ins(key, seq, ts))
            heapq.heappush(heap, (key, seq))
            seq += 1
    return recs


def test_replay_matches_fenwick_across_every_counter_level():
    # more than three blocks of 2048 positions, 64 keys for 11k items
    log = relaxed_history(random.Random(8), prefill=8000, ops=6000,
                          key_range=64)
    inserted = sum(r.kind == INSERT for r in log)
    assert inserted > 3 * 2048
    ranks = replay_ranks(log)
    assert ranks == fenwick_ranks(log)
    assert max(ranks) > 2048 and min(ranks) == 1


EDGES = (0, 1, 62, 63, 64, 65, 127, 128, 2046, 2047, 2048, 2049, 2111, 2112)


@given(st.sampled_from((63, 64, 65, 2047, 2048, 2049, 2113)),
       st.lists(st.tuples(st.booleans(),
                          st.sampled_from(EDGES) | st.integers(0, 2200)),
                max_size=40))
def test_replay_matches_brute_force_at_block_edges(prefill, ops):
    # prefill items have key 0 and the smallest seqs, so seq s sits at
    # position s however many items come later; deletes aim at the edges
    # of the 64- and 2048-position blocks
    log = [ins(0, s, s) for s in range(prefill)]
    keys = {s: 0 for s in range(prefill)}
    seq = prefill
    for ts, (is_insert, target) in enumerate(ops, prefill):
        if is_insert:
            keys[seq] = target % 2
            log.append(ins(target % 2, seq, ts))
            seq += 1
        elif target in keys:
            log.append(dele(keys.pop(target), target, ts))
    assert replay_ranks(log) == brute_ranks(log)


def chunked_history(prefill, ops):
    """A log from op codes: ``("ins", k)`` inserts key k % 4, ``("top",
    _)`` inserts above every live item, ``("del", r)`` deletes the live
    item at sorted position r % live; the prefill has keys 0, 2, 4, ..."""
    log = [ins(2 * s, s, s) for s in range(prefill)]
    live = [(2 * s, s) for s in range(prefill)]
    seq = prefill
    for ts, (op, r) in enumerate(ops, prefill):
        if op == "del" and live:
            key, s = live.pop(r % len(live))
            log.append(dele(key, s, ts))
        elif op != "del":
            key = live[-1][0] if op == "top" and live else r % 4
            log.append(ins(key, seq, ts))
            bisect.insort(live, (key, seq))
            seq += 1
    return log


CHUNK_OPS = st.lists(st.tuples(st.sampled_from(("ins", "top", "del")),
                               st.integers(0, 50)), max_size=60)


@given(st.sampled_from((1, 2, 3, 4)), st.integers(0, 12), CHUNK_OPS)
# a hand case at LOAD = 2 (the first delete ends the prefill, which is
# sorted in one go): inserts split a chunk past 2 * LOAD and land above
# every max; deletes take chunk maxima, empty a chunk and then every chunk
@example(2, 3, [("del", 0)] + [("ins", 1)] * 4 + [("top", 0)] * 2
         + [("del", 2)] * 2 + [("del", 0)] * 3
         + [("del", 1), ("top", 0), ("del", 9)] * 3)
def test_replay_matches_brute_force_across_chunks(load, prefill, ops):
    # a small LOAD makes a few dozen events split chunks past 2 * LOAD,
    # delete chunk maxima and empty chunks, as a real LOAD does at scale
    log = chunked_history(prefill, ops)
    with mock.patch.object(ranks, "LOAD", load):
        assert replay_ranks(log) == brute_ranks(log)


def test_replay_matches_brute_force_across_real_chunks():
    # the live count crosses LOAD and 2 * LOAD at the module's own LOAD:
    # after a prefill of LOAD + 1 items and one delete, inserts above every
    # max split the last chunk; deletes take its max and items past the
    # first chunk, then empty the first chunk; low inserts follow
    load = ranks.LOAD
    ops = ([("del", 0)] + [("top", 0)] * 2 * load
           + [("del", -1), ("del", load)] * 30 + [("del", 0)] * (load + 5)
           + [("ins", 3)] * 40 + [("del", 7)] * 40)
    log = chunked_history(load + 1, ops)
    assert max(accumulate(1 if r.kind == INSERT else -1 for r in log)) > 2 * load
    assert replay_ranks(log) == brute_ranks(log)


# ----------------------------------------------------------------------
# corrupt logs

def test_delete_of_unknown_item_is_corrupt():
    with pytest.raises(CorruptLogError):
        replay_ranks([dele(5, 0, 1)])


def test_double_delete_is_corrupt():
    with pytest.raises(CorruptLogError):
        replay_ranks([ins(5, 0, 1), dele(5, 0, 2), dele(5, 0, 3)])


def test_duplicate_insert_seq_is_corrupt():
    with pytest.raises(CorruptLogError):
        replay_ranks([ins(5, 0, 1), ins(6, 0, 2)])
    with pytest.raises(CorruptLogError):   # also after the first one died
        replay_ranks([ins(5, 0, 1), dele(5, 0, 2), ins(5, 0, 3)])


def test_regressing_timestamps_are_corrupt():
    with pytest.raises(CorruptLogError):
        replay_ranks([ins(5, 0, 5), ins(6, 1, 3)])


def test_key_mismatch_is_corrupt():
    with pytest.raises(CorruptLogError):
        replay_ranks([ins(5, 0, 1), dele(6, 0, 2)])


@pytest.mark.parametrize("log, message", [
    ([ins(5, 0, 1), dele(5, 7, 2)], "delete of non-live seq 7"),
    ([ins(5, 0, 1), dele(5, 0, 2), dele(5, 0, 3)], "delete of non-live seq 0"),
    ([ins(5, 0, 1), dele(6, 0, 2)], "delete of seq 0 reports key 6, inserted 5"),
    ([ins(5, 0, 1), ins(6, 1, 2), ins(7, 1, 3)], "duplicate insert of seq 1"),
    ([ins(5, 0, 5), ins(6, 1, 3)], "timestamps regress at seq 1"),
    ([ins(5, 0, 1), OpRecord("peek", 5, 0, 2, 0)], "unknown record kind 'peek'"),
    # of a regress and another fault, the earlier one is reported
    ([ins(5, 0, 1), dele(5, 9, 2), ins(6, 1, 1)], "delete of non-live seq 9"),
    ([ins(5, 0, 2), ins(6, 1, 1), dele(5, 9, 3)], "timestamps regress at seq 1"),
    # a chunk's max deleted twice: its chunk keeps one live item
    ([ins(5, 0, 1), ins(6, 1, 2), dele(6, 1, 3), dele(6, 1, 4)],
     "delete of non-live seq 1"),
    # a dead seq under another key is not live, not a key mismatch
    ([ins(5, 0, 1), dele(5, 0, 2), dele(6, 0, 3)], "delete of non-live seq 0"),
    # seqs must fit the packing key << 64 | seq; 7 << 64 | -1 == -1 is the
    # live item (-1, 2**64 - 1), so a delete's seq is checked too
    ([ins(5, 2**64, 1)], f"seq {2**64} is not an unsigned 64-bit int"),
    ([ins(-1, 2**64 - 1, 1), dele(7, -1, 2)],
     "seq -1 is not an unsigned 64-bit int"),
    ([ins(5, 0, 1), dele(5, 9, 2), ins(6, -2, 3)],
     "seq -2 is not an unsigned 64-bit int"),
])
def test_corrupt_log_names_its_first_fault(log, message):
    with pytest.raises(CorruptLogError, match=f"^{message}$"):
        replay_ranks(log)


# ----------------------------------------------------------------------
# merging and summary

def test_merge_orders_by_timestamp_then_thread():
    a = [ins(1, 0, 5, thread=1), ins(2, 1, 9, thread=1)]
    b = [ins(3, 2, 5, thread=0), ins(4, 3, 7, thread=0)]
    merged = merge_logs([a, b])
    assert [(r.timestamp, r.thread) for r in merged] == [
        (5, 0), (5, 1), (7, 0), (9, 1)]


record_fields = st.tuples(st.integers(0, 5), st.integers(0, 3))


@given(st.lists(st.lists(record_fields, max_size=12), max_size=5))
def test_merge_matches_sort_by_timestamp_then_thread(logs):
    # threads and timestamps repeat across and within logs, which come in
    # no particular thread order; seq tells equal-keyed records apart
    seq = iter(range(1000))
    per_thread = [[ins(0, next(seq), ts, thread) for ts, thread in log]
                  for log in logs]
    want = sorted(chain.from_iterable(per_thread),
                  key=lambda r: (r.timestamp, r.thread))
    assert merge_logs(per_thread) == want


def test_summarize_counts_violations():
    stats = summarize_ranks([1, 2, 3, 10], bound=3)
    assert stats.rank_max == 10
    assert stats.violations == 1
    assert stats.rank_mean == 4.0


def test_summarize_without_bound():
    stats = summarize_ranks([1, 1, 1])
    assert stats.violations is None
    assert stats.rank_std == 0.0


def test_summarize_empty():
    assert summarize_ranks([], bound=5) == (0.0, 0.0, 0, 0)
    assert summarize_ranks([]).violations is None


def test_summarize_matches_statistics_module():
    rng = random.Random(5)
    ranks = [1 + int(rng.expovariate(1 / 40)) for _ in range(20_000)]
    ranks += [10**6, 1, 513, 514]
    stats = summarize_ranks(ranks, bound=513)
    assert stats.rank_mean == statistics.fmean(ranks)
    assert math.isclose(stats.rank_std, statistics.stdev(ranks), rel_tol=1e-12)
    assert stats.violations == sum(1 for r in ranks if r > 513)
    assert stats.rank_max == 10**6


def test_fenwick_matches_naive_prefix_sums():
    rng = random.Random(2)
    n = 64
    fen = Fenwick(n)
    naive = [0] * (n + 1)
    for _ in range(500):
        i = rng.randrange(1, n + 1)
        d = rng.choice([-1, 1])
        fen.add(i, d)
        naive[i] += d
        j = rng.randrange(1, n + 1)
        assert fen.prefix(j) == sum(naive[:j + 1])
