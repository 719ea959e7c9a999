"""Rank replay: hand examples, brute-force oracle, log plumbing."""
import random

import pytest

from pqbench.ranks import (DELETE, INSERT, CorruptLogError, Fenwick, OpRecord,
                           dump_log, load_log, merge_logs, replay_ranks,
                           summarize_ranks)


def ins(key, seq, ts, thread=0):
    return OpRecord(INSERT, key, seq, ts, thread)


def dele(key, seq, ts, thread=0):
    return OpRecord(DELETE, key, seq, ts, thread)


def brute_ranks(records):
    """Quadratic reference: rank = live (key, seq) <= the deleted one,
    self included."""
    live = []
    ranks = []
    for r in records:
        if r.kind == INSERT:
            live.append((r.key, r.seq))
        else:
            ranks.append(sum(1 for ks in live if ks <= (r.key, r.seq)))
            live.remove((r.key, r.seq))
    return ranks


def random_history(rng, events, key_range=20, threads=4):
    """A valid interleaved log with plenty of duplicate keys."""
    recs = []
    live = []
    ts = 0
    seq = 0
    while len(recs) < events:
        ts += rng.randrange(1, 3)
        if live and rng.random() < 0.45:
            key, s = live.pop(rng.randrange(len(live)))
            recs.append(dele(key, s, ts, rng.randrange(threads)))
        else:
            key = rng.randrange(key_range)
            recs.append(ins(key, seq, ts, rng.randrange(threads)))
            live.append((key, seq))
            seq += 1
    return recs


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


# ----------------------------------------------------------------------
# merging and summary

def test_merge_orders_by_timestamp_then_thread():
    a = [ins(1, 0, 5, thread=1), ins(2, 1, 9, thread=1)]
    b = [ins(3, 2, 5, thread=0), ins(4, 3, 7, thread=0)]
    merged = merge_logs([a, b])
    assert [(r.timestamp, r.thread) for r in merged] == [
        (5, 0), (5, 1), (7, 0), (9, 1)]


def test_summarize_counts_violations():
    stats = summarize_ranks([1, 2, 3, 10], bound=3)
    assert stats.deletes == 4
    assert stats.rank_max == 10
    assert stats.violations == 1
    assert stats.rank_mean == 4.0


def test_summarize_without_bound():
    stats = summarize_ranks([1, 1, 1])
    assert stats.violations is None
    assert stats.rank_std == 0.0


def test_summarize_empty():
    stats = summarize_ranks([], bound=5)
    assert stats.deletes == 0 and stats.violations == 0


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


def test_log_round_trips_through_csv(tmp_path):
    rng = random.Random(3)
    log = random_history(rng, events=200)
    path = tmp_path / "ops.csv"
    dump_log(log, str(path))
    text = path.read_bytes()
    assert text.startswith(b"kind,key,seq,timestamp,thread\n")
    assert b"\r" not in text
    assert load_log(str(path)) == log


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(CorruptLogError):
        load_log(str(path))
