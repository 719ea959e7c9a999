"""Offline rank computation from timestamped operation logs.

A quality run logs its operations in commit order; that time-ordered log
is replayed against an order-statistic counter to find each deletion's
rank: the position of the deleted item among all items live at that
moment (1 = true minimum), under the queues' own total order
``(key, seq)``.  Keys may repeat, but seq is unique, so the rank is exact:
a live duplicate of the deleted key counts only if its seq is smaller.

Every inserted item is known before replay starts, so each gets a fixed
position in ``(key, seq)`` order, found by one dict lookup per event.  The
live set is a blocked counter over those positions: a ``bytearray`` of live
flags, live counts per 64 positions and per 2048 positions.  A deletion's
rank is two C ``sum`` slices plus one ``bytearray.count``: at most n/2048 +
32 + 64 additions in C for n inserted items, and no Python loop.
"""
from __future__ import annotations

from itertools import chain, compress, count, islice, repeat
from math import sqrt
from operator import gt, itemgetter, mul
from typing import Iterable, List, NamedTuple, Optional, Sequence

from .workload import DELETE, INSERT


class CorruptLogError(ValueError):
    """The log is not a consistent queue history."""


class OpRecord(NamedTuple):
    kind: str            # INSERT or DELETE
    key: int
    seq: int             # unique item identity
    timestamp: int
    thread: int


class RankStats(NamedTuple):
    deletes: int
    rank_mean: float
    rank_std: float
    rank_max: int
    violations: Optional[int]    # None when no bound applies


def merge_logs(per_thread: Iterable[Sequence[OpRecord]]) -> List[OpRecord]:
    """One global history, ordered by timestamp with thread id tie-break."""
    merged = list(chain.from_iterable(per_thread))
    merged.sort(key=itemgetter(4))    # thread; the stable sort below keeps it
    merged.sort(key=itemgetter(3))    # within equal timestamps
    return merged


def replay_ranks(records: Sequence[OpRecord]) -> List[int]:
    """The rank of every deletion, in history order.

    Raises CorruptLogError when the records do not form a valid history:
    timestamps out of order, an item inserted twice, or a deletion of an
    item that is not live.  An item inserted twice is reported first;
    otherwise the first fault in history order.
    """
    inserts = [r for r in records if r.kind == INSERT]
    inserts.sort(key=itemgetter(2))   # seq; the stable sort below keeps it
    inserts.sort(key=itemgetter(1))   # within equal keys
    n = len(inserts)
    seqs = list(map(itemgetter(2), inserts))
    keys = list(map(itemgetter(1), inserts))    # position -> inserted key
    pos = dict(zip(seqs, range(n)))             # seq -> position
    if len(pos) != n:      # pos keeps the last position of a repeated seq
        dup = next(seq for i, seq in enumerate(seqs) if pos[seq] != i)
        raise CorruptLogError(f"duplicate insert of seq {dup}")
    ts = list(map(itemgetter(3), records))
    # replay stops before the first regressing timestamp, so a fault
    # earlier in the history is still the one reported
    stop = next(compress(count(1), map(gt, ts, islice(ts, 1, None))), len(ts))
    live = bytearray(n)
    mid = [0] * ((n >> 6) + 1)        # live count per 64 positions
    top = [0] * ((n >> 11) + 1)       # live count per 2048 positions
    ranks: List[int] = []
    append = ranks.append
    for kind, key, seq, _, _ in islice(records, stop):
        if kind == INSERT:
            i = pos[seq]
            live[i] = 1
            mid[i >> 6] += 1
            top[i >> 11] += 1
        elif kind == DELETE:
            i = pos.get(seq)
            if i is None or not live[i]:
                raise CorruptLogError(f"delete of non-live seq {seq}")
            if keys[i] != key:
                raise CorruptLogError(
                    f"delete of seq {seq} reports key {key}, inserted {keys[i]}"
                )
            b = i >> 6
            s = i >> 11
            append(sum(top[:s]) + sum(mid[s << 5:b])
                   + live.count(1, b << 6, i + 1))
            live[i] = 0
            mid[b] -= 1
            top[s] -= 1
        else:
            raise CorruptLogError(f"unknown record kind {kind!r}")
    if stop < len(ts):
        raise CorruptLogError(f"timestamps regress at seq {records[stop].seq}")
    return ranks


def summarize_ranks(ranks: Sequence[int], bound: Optional[int] = None) -> RankStats:
    """Count, mean, sample std, max and bound violations of integer ranks;
    mean and variance come from exact integer sums taken in C."""
    n = len(ranks)
    if not n:
        return RankStats(0, 0.0, 0.0, 0, None if bound is None else 0)
    total = sum(ranks)
    std = 0.0
    if n > 1:
        squares = sum(map(mul, ranks, ranks))
        std = sqrt((n * squares - total * total) / (n * (n - 1)))
    violations = None
    if bound is not None:
        violations = sum(map(gt, ranks, repeat(bound)))
    return RankStats(n, total / n, std, max(ranks), violations)
