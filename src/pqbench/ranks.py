"""Offline rank computation from timestamped operation logs.

A quality run logs its operations in commit order; that time-ordered log
is replayed against an order-statistic counter to find each deletion's
rank: the position of the deleted item among all items live at that
moment (1 = true minimum), under the queues' own total order
``(key, seq)``.  Keys may repeat, but seq is unique, so the rank is exact:
a live duplicate of the deleted key counts only if its seq is smaller.

The live items are one sorted list of ints ``key << 64 | seq`` (the
packing of ``core.Item``) cut into chunks of at most ``2 * LOAD``, with
each chunk's last item and length kept alongside: the square-root
decomposition of Grant Jenks's ``sortedcontainers``.  The leading inserts
(the prefill) are sorted once.  An event bisects the chunk maxima, then the
chunk; a deletion's rank adds the earlier chunks' lengths in one C ``sum``.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from itertools import chain, compress, count, islice, repeat
from math import sqrt
from operator import eq, gt, itemgetter, mul, ne
from typing import Iterable, List, NamedTuple, Optional, Sequence

from .workload import DELETE, INSERT

LOAD = 1000     # a chunk of the live list splits when it passes 2 * LOAD items


class CorruptLogError(ValueError):
    """The log is not a consistent queue history."""


class OpRecord(NamedTuple):
    kind: str            # INSERT or DELETE
    key: int
    seq: int             # unique item identity
    timestamp: int
    thread: int


class RankStats(NamedTuple):
    """``RepResult``'s rank fields, by the same names."""
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
    an item inserted twice, a seq outside ``[0, 2**64)``, timestamps out of
    order, or a deletion of an item that is not live.  The first two are
    reported first; otherwise the first fault in history order.
    """
    kinds = list(map(itemgetter(0), records))
    seqs = list(map(itemgetter(2), records))
    inserted = list(compress(seqs, map(eq, kinds, repeat(INSERT))))
    if len(set(inserted)) != len(inserted):
        seen: set = set()
        dup = next(s for s in inserted if s in seen or seen.add(s))
        raise CorruptLogError(f"duplicate insert of seq {dup}")
    if min(seqs, default=0) < 0 or max(seqs, default=0) >> 64:
        bad = next(s for s in seqs if not 0 <= s < 1 << 64)
        raise CorruptLogError(f"seq {bad} is not an unsigned 64-bit int")
    ts = list(map(itemgetter(3), records))
    # replay stops before the first regressing timestamp: an earlier fault wins
    stop = next(compress(count(1), map(gt, ts, islice(ts, 1, None))), len(ts))
    # the inserts that lead the log (the prefill) are sorted once
    lead = next(compress(count(), map(ne, kinds[:stop], repeat(INSERT))), stop)
    live = sorted([r[1] << 64 | r[2] for r in islice(records, lead)])
    chunks = [live[i:i + LOAD] for i in range(0, lead, LOAD)]  # live, sorted
    maxes = [chunk[-1] for chunk in chunks]     # the last item of each chunk
    lens = list(map(len, chunks))
    ranks: List[int] = []
    append = ranks.append
    for kind, key, seq, _, _ in islice(records, lead, stop):
        x = key << 64 | seq
        if kind == INSERT:
            c = bisect_left(maxes, x)
            if c < len(maxes):
                insort(chunks[c], x)
            elif c:                 # above every live item
                c -= 1
                chunks[c].append(x)
                maxes[c] = x
            else:                   # nothing is live
                chunks[:], maxes[:], lens[:] = [[x]], [x], [0]
            n = lens[c] = lens[c] + 1
            if n > 2 * LOAD:
                chunk = chunks[c]
                chunks[c:c + 1] = chunk[:LOAD], chunk[LOAD:]
                maxes.insert(c, chunk[LOAD - 1])
                lens[c:c + 1] = LOAD, n - LOAD
        elif kind == DELETE:
            c = bisect_left(maxes, x)
            if c < len(maxes):
                chunk = chunks[c]
                j = bisect_left(chunk, x)
                if chunk[j] == x:
                    append(sum(lens[:c]) + j + 1 if c else j + 1)
                    del chunk[j]
                    n = lens[c] = lens[c] - 1
                    if not n:
                        del chunks[c], maxes[c], lens[c]
                    elif j == n:
                        maxes[c] = chunk[-1]
                    continue
            for y in chain.from_iterable(chunks):
                if y & (1 << 64) - 1 == seq:
                    raise CorruptLogError(f"delete of seq {seq} reports key "
                                          f"{key}, inserted {y >> 64}")
            raise CorruptLogError(f"delete of non-live seq {seq}")
        else:
            raise CorruptLogError(f"unknown record kind {kind!r}")
    if stop < len(ts):
        raise CorruptLogError(f"timestamps regress at seq {records[stop].seq}")
    return ranks


def summarize_ranks(ranks: Sequence[int], bound: Optional[int] = None) -> RankStats:
    """Mean, sample std, max and bound violations of integer ranks;
    mean and variance come from exact integer sums taken in C."""
    n = len(ranks)
    if not n:
        return RankStats(0.0, 0.0, 0, None if bound is None else 0)
    total = sum(ranks)
    std = 0.0
    if n > 1:
        squares = sum(map(mul, ranks, ranks))
        std = sqrt((n * squares - total * total) / (n * (n - 1)))
    violations = None
    if bound is not None:
        violations = sum(map(gt, ranks, repeat(bound)))
    return RankStats(total / n, std, max(ranks), violations)
