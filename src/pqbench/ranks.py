"""Offline rank computation from timestamped operation logs.

Each benchmark thread logs its operations; the merged, time-ordered log
is replayed against an order-statistic counter to find each deletion's
rank: the position of the deleted item among all items live at that
moment (1 = true minimum), under the queues' own total order
``(key, seq)``.  Keys may repeat, but seq is unique, so the rank is exact:
a live duplicate of the deleted key counts only if its seq is smaller.

Every inserted item is known before replay starts, so the counter is a
Fenwick (binary indexed) tree over the items' ``(key, seq)`` positions,
found by one dict lookup per event; each event costs O(log n) for n
inserted items.
"""
from __future__ import annotations

import csv
from statistics import fmean, stdev
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from .workload import DELETE, INSERT


class CorruptLogError(ValueError):
    """The merged log is not a consistent queue history."""


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


def merge_logs(per_thread: Iterable[Sequence[OpRecord]]) -> List[OpRecord]:
    """One global history, ordered by timestamp with thread id tie-break."""
    merged = [rec for log in per_thread for rec in log]
    merged.sort(key=lambda r: (r.timestamp, r.thread))
    return merged


def replay_ranks(records: Sequence[OpRecord]) -> List[int]:
    """The rank of every deletion, in history order.

    Raises CorruptLogError when the records do not form a valid history:
    timestamps out of order, an item inserted twice, or a deletion of an
    item that is not live.
    """
    pos: Dict[int, int] = {}         # seq -> Fenwick index in (key, seq) order
    for i, (_, seq) in enumerate(
            sorted((r.key, r.seq) for r in records if r.kind == INSERT), 1):
        if seq in pos:
            raise CorruptLogError(f"duplicate insert of seq {seq}")
        pos[seq] = i
    fen = Fenwick(len(pos))
    live_key: Dict[int, int] = {}    # seq -> key
    ranks: List[int] = []
    last_ts = None
    for rec in records:
        if last_ts is not None and rec.timestamp < last_ts:
            raise CorruptLogError(f"timestamps regress at seq {rec.seq}")
        last_ts = rec.timestamp
        if rec.kind == INSERT:
            live_key[rec.seq] = rec.key
            fen.add(pos[rec.seq], 1)
        elif rec.kind == DELETE:
            key = live_key.pop(rec.seq, None)
            if key is None:
                raise CorruptLogError(f"delete of non-live seq {rec.seq}")
            if key != rec.key:
                raise CorruptLogError(
                    f"delete of seq {rec.seq} reports key {rec.key}, inserted {key}"
                )
            i = pos[rec.seq]
            ranks.append(fen.prefix(i))
            fen.add(i, -1)
        else:
            raise CorruptLogError(f"unknown record kind {rec.kind!r}")
    return ranks


def summarize_ranks(ranks: Sequence[int], bound: Optional[int] = None) -> RankStats:
    if not ranks:
        return RankStats(0, 0.0, 0.0, 0, None if bound is None else 0)
    mean = fmean(ranks)
    std = stdev(ranks) if len(ranks) > 1 else 0.0
    worst = max(ranks)
    violations = None
    if bound is not None:
        violations = sum(1 for r in ranks if r > bound)
    return RankStats(len(ranks), mean, std, worst, violations)


LOG_FIELDS = ("kind", "key", "seq", "timestamp", "thread")


def dump_log(records: Iterable[OpRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(LOG_FIELDS)
        for r in records:
            w.writerow([r.kind, r.key, r.seq, r.timestamp, r.thread])


def load_log(path: str) -> List[OpRecord]:
    out: List[OpRecord] = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != list(LOG_FIELDS):
            raise CorruptLogError(f"unexpected log header: {header}")
        for row in reader:
            if len(row) != 5:
                raise CorruptLogError(f"malformed log row: {row}")
            kind, key, seq, ts, thread = row
            out.append(OpRecord(kind, int(key), int(seq), int(ts), int(thread)))
    return out
