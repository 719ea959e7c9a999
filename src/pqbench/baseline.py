"""Strict reference queue: one binary heap behind one lock.

Deletions always return the true minimum, so every deletion has rank 1.
Used as the quality gold standard and the throughput floor.
"""
from __future__ import annotations

import heapq
import random
import threading
from itertools import count
from typing import List, Optional

from .core import Item, Lsm, make_seq


class SeqLsmQueue:
    """Single-threaded block-merge queue behind the common calling shape."""

    def __init__(self):
        self.lsm = Lsm(private=True)
        self._seqs = count(make_seq(0))

    def register(self, rng: Optional[random.Random] = None) -> "SeqLsmQueue":
        return self

    def insert(self, key: int) -> Item:
        it = Item(key << 64 | next(self._seqs))
        self.lsm.insert(it)
        return it

    def prefill(self, keys: List[int]) -> List[Item]:
        """The items and blocks of one :meth:`insert` per key, if empty."""
        items = [Item(key << 64 | seq) for key, seq in zip(keys, self._seqs)]
        self.lsm.fill(items)
        return items

    def delete_min(self) -> Optional[Item]:
        return self.lsm.delete_min()

    def live_items(self) -> List[Item]:
        return list(self.lsm.live_items())


class LockedHeap:
    def __init__(self):
        self._lock = threading.Lock()
        self._heap: List[Item] = []
        self._seqs = count(make_seq(0))

    def register(self, rng: Optional[random.Random] = None) -> "LockedHeapHandle":
        return LockedHeapHandle(self)

    def insert(self, key: int, value=None) -> Item:
        if value is not None:
            raise TypeError("items carry no payload; value must be None")
        # acquire/release costs about half what ``with`` does (CPython 3.11)
        lock = self._lock
        lock.acquire()
        try:
            it = Item(key << 64 | next(self._seqs))
            heapq.heappush(self._heap, it)
        finally:
            lock.release()
        return it

    def delete_min(self) -> Optional[Item]:
        lock = self._lock
        lock.acquire()
        try:
            return heapq.heappop(self._heap) if self._heap else None
        finally:
            lock.release()

    def live_items(self) -> List[Item]:
        with self._lock:
            return list(self._heap)


class LockedHeapHandle:
    """Thin per-thread wrapper so all queue kinds share one calling shape."""

    __slots__ = ("q",)

    def __init__(self, q: LockedHeap):
        self.q = q

    def insert(self, key: int) -> Item:
        return self.q.insert(key)

    def delete_min(self) -> Optional[Item]:
        return self.q.delete_min()
