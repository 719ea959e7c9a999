"""Strict reference queue: one binary heap behind one lock.

Deletions always return the true minimum, so every deletion has rank 1.
Used as the quality gold standard and the throughput floor.
"""
from __future__ import annotations

import random
import threading
from heapq import heappop, heappush
from itertools import count
from typing import List, Optional

from .core import Lsm, make_seq


class SeqLsmQueue:
    """Single-threaded block-merge queue of plain-int items over a private
    ``Lsm``, which reads no ``taken`` flag, behind the common calling shape."""

    def __init__(self):
        self.lsm = Lsm(private=True)
        self._seqs = count(make_seq(0))

    def register(self, rng: Optional[random.Random] = None) -> "SeqLsmQueue":
        return self

    def insert(self, key: int) -> int:
        it = key << 64 | next(self._seqs)
        self.lsm.insert(it)
        return it

    def prefill(self, keys: List[int]) -> List[int]:
        """The items and blocks of one :meth:`insert` per key, if empty."""
        items = [key << 64 | seq for key, seq in zip(keys, self._seqs)]
        self.lsm.fill(items)
        return items

    def delete_min(self) -> Optional[int]:
        return self.lsm.delete_min()

    def live_items(self) -> List[int]:
        return list(self.lsm.live_items())


class LockedHeap:
    """One heap of plain-int items, ``key << 64 | seq``, behind one lock,
    with one seq counter for the whole queue.  Its own ``insert`` and
    ``delete_min`` run through a handle, the one op body."""

    def __init__(self):
        self._lock = threading.Lock()
        self._heap: List[int] = []
        self._seqs = count(make_seq(0))
        self._own = LockedHeapHandle(self)

    def register(self, rng: Optional[random.Random] = None) -> "LockedHeapHandle":
        return LockedHeapHandle(self)

    def insert(self, key: int, value=None) -> int:
        if value is not None:
            raise TypeError("items carry no payload; value must be None")
        return self._own.insert(key)

    def delete_min(self) -> Optional[int]:
        return self._own.delete_min()

    def live_items(self) -> List[int]:
        with self._lock:
            return list(self._heap)


class LockedHeapHandle:
    """Per-thread front end: the queue's lock, heap and seq counter, so
    that each op runs in this one frame, the same for every kind."""

    __slots__ = ("lock", "heap", "_seqs")

    def __init__(self, q: LockedHeap):
        self.lock, self.heap, self._seqs = q._lock, q._heap, q._seqs

    def insert(self, key: int) -> int:
        # acquire/release costs about half what ``with`` does (CPython 3.11)
        lock = self.lock
        lock.acquire()
        try:
            it = key << 64 | next(self._seqs)
            heappush(self.heap, it)
        finally:
            lock.release()
        return it

    def delete_min(self) -> Optional[int]:
        lock = self.lock
        lock.acquire()
        try:
            heap = self.heap
            return heappop(heap) if heap else None
        finally:
            lock.release()
