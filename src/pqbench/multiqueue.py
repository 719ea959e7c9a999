"""Randomized multi-heap priority queue.

c heaps per thread, each behind its own lock.  Inserts push to a random
heap; deletions sample two distinct heaps and pop the one whose top is
smaller.  Quality is good in practice but carries no worst-case rank
guarantee.  Lock acquisition is try-lock with re-sampling so threads
rarely wait on each other.  A handle does each whole op in one frame.
Items are plain ints, ``key << 64 | seq``: every heap pops each item once
under its lock, so no item needs a ``taken`` flag.
"""
from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from heapq import heappop, heappush
from itertools import count
from typing import List, Optional

from .core import make_seq

INSERT_ATTEMPTS = 8
DELETE_ATTEMPTS = 8


class MultiQueue:
    def __init__(self, threads: int = 1, c: int = 4):
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if c < 1:
            raise ValueError("c must be >= 1")
        self.n = c * threads
        self.locks = [threading.Lock() for _ in range(self.n)]
        self.heaps: List[List[int]] = [[] for _ in range(self.n)]
        # cached tops, read without locking when choosing a victim heap
        self.tops: List[Optional[int]] = [None] * self.n
        self._reg_lock = threading.Lock()
        self._registered = 0

    def register(self, rng: Optional[random.Random] = None) -> "MqHandle":
        with self._reg_lock:
            owner = self._registered
            self._registered += 1
        return MqHandle(self, owner, rng or random.Random())

    def _sweep(self) -> Optional[int]:
        """Hold every lock at once for a consistent global pop or a firm
        answer that the structure is empty."""
        with self._all_locks():
            best = None
            for i, h in enumerate(self.heaps):
                if h and (best is None or h[0] < self.heaps[best][0]):
                    best = i
            if best is None:
                return None
            h = self.heaps[best]
            it = heappop(h)
            self.tops[best] = h[0] if h else None
            return it

    # ------------------------------------------------------------------

    def live_items(self) -> List[int]:
        with self._all_locks():
            return [it for h in self.heaps for it in h]

    @contextmanager
    def _all_locks(self):
        for lock in self.locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in self.locks:
                lock.release()


class MqHandle:
    """Per-thread front end: the sequence counter, the random stream and
    the queue's shared lists, so that each op runs in this one frame."""

    __slots__ = ("n", "bits", "bits1", "getrandbits", "locks", "heaps",
                 "tops", "_sweep", "_seqs")

    def __init__(self, q: MultiQueue, owner: int, rng: random.Random):
        n = self.n = q.n
        self.bits, self.bits1 = n.bit_length(), (n - 1).bit_length()
        self.getrandbits = rng.getrandbits
        self.locks, self.heaps, self.tops = q.locks, q.heaps, q.tops
        self._sweep = q._sweep
        self._seqs = count(make_seq(owner))

    def insert(self, key: int) -> int:
        it = key << 64 | next(self._seqs)
        n = self.n
        bits = self.bits
        getrandbits = self.getrandbits
        for attempt in range(INSERT_ATTEMPTS + 1):
            # rng.randrange(n) inlined: the same draws, no Python frames
            i = getrandbits(bits)
            while i >= n:
                i = getrandbits(bits)
            lock = self.locks[i]
            # try-locks first; the attempt after them waits for its lock
            if not lock.acquire(attempt == INSERT_ATTEMPTS):
                continue
            try:
                h = self.heaps[i]
                heappush(h, it)
                self.tops[i] = h[0]
            finally:
                lock.release()
            return it

    def delete_min(self) -> Optional[int]:
        n = self.n
        bits = self.bits
        bits1 = self.bits1
        getrandbits = self.getrandbits
        tops = self.tops
        for _ in range(DELETE_ATTEMPTS):
            chosen_top = None
            if n == 1:
                i = 0
            else:
                # rng.randrange(n) and rng.randrange(n - 1) inlined
                i = getrandbits(bits)
                while i >= n:
                    i = getrandbits(bits)
                j = getrandbits(bits1)
                while j >= n - 1:
                    j = getrandbits(bits1)
                if j >= i:
                    j += 1
                ti, tj = tops[i], tops[j]
                if ti is None and tj is None:
                    continue
                if ti is None or (tj is not None and tj < ti):
                    i, ti = j, tj
                chosen_top = ti
            lock = self.locks[i]
            if not lock.acquire(False):
                continue
            try:
                h = self.heaps[i]
                if not h:
                    tops[i] = None
                    continue
                if chosen_top is not None and h[0] is not chosen_top:
                    # the top moved between sampling and locking, so the
                    # two-choice comparison was stale; re-sample (an item's
                    # value is unique in the queue, so ``is`` is identity)
                    continue
                it = heappop(h)
                tops[i] = h[0] if h else None
                return it
            finally:
                lock.release()
        return self._sweep()
