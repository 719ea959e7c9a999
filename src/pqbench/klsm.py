"""Composed relaxed priority queue: fast thread-local part, shared part.

Each thread owns a small local merge structure capped at k items; overflow
spills whole blocks into the shared structure, whose deletions are drawn
from a window of the k+1 globally smallest.  A deletion peeks both parts
and claims the smaller head (ties go to the local part, which is cheaper).
The composed queue holds the one claim table; the parts only read
``taken``.  So an item is handed out exactly once no matter how many stale
copies of it exist in spies' copies of a victim's block list or in
spilled blocks.

With P threads, a deletion returns one of the k*P + 1 smallest items.
"""
from __future__ import annotations

import random
from itertools import count
from typing import List, Optional

from .core import Block, ClaimTable, Item, make_seq
from .dlsm import DlsmHandle, DlsmShared
from .slsm import Slsm


def rank_bound(k: int, threads: int) -> int:
    """Worst-case rank of a deleted item among those currently present."""
    return k * threads + 1


class Klsm:
    """Shared state plus a registry of per-thread handles."""

    def __init__(self, k: int = 256, threads: int = 1):
        # the parts check k and threads, k first
        self.slsm = Slsm(k)
        self.dlsm = DlsmShared(threads)
        self.k = k
        self.claims = ClaimTable(threads)

    def register(self, rng: Optional[random.Random] = None) -> "KlsmHandle":
        """Hand out a per-thread handle; call once from each worker."""
        return KlsmHandle(self, self.dlsm.register(), rng or random.Random())

    def live_items(self) -> List[Item]:
        """Each live item once, across the local parts and the shared part.

        Reads the handles' own blocks, so call it while no handle runs.
        """
        out = {}
        for handle in self.dlsm.handles:
            out.update(dict.fromkeys(handle.local.live_items()))
        out.update(dict.fromkeys(self.slsm.live_items()))
        return list(out)


class KlsmHandle:
    """One thread's view of the queue.  Not thread-safe; one per thread."""

    __slots__ = ("q", "dlsm", "rng", "_seqs")

    def __init__(self, q: Klsm, dlsm_handle: DlsmHandle, rng: random.Random):
        self.q = q
        self.dlsm = dlsm_handle
        self.rng = rng
        self._seqs = count(make_seq(dlsm_handle.owner))

    def insert(self, key: int) -> Item:
        it = Item(key << 64 | next(self._seqs))
        self.dlsm.insert(it)
        local = self.dlsm.local
        while local.size > self.q.k:
            self.q.slsm.insert_batch(local.spill_largest())
        return it

    def prefill(self, keys: List[int]) -> List[Item]:
        """The items and state of one :meth:`insert` per key into an empty
        local part.  It spills its largest, oldest block, of ``top`` items,
        each time it reaches k+1; so the spills are the ranges
        ``[j*top, (j+1)*top)`` while ``j*top + k + 1 <= n``."""
        items = [Item(key << 64 | seq) for key, seq in zip(keys, self._seqs)]
        k = self.q.k
        top = 1 << (k + 1).bit_length() - 1
        spilled = max(0, len(items) - k - 1 + top) // top * top
        self.dlsm.local.fill(items[spilled:])
        for j in range(0, spilled, top):
            self.q.slsm.insert_batch(Block(top, sorted(items[j:j + top])))
        return items

    def delete_min(self) -> Optional[Item]:
        """One of the k*P+1 smallest live items, or None if observed empty."""
        q = self.q
        local = self.dlsm.local
        while True:
            # private: a one-thread group's, with no victim for peek() to spy
            pair = local.peek_min() if local.private else self.dlsm.peek()
            cand = q.slsm.peek_candidate(self.rng)
            if pair is None and cand is None:
                return None
            use_local = cand is None or (pair is not None and pair[1] <= cand)
            it = pair[1] if use_local else cand
            if q.claims.try_claim(it):
                if use_local:
                    self.dlsm.consume(pair[0])
                return it
            # lost the race for this item; peek again from fresh state
