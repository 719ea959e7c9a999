"""Shared priority queue with relaxed deletion over a pivot window.

One global block structure is shared by all threads.  Alongside it lives a
window covering the at most k+1 smallest live items; deletions pick a
window member uniformly at random, so a deletion skips at most k smaller
items.  The whole structure is an immutable state record swapped by an
atomic compare-and-swap (emulated with a short mutex, since Python has no
native CAS); writers that lose the race retry against the fresh state.
Items die through the caller's claim table, never by structural removal;
this part only reads ``taken``, so readers of stale states are always safe.
"""
from __future__ import annotations

import heapq
import threading
from typing import List, Optional, Tuple

from .core import Block, Item, compact, fitted, place
# unused here, but kept bound: tracers patch merge_sorted_live in this module
from .core import merge_sorted_live  # noqa: F401

# rejection-sampling attempts before rebuilding a mostly-dead window
PICK_ATTEMPTS = 16


class _State:
    """Immutable snapshot: blocks and window.

    Published blocks are never mutated; a scan that skips a dead prefix
    makes new blocks.  ``members`` are the at most k+1 smallest items that
    were live at scan time, in ascending order.  Every live item at or
    below ``members[-1]`` is a member, and later batches join without a
    rescan only when none of their items sorts below it, so the live
    members are the window.
    """

    __slots__ = ("blocks", "members", "version")

    def __init__(self, blocks, members, version):
        self.blocks: Tuple[Block, ...] = blocks
        self.members: Tuple[Item, ...] = members
        self.version = version


def _scan_window(blocks, k):
    """Skip dead prefixes, then collect the k+1 smallest distinct live
    items with a k-way head scan.

    One item may sit in two blocks (a spied copy spilled apart from its
    original); its copies compare equal, so they pop one after another
    and only the first is kept.
    """
    blocks = compact(blocks)
    heap = []
    for idx, blk in enumerate(blocks):
        heap.append((blk.items[blk.head], idx, blk.head))
    heapq.heapify(heap)
    members: List[Item] = []
    while heap and len(members) < k + 1:
        it, idx, pos = heapq.heappop(heap)
        items = blocks[idx].items
        if not members or it is not members[-1]:
            members.append(it)
        n = len(items)
        p = pos + 1
        while p < n and items[p].taken:
            p += 1
        if p < n:
            heapq.heappush(heap, (items[p], idx, p))
    return tuple(blocks), tuple(members)


class Slsm:
    """Globally shared, relaxation-bounded priority queue."""

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k
        self._lock = threading.Lock()
        self._state = _State((), (), 0)

    @property
    def version(self) -> int:
        return self._state.version

    def _swap(self, old: _State, new: _State) -> bool:
        with self._lock:
            if self._state is old:
                self._state = new
                return True
            return False

    # ------------------------------------------------------------------
    # insertion

    def insert_batch(self, blk: Block) -> None:
        """Merge a whole block of items in, binary-counter style.

        The window survives untouched (version stable) when every new item
        sorts above the current window maximum; otherwise it is rebuilt.
        """
        while True:
            s = self._state
            live = [it for it in blk.items[blk.head:] if not it.taken]
            if not live:
                return
            if self._swap(s, self._inserted(s, fitted(live))):
                return

    def _inserted(self, s: _State, nb: Block) -> _State:
        blocks = list(s.blocks)
        place(blocks, nb)
        if not s.members or nb.items[0] < s.members[-1]:
            return _State(*_scan_window(blocks, self.k), s.version + 1)
        # nothing in the batch sorts below the window, which therefore
        # keeps its members; they keep their identity through any merges
        return _State(tuple(blocks), s.members, s.version)

    # ------------------------------------------------------------------
    # deletion

    def _rebuild_from(self, s: _State) -> None:
        self._swap(s, _State(*_scan_window(s.blocks, self.k), s.version + 1))

    def peek_candidate(self, rng) -> Optional[Item]:
        """A uniformly random live window member, or None if observed empty.

        Does not consume; pair with the claim table to actually delete.
        """
        while True:
            s = self._state
            members = s.members
            if not members:
                if not s.blocks:
                    return None
                self._rebuild_from(s)
                continue
            n = len(members)
            bits = n.bit_length()
            getrandbits = rng.getrandbits
            for _ in range(PICK_ATTEMPTS):
                # rng.randrange(n) inlined: the same draws, no Python frames
                i = getrandbits(bits)
                while i >= n:
                    i = getrandbits(bits)
                it = members[i]
                if not it.taken:
                    return it
            self._rebuild_from(s)

    # ------------------------------------------------------------------
    # introspection (tests, draining)

    def window_items(self) -> List[Item]:
        return [it for it in self._state.members if not it.taken]

    def live_items(self) -> List[Item]:
        """Each live item once, even if two blocks hold it."""
        out = {}
        for blk in self._state.blocks:
            for it in blk.items[blk.head:]:
                if not it.taken:
                    out[it] = None
        return list(out)
