"""Shared priority queue with relaxed deletion over a pivot window.

One global block structure is shared by all threads.  Alongside it lives a
window covering the at most k+1 smallest live items; deletions pick a
window member uniformly at random, so a deletion skips at most k smaller
items.  A window rebuild sorts only the items up to a cut taken from the
largest block, about 1.5k of them on uniform keys.  The whole structure
is an immutable state record swapped by an atomic compare-and-swap
(emulated with a short mutex, since Python has no native CAS); writers
that lose the race retry against the fresh state.  Items die through the
caller's claim table, never by structural removal; this part only reads
``taken``, so readers of stale states are always safe.
"""
from __future__ import annotations

import threading
from bisect import bisect_right
from typing import List, Optional, Tuple

from .core import Block, Item, compact, fitted, place, sorted_live
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
    items.

    The (k+1)-th live item of the first, largest block is a cut: no item
    above it can be among the k+1 smallest.  That block's slice widens
    past taken slots until it holds k+1 live items or the block runs out.
    Every other block contributes its items up to the cut (found by
    bisection), and :func:`~pqbench.core.sorted_live` orders them, each
    live item once.  A first block with fewer than k+1 live items gives no
    cut, and every block contributes all of its items.
    """
    blocks = compact(blocks)
    if not blocks:
        return (), ()
    first = blocks[0]
    items = first.items
    live: List[Item] = []
    end = first.head
    while len(live) <= k and end < len(items):
        start, end = end, end + k + 1 - len(live)
        live += [it for it in items[start:end] if not it.taken]
    cut = live[-1] if len(live) > k else None
    for blk in blocks[1:]:
        items = blk.items
        stop = (len(items) if cut is None
                else bisect_right(items, cut, blk.head))
        live += items[blk.head:stop]
    return tuple(blocks), tuple(sorted_live(live)[:k + 1])


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
