"""Shared priority queue with relaxed deletion over a pivot window.

One global block structure is shared by all threads.  Alongside it lives a
window covering the at most k+1 smallest live items; deletions pick a
window member uniformly at random, so a deletion skips at most k smaller
items.  The whole structure is an immutable state record swapped by an
atomic compare-and-swap (emulated with a short mutex, since Python has no
native CAS); writers that lose the race retry against the fresh state.
Items die through the shared claim table, never by structural removal, so
readers of stale states are always safe.
"""
from __future__ import annotations

import heapq
import threading
from bisect import bisect_right
from typing import List, Optional, Tuple

from .core import Block, ClaimTable, Item, fitted, place
# unused here, but kept bound: tracers patch merge_sorted_live in this module
from .core import merge_sorted_live  # noqa: F401

# rejection-sampling attempts before rebuilding a mostly-dead window
PICK_ATTEMPTS = 16


class _State:
    """Immutable snapshot: blocks and window layout.

    Each block's ``head`` marks the dead prefix skipped at the last scan;
    published blocks are never mutated, a scan that advances a head makes
    a new block.  ``spans`` describe which slice of each block, from its
    head, the window covers (embedded consumed items included);
    ``members`` list the covered items that were live at scan time, so
    random picks never degrade below the window's own consumption rate no
    matter how many dead slots the spans straddle.
    """

    __slots__ = ("blocks", "spans", "range_max", "total_span", "members",
                 "version")

    def __init__(self, blocks, spans, range_max, total_span, members, version):
        self.blocks: Tuple[Block, ...] = blocks
        self.spans: Tuple[int, ...] = spans
        self.range_max: Optional[Tuple[int, int]] = range_max
        self.total_span = total_span
        self.members: Tuple[Item, ...] = members
        self.version = version


def _scan_window(blocks, k):
    """k-way head scan: advance past dead prefixes, cover the k+1 smallest
    live items, drop fully consumed blocks."""
    keep_blocks: List[Block] = []
    heap = []
    for blk in blocks:
        items = blk.items
        n = len(items)
        h = blk.head
        while h < n and items[h].taken:
            h += 1
        if h >= n:
            continue
        if h != blk.head:
            blk = Block(blk.capacity, items, h)
        idx = len(keep_blocks)
        keep_blocks.append(blk)
        it = items[h]
        heap.append((it.key, it.seq, idx, h))
    heapq.heapify(heap)
    ends = [blk.head for blk in keep_blocks]
    members: List[Item] = []
    range_max = None
    while heap and len(members) < k + 1:
        key, seq, idx, pos = heapq.heappop(heap)
        range_max = (key, seq)
        ends[idx] = pos + 1
        items = keep_blocks[idx].items
        members.append(items[pos])
        n = len(items)
        p = pos + 1
        while p < n and items[p].taken:
            p += 1
        if p < n:
            nxt = items[p]
            heapq.heappush(heap, (nxt.key, nxt.seq, idx, p))
    spans = tuple(end - blk.head for blk, end in zip(keep_blocks, ends))
    return tuple(keep_blocks), spans, range_max, sum(spans), tuple(members)


class Slsm:
    """Globally shared, relaxation-bounded priority queue."""

    def __init__(self, k: int, claims: Optional[ClaimTable] = None):
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k
        self.claims = claims if claims is not None else ClaimTable()
        self._lock = threading.Lock()
        self._state = _State((), (), None, 0, (), 0)

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

        batch_min = (nb.items[0].key, nb.items[0].seq)
        if s.range_max is None or s.total_span == 0 or batch_min < s.range_max:
            return _State(*_scan_window(blocks, self.k), s.version + 1)

        # remap: untouched blocks keep their spans; a new block starts at
        # head 0 and its window share is exactly its items <= range_max.
        # The member items themselves are unaffected -- they keep their
        # identity through any block merges -- so they carry over as-is.
        span_by_block = {id(b): sp for b, sp in zip(s.blocks, s.spans)}
        spans = []
        for b in blocks:
            sp = span_by_block.get(id(b))
            if sp is None:
                sp = bisect_right(b.items, s.range_max, key=lambda it: (it.key, it.seq))
            spans.append(sp)
        spans_t = tuple(spans)
        return _State(tuple(blocks), spans_t, s.range_max, sum(spans_t),
                      s.members, s.version)

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
            for _ in range(PICK_ATTEMPTS):
                it = members[rng.randrange(n)]
                if not it.taken:
                    return it
            self._rebuild_from(s)

    def delete_min(self, rng) -> Optional[Item]:
        claims = self.claims
        while True:
            it = self.peek_candidate(rng)
            if it is None:
                return None
            if claims.try_claim(it):
                return it

    # ------------------------------------------------------------------
    # introspection (tests, draining)

    def window_items(self) -> List[Item]:
        s = self._state
        out = []
        for blk, span in zip(s.blocks, s.spans):
            for it in blk.items[blk.head:blk.head + span]:
                if not it.taken:
                    out.append(it)
        return out

    def window_spans(self) -> List[int]:
        return list(self._state.spans)

    def live_items(self) -> List[Item]:
        s = self._state
        out = []
        for blk in s.blocks:
            for it in blk.items[blk.head:]:
                if not it.taken:
                    out.append(it)
        return out

    def live_count(self) -> int:
        return len(self.live_items())
