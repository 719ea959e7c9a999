"""Core item model and the sequential merge-structured priority queue.

Items are ordered as the pair (key, seq), where seq is a unique insertion
sequence number that makes the order total and replay deterministic.  The
queue keeps its items in sorted blocks whose power-of-two capacities are
pairwise distinct; inserting adds a singleton block and merges equal
capacities binary-counter style, deleting pops the smallest block head.
Both operations are O(log n) amortised.  A merge is one C sort, then one
pass that drops consumed items and second copies.  A private queue's insert
carries in its own frame, only meets the tail and doubles its capacity.
"""
from __future__ import annotations

import threading
from operator import lt
from typing import Iterable, Iterator, List, Optional, Tuple

# seq = thread << 48 | counter, below 2**64 so it stays out of an item's key
# bits; counters run unchecked: 2**48 inserts take ~3 years at 0.35 us each
# (LockedHeapHandle.insert, the fastest queue, CPython 3.11)
SEQ_THREAD_SHIFT = 48
# an item is the int key << 64 | seq: ``it >> 64`` is its key and
# ``it & SEQ_MASK`` its seq, for plain ints and Items alike
SEQ_MASK = (1 << 64) - 1

# locks in a ClaimTable; a power of two, so an item's lock is seq & (n - 1)
CLAIM_LOCKS = 64


def make_seq(thread_id: int) -> int:
    """The first sequence number of a thread; its i-th is this plus i."""
    if thread_id >= 1 << (64 - SEQ_THREAD_SHIFT):
        raise OverflowError("thread id does not fit in a 64-bit seq")
    return thread_id << SEQ_THREAD_SHIFT


class Item(int):
    """A prioritised entry: the int ``key << 64 | seq``, built as
    ``Item(key << 64 | seq)`` from an int key and a seq in
    ``[0, 2**64)``.  Smaller means higher priority.  Only klsm's parts
    store Items; ``LockedHeap``, ``MultiQueue`` and ``SeqLsmQueue``, which
    need no ``taken`` flag, store the plain int.

    Being an int, an item compares, sorts and heap-orders in C's integer
    path, in the order of the tuple ``(key, seq)``.  Equality is by value,
    which within one queue is identity because seq is unique.  ``key``
    and ``seq`` are C-level shift and mask reads.

    ``taken`` is a one-shot consumption flag: once an item is handed to a
    caller it is dead everywhere, even if a spy's copy of the victim's
    block list still references it.  The flag is the item's class, so an
    item carries no instance dict: :class:`ClaimTable` flips it by moving
    the item to :class:`TakenItem`, the only way it changes.
    """

    __slots__ = ()
    key = property((64).__rrshift__)
    seq = property(SEQ_MASK.__rand__)
    taken = False

    def __repr__(self) -> str:
        flag = "#" if self.taken else ""
        return f"Item({self.key}, seq={self.seq}{flag})"


class TakenItem(Item):
    """An :class:`Item` that has been handed out."""

    __slots__ = ()
    taken = True


class ClaimTable:
    """Striped test-and-set over item ``taken`` flags.

    Every claim on items one queue can reach must go through the same
    table, otherwise two claimants could both win.  A table for one
    claimant (the default allows any number) sets the flag with no lock.
    """

    __slots__ = ("_locks", "_mask")

    def __init__(self, claimants: Optional[int] = None) -> None:
        n = 0 if claimants == 1 else CLAIM_LOCKS
        self._locks = [threading.Lock() for _ in range(n)]
        self._mask = CLAIM_LOCKS - 1

    def try_claim(self, item: Item) -> bool:
        if item.taken:
            return False
        locks = self._locks
        if not locks:
            item.__class__ = TakenItem
            return True
        # acquire/release costs about half what ``with`` does (CPython 3.11)
        lock = locks[item & self._mask]  # the seq's low bits
        lock.acquire()
        try:
            if item.taken:
                return False
            item.__class__ = TakenItem
            return True
        finally:
            lock.release()


def fit_capacity(occupancy: int) -> int:
    """Smallest power of two C with occupancy in (C/2, C]."""
    if occupancy <= 0:
        raise ValueError("occupancy must be positive")
    return 1 << (occupancy - 1).bit_length()


def sorted_live(items: List[Item]) -> List[Item]:
    """Sort ``items`` in place, then drop taken items and second copies in
    one pass: an item that reached the list twice (a spied copy spilled
    next to its original) sorts next to itself."""
    items.sort()
    prev = None
    return [prev := it for it in items if not it.taken and it is not prev]


def merge_sorted_live(
    items_a: List[Item], start_a: int, items_b: List[Item], start_b: int,
    private: bool = False,
) -> List[Item]:
    """Merge of the live tails of two sorted item lists by
    :func:`sorted_live`.  Inputs are never mutated, so the result can
    safely replace blocks that a spy's copy of the victim's block list
    still references.  Two tails of one item each, the commonest merge,
    are compared directly, same outcome.
    A ``private`` merge (see :class:`Lsm`) skips the filter, since no other
    thread takes its items or copies them in: it orders a pair by one
    compare and sorts anything longer.
    """
    if len(items_a) == start_a + 1 and len(items_b) == start_b + 1:
        x, y = items_a[start_a], items_b[start_b]
        if private:
            return [y, x] if y < x else [x, y]
        if x.taken:
            return [] if y.taken else [y]
        if y.taken or x is y:
            return [x]
        return [y, x] if y < x else [x, y]
    if private:
        return sorted(items_a[start_a:] + items_b[start_b:])
    return sorted_live(items_a[start_a:] + items_b[start_b:])


class Block:
    """A sorted run of items with a power-of-two capacity.

    ``head`` indexes the first unconsumed slot; everything before it has
    been handed out by the owner.  Slots at or after ``head`` may still be
    dead via their item's ``taken`` flag (set by another thread that holds
    a copy); those are skipped lazily.  ``occupancy`` is therefore the
    structural count, not necessarily the live count.

    A shared block never changes once built: popping a head makes a new
    block over the same item list, so the spy's copy of the victim's block
    list stays as it was taken.  Only a private :class:`Lsm`, whose blocks
    no other thread can read, changes its blocks in place, in its pops and
    its insert carry.
    """

    __slots__ = ("capacity", "items", "head")

    def __init__(self, capacity: int, items: List[Item], head: int = 0):
        self.capacity = capacity
        self.items = items
        self.head = head

    @property
    def occupancy(self) -> int:
        return len(self.items) - self.head

    def check(self) -> None:
        cap = self.capacity
        if cap < 1 or cap & (cap - 1):
            raise ValueError(f"capacity {cap} not a power of two")
        if not 0 <= self.head <= len(self.items):
            raise ValueError("head out of bounds")
        occ = self.occupancy
        if not cap // 2 < occ <= cap:
            raise ValueError(f"occupancy {occ} outside ({cap // 2}, {cap}]")
        items = self.items
        if not all(map(lt, items, items[1:])):
            raise ValueError("items not strictly sorted by (key, seq)")

    def __repr__(self) -> str:
        return f"Block(cap={self.capacity}, occ={self.occupancy})"


def fitted(items: List[Item], head: int = 0) -> Block:
    """A block over ``items[head:]`` whose capacity fits its occupancy.

    This is the one shrink-to-fit rule: a block at most half full takes
    the smallest power-of-two capacity that holds it, which restores the
    invariant capacity/2 < occupancy <= capacity.
    """
    return Block(fit_capacity(len(items) - head), items, head)


def place(blocks: List[Block], blk: Block, private: bool = False) -> int:
    """Add ``blk`` to a descending-capacity block list, binary-counter style.

    The carry walks in from the small end.  A block of equal capacity
    always sits at the insertion point, so the two merge right there and
    the merged items walk on with their fitted capacity; a merge whose
    consumed items shrink it below the blocks already passed walks in
    again from the small end.  One new block is built where the carry
    lands, so a spy's copy of the block list that holds the old ones stays
    valid.  Returns how many slots the merges dropped (taken items and
    second copies), so a caller can keep its occupancy count; ``private``
    merges drop none.  A private :class:`Lsm`'s insert never walks here,
    only a pop that shrinks.
    """
    items, head, cap = blk.items, blk.head, blk.capacity
    dropped = 0
    i = len(blocks)
    while i and blocks[i - 1].capacity <= cap:
        i -= 1
        b = blocks[i]
        if b.capacity == cap:
            del blocks[i]
            merged = merge_sorted_live(b.items, b.head, items, head, private)
            dropped += len(b.items) - b.head + len(items) - head - len(merged)
            if not merged:
                return dropped
            items, head, cap = merged, 0, fit_capacity(len(merged))
            if cap < b.capacity:
                i = len(blocks)
    blocks.insert(i, blk if items is blk.items else Block(cap, items))
    return dropped


def compact(blocks: Iterable[Block]) -> List[Block]:
    """A new block list whose every block starts at a live item.

    This is the one dead-prefix rule: each block's head skips the items
    other claimants already took, a block with nothing live left is
    dropped, and a block whose head moved is re-fitted.  Every block goes
    through :func:`place`, so re-fitted blocks that collide on capacity
    merge.  The input list and its blocks are never mutated.
    """
    out: List[Block] = []
    for blk in blocks:
        items = blk.items
        n = len(items)
        h = blk.head
        while h < n and items[h].taken:
            h += 1
        if h == n:
            continue
        if h != blk.head:
            blk = fitted(items, h)
        place(out, blk)
    return out


class Lsm:
    """Sequential priority queue over distinct-capacity sorted blocks.

    Single-owner: no internal synchronisation.  Other threads may read
    blocks (through the spy's copy of the victim's block list) and kill
    individual items through a shared :class:`ClaimTable`; only the owner
    restructures.

    A ``private`` queue's blocks no other thread can ever read (the one
    behind ``SeqLsmQueue``, a one-thread group's local part): nothing in
    them is taken or copied behind the owner's back, so it never reads a
    ``taken`` flag and may hold plain ints: its merges, peeks and walks
    skip the live filter, its pops move a block's head in place, and its
    insert carries in its own frame into the last tail block it popped.
    """

    __slots__ = ("blocks", "size", "private")

    def __init__(self, private: bool = False) -> None:
        # descending capacity; capacities pairwise distinct
        self.blocks: List[Block] = []
        # sum of block occupancies, kept by every op that changes them
        self.size = 0
        self.private = private

    def insert(self, item: Item) -> None:
        """A private queue merges its equal-capacity tail blocks into the
        carry (1+1 by one compare) and reuses the last block it popped."""
        if not self.private:
            self.size += 1 - place(self.blocks, Block(1, [item]))
            return
        # nothing dropped, blocks over half full: two c-blocks fill a 2c one
        self.size += 1
        blocks, items, cap = self.blocks, [item], 1
        while blocks and blocks[-1].capacity == cap:
            b = blocks.pop()
            items = merge_sorted_live(b.items, b.head, items, 0, True)
            cap <<= 1
        if cap == 1:
            b = Block(1, items)
        else:  # the last block popped has no other reader: reuse it
            b.capacity, b.items, b.head = cap, items, 0
        blocks.append(b)

    def fill(self, items: List[Item]) -> None:
        """Into an empty queue, the blocks that inserting ``items`` in order
        leaves.  With nothing taken, each merge joins two adjacent insertion
        ranges, so that is one full block per set bit of the count, largest
        and oldest first (Bentley & Saxe's logarithmic method)."""
        if self.blocks:
            raise ValueError("fill needs an empty queue")
        n, start = len(items), 0
        for bit in reversed(range(n.bit_length())):
            cap = 1 << bit
            if n & cap:
                self.blocks.append(Block(cap, sorted(items[start:start + cap])))
                start += cap
        self.size = n

    def peek_min(self) -> Optional[Tuple[Block, Item]]:
        """Smallest live head and the block to pop it from, in one walk.

        A dead head (taken by another claimant; never in a private queue)
        makes the walk compact the blocks, recount and start again; that
        may restructure blocks, but the live contents are untouched.
        """
        if self.private:
            best = None
            for blk in self.blocks:
                it = blk.items[blk.head]
                if best is None or it < best:
                    best, best_blk = it, blk
            return None if best is None else (best_blk, best)
        while True:
            best = None
            for blk in self.blocks:
                it = blk.items[blk.head]
                if it.taken:
                    break
                if best is None or it < best:
                    best = it
                    best_blk = blk
            else:
                return None if best is None else (best_blk, best)
            self.blocks = compact(self.blocks)
            self.size = sum(len(b.items) - b.head for b in self.blocks)

    def pop_head(self, blk: Block) -> Item:
        """Consume the head of ``blk``, one of this queue's blocks.

        The block is replaced by one that starts past the head: in its
        slot while it still fits that capacity, through :func:`place` when
        it shrinks, and not at all when nothing is left.  A private queue
        moves the head of a block that still fits in place instead.
        """
        blocks = self.blocks
        items = blk.items
        head = blk.head + 1
        self.size -= 1
        if self.private and (len(items) - head) << 1 > blk.capacity:
            # still over half full, so fitted() would keep the capacity
            blk.head = head
            return items[head - 1]
        i = blocks.index(blk)
        if head == len(items):
            del blocks[i]
        else:
            nb = fitted(items, head)
            if nb.capacity == blk.capacity:
                blocks[i] = nb
            else:
                del blocks[i]
                self.size -= place(blocks, nb, self.private)
        return items[head - 1]

    def delete_min(self) -> Optional[Item]:
        loc = self.peek_min()
        if loc is None:
            return None
        blk, _ = loc
        return self.pop_head(blk)

    def spill_largest(self) -> Optional[Block]:
        """Detach and return the largest-capacity block."""
        if not self.blocks:
            return None
        blk = self.blocks.pop(0)
        self.size -= len(blk.items) - blk.head
        return blk

    def live_items(self) -> Iterator[Item]:
        for blk in self.blocks:
            for it in blk.items[blk.head:]:
                if self.private or not it.taken:
                    yield it

    def check(self) -> None:
        caps = [b.capacity for b in self.blocks]
        if caps != sorted(caps, reverse=True):
            raise ValueError("blocks not in descending capacity order")
        if len(set(caps)) != len(caps):
            raise ValueError("duplicate block capacities")
        for b in self.blocks:
            b.check()
