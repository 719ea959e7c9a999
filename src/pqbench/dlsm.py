"""Per-thread queue with cross-thread item copying on local emptiness.

Every registered thread owns a private :class:`~pqbench.core.Lsm` and
publishes an immutable snapshot of its block list after each structural
change; a one-thread group, which has nobody to spy, publishes nothing,
and its klsm handle peeks the local part directly.
A thread whose local queue runs dry copies ("spies") another thread's
published snapshot instead of stealing.  A handle claims and hands out
nothing; it only reads ``taken`` flags.  :meth:`DlsmHandle.peek` names
the smallest local item, and a caller that wins that item in its own
claim table, which makes delivery at-most-once across copies, drops it
with :meth:`DlsmHandle.consume`.  A peeked item is only guaranteed
minimal among the calling thread's items.
"""
from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from .core import Block, Item, Lsm, compact, place

Snapshot = Tuple[Block, ...]


class DlsmShared:
    """Registered handles and published snapshots for a thread group."""

    def __init__(self, threads: int):
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.nthreads = threads
        self.slots: List[Snapshot] = [() for _ in range(threads)]
        self.handles: List["DlsmHandle"] = []
        self._reg_lock = threading.Lock()

    def register(self) -> "DlsmHandle":
        with self._reg_lock:
            if len(self.handles) >= self.nthreads:
                raise RuntimeError("all thread slots already registered")
            handle = DlsmHandle(self, len(self.handles))
            self.handles.append(handle)
        return handle


class DlsmHandle:
    """Single-owner view; must only be used by its registering thread."""

    __slots__ = ("shared", "owner", "local", "_dead_snaps")

    def __init__(self, shared: DlsmShared, owner: int):
        self.shared = shared
        self.owner = owner
        # a one-thread group publishes nothing: no other reader
        self.local = Lsm(private=shared.nthreads == 1)
        # victim id -> snapshot object this handle saw fully consumed
        self._dead_snaps: dict = {}

    def publish(self) -> None:
        # readers only ever see complete, immutable block tuples; a
        # one-thread group has no spy to read them
        if self.shared.nthreads > 1:
            self.shared.slots[self.owner] = tuple(self.local.blocks)

    def insert(self, item: Item) -> None:
        self.local.insert(item)
        if self.shared.nthreads > 1:  # as publish() tests; saves its frame
            self.publish()

    def peek(self) -> Optional[Tuple[Block, Item]]:
        """Smallest live local entry, spying once if the local queue is dry.

        Nothing is claimed; callers that want the item must win it in the
        claim table and then :meth:`consume` the block head.  A one-thread
        handle has no victim to spy, so its caller calls ``local.peek_min()``.
        """
        loc = self.local.peek_min()
        if loc is not None:
            return loc
        self.publish()
        if self.spy() > 0:
            return self.local.peek_min()
        return None

    def consume(self, blk: Block) -> None:
        """Drop a block head that the caller just claimed via :meth:`peek`."""
        self.local.pop_head(blk)
        if self.shared.nthreads > 1:
            self.publish()

    def spy(self) -> int:
        """Copy the first victim snapshot with a live item into the local
        queue; returns the number of items copied.

        Victims are scanned round-robin from the next thread id.  A
        snapshot's blocks never change, so :func:`~pqbench.core.compact`
        drops what other threads already took and the rest is placed
        into the local blocks.  Items are copied by reference, so their
        consumption flags stay shared with the victim's originals.
        """
        shared = self.shared
        dead = self._dead_snaps
        for step in range(1, shared.nthreads):
            victim = (self.owner + step) % shared.nthreads
            snap = shared.slots[victim]
            if snap is dead.get(victim):
                # consumption flags are one-shot, so a snapshot object once
                # seen fully consumed stays that way; republishing swaps in
                # a new object and falls through this identity check
                continue
            copied = compact(snap)
            if copied:
                local = self.local
                for blk in copied:
                    local.size += blk.occupancy - place(local.blocks, blk)
                self.publish()
                return sum(blk.occupancy for blk in copied)
            dead[victim] = snap
        return 0
