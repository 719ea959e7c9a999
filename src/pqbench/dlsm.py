"""Per-thread queue with cross-thread item copying on local emptiness.

Every registered thread owns a :class:`~pqbench.core.Lsm`; a one-thread
group's, which no spy reads, is a private one, and its klsm handle peeks
the local part directly.
A thread whose local queue runs dry copies ("spies") another thread's
blocks instead of stealing, from the spy's copy of the victim's block
list: one tuple of the victim's live list, taken when needed.  A handle
claims and hands out nothing; it only reads ``taken`` flags.
:meth:`DlsmHandle.peek` names the smallest local item, and a caller that
wins that item in its own claim table, which makes delivery at-most-once
across copies, drops it with :meth:`DlsmHandle.consume`.  A peeked item
is only guaranteed minimal among the calling thread's items.
"""
from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from .core import Block, Item, Lsm, compact, place


class DlsmShared:
    """The registered handles of a thread group."""

    def __init__(self, threads: int):
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.nthreads = threads
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
        # a one-thread group has no spy to read its blocks
        self.local = Lsm(private=shared.nthreads == 1)
        # victim id -> the copy of its blocks this handle saw fully consumed
        self._dead_snaps: dict = {}

    # insert and consume only forward to the local part; they stay methods
    # because perfbench's tracer times dlsm.insert and counts dlsm.consume
    def insert(self, item: Item) -> None:
        self.local.insert(item)

    def peek(self) -> Optional[Tuple[Block, Item]]:
        """Smallest live local entry, spying once if the local queue is dry.

        Nothing is claimed; callers that want the item must win it in the
        claim table and then :meth:`consume` the block head.  A one-thread
        handle has no victim to spy, so its caller calls ``local.peek_min()``.
        """
        loc = self.local.peek_min()
        if loc is not None:
            return loc
        if self.spy() > 0:
            return self.local.peek_min()
        return None

    def consume(self, blk: Block) -> None:
        """Drop a block head that the caller just claimed via :meth:`peek`."""
        self.local.pop_head(blk)

    def spy(self) -> int:
        """Copy the first victim's blocks with a live item into the local
        queue; returns the number of items copied.

        Victims are the other registered handles, scanned round-robin from
        the next owner id.  The copy is one ``tuple`` of the victim's live
        block list, taken in one C call; a shared ``Lsm`` never changes a
        block once built, so a copy taken mid-op may miss items but never
        holds one twice.  :func:`~pqbench.core.compact` drops what other
        threads already took and the rest is placed into the local blocks.
        Items are copied by reference, so their consumption flags stay
        shared with the victim's originals.
        """
        handles = self.shared.handles
        n = len(handles)
        dead = self._dead_snaps
        for step in range(1, n):
            victim = (self.owner + step) % n
            snap = tuple(handles[victim].local.blocks)
            if snap == dead.get(victim):
                # blocks never change and taken flags are one-shot, so the
                # same blocks as a copy once seen fully consumed are still
                # dead; any change to the victim's blocks falls through
                continue
            copied = compact(snap)
            if copied:
                local = self.local
                for blk in copied:
                    local.size += blk.occupancy - place(local.blocks, blk)
                return sum(blk.occupancy for blk in copied)
            dead[victim] = snap
        return 0
