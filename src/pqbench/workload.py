"""Deterministic workload and key generation.

Every thread derives its own independent generator streams from
``(seed, thread id, purpose)`` so runs are reproducible regardless of
scheduling.  Key distributions and the insert/delete decision follow the
benchmark configuration; where keys drift or ops alternate, ``opnum``
counts all operations a thread has generated, prefill included, so such
patterns continue seamlessly from prefill into the measured phase.
"""
from __future__ import annotations

import random
from functools import partial
from typing import List, Optional, Tuple

KEY_KINDS = ("uniform32", "uniform16", "uniform8", "ascending", "descending",
             "unique32")
WORKLOAD_KINDS = ("uniform", "split", "alternating")

INSERT = "insert"
DELETE = "delete"
_DELETE_OP = (DELETE, None)

UNIFORM_BITS = {"uniform32": 32, "uniform16": 16, "uniform8": 8}
DRIFT_RANGE = 1 << 10          # offset range for ascending/descending
DESCENDING_ORIGIN = 1 << 32


def stream(seed: int, thread_id: int, purpose: str) -> random.Random:
    """A private PRNG stream; distinct (thread, purpose) pairs never share
    state.  String seeding makes the derivation platform-independent."""
    return random.Random(f"{seed}/{thread_id}/{purpose}")


class KeyStream:
    """Per-thread key generator for one distribution kind."""

    def __init__(self, kind: str, seed: int, thread_id: int, nthreads: int = 1):
        if kind not in KEY_KINDS:
            raise ValueError(f"unknown key distribution: {kind!r}")
        self.kind = kind
        self.rng = stream(seed, thread_id, "keys")
        if kind == "unique32":
            # reserve low bits for the thread id so threads can never
            # collide, and reject within-thread repeats
            self._tid_bits = (nthreads - 1).bit_length()
            self._tid = thread_id
            self._seen = set()
        # a uniform key as one C call; None for the other kinds
        self.draw = (partial(self.rng.getrandbits, UNIFORM_BITS[kind])
                     if kind in UNIFORM_BITS else None)

    def key(self, opnum: int) -> int:
        kind = self.kind
        rng = self.rng
        if self.draw is not None:
            return self.draw()
        if kind == "ascending":
            return opnum + rng.randrange(DRIFT_RANGE)
        if kind == "descending":
            return max(0, DESCENDING_ORIGIN - opnum - rng.randrange(DRIFT_RANGE))
        # unique32
        bits = 32 - self._tid_bits
        while True:
            k = (rng.getrandbits(bits) << self._tid_bits) | self._tid
            if k not in self._seen:
                self._seen.add(k)
                return k


def inserter_ids(workload: str, nthreads: int) -> List[int]:
    """Threads that ever insert (and therefore share the prefill)."""
    if workload == "split":
        return list(range((nthreads + 1) // 2))
    return list(range(nthreads))


def prefill_shares(total: int, inserters: int) -> List[int]:
    base, extra = divmod(total, inserters)
    return [base + (1 if i < extra else 0) for i in range(inserters)]


class ThreadWorkload:
    """One thread's operation sequence: kind decisions plus keys."""

    def __init__(
        self,
        workload: str,
        keydist: str,
        seed: int,
        thread_id: int,
        nthreads: int,
        depend_on_deleted: bool = False,
    ):
        if workload not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload: {workload!r}")
        self.workload = workload
        self.keys = KeyStream(keydist, seed, thread_id, nthreads)
        self._coin = stream(seed, thread_id, "ops").random
        self.inserter_role = thread_id in inserter_ids(workload, nthreads)
        self.depend_on_deleted = depend_on_deleted
        self.last_deleted: Optional[int] = None
        self.opnum = 0
        # KeyStream.draw, or None where keys may drift from the last deleted
        self._draw = None if depend_on_deleted else self.keys.draw
        # self._draw where an op is the coin and at most that one call
        self._uniform_draw = self._draw if workload == "uniform" else None

    def _next_key(self) -> int:
        if self.depend_on_deleted and self.last_deleted is not None:
            return self.last_deleted + self.keys.rng.randrange(DRIFT_RANGE)
        return self.keys.key(self.opnum)

    def next(self) -> Tuple[str, Optional[int]]:
        """The next operation: (INSERT, key) or (DELETE, None).  Uniform
        keys are drawn in this frame, as :meth:`KeyStream.key` draws them."""
        draw = self._uniform_draw
        if draw is not None:    # no key reads opnum on this path
            return (INSERT, draw()) if self._coin() < 0.5 else _DELETE_OP
        w = self.workload
        if w == "uniform":
            insert = self._coin() < 0.5    # a fair coin
        elif w == "split":
            insert = self.inserter_role
        else:  # alternating
            insert = self.opnum % 2 == 0
        if not insert:
            self.opnum += 1
            return _DELETE_OP
        draw = self._draw
        key = draw() if draw is not None else self._next_key()
        self.opnum += 1
        return INSERT, key

    def prefill_key(self) -> int:
        """An insert for the prefill phase; consumes one opnum like any op
        so drift and parity continue into the measured phase."""
        draw = self._draw
        key = draw() if draw is not None else self._next_key()
        self.opnum += 1
        return key

    def note_deleted(self, key: int) -> None:
        self.last_deleted = key
