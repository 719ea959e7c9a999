"""The k-LSM rank bound is reachable: deterministic single-thread histories
over P handles whose largest deletion rank is exactly k*P + 1.

The bound counts k items hidden in each of the other P-1 handles' local
parts plus the k+1 members of the shared window.  Each history builds that
worst case on purpose: every other handle keeps its k smallest keys local,
the deleting handle keeps only keys above everything else, and its one
window pick draws the window's largest member.  A queue that hides more
items, or draws from a wider window, deletes a rank above the bound; one
that hides fewer stays below it.  Either way the test fails.
"""
import random
from itertools import count

import pytest

from conftest import brute_ranks
from pqbench.klsm import Klsm, rank_bound
from pqbench.ranks import DELETE, INSERT, OpRecord, replay_ranks


class TopDraw:
    """Stands in for a handle's rng for one window pick: the pick's
    rejection loop counts down from ``2**bits - 1`` and so accepts
    ``n - 1``, the window's largest member."""

    def __init__(self):
        self._draws = None

    def getrandbits(self, bits):
        if self._draws is None:
            self._draws = count((1 << bits) - 1, -1)
        return next(self._draws)


def edge_history(k, threads):
    """A logged history over ``threads`` handles whose first deletion,
    through handle 0, has rank ``k * threads + 1``.

    Then every other handle inserts k keys below all others and handle 0
    draws the window's largest member again: a local part that holds at
    most k items spills some of them into the window, so the rank stays
    within the bound, but one that held 2k would hide them all.  Last,
    handle 0 drains the queue.
    """
    q = Klsm(k, threads)
    handles = [q.register(random.Random(t)) for t in range(threads)]
    log = []

    def insert(t, key):
        it = handles[t].insert(key)
        log.append(OpRecord(INSERT, it.key, it.seq, len(log) + 1, t))

    def delete(t, rng):
        handles[t].rng = rng
        it = handles[t].delete_min()
        if it is not None:
            log.append(OpRecord(DELETE, it.key, it.seq, len(log) + 1, t))
        return it

    # Inserting n = k + m*top keys into an empty local part spills the
    # first m*top of them, in order, and keeps the last k (Lsm.fill's
    # shape); four spill blocks per handle put more than 2k+1 items in the
    # shared part.  They go in descending order, so that each spill sorts
    # below the window and rebuilds it to its full k+1 members.  Keys, from
    # the smallest: the late keys, the kept keys of handles 1..P-1, the
    # spilled keys, and handle 0's kept keys.
    top = 1 << (k + 1).bit_length() - 1
    spill = 4 * top
    hidden = k * (threads - 1)
    middle = 2 * hidden
    large = middle + spill * threads
    for t in range(threads):
        for key in reversed(range(middle + t * spill,
                                  middle + (t + 1) * spill)):
            insert(t, key)
        kept = (range(large, large + k) if t == 0
                else range(hidden + (t - 1) * k, hidden + t * k))
        for key in kept:
            insert(t, key)
    assert delete(0, TopDraw()) is not None

    for t in range(1, threads):
        for key in range((t - 1) * k, t * k):
            insert(t, key)
    assert delete(0, TopDraw()) is not None

    rng = random.Random(99)
    while delete(0, rng) is not None:
        pass
    return log


@pytest.mark.parametrize("k,threads", [(1, 2), (4, 2), (4, 3), (16, 2)])
def test_deletion_rank_reaches_the_bound(k, threads):
    log = edge_history(k, threads)
    ranks = replay_ranks(log)
    assert ranks == brute_ranks(log)
    bound = rank_bound(k, threads)
    assert ranks[0] == bound
    assert max(ranks) == bound
    assert 2 * len(ranks) == len(log)     # the drain took every item
