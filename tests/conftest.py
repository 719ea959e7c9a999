from hypothesis import settings

from pqbench.core import Item
from pqbench.ranks import DELETE, INSERT, OpRecord

settings.register_profile("quick", max_examples=50, deadline=None)
settings.load_profile("quick")


def item(key: int, seq: int) -> Item:
    """The item ``(key, seq)``, packed as the queues pack it."""
    assert 0 <= seq < 1 << 64, "seq must fit below the key bits"
    return Item(key << 64 | seq)


def key_seq(it: int) -> tuple[int, int]:
    """``(key, seq)`` of an item of any queue kind: every kind returns the
    int ``key << 64 | seq``, a plain int or an :class:`Item`."""
    return divmod(it, 1 << 64)


def drain(delete, *args):
    """Every item ``delete(*args)`` returns, in order, until it returns
    None."""
    out = []
    while True:
        it = delete(*args)
        if it is None:
            return out
        out.append(it)


def is_heap(h):
    """The binary-heap property: no entry is smaller than its parent."""
    return all(not h[i] < h[(i - 1) >> 1] for i in range(1, len(h)))


def brute_ranks(records):
    """Quadratic reference: rank = live (key, seq) <= the deleted one,
    self included."""
    live = []
    ranks = []
    for r in records:
        if r.kind == INSERT:
            live.append((r.key, r.seq))
        else:
            ranks.append(sum(1 for ks in live if ks <= (r.key, r.seq)))
            live.remove((r.key, r.seq))
    return ranks


def random_history(rng, events, key_range=20, ts_gaps=True):
    """A valid interleaved log over four threads with plenty of duplicate
    keys.  Timestamps step by a random 1 or 2 with ``ts_gaps``, else by 1."""
    recs = []
    live = []
    ts = 0
    seq = 0
    while len(recs) < events:
        ts += rng.randrange(1, 3) if ts_gaps else 1
        if live and rng.random() < 0.45:
            key, s = live.pop(rng.randrange(len(live)))
            recs.append(OpRecord(DELETE, key, s, ts, rng.randrange(4)))
        else:
            key = rng.randrange(key_range)
            recs.append(OpRecord(INSERT, key, seq, ts, rng.randrange(4)))
            live.append((key, seq))
            seq += 1
    return recs
