"""Per-thread queues with spy copying: locality, duplication, conservation."""
import heapq
import os
import random
import sys
import threading

import pytest

from conftest import drain, item
import pqbench.core as core
import pqbench.dlsm as dlsm
from pqbench.core import ClaimTable, compact, make_seq
from pqbench.dlsm import DlsmShared

# the parts hold no claim table; these tests claim through one, as Klsm does
CLAIMS = ClaimTable()


def group(threads):
    return DlsmShared(threads)


def fill(handle, keys):
    for i, k in enumerate(keys):
        handle.insert(item(k, make_seq(handle.owner) + i))


def delete_min(handle):
    """What ``KlsmHandle.delete_min`` does with the local part: peek, win
    the item in the claim table, then consume it; a lost claim peeks
    again."""
    while True:
        loc = handle.peek()
        if loc is None:
            return None
        blk, it = loc
        if CLAIMS.try_claim(it):
            handle.consume(blk)
            return it


def test_register_assigns_distinct_slots():
    shared = group(3)
    owners = [shared.register().owner for _ in range(3)]
    assert sorted(owners) == [0, 1, 2]
    with pytest.raises(RuntimeError):
        shared.register()


def test_single_thread_matches_heap_oracle():
    shared = group(1)
    h = shared.register()
    rng = random.Random(11)
    oracle = []
    for i in range(2000):
        if oracle and rng.random() < 0.45:
            got = delete_min(h)
            assert (got.key, got.seq) == heapq.heappop(oracle)
        else:
            key = rng.getrandbits(12)
            h.insert(item(key, make_seq(0) + i))
            heapq.heappush(oracle, (key, make_seq(0) + i))
    got = drain(delete_min, h)
    assert [(it.key, it.seq) for it in got] == sorted(oracle)


def test_locality_before_any_spy():
    shared = group(2)
    h0, h1 = shared.register(), shared.register()
    fill(h0, [1, 3, 5])
    fill(h1, [2, 4, 6])
    assert sorted(it.key for it in h0.local.live_items()) == [1, 3, 5]
    assert sorted(it.key for it in h1.local.live_items()) == [2, 4, 6]


def test_delete_returns_local_min_not_global():
    shared = group(2)
    h0, h1 = shared.register(), shared.register()
    fill(h0, [4, 8])
    fill(h1, [1])
    assert delete_min(h0).key == 4


def test_spy_copies_victim_when_local_empty():
    shared = group(2)
    h0, h1 = shared.register(), shared.register()
    fill(h1, [7, 9])
    assert delete_min(h0).key == 7


def test_all_empty_returns_none():
    shared = group(2)
    h0, _ = shared.register(), shared.register()
    assert delete_min(h0) is None


def test_spy_with_single_thread_copies_nothing():
    shared = group(1)
    h = shared.register()
    assert h.spy() == 0


def test_spy_reports_victim_item_count():
    shared = group(2)
    h0, h1 = shared.register(), shared.register()
    fill(h1, [10, 20, 30, 40, 50])
    assert h0.spy() == 5


def test_consecutive_spies_copy_identical_snapshot():
    shared = group(3)
    h0, h1, h2 = (shared.register() for _ in range(3))
    fill(h0, [3, 1, 4, 1, 5])
    first = sorted((it.key, it.seq) for it in h1.local.live_items()) if h1.spy() else []
    second = sorted((it.key, it.seq) for it in h2.local.live_items()) if h2.spy() else []
    assert first and first == second


def test_published_snapshots_satisfy_block_invariants():
    """The copy a spy takes of a victim's block list holds valid blocks."""
    shared = group(2)
    h0, _ = shared.register(), shared.register()
    rng = random.Random(5)
    for i in range(500):
        h0.insert(item(rng.getrandbits(10), make_seq(0) + i))
        if rng.random() < 0.3:
            delete_min(h0)
    for blk in tuple(h0.local.blocks):   # as a spy copies it
        blk.check()


def test_published_snapshot_blocks_never_change():
    """Pops, inserts and spills after a spy copied a victim's block list
    build new blocks; the copied blocks keep their head, capacity and
    items."""
    shared = group(2)
    h0, _ = shared.register(), shared.register()
    fill(h0, range(7))               # blocks of capacity 4, 2 and 1
    snap = tuple(h0.local.blocks)    # as a spy copies it
    before = [(blk.head, blk.capacity, blk.items, list(blk.items))
              for blk in snap]
    for _ in range(3):
        assert delete_min(h0) is not None
    for i in range(7, 12):
        h0.insert(item(i, make_seq(0) + i))
    assert h0.local.spill_largest() is not None
    assert not set(snap) & set(h0.local.blocks)
    assert [(blk.head, blk.capacity) for blk in snap] == [
        (head, cap) for head, cap, _, _ in before]
    for blk, (_, _, items, contents) in zip(snap, before):
        assert blk.items is items and items == contents
        blk.check()


def test_spy_skips_fully_consumed_snapshots():
    """A victim whose blocks hold only dead items must not hide victims
    further along."""
    shared = group(3)
    h0, h1, h2 = (shared.register() for _ in range(3))
    fill(h1, [1, 2, 3])
    for it in list(h1.local.live_items()):   # other claimants take them
        assert CLAIMS.try_claim(it)
    assert h1.local.blocks
    fill(h2, [42])
    assert delete_min(h0).key == 42


def test_claims_prevent_double_delivery_after_spy():
    shared = group(2)
    h0, h1 = shared.register(), shared.register()
    fill(h0, range(100))
    # h1 copies everything h0 published, then both race to delete
    assert h1.spy() == 100
    seen = [it.seq for h in (h0, h1) for it in drain(delete_min, h)]
    assert len(seen) == 100
    assert len(set(seen)) == 100


def test_concurrent_hammer_conserves_items():
    nthreads = 4
    per_thread = 300
    shared = group(nthreads)
    handles = [shared.register() for _ in range(nthreads)]
    got = [[] for _ in range(nthreads)]
    barrier = threading.Barrier(nthreads)

    def worker(idx):
        rng = random.Random(idx)
        h = handles[idx]
        barrier.wait()
        inserted = 0
        while inserted < per_thread:
            if rng.random() < 0.6:
                h.insert(item(rng.getrandbits(16), make_seq(idx) + inserted))
                inserted += 1
            else:
                it = delete_min(h)
                if it is not None:
                    got[idx].append(it)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for idx in range(nthreads):
        got[idx].extend(drain(delete_min, handles[idx]))
    seqs = [it.seq for per in got for it in per]
    assert len(seqs) == nthreads * per_thread
    assert len(set(seqs)) == len(seqs)


def test_spy_memoizes_dead_copies_until_the_victims_blocks_change(
        monkeypatch):
    shared = group(2)
    a, b = shared.register(), shared.register()
    fill(b, [1, 2])
    assert delete_min(a).key == 1
    assert delete_min(a).key == 2
    assert delete_min(a) is None
    # b's blocks proven fully consumed
    assert a._dead_snaps[1] == tuple(b.local.blocks)
    scans = []
    monkeypatch.setattr(dlsm, "compact",
                        lambda blocks: scans.append(blocks) or compact(blocks))
    assert delete_min(a) is None      # served by the memo, not a rescan
    assert not scans
    b.insert(item(3, make_seq(1) + 2))  # b's blocks change
    assert delete_min(a).key == 3
    assert len(scans) == 1


def test_one_thread_group_keeps_a_private_local_part():
    """With one thread no spy can read the local blocks, so the local part
    is a private ``Lsm`` and a spy finds no victim; with two it is shared."""
    shared = group(1)
    h = shared.register()
    assert h.local.private
    fill(h, [3, 1, 2])
    assert delete_min(h).key == 1
    assert h.spy() == 0
    assert [it.key for it in drain(delete_min, h)] == [2, 3]
    assert not group(2).register().local.private


def test_kept_size_matches_block_occupancy_after_every_op(monkeypatch):
    """``Lsm.size`` is a kept count.  It must equal the summed block
    occupancy after every op: through remote claims in the shared claim
    table, spies, pops that shrink a block, spills, and merges that drop
    taken items."""
    drops = []
    place = core.place

    def counting_place(*args):
        dropped = place(*args)
        drops.append(dropped)
        return dropped

    monkeypatch.setattr(core, "place", counting_place)
    shared = group(2)
    handles = [shared.register(), shared.register()]
    counters = [0, 0]
    copied = 0
    rng = random.Random(23)
    for _ in range(4000):
        h = rng.choice(handles)
        r = rng.random()
        if r < 0.45:
            h.insert(item(rng.getrandbits(8), make_seq(h.owner) + counters[h.owner]))
            counters[h.owner] += 1
        elif r < 0.7:
            delete_min(h)
        elif r < 0.88:
            # another thread claims one of this handle's live items
            live = list(h.local.live_items())
            if live:
                assert CLAIMS.try_claim(rng.choice(live))
        elif r < 0.96:
            copied += h.spy()
        else:
            h.local.spill_largest()
        for g in handles:
            assert g.local.size == sum(
                blk.occupancy for blk in g.local.blocks)
    assert copied > 0
    assert any(drops)


PQBENCH_DIR = os.path.dirname(core.__file__)


def copy_at_every_line(victim, on_copy, op, *args):
    """Run ``op(*args)`` with ``on_copy(tuple(victim.local.blocks))`` called
    at every line that pqbench runs inside it, as a spy on another thread
    could copy the block list between any two of the victim's lines.
    Claims are left out: they change no block, and ``on_copy`` may claim
    too, which would wait for the lock the victim holds."""
    def on_line(frame, event, arg):
        if event == "line":
            on_copy(tuple(victim.local.blocks))
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if (code.co_filename.startswith(PQBENCH_DIR)
                and code is not ClaimTable.try_claim.__code__):
            return on_line
        return None

    sys.settrace(on_call)
    try:
        return op(*args)
    finally:
        sys.settrace(None)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spy_copies_taken_between_any_two_lines_are_sound(seed):
    """A spy copies the victim's live block list mid-op.  Every copy must
    hold valid blocks, no item twice, and only items that were live before
    the op or are being inserted.  A thief whose deletes, spies included,
    run at random lines of the victim's inserts, deletes and spills must
    then leave every item delivered exactly once after a drain."""
    shared = group(2)
    victim, thief = shared.register(), shared.register()
    rng = random.Random(seed)
    inserted, delivered, spilled = [], [], []
    copies = 0

    for op in range(800):
        live = set(victim.local.live_items())
        r = rng.random()
        if r < 0.6 or op < 100:
            it = item(rng.getrandbits(16), make_seq(0) + len(inserted))
            inserted.append(it)
            live.add(it)
            call = (victim.insert, it)
        elif r < 0.85 or victim.local.size <= 64:
            call = (delete_min, victim)
        else:
            call = (victim.local.spill_largest,)
        # the thief deletes during one op in four
        steal_at = rng.randrange(32)
        lines = 0

        def on_copy(snap):
            nonlocal copies, lines
            copies += 1
            slots = [it for blk in snap for it in blk.items[blk.head:]]
            assert len(set(slots)) == len(slots), "an item copied twice"
            assert {it for it in slots if not it.taken} <= live
            for blk in snap:
                blk.check()
            if lines == steal_at:   # the thief runs here
                got = delete_min(thief)
                if got is not None:
                    delivered.append(got)
            lines += 1

        got = copy_at_every_line(victim, on_copy, *call)
        if call[0] is delete_min and got is not None:
            delivered.append(got)
        elif call[0] is victim.local.spill_largest:
            spilled.append(got)
        for h in (victim, thief):
            h.local.check()
            assert h.local.size == sum(blk.occupancy for blk in h.local.blocks)

    assert copies > 10_000
    delivered += drain(delete_min, victim) + drain(delete_min, thief)
    for blk in spilled:   # what the shared part would hand out
        delivered += filter(CLAIMS.try_claim, blk.items[blk.head:])
    assert sorted(delivered) == sorted(inserted)
