"""Shared queue with pivot window: membership, versioning, uniformity."""
import heapq
import math
import random
import threading
from collections import Counter

from hypothesis import given, settings, strategies as st

from conftest import drain, item
from pqbench.core import Block, ClaimTable, compact, fitted, make_seq
from pqbench.klsm import Klsm
from pqbench.slsm import Slsm, _scan_window

# the parts hold no claim table; these tests claim through one, as Klsm does
CLAIMS = ClaimTable()


def shared(k):
    return Slsm(k)


def batch(keys, tid=0, start_seq=0, capacity=None):
    its = sorted((item(k, make_seq(tid) + start_seq + i) for i, k in enumerate(keys)),
                 key=lambda it: (it.key, it.seq))
    cap = capacity
    if cap is None:
        cap = 1
        while cap < len(its):
            cap *= 2
    return Block(cap, its)


def delete_min(s, rng):
    """What ``KlsmHandle.delete_min`` does with the shared part: draw a
    window candidate and win it in the claim table; a lost claim draws
    again."""
    while True:
        it = s.peek_candidate(rng)
        if it is None or CLAIMS.try_claim(it):
            return it


def test_k0_always_returns_exact_minimum():
    s = shared(0)
    rng = random.Random(3)
    keys = [rng.getrandbits(12) for _ in range(200)]
    for i, k in enumerate(keys):
        s.insert_batch(batch([k], start_seq=i))
    got = [it.key for it in drain(delete_min, s, rng)]
    assert got == sorted(keys)


def test_empty_returns_none():
    assert delete_min(shared(4), random.Random(0)) is None


def test_batch_into_empty_window_is_smallest_of_batch():
    s = shared(2)
    s.insert_batch(batch([50, 10, 40, 20, 30, 60, 70, 80]))
    window = sorted(it.key for it in s.window_items())
    assert window == [10, 20, 30]   # min(k+1, n) smallest


def test_window_covers_all_when_small():
    s = shared(10)
    s.insert_batch(batch([5, 1, 3]))
    assert sorted(it.key for it in s.window_items()) == [1, 3, 5]


def test_scan_window_hand_example():
    """Blocks [1,4,9] and [2,3,50] with k=3 give the window 1..4; their
    equal capacities merge on the way."""
    a = Block(4, [item(k, make_seq(0) + i) for i, k in enumerate([1, 4, 9])])
    b = Block(4, [item(k, make_seq(1) + i) for i, k in enumerate([2, 3, 50])])
    blocks, members = _scan_window((a, b), 3)
    assert [it.key for it in members] == [1, 2, 3, 4]   # ascending scan order
    assert [blk.capacity for blk in blocks] == [8]
    assert [it.key for it in blocks[0].items] == [1, 2, 3, 4, 9, 50]


def test_scan_window_moves_heads_on_new_blocks():
    items = [item(k, make_seq(0) + i) for i, k in enumerate([1, 2, 3, 4])]
    a = Block(4, items)
    claims = ClaimTable()
    assert claims.try_claim(items[0]) and claims.try_claim(items[1])
    blocks, members = _scan_window((a,), 1)
    assert a.head == 0 and a.capacity == 4   # a published block is never mutated
    assert blocks[0] is not a and blocks[0].head == 2
    assert blocks[0].capacity == 2           # re-fitted to its 2 live items
    assert [it.key for it in members] == [3, 4]


def heap_scan_window(blocks, k):
    """The k-way head scan _scan_window replaced, as the oracle."""
    blocks = compact(blocks)
    heap = [(blk.items[blk.head], idx, blk.head) for idx, blk in enumerate(blocks)]
    heapq.heapify(heap)
    members = []
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


@st.composite
def shared_blocks(draw):
    """Shared blocks and a window size k drawn against the first block, so
    that block may or may not hold k+1 live items.  Up to four items also
    sit in a second block, as spied copies spilled apart from their
    originals do, and any item may be taken.  ``bury`` takes the k slots
    after the first block's head, so a scan must widen its slice of that
    block past them."""
    seqs = iter(range(1 << 20))
    blocks = []
    for exp in sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=5)),
                      reverse=True):
        cap = 1 << exp
        head = draw(st.integers(0, 3))
        occ = draw(st.integers(cap // 2 + 1, cap))
        keys = draw(st.lists(st.integers(0, 30), min_size=head + occ,
                             max_size=head + occ))
        blocks.append(Block(cap, sorted(item(k, next(seqs)) for k in keys), head))
    n = len(blocks)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)), max_size=4)):
        a, b = blocks[src], blocks[dst]
        copy = draw(st.sampled_from(a.items[a.head:]))
        rest = b.items[:-1]
        # a copy lands at or past the head, once per block
        if copy not in rest and sum(it < copy for it in rest) >= b.head:
            blocks[dst] = Block(b.capacity, sorted(rest + [copy]), b.head)
    first = blocks[0]
    k = draw(st.integers(0, len(first.items) + 2))
    pool = list({id(it): it for b in blocks for it in b.items}.values())
    dead = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    if draw(st.booleans()):  # bury
        buried = {id(it) for it in first.items[first.head + 1:first.head + 1 + k]}
        dead = [d or id(it) in buried for it, d in zip(pool, dead)]
    claims = ClaimTable()
    for it, d in zip(pool, dead):
        if d:
            assert claims.try_claim(it)
    return blocks, k


def shapes(blocks):
    return [(b.capacity, b.head, [id(it) for it in b.items]) for b in blocks]


@settings(max_examples=300)
@given(shared_blocks())
def test_scan_window_matches_sorted_live_oracle(case):
    """The window is the k+1 smallest distinct live items at or past the
    block heads, as the heap scan finds them too, and the blocks are the
    compacted input."""
    blocks, k = case
    live = sorted({it for b in blocks for it in b.items[b.head:] if not it.taken})
    got_blocks, members = _scan_window(tuple(blocks), k)
    want_blocks, want_members = heap_scan_window(tuple(blocks), k)
    assert list(members) == live[:k + 1]
    assert [id(it) for it in members] == [id(it) for it in want_members]
    assert shapes(got_blocks) == shapes(compact(blocks)) == shapes(want_blocks)


def test_scan_window_widens_past_taken_slots():
    """The first block's first k+1 slots hold two live items, so the cut
    is found further on; the other block gives only its items up to it."""
    a = Block(8, [item(k, make_seq(0) + k) for k in range(8)])
    b = Block(4, [item(k, make_seq(1) + k) for k in (2, 5, 6, 9)])
    claims = ClaimTable()
    for it in a.items[1:4]:
        assert claims.try_claim(it)
    _, members = _scan_window((a, b), 3)
    assert [(it.key, it.seq >> 48) for it in members] == [
        (0, 0), (2, 1), (4, 0), (5, 0)]


def test_scan_window_without_a_cut_reads_every_block():
    """A first block with fewer than k+1 live items gives no cut."""
    a = Block(4, [item(k, make_seq(0) + k) for k in (1, 3, 8)])
    b = Block(2, [item(k, make_seq(1) + k) for k in (2, 20)])
    c = Block(1, [item(30, make_seq(2))])
    assert CLAIMS.try_claim(a.items[1])
    _, members = _scan_window((a, b, c), 5)
    assert [it.key for it in members] == [1, 2, 8, 20, 30]


def test_scan_window_of_nothing_live_is_empty():
    a = Block(2, [item(k, make_seq(0) + k) for k in (1, 2)])
    assert CLAIMS.try_claim(a.items[0]) and CLAIMS.try_claim(a.items[1])
    assert _scan_window((a,), 3) == _scan_window((), 3) == ((), ())


def test_window_pick_draws_what_randrange_draws():
    """``peek_candidate`` inlines ``rng.randrange(n)``: from one seed it
    takes the same indices and leaves the generator in the same state."""
    rng, twin = random.Random(77), random.Random(77)
    for n in range(1, 601):
        s = shared(n - 1)
        members = [item(key, key) for key in range(n)]
        s.insert_batch(fitted(members))
        for _ in range(3):
            assert s.peek_candidate(rng) is members[twin.randrange(n)]
    assert rng.getstate() == twin.getstate()


def test_window_holds_an_item_in_two_blocks_once():
    """A live item in two shared blocks (a spied copy spilled apart from
    its original) takes one window slot and counts once."""
    s = shared(3)
    a = [item(k, make_seq(0) + k) for k in (1, 2, 3, 4)]
    s.insert_batch(fitted(a))
    s.insert_batch(fitted([a[1], item(9, 9)]))
    window = s.window_items()
    assert window == a
    assert len(s.live_items()) == 5
    assert sorted(s.live_items()) == a + [item(9, 9)]


def test_shared_blocks_stay_more_than_half_full():
    """Window scans that skip dead prefixes re-fit the blocks they shorten."""
    q = Klsm(16, 1)
    h = q.register(random.Random(5))
    rng = random.Random(6)
    for _ in range(5_000):
        h.insert(rng.getrandbits(32))
    for op in range(20_000):
        if rng.random() < 0.5:
            h.insert(rng.getrandbits(32))
        else:
            h.delete_min()
        if op % 500 == 0:
            for blk in q.slsm._state.blocks:
                blk.check()


def test_version_stable_when_batch_sorts_above_window():
    s = shared(3)
    s.insert_batch(batch([1, 2, 3, 4]))
    v = s.version
    s.insert_batch(batch([100, 200, 300, 400], start_seq=50))
    assert s.version == v
    assert sorted(it.key for it in s.window_items()) == [1, 2, 3, 4]


def test_version_bumps_when_batch_undercuts_window():
    s = shared(3)
    s.insert_batch(batch([10, 20, 30, 40]))
    v = s.version
    s.insert_batch(batch([5], start_seq=50))
    assert s.version > v
    assert 5 in {it.key for it in s.window_items()}


def test_new_global_minimum_joins_window():
    s = shared(2)
    s.insert_batch(batch([10, 20, 30, 40]))
    s.insert_batch(batch([1], start_seq=50))
    assert min(it.key for it in s.window_items()) == 1


def test_window_is_downward_closed_prefix():
    s = shared(5)
    rng = random.Random(9)
    seq = 0
    for _ in range(30):
        keys = [rng.getrandbits(10) for _ in range(rng.randrange(1, 9))]
        s.insert_batch(batch(keys, start_seq=seq))
        seq += 100
        live = sorted(it.key for it in s.live_items())
        window = sorted(it.key for it in s.window_items())
        assert len(window) <= s.k + 1
        assert window == live[:len(window)]


def test_deletion_skips_at_most_k_single_threaded():
    k = 4
    s = shared(k)
    rng = random.Random(17)
    seq = 0
    for _ in range(40):
        keys = [rng.getrandbits(8) for _ in range(rng.randrange(1, 8))]
        s.insert_batch(batch(keys, start_seq=seq))
        seq += 100
    while True:
        live = sorted((it.key, it.seq) for it in s.live_items())
        it = delete_min(s, rng)
        if it is None:
            assert not live
            break
        assert live.index((it.key, it.seq)) + 1 <= k + 1


def test_window_exhaustion_rebuilds_next_smallest():
    k = 2
    s = shared(k)
    s.insert_batch(batch(list(range(1, 9))))   # keys 1..8
    rng = random.Random(1)
    got = {delete_min(s, rng).key for _ in range(3)}   # the whole window 1..3
    assert got == {1, 2, 3}
    # the next pick rebuilds the exhausted window over the survivors
    assert s.peek_candidate(rng).key in {4, 5, 6}
    assert sorted(it.key for it in s.window_items()) == [4, 5, 6]


def test_uniform_pick_chi_square():
    """Window picks over live keys {1..10} with k=4 stay within 5 sigma."""
    k = 4
    trials = 10_000
    counts = Counter()
    s = shared(k)
    s.insert_batch(batch([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]))
    rng = random.Random(123)
    for _ in range(trials):
        it = s.peek_candidate(rng)
        counts[it.key] += 1
    assert set(counts) == {1, 2, 3, 4, 5}
    m = k + 1
    expected = trials / m
    chi2 = sum((counts[key] - expected) ** 2 / expected for key in counts)
    df = m - 1
    assert chi2 <= df + 5 * math.sqrt(2 * df)


def test_conservation_across_batches_and_deletes():
    s = shared(3)
    rng = random.Random(29)
    inserted = []
    seq = 0
    got = []
    for _ in range(50):
        if rng.random() < 0.6 or not inserted:
            keys = [rng.getrandbits(10) for _ in range(rng.randrange(1, 6))]
            s.insert_batch(batch(keys, start_seq=seq))
            seq += 10
            inserted.extend(keys)
        else:
            it = delete_min(s, rng)
            if it is not None:
                got.append(it.key)
    got.extend(it.key for it in drain(delete_min, s, rng))
    assert Counter(got) == Counter(inserted)


def test_insert_batch_of_the_same_block_twice_keeps_one_copy():
    """A block spilled by its owner and again, as a spied copy, by
    another thread."""
    s = shared(2)
    b = batch([1, 2, 2, 5, 8])
    s.insert_batch(b)
    s.insert_batch(b)
    assert sorted(id(it) for it in s.live_items()) == sorted(map(id, b.items))
    assert [it.key for it in s.window_items()] == [1, 2, 2]
    for blk in s._state.blocks:
        blk.check()


def test_insert_batch_skips_dead_items():
    s = shared(4)
    b = batch([1, 2, 3, 4])
    claims = ClaimTable()
    assert claims.try_claim(b.items[0]) and claims.try_claim(b.items[2])
    s.insert_batch(b)
    assert sorted(it.key for it in s.live_items()) == [2, 4]


def test_concurrent_hammer_conserves_items():
    nthreads = 4
    per_thread = 50
    s = shared(8)
    results = [[] for _ in range(nthreads)]
    barrier = threading.Barrier(nthreads)

    def worker(idx):
        rng = random.Random(1000 + idx)
        barrier.wait()
        for b in range(per_thread):
            keys = [rng.getrandbits(12) for _ in range(3)]
            s.insert_batch(batch(keys, tid=idx, start_seq=b * 10))
            it = delete_min(s, rng)
            if it is not None:
                results[idx].append(it)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    leftover = drain(delete_min, s, random.Random(0))
    seqs = [it.seq for per in results for it in per] + [it.seq for it in leftover]
    assert len(seqs) == nthreads * per_thread * 3
    assert len(set(seqs)) == len(seqs)
