"""Sequential block-merge queue: invariants and oracle equivalence."""
import heapq
import random
import threading
from itertools import count

import pytest
from hypothesis import example, given, strategies as st

from conftest import item
import pqbench.core as core
from pqbench.core import (Block, ClaimTable, Item, Lsm, SEQ_THREAD_SHIFT,
                          TakenItem, compact, fit_capacity, fitted, make_seq,
                          merge_sorted_live, place)
from pqbench.slsm import Slsm


def items(keys, start_seq=0, tid=0):
    return [item(k, make_seq(tid) + start_seq + i) for i, k in enumerate(keys)]


def take(*its):
    """Consume items the way a claimant elsewhere would."""
    claims = ClaimTable()
    for it in its:
        assert claims.try_claim(it)


def keys_of(block_or_list):
    seq = block_or_list.items[block_or_list.head:] if isinstance(
        block_or_list, Block) else block_or_list
    return [it.key for it in seq]


# ----------------------------------------------------------------------
# sequence numbers

def test_make_seq_packs_thread_and_counter():
    s = make_seq(3) + 7
    assert s >> SEQ_THREAD_SHIFT == 3
    assert s & ((1 << SEQ_THREAD_SHIFT) - 1) == 7


def test_make_seq_distinct_across_threads():
    seqs = {make_seq(t) + c for t in range(8) for c in range(100)}
    assert len(seqs) == 800


def test_make_seq_keeps_seqs_below_the_key_bits():
    top = (1 << (64 - SEQ_THREAD_SHIFT)) - 1
    assert make_seq(top) + ((1 << SEQ_THREAD_SHIFT) - 1) == (1 << 64) - 1
    with pytest.raises(OverflowError):
        make_seq(top + 1)


# ----------------------------------------------------------------------
# capacity fitting

@pytest.mark.parametrize("occ,cap", [(1, 1), (2, 2), (3, 4), (4, 4), (5, 8),
                                     (7, 8), (8, 8), (9, 16), (1000, 1024)])
def test_fit_capacity_values(occ, cap):
    assert fit_capacity(occ) == cap


@given(st.integers(min_value=1, max_value=10**6))
def test_fit_capacity_is_tight_power_of_two(occ):
    cap = fit_capacity(occ)
    assert cap & (cap - 1) == 0
    assert occ <= cap
    assert cap == 1 or occ > cap // 2


# ----------------------------------------------------------------------
# merging

def test_merge_sorted_live_example():
    a = items([2, 9])
    b = items([5, 7], start_seq=10)
    merged = merge_sorted_live(a, 0, b, 0)
    assert [it.key for it in merged] == [2, 5, 7, 9]


def test_merge_sorted_live_drops_taken():
    a = items([1, 4, 6])
    b = items([2, 3], start_seq=10)
    take(a[1])
    merged = merge_sorted_live(a, 0, b, 0)
    assert [it.key for it in merged] == [1, 2, 3, 6]


def test_merge_sorted_live_respects_start_offsets():
    a = items([1, 2, 3])
    b = items([0, 4], start_seq=10)
    merged = merge_sorted_live(a, 2, b, 1)
    assert [it.key for it in merged] == [3, 4]


@given(st.lists(st.integers(0, 100), max_size=40),
       st.lists(st.integers(0, 100), max_size=40))
def test_merge_sorted_live_equals_sorted_union(ka, kb):
    a = items(sorted(ka))
    b = items(sorted(kb), start_seq=1000)
    merged = merge_sorted_live(a, 0, b, 0)
    assert [(it.key, it.seq) for it in merged] == sorted(
        [(it.key, it.seq) for it in a + b])


def place_pair(a, b):
    """The block :func:`place` makes of two equal-capacity blocks, or None
    when every input item was already consumed."""
    blocks = [a]
    place(blocks, b)
    assert len(blocks) <= 1
    return blocks[0] if blocks else None


def test_merge_blocks_doubles_capacity():
    a = Block(2, items([2, 9]))
    b = Block(2, items([5, 7], start_seq=10))
    m = place_pair(a, b)
    assert m.capacity == 4
    assert keys_of(m) == [2, 5, 7, 9]


def test_merge_blocks_tie_breaks_by_seq():
    young = item(3, make_seq(0))
    old = item(3, make_seq(0) + 5)
    m = place_pair(Block(1, [old]), Block(1, [young]))
    assert m.capacity == 2
    assert [it.seq for it in m.items] == [young.seq, old.seq]


def test_merge_blocks_occupancies_3_and_4():
    a = Block(4, items([1, 5, 9]))
    b = Block(4, items([2, 4, 6, 8], start_seq=10))
    m = place_pair(a, b)
    assert m.capacity == 8
    assert m.occupancy == 7


def test_merge_blocks_shrinks_when_claims_depleted():
    a = Block(4, items([1, 5, 9]))
    b = Block(4, items([2, 4, 6, 8], start_seq=10))
    take(*a.items, *b.items[:2])
    m = place_pair(a, b)
    assert keys_of(m) == [6, 8]
    assert m.capacity == 2


def test_merge_blocks_all_dead_gives_none():
    a = Block(1, items([1]))
    b = Block(1, items([2], start_seq=1))
    take(a.items[0], b.items[0])
    assert place_pair(a, b) is None


def test_merge_keeps_one_copy_of_an_item_in_both_blocks():
    """A spied copy of a block spilled next to its original."""
    blk = Block(4, items([1, 2, 2, 5]))
    m = place_pair(blk, fitted(blk.items))
    assert [id(it) for it in m.items] == [id(it) for it in blk.items]
    m.check()
    # the copy's head moved on and one shared item was taken since
    take(blk.items[3])
    m = place_pair(blk, fitted(blk.items, 1))
    assert [id(it) for it in m.items] == [id(it) for it in blk.items[:3]]
    m.check()


def test_place_walks_back_after_a_shrinking_merge():
    """A merge whose claims shrink it below the blocks the carry already
    passed merges with those on its way back to its slot."""
    a = Block(4, items([1, 2, 3, 4]))
    b = Block(2, items([5, 6], start_seq=10))
    c = Block(1, items([7], start_seq=20))
    d = Block(4, items([8, 9, 10], start_seq=30))
    take(*a.items[:3], *d.items)
    blocks = [a, b, c]
    place(blocks, d)
    assert [blk.capacity for blk in blocks] == [4]
    assert keys_of(blocks[0]) == [4, 5, 6, 7]
    blocks[0].check()


@st.composite
def placements(draw):
    """A valid descending block list, a block to place into it, and which
    items other claimants took; seqs are distinct across all blocks."""
    seqs = iter(range(1 << 20))

    def block(exp):
        cap = 1 << exp
        head = draw(st.integers(0, 2))
        occ = draw(st.integers(cap // 2 + 1, cap))
        keys = sorted(draw(st.lists(st.integers(0, 9), min_size=head + occ,
                                    max_size=head + occ)))
        return Block(cap, [item(k, next(seqs)) for k in keys], head)

    exps = draw(st.sets(st.integers(0, 5)))
    blocks = [block(e) for e in sorted(exps, reverse=True)]
    blk = block(draw(st.integers(0, 5)))
    pool = [it for b in blocks + [blk] for it in b.items]
    dead = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    take(*(it for it, d in zip(pool, dead) if d))
    return blocks, blk


def live_ids(blocks):
    return sorted(id(it) for b in blocks for it in b.items[b.head:]
                  if not it.taken)


@given(placements())
def test_place_keeps_distinct_descending_capacities_and_live_items(case):
    blocks, blk = case
    want = live_ids(blocks + [blk])
    place(blocks, blk)
    caps = [b.capacity for b in blocks]
    assert caps == sorted(set(caps), reverse=True)
    for b in blocks:
        b.check()
    assert live_ids(blocks) == want


@given(placements())
def test_place_reports_the_slots_its_merges_dropped(case):
    """What ``place`` returns keeps an occupancy count exact: the slots
    before, plus the placed block's, minus the drops, are the slots after."""
    blocks, blk = case
    before = sum(b.occupancy for b in blocks) + blk.occupancy
    dropped = place(blocks, blk)
    assert dropped >= 0
    assert sum(b.occupancy for b in blocks) == before - dropped


def pairwise_place(blocks, blk):
    """The carry chain place replaced, which builds a fitted block after
    every merge, as the oracle."""
    dropped = 0
    i = len(blocks)
    while i and blocks[i - 1].capacity <= blk.capacity:
        i -= 1
        b = blocks[i]
        if b.capacity == blk.capacity:
            del blocks[i]
            merged = merge_sorted_live(b.items, b.head, blk.items, blk.head)
            dropped += (len(b.items) - b.head + len(blk.items) - blk.head
                        - len(merged))
            if not merged:
                return dropped
            blk = fitted(merged)
            if blk.capacity < b.capacity:
                i = len(blocks)
    blocks.insert(i, blk)
    return dropped


def shapes(blocks):
    return [(b.capacity, b.head, [id(it) for it in b.items]) for b in blocks]


@given(placements())
def test_place_matches_pairwise_place(case):
    """Carrying the merged list builds the same blocks, and reports the
    same drops, as building a block after every merge."""
    blocks, blk = case
    twin = list(blocks)
    assert place(blocks, blk) == pairwise_place(twin, blk)
    assert shapes(blocks) == shapes(twin)


def test_merges_go_through_the_module_global(monkeypatch):
    """Tracers count merged items by patching ``core.merge_sorted_live``;
    every Lsm merge, private or shared, and every Slsm merge must look it
    up there."""
    merged = []
    real = core.merge_sorted_live

    def counting(*args):
        out = real(*args)
        merged.append(len(out))
        return out

    monkeypatch.setattr(core, "merge_sorted_live", counting)
    for private in (False, True):
        lsm = Lsm(private)
        for it in items([3, 1, 2, 5, 4]):
            lsm.insert(it)
        for _ in range(3):  # the third pop leaves [5], which merges with [4]
            lsm.delete_min()
        assert merged == [2, 2, 4, 2]
        merged.clear()
    s = Slsm(4)
    s.insert_batch(Block(2, items([1, 4])))
    s.insert_batch(Block(2, items([2, 3], start_seq=10)))
    assert merged == [4]


# ----------------------------------------------------------------------
# item order (oracle)

# (key, seq, taken) with few distinct keys, so ties on key are common
entries = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1 << 20),
                             st.booleans()),
                   unique_by=lambda e: e[1], max_size=40)


def made(es, parity=0):
    # distinct parities keep three lists' seqs apart but interleaved
    its = [item(k, 3 * s + parity) for k, s, _ in es]
    take(*(it for it, (_, _, dead) in zip(its, es) if dead))
    return its


def two_way_merge(items_a, start_a, items_b, start_b):
    """The Python merge loop merge_sorted_live replaced, as the oracle."""
    out = []
    i, j = start_a, start_b
    na, nb = len(items_a), len(items_b)
    while i < na and j < nb:
        a, b = items_a[i], items_b[j]
        if a.taken:
            i += 1
            continue
        if b.taken:
            j += 1
            continue
        if (a.key, a.seq) < (b.key, b.seq):
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
    out.extend(it for it in items_a[i:] if not it.taken)
    out.extend(it for it in items_b[j:] if not it.taken)
    return out


# (key, seq, taken) over the whole item range: negative and wide keys, key
# ties, and seqs up to the top of their 64 bits
wide_entries = st.lists(
    st.tuples(st.one_of(st.integers(-2, 2), st.integers()),
              st.integers(0, (1 << 64) - 1), st.booleans()),
    unique_by=lambda e: e[1], max_size=40)


@given(wide_entries)
@example([(-1, (1 << 64) - 1, True), (0, 0, False), (-1, 0, False),
          (0, (1 << 64) - 1, True), (-(1 << 70), 1, True), (1 << 70, 2, False)])
def test_items_order_as_key_seq_tuples(es):
    its = [item(k, s) for k, s, _ in es]
    hashes = [hash(it) for it in its]
    order = [id(it) for it in sorted(its)]
    take(*(it for it, (_, _, dead) in zip(its, es) if dead))
    assert [(it.key, it.seq, it.taken) for it in its] == es
    assert [type(it) for it in its] == [TakenItem if dead else Item
                                        for _, _, dead in es]
    assert [hash(it) for it in its] == hashes
    by_key_seq = sorted(its, key=lambda it: (it.key, it.seq))
    assert [id(it) for it in sorted(its)] == [id(it) for it in by_key_seq]
    assert [id(it) for it in by_key_seq] == order
    if its:
        assert min(its) is by_key_seq[0]
    for a, b in zip(by_key_seq, by_key_seq[1:]):
        assert a < b and not b < a and a != b


@given(entries, entries, entries, st.integers(0, 40), st.integers(0, 40))
def test_merge_sorted_live_matches_two_way_merge(ea, eb, es, start_a, start_b):
    """The items of ``es`` sit in both inputs, taken or not, as a spied
    copy spilled next to its original does; the oracle keeps both copies
    of such an item, so its second copies are dropped here."""
    shared = made(es, parity=2)
    a = sorted(made(ea) + shared)
    b = sorted(made(eb, parity=1) + shared)
    start_a, start_b = min(start_a, len(a)), min(start_b, len(b))
    got = merge_sorted_live(a, start_a, b, start_b)
    want = list(dict.fromkeys(two_way_merge(a, start_a, b, start_b)))
    assert [id(it) for it in got] == [id(it) for it in want]


def pair_merged_three_ways(x, y):
    """The one-item tails [x] and [y] merged by the pair fast path, by the
    general path (forced by a taken item that sorts last) and by the
    oracle, which keeps both copies of an item in both inputs, so its
    second copy is dropped here."""
    pad = item(1 << 40, 1 << 40)
    take(pad)
    fast = merge_sorted_live([item(-1, 0), x], 1, [y], 0)
    general = merge_sorted_live([x, pad], 0, [y], 0)
    oracle = list(dict.fromkeys(two_way_merge([x], 0, [y], 0)))
    return ([id(it) for it in fast], [id(it) for it in general],
            [id(it) for it in oracle])


@pytest.mark.parametrize("dead", ["none", "left", "right", "both"])
@pytest.mark.parametrize("keys", [(5, 3), (3, 5), (4, 4)])
def test_pair_merge_matches_general_path_and_oracle(keys, dead):
    """Both orders of x and y (and a key tie broken by seq), each with
    neither, one or both of them taken."""
    x, y = item(keys[0], 2), item(keys[1], 1)
    if dead in ("left", "both"):
        take(x)
    if dead in ("right", "both"):
        take(y)
    fast, general, oracle = pair_merged_three_ways(x, y)
    assert fast == general == oracle
    assert len(fast) == (dead == "none") + (dead in ("none", "left", "right"))


@pytest.mark.parametrize("plain", [False, True])
@pytest.mark.parametrize("keys", [(5, 3), (3, 5), (4, 4)])
def test_private_pair_merge_matches_sorted_tails(keys, plain):
    """A private merge of two one-item tails orders them by one compare,
    as sorting the tails would, for Items and for plain ints; the items
    before ``start`` are left out."""
    x, y = item(keys[0], 2), item(keys[1], 1)
    if plain:
        x, y = int(x), int(y)
    for a, i in (([x], 0), ([y - 1, x], 1)):
        for b, j in (([y], 0), ([x - 1, y], 1)):
            got = merge_sorted_live(a, i, b, j, True)
            assert got == sorted(a[i:] + b[j:])
            assert [id(it) for it in got] == [id(it) for it in sorted([x, y])]


@pytest.mark.parametrize("dead", [False, True])
def test_pair_merge_of_one_item_with_itself_keeps_one_copy(dead):
    x = item(5, 1)
    if dead:
        take(x)
    fast, general, oracle = pair_merged_three_ways(x, x)
    assert fast == general == oracle == ([] if dead else [id(x)])


# ----------------------------------------------------------------------
# block invariants

def test_block_check_accepts_valid():
    Block(4, items([1, 2, 3])).check()
    Block(1, items([5])).check()


def test_block_check_rejects_bad_capacity():
    with pytest.raises(ValueError):
        Block(3, items([1, 2, 3])).check()


def test_block_check_rejects_underfull():
    with pytest.raises(ValueError):
        Block(8, items([1, 2, 3])).check()


def test_block_check_rejects_unsorted():
    bad = [item(5, make_seq(0)), item(1, make_seq(0) + 1)]
    with pytest.raises(ValueError):
        Block(2, bad).check()


# ----------------------------------------------------------------------
# LSM shape

def test_insert_into_empty_makes_singleton_block():
    lsm = Lsm()
    lsm.insert(item(42, make_seq(0)))
    assert [b.capacity for b in lsm.blocks] == [1]


def test_three_inserts_make_capacities_2_and_1():
    lsm = Lsm()
    for i, k in enumerate([5, 1, 9]):
        lsm.insert(item(k, make_seq(0) + i))
    assert sorted(b.capacity for b in lsm.blocks) == [1, 2]


def test_fourth_insert_collapses_to_single_block():
    lsm = Lsm()
    for i in range(4):
        lsm.insert(item(i, make_seq(0) + i))
    assert [b.capacity for b in lsm.blocks] == [4]


@given(st.integers(min_value=1, max_value=200))
def test_capacities_follow_binary_decomposition(n):
    lsm = Lsm()
    for i in range(n):
        lsm.insert(item(i * 7 % 31, make_seq(0) + i))
    caps = sorted((b.capacity for b in lsm.blocks), reverse=True)
    binary = [1 << b for b in range(n.bit_length()) if n >> b & 1]
    assert caps == sorted(binary, reverse=True)
    lsm.check()


def test_delete_min_returns_global_minimum():
    lsm = Lsm()
    for i, k in enumerate([5, 2, 9]):
        lsm.insert(item(k, make_seq(0) + i))
    assert lsm.delete_min().key == 2


def test_delete_min_empty_returns_none():
    assert Lsm().delete_min() is None


def test_peek_then_delete_agree():
    lsm = Lsm()
    for i, k in enumerate([5, 2, 9]):
        lsm.insert(item(k, make_seq(0) + i))
    blk, it = lsm.peek_min()
    assert it.key == 2
    assert lsm.delete_min() is it


def test_size_counts_live_items():
    lsm = Lsm()
    for i in range(10):
        lsm.insert(item(i, make_seq(0) + i))
    assert lsm.size == 10
    lsm.delete_min()
    assert lsm.size == 9 == sum(b.occupancy for b in lsm.blocks)


# ----------------------------------------------------------------------
# oracle equivalence

def test_thousand_inserts_then_deletes_match_heap_oracle():
    rng = random.Random(20260823)
    lsm = Lsm()
    oracle = []
    for i in range(1000):
        key = rng.getrandbits(16)
        lsm.insert(item(key, make_seq(0) + i))
        heapq.heappush(oracle, (key, make_seq(0) + i))
    out = []
    while True:
        it = lsm.delete_min()
        if it is None:
            break
        out.append((it.key, it.seq))
    assert out == [heapq.heappop(oracle) for _ in range(1000)]
    assert not oracle


def test_mixed_ops_match_heap_oracle_with_invariants():
    rng = random.Random(7)
    lsm = Lsm()
    oracle = []
    for i in range(3000):
        if oracle and rng.random() < 0.45:
            got = lsm.delete_min()
            want = heapq.heappop(oracle)
            assert (got.key, got.seq) == want
        else:
            key = rng.getrandbits(12)
            lsm.insert(item(key, make_seq(0) + i))
            heapq.heappush(oracle, (key, make_seq(0) + i))
        if i % 64 == 0:
            lsm.check()
    lsm.check()


def test_shrink_rule_halves_capacity():
    """Consuming down to half occupancy halves the block's capacity."""
    lsm = Lsm()
    for i in range(8):
        lsm.insert(item(i, make_seq(0) + i))
    assert [b.capacity for b in lsm.blocks] == [8]
    for _ in range(4):
        lsm.delete_min()
    assert [b.capacity for b in lsm.blocks] == [4]
    lsm.check()


def test_shrink_merges_on_capacity_collision():
    """A shrinking block merges with an existing block of the target size."""
    lsm = Lsm()
    for i in range(12):   # capacities 8 + 4
        lsm.insert(item(i, make_seq(0) + i))
    assert sorted(b.capacity for b in lsm.blocks) == [4, 8]
    for _ in range(4):    # the cap-8 block holds keys 0..7, so its head dies
        lsm.delete_min()
    lsm.check()
    assert lsm.size == 8
    assert [b.capacity for b in lsm.blocks] == [8]


# ----------------------------------------------------------------------
# private blocks: merged without the live filter, popped in place

def shape(lsm):
    return [(b.capacity, b.items[b.head:]) for b in lsm.blocks]


# an op list: a key to insert, or None to delete the minimum
ops_lists = st.lists(st.one_of(st.none(), st.integers(0, 7)), max_size=300)


@given(st.integers(0, 300), ops_lists)
@example(256, [None] * 257)             # every pop of a full 256-block
@example(0, [0] * 256 + [None] * 200)   # merges of every size up to 256
@example(256, [None] * 100 + [0] * 300)  # a carry into a block popped in place
def test_private_lsm_matches_shared_after_every_op(prefill, ops):
    """A private Lsm of plain ints holds the same items in the same blocks
    as a shared one of Items fed the same ops; only where a head lives
    differs.  The private one never reads a ``taken`` flag."""
    private, shared = Lsm(private=True), Lsm()
    start = items([k * 37 % 11 for k in range(prefill)])
    seqs = count(make_seq(0) + prefill)
    private.fill(list(map(int, start)))
    shared.fill(start)
    assert shape(private) == shape(shared)
    for op in ops:
        if op is None:
            got = private.delete_min()
            assert got == shared.delete_min()
            assert got is None or type(got) is int
        else:
            it = item(op, next(seqs))
            private.insert(int(it))
            shared.insert(it)
        assert private.size == shared.size
        assert shape(private) == shape(shared)
        private.check()
    assert all(type(it) is int for it in private.live_items())
    assert list(private.live_items()) == list(shared.live_items())


def test_private_pop_moves_the_head_in_place_until_the_block_shrinks():
    lsm = Lsm(private=True)
    lsm.fill(items(range(8)))
    blk = lsm.blocks[0]
    for head in (1, 2, 3):
        lsm.delete_min()
        assert lsm.blocks == [blk] and blk.head == head
    lsm.delete_min()   # half full: re-placed at capacity 4, as shared does
    assert [(b.capacity, keys_of(b)) for b in lsm.blocks] == [(4, [4, 5, 6, 7])]
    assert lsm.blocks[0] is not blk and blk.head == 3


# ----------------------------------------------------------------------
# dead-prefix compaction

def killed_heads_lsm():
    """Blocks 8 (keys 0..7), 4 (8..11), 2 (12, 13); remote claims take
    keys 0..3 and 12..13, so the 8-block drops to half full and the
    2-block empties."""
    lsm = Lsm()
    for i in range(14):
        lsm.insert(item(i, make_seq(0) + i))
    table = ClaimTable()
    for it in lsm.live_items():
        if it.key < 4 or it.key >= 12:
            assert table.try_claim(it)
    return lsm


def test_compact_leaves_its_input_untouched():
    lsm = killed_heads_lsm()
    before = [(b, b.capacity, b.head, list(b.items)) for b in lsm.blocks]
    compact(lsm.blocks)
    assert [(b, b.capacity, b.head, list(b.items)) for b in lsm.blocks] == before


def test_compact_refits_and_merges_killed_blocks():
    lsm = killed_heads_lsm()
    lsm.blocks = compact(lsm.blocks)
    lsm.check()
    # the re-fitted 4-block merged with the old one; the 2-block is gone
    assert [b.capacity for b in lsm.blocks] == [8]
    assert sorted(it.key for it in lsm.live_items()) == list(range(4, 12))


def test_peek_min_after_killed_heads_is_live_minimum():
    lsm = killed_heads_lsm()
    _, it = lsm.peek_min()
    assert it.key == 4 and not it.taken
    lsm.check()


# ----------------------------------------------------------------------
# claim table

def test_claim_is_one_shot():
    table = ClaimTable()
    it = item(1, make_seq(0))
    assert table.try_claim(it)
    assert not table.try_claim(it)
    assert it.taken


def test_claims_leave_every_stripe_free():
    """A won claim, a claim of an item already taken and a claim lost
    inside the lock all release their stripe."""
    table = ClaimTable()

    def free():
        return not any(lock.locked() for lock in table._locks)

    it = item(1, make_seq(0) + 5)
    assert table.try_claim(it) and free()
    assert not table.try_claim(it) and free()

    class LosesTheRace(Item):
        """Taken by another claimant between the unlocked and the locked
        check."""
        __slots__ = ()
        taken = property(lambda self, reads=count(): next(reads) > 0)

    assert not table.try_claim(LosesTheRace(2 << 64 | make_seq(0) + 6))
    assert free()


def test_one_claimant_table_hands_out_each_item_once():
    """A table for one claimant takes no lock, yet still sets the flag
    that copies elsewhere are skipped by; the default table locks."""
    assert len(ClaimTable()._locks) == core.CLAIM_LOCKS
    table = ClaimTable(1)
    assert table._locks == []
    pool = items(range(100))
    won = [table.try_claim(it) for it in pool + pool]
    assert won == [True] * 100 + [False] * 100
    assert all(type(it) is TakenItem for it in pool)


def test_concurrent_claims_deliver_each_item_once():
    table = ClaimTable()
    pool = items(range(2000))
    wins = [0] * 4

    def worker(idx):
        w = 0
        for it in pool:
            if table.try_claim(it):
                w += 1
        wins[idx] = w

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(wins) == len(pool)
