"""Workload generators: ranges, roles, determinism, prefill continuation."""
import hashlib
import math
from collections import Counter

import pytest

from pqbench.workload import (DELETE, INSERT, KeyStream, ThreadWorkload,
                              inserter_ids, prefill_shares, stream)


def test_streams_are_deterministic_and_distinct():
    a = stream(7, 0, "keys")
    b = stream(7, 0, "keys")
    c = stream(7, 1, "keys")
    d = stream(7, 0, "ops")
    ra = [a.random() for _ in range(10)]
    assert ra == [b.random() for _ in range(10)]
    assert ra != [c.random() for _ in range(10)]
    assert ra != [d.random() for _ in range(10)]


def test_uniform8_range_and_chi_square():
    ks = KeyStream("uniform8", seed=1, thread_id=0)
    draws = [ks.key(i) for i in range(100_000)]
    assert all(0 <= k <= 255 for k in draws)
    counts = Counter(draws)
    expected = len(draws) / 256
    chi2 = sum((counts.get(v, 0) - expected) ** 2 / expected for v in range(256))
    df = 255
    assert chi2 <= df + 5 * math.sqrt(2 * df)


def test_uniform16_and_32_ranges():
    k16 = KeyStream("uniform16", seed=1, thread_id=0)
    k32 = KeyStream("uniform32", seed=1, thread_id=0)
    vals16 = [k16.key(i) for i in range(10_000)]
    vals32 = [k32.key(i) for i in range(10_000)]
    assert all(0 <= v < 1 << 16 for v in vals16)
    assert all(0 <= v < 1 << 32 for v in vals32)
    assert max(vals32) >= 1 << 16   # actually uses the wide range


def test_ascending_window_at_origin_and_drift():
    ks = KeyStream("ascending", seed=3, thread_id=0)
    assert 0 <= ks.key(0) <= 1023
    k = ks.key(10**6)
    assert 10**6 <= k <= 10**6 + 1023


def test_descending_from_origin_with_clamp():
    ks = KeyStream("descending", seed=3, thread_id=0)
    top = ks.key(0)
    assert (1 << 32) - 1023 <= top <= 1 << 32
    assert ks.key(1 << 33) == 0    # far beyond the origin clamps at zero


def test_unique32_never_repeats_within_thread():
    ks = KeyStream("unique32", seed=5, thread_id=0, nthreads=1)
    draws = [ks.key(i) for i in range(50_000)]
    assert len(set(draws)) == len(draws)


def test_unique32_threads_are_disjoint_by_construction():
    a = KeyStream("unique32", seed=5, thread_id=0, nthreads=4)
    b = KeyStream("unique32", seed=5, thread_id=3, nthreads=4)
    da = {a.key(i) for i in range(5000)}
    db = {b.key(i) for i in range(5000)}
    assert all(k % 4 == 0 for k in da)
    assert all(k % 4 == 3 for k in db)
    assert not da & db


def test_unknown_kinds_rejected():
    with pytest.raises(ValueError):
        KeyStream("zipf", seed=0, thread_id=0)
    with pytest.raises(ValueError):
        ThreadWorkload("burst", "uniform32", 0, 0, 1)


def test_alternating_emits_insert_delete_pattern():
    wl = ThreadWorkload("alternating", "uniform32", seed=2, thread_id=0, nthreads=1)
    kinds = [wl.next()[0] for _ in range(4)]
    assert kinds == [INSERT, DELETE, INSERT, DELETE]


def test_split_thread0_of_2_always_inserts():
    wl = ThreadWorkload("split", "uniform32", seed=2, thread_id=0, nthreads=2)
    assert all(wl.next()[0] == INSERT for _ in range(100))
    wd = ThreadWorkload("split", "uniform32", seed=2, thread_id=1, nthreads=2)
    assert all(wd.next()[0] == DELETE for _ in range(100))


def test_split_has_ceil_half_inserters():
    assert inserter_ids("split", 2) == [0]
    assert inserter_ids("split", 5) == [0, 1, 2]
    assert inserter_ids("split", 8) == [0, 1, 2, 3]
    assert inserter_ids("uniform", 3) == [0, 1, 2]


def test_uniform_coin_within_5_sigma():
    wl = ThreadWorkload("uniform", "uniform32", seed=4, thread_id=0, nthreads=1)
    n = 100_000
    inserts = sum(1 for _ in range(n) if wl.next()[0] == INSERT)
    p = 0.5
    assert abs(inserts - n * p) <= 5 * math.sqrt(n * p * (1 - p))


def test_insert_fraction_is_respected():
    """Every thread of a uniform run tosses its own fair coin."""
    n = 50_000
    for tid in range(3):
        wl = ThreadWorkload("uniform", "uniform16", seed=5, thread_id=tid,
                            nthreads=3)
        inserts = sum(1 for _ in range(n) if wl.next()[0] == INSERT)
        assert abs(inserts - n * 0.5) <= 5 * math.sqrt(n * 0.5 * 0.5), tid


def test_prefill_shares_divide_evenly():
    assert prefill_shares(10, 3) == [4, 3, 3]
    assert prefill_shares(9, 3) == [3, 3, 3]
    assert prefill_shares(2, 4) == [1, 1, 0, 0]
    assert sum(prefill_shares(10**6, 7)) == 10**6


def test_prefill_continues_opnum_into_main_phase():
    """Ascending drift carries on where the prefill stopped."""
    wl = ThreadWorkload("split", "ascending", seed=6, thread_id=0, nthreads=2)
    for _ in range(500):
        wl.prefill_key()
    kind, key = wl.next()
    assert kind == INSERT
    assert 500 <= key <= 500 + 1023


def test_dependent_keys_drift_from_last_deleted():
    wl = ThreadWorkload("uniform", "uniform32", seed=8, thread_id=0, nthreads=1,
                        depend_on_deleted=True)
    wl.note_deleted(10_000)
    keys = []
    for _ in range(50):
        kind, key = wl.next()
        if kind == INSERT:
            keys.append(key)
    assert keys
    assert all(10_000 <= k < 10_000 + 1024 for k in keys)


def test_same_seed_same_stream_per_thread():
    a = ThreadWorkload("uniform", "uniform16", seed=11, thread_id=2, nthreads=4)
    b = ThreadWorkload("uniform", "uniform16", seed=11, thread_id=2, nthreads=4)
    assert [a.next() for _ in range(200)] == [b.next() for _ in range(200)]


# ----------------------------------------------------------------------
# fixed-seed streams pinned to recorded digests

def stream_digest(workload, keys, depend_on_deleted=False):
    """Hash of the prefill keys and then the ops of threads 0 and 2 of 3.

    Under ``split`` thread 0 only inserts and thread 2 only deletes.  With
    ``depend_on_deleted`` every delete reports a key derived from the op
    count, so the dependent key path is drawn from too.
    """
    h = hashlib.sha256()
    for tid in (0, 2):
        wl = ThreadWorkload(workload, keys, seed=21, thread_id=tid, nthreads=3,
                            depend_on_deleted=depend_on_deleted)
        for _ in range(300):
            h.update(b"p%d," % wl.prefill_key())
        for i in range(3000):
            kind, key = wl.next()
            h.update(f"{kind}:{key},".encode())
            if depend_on_deleted and kind == DELETE:
                wl.note_deleted(7 * i)
    return h.hexdigest()[:16]


STREAM_DIGESTS = {
    # (workload, keys, depend_on_deleted): digest
    ('uniform', 'uniform32', False): 'bbf08281c562830e',
    ('uniform', 'uniform16', False): '1768a202381108bb',
    ('uniform', 'uniform8', False): '119bff1d2cdc2445',
    ('uniform', 'ascending', False): '543a8b0a78f05b13',
    ('uniform', 'descending', False): '6261ccc42fdba7f3',
    ('uniform', 'unique32', False): '106046b3fcb1c541',
    ('split', 'uniform32', False): '6c075ad4dda19b7d',
    ('split', 'uniform16', False): '752a22a0a42f02ae',
    ('split', 'uniform8', False): '19bfcc24b4de445a',
    ('split', 'ascending', False): '3ca6cde07cd198d7',
    ('split', 'descending', False): 'befa076724978914',
    ('split', 'unique32', False): 'cd0a3d73285c73e2',
    ('alternating', 'uniform32', False): '3fdc7473674e3219',
    ('alternating', 'uniform16', False): '5d88a389dcaae94d',
    ('alternating', 'uniform8', False): 'ef3110933681e077',
    ('alternating', 'ascending', False): '41caf18117037a7e',
    ('alternating', 'descending', False): '9b7cafb4e721718f',
    ('alternating', 'unique32', False): '33a31a318e4de686',
    ('uniform', 'uniform32', True): '13846eb1afe05e82',
}


@pytest.mark.parametrize("case", sorted(STREAM_DIGESTS))
def test_fixed_seed_stream_matches_recorded_digest(case):
    assert stream_digest(*case) == STREAM_DIGESTS[case]
