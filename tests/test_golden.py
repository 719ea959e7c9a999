"""Fixed-seed behaviour pinned to recorded digests.

Speed work on the LSM and MultiQueue paths must not change which item
any operation returns.  Each case drives a seeded single-thread mix of
inserts and deletes (16-bit keys over a 3 000-item prefill unless the case
names another shape; the harness cases prefill through ``bench._prefill``
at the benchmark's shapes), then drains the queue, and hashes the
seq of every deletion in order (an absent delete hashes as a marker)
together with the shared LSM's final ``version`` (0 for queues without
one).  A mismatch means an operation now returns a different item or the
window is rebuilt at other times; a change meant to do that re-records
the digests and says why.

The rank cases log a fixed-seed run by hand around direct queue calls, one
log per handle, then merge and replay them and hash the rank list, so a
faster replay must give the same ranks for the same history.
"""
import hashlib
import random

import pytest

from conftest import key_seq
from pqbench import bench
from pqbench.baseline import LockedHeap, SeqLsmQueue
from pqbench.klsm import Klsm
from pqbench.multiqueue import MultiQueue
from pqbench.ranks import DELETE, INSERT, OpRecord, merge_logs, replay_ranks

PREFILL = 3000
OPS = 30000


def digest(queue, handles, seed, bits=16, prefill=PREFILL):
    """Hash of every deleted seq, then the drain, then slsm.version."""
    rng = random.Random(seed)
    h = hashlib.sha256()

    def delete(handle):
        it = handle.delete_min()
        h.update(b"-" if it is None else key_seq(it)[1].to_bytes(8, "little"))
        return it

    for _ in range(prefill):
        rng.choice(handles).insert(rng.getrandbits(bits))
    for _ in range(OPS):
        handle = rng.choice(handles)
        if rng.random() < 0.5:
            handle.insert(rng.getrandbits(bits))
        else:
            delete(handle)
    h.update(b"|")
    for handle in handles:
        while delete(handle) is not None:
            pass
    version = queue.slsm.version if isinstance(queue, Klsm) else 0
    h.update(version.to_bytes(8, "little"))
    return h.hexdigest()[:16], version


def klsm_case(k, threads):
    q = Klsm(k, threads)
    return q, [q.register(random.Random(100 + i)) for i in range(threads)]


def multiq_case(threads, c):
    q = MultiQueue(threads, c)
    return q, [q.register(random.Random(100 + i)) for i in range(threads)]


def seqlsm_case():
    q = SeqLsmQueue()
    return q, [q]


def harness_case(seed, keys, **shape):
    """A queue and handles prefilled by the benchmark harness itself; its
    cases pass a prefill of 0 to :func:`digest`."""
    cfg = bench.BenchConfig(keys=keys, seed=seed, **shape)
    queue, wls, handles = bench._build_run(cfg, 0)
    bench._prefill(cfg, wls, handles)
    return queue, handles


CASES = {
    # name: (build, seed, digest, slsm.version[, key bits, prefill])
    "klsm-k4": (lambda: klsm_case(4, 1), 41, "b768e70d039e1fcd", 3255),
    "klsm-k16": (lambda: klsm_case(16, 1), 42, "81e229bdfdcbcdb4", 739),
    "klsm-k256": (lambda: klsm_case(256, 1), 43, "f35fbaabd0600013", 56),
    # the benchmark's uniform-1t shape: 32-bit keys over a 20 000-item
    # prefill reach multi-block shared-LSM window rebuilds
    "klsm-k256-32bit-20k": (lambda: klsm_case(256, 1), 50, "1b67d7ee5acd9f57",
                            231, 32, 20000),
    # two handles driven from one thread: spies and publishes, no races
    "klsm-k16-two-handles": (lambda: klsm_case(16, 2), 44, "a620cb2e6a0e330e", 682),
    "seqlsm": (seqlsm_case, 45, "07df4ebfd2f4b2f6", 0),
    # the heap draws: which heap an insert pushes to, which two a delete
    # compares
    "multiq-1x4": (lambda: multiq_case(1, 4), 48, "dac5561b92f02b6b", 0),
    "multiq-2x4-two-handles": (lambda: multiq_case(2, 4), 49, "68d91798f3b4f8f9", 0),
    # prefilled through bench._prefill at the benchmark's shapes
    "klsm-k256-harness-30k": (
        lambda: harness_case(51, "uniform32", queue="klsm", k=256, prefill=30000),
        51, "b0437d0fbf4ea598", 315, 32, 0),
    "klsm-k16-p2-harness-10k": (
        lambda: harness_case(52, "uniform16", queue="klsm", k=16, threads=2,
                             prefill=10000),
        52, "b6f5d92222cb71db", 1320, 16, 0),
    "seqlsm-harness-30k": (
        lambda: harness_case(53, "uniform32", queue="seqlsm", prefill=30000),
        53, "539d01a523bb7df3", 0, 32, 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixed_seed_deletions_match_recorded_digest(name):
    build, seed, want_digest, want_version, *shape = CASES[name]
    queue, handles = build()
    assert digest(queue, handles, seed, *shape) == (want_digest, want_version)


def rank_digest(handles, seed):
    """Hash of the replayed ranks of a fixed-seed logged run."""
    rng = random.Random(seed)
    logs = [[] for _ in handles]
    for ts in range(PREFILL + OPS):
        t = rng.randrange(len(handles))
        if ts < PREFILL or rng.random() < 0.5:
            it = handles[t].insert(rng.getrandbits(16))
            logs[t].append(OpRecord(INSERT, *key_seq(it), ts, t))
        else:
            it = handles[t].delete_min()
            if it is not None:
                logs[t].append(OpRecord(DELETE, *key_seq(it), ts, t))
    ranks = replay_ranks(merge_logs(logs))
    text = ",".join(map(str, ranks)).encode()
    return hashlib.sha256(text).hexdigest()[:16], len(ranks), max(ranks)


def globallock_case():
    q = LockedHeap()
    return q, [q.register(), q.register()]


RANK_CASES = {
    # name: (build, seed, digest, deletes, max rank)
    "klsm-k16-two-handles": (lambda: klsm_case(16, 2), 46, "160c21de424ab7b4",
                             14905, 25),
    "globallock": (globallock_case, 47, "83091fa2468e6728", 15049, 1),
}


@pytest.mark.parametrize("name", sorted(RANK_CASES))
def test_fixed_seed_ranks_match_recorded_digest(name):
    build, seed, *want = RANK_CASES[name]
    _, handles = build()
    assert rank_digest(handles, seed) == tuple(want)
