"""Relaxed concurrent priority queues with benchmarking harness.

``import pqbench`` gives the four queue kinds the harness runs: the
k-LSM (`Klsm`, whose deletions stay within `rank_bound`), a randomized
`MultiQueue`, a strict `LockedHeap` baseline and the single-threaded
`SeqLsmQueue`.  The rest stays in submodules, loaded on import: the
harness in `pqbench.bench`, the command line in `pqbench.cli`, the rank
replay in `pqbench.ranks`, the LSM blocks in `pqbench.core` and the
operation streams in `pqbench.workload`.
"""
from .baseline import LockedHeap, SeqLsmQueue
from .klsm import Klsm, rank_bound
from .multiqueue import MultiQueue

__version__ = "0.1.0"

__all__ = ["Klsm", "LockedHeap", "MultiQueue", "SeqLsmQueue", "rank_bound"]
