"""Relaxed concurrent priority queues with benchmarking harness.

Queues: a sequential block-merge core (`Lsm`), its distributed and shared
concurrent variants (`DlsmShared`, `Slsm`), their composition (`Klsm`,
bounded-rank deletions), a randomized `MultiQueue`, and a strict
`LockedHeap` baseline.  The `bench` and `cli` modules run configurable
throughput and ordering-quality experiments over them.
"""
from .baseline import LockedHeap, SeqLsmQueue
from .bench import (BenchConfig, BenchResult, ConfigError, LogOverflowError,
                    RepResult, SelfCheckError, Summary, WorkerError, mean_ci95,
                    run_benchmark, run_conservation, run_quality_rep,
                    run_throughput_rep)
from .core import Block, ClaimTable, Item, Lsm, fit_capacity, make_seq
from .dlsm import DlsmHandle, DlsmShared
from .klsm import Klsm, KlsmHandle, rank_bound
from .multiqueue import MqHandle, MultiQueue
from .ranks import (CorruptLogError, OpRecord, RankStats, merge_logs,
                    replay_ranks, summarize_ranks)
from .slsm import Slsm
from .workload import KeyStream, ThreadWorkload, inserter_ids, prefill_shares

__version__ = "0.1.0"

__all__ = [
    "BenchConfig", "BenchResult", "Block", "ClaimTable", "ConfigError",
    "CorruptLogError", "DlsmHandle", "DlsmShared", "Item", "Klsm",
    "KlsmHandle", "KeyStream", "LockedHeap", "LogOverflowError", "Lsm",
    "MqHandle", "MultiQueue", "OpRecord", "RankStats", "RepResult",
    "SelfCheckError", "SeqLsmQueue", "Slsm", "Summary", "ThreadWorkload",
    "WorkerError",
    "fit_capacity", "inserter_ids", "make_seq",
    "mean_ci95", "merge_logs", "prefill_shares", "rank_bound",
    "replay_ranks", "run_benchmark", "run_conservation", "run_quality_rep",
    "run_throughput_rep", "summarize_ranks",
]
