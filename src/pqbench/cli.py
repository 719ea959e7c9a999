"""Command-line front end for the benchmark harness."""
from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import List, Optional

from .bench import (MODES, QUEUE_KINDS, BenchConfig, BenchResult, ConfigError,
                    LogOverflowError, SelfCheckError, WorkerError,
                    run_benchmark)
from .ranks import CorruptLogError
from .workload import KEY_KINDS, WORKLOAD_KINDS

CSV_FIELDS = (
    "queue", "k", "c", "threads", "workload", "keydist", "prefill",
    "duration", "repetition", "ops_total", "mops_per_sec", "rank_mean",
    "rank_std", "rank_max", "bound", "violations",
    "ci95_mops_per_sec", "ci95_rank_mean",
)


def build_parser() -> argparse.ArgumentParser:
    """One flag per :class:`BenchConfig` field, defaulting to the field's
    own default, plus ``--csv``."""
    d = BenchConfig()
    p = argparse.ArgumentParser(
        prog="pqbench",
        description="Throughput and ordering-quality benchmarks for "
                    "relaxed concurrent priority queues.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--queue", choices=QUEUE_KINDS, default=d.queue,
                   help="queue kind")
    # absent unless given, so that a --k for another queue can be told apart
    p.add_argument("--k", type=int, default=argparse.SUPPRESS,
                   help=f"relaxation parameter for klsm (default: {d.k})")
    p.add_argument("--c", type=int, default=d.c,
                   help="sub-queues per thread for multiq")
    p.add_argument("--threads", type=int, default=d.threads,
                   help="worker threads")
    p.add_argument("--workload", choices=WORKLOAD_KINDS, default=d.workload,
                   help="operation mix")
    p.add_argument("--keys", choices=KEY_KINDS, default=d.keys,
                   help="key distribution")
    p.add_argument("--prefill", type=int, default=d.prefill,
                   help="items inserted before each timed window")
    p.add_argument("--duration-s", type=float, default=d.duration_s,
                   dest="duration_s", help="seconds per timed window")
    p.add_argument("--reps", type=int, default=d.reps, help="repetitions")
    p.add_argument("--seed", type=int, default=d.seed,
                   help="seed of repetition 0")
    p.add_argument("--mode", choices=MODES, default=d.mode,
                   help="quality also logs every operation to replay ranks")
    p.add_argument("--csv", metavar="PATH",
                   help="write per-repetition rows plus a summary row here")
    p.add_argument("--depend-on-deleted", action="store_true",
                   default=d.depend_on_deleted,
                   help="experimental: inserted keys drift from the last "
                        "key this thread deleted")
    return p


def _used(cfg: BenchConfig):
    """``(k, c)`` as the run used them: None for a queue that ignores one."""
    return (cfg.k if cfg.queue == "klsm" else None,
            cfg.c if cfg.queue == "multiq" else None)


def config_from_args(args: argparse.Namespace) -> BenchConfig:
    settings = vars(args).copy()
    del settings["csv"]
    cfg = BenchConfig(**settings)
    if "k" in settings and _used(cfg)[0] is None:
        print(f"warning: --k only affects the klsm queue; ignored for "
              f"{cfg.queue}", file=sys.stderr)
    return cfg


def _cell(x) -> str:
    return "" if x is None else str(x)


def _rows(result: BenchResult):
    """Each report row once: every repetition, then the mean, as ``(label,
    ops, mops, rank_mean, rank_std, rank_max, violations, mops_ci95,
    rank_mean_ci95)``; a repetition has no intervals."""
    for r in result.reps:
        yield (r.repetition, r.ops_total, r.mops_per_sec, r.rank_mean,
               r.rank_std, r.rank_max, r.violations, None, None)
    s = result.summary
    yield ("mean", s.ops_total_mean, s.mops_mean, s.rank_mean,
           s.rank_std_mean, s.rank_max, s.violations, s.mops_ci95,
           s.rank_mean_ci95)


def csv_rows(result: BenchResult) -> List[List[str]]:
    """Header, one row per repetition, then a summary row."""
    if not result.reps:
        raise ValueError("no repetitions to report")
    cfg = result.config
    base = [cfg.queue, *map(_cell, _used(cfg)), str(cfg.threads),
            cfg.workload, cfg.keys, str(cfg.prefill), str(cfg.duration_s)]
    return [list(CSV_FIELDS)] + [
        base + [*map(_cell, row[:6]), _cell(cfg.bound), *map(_cell, row[6:])]
        for row in _rows(result)]


def emit_report(result: BenchResult, path: Optional[str] = None) -> None:
    def fmt(x, spec="{:.3f}"):
        return "-" if x is None else spec.format(x)

    cfg = result.config
    k, c = (fmt(x, "{}") for x in _used(cfg))
    print(f"queue={cfg.queue} k={k} c={c} threads={cfg.threads} "
          f"workload={cfg.workload} keys={cfg.keys} prefill={cfg.prefill} "
          f"duration={cfg.duration_s}s reps={cfg.reps} mode={cfg.mode} "
          f"bound={fmt(cfg.bound, '{}')}")
    print(f"{'rep':>5} {'ops_total':>12} {'mops/s':>10} {'rank_mean':>10} "
          f"{'rank_std':>10} {'rank_max':>9} {'viol':>6}")
    for label, ops, mops, mean, std, top, viol, mops_ci, _ in _rows(result):
        tail = ""
        if label == "mean":
            ops = f"{ops:.1f}"
            tail = f"  (mops ±{fmt(mops_ci, '{:.4f}')} 95% CI)"
        print(f"{label:>5} {ops:>12} {mops:>10.4f} {fmt(mean):>10} "
              f"{fmt(std):>10} {fmt(top, '{}'):>9} {fmt(viol, '{}'):>6}{tail}")

    if path is not None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            csv.writer(f, lineterminator="\n").writerows(csv_rows(result))


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(args)
    try:
        cfg.validate()
    except ConfigError as e:
        parser.error(str(e))   # exits with code 2 and usage text
    if args.csv is not None:  # fail before the run, not after it
        new = not os.path.lexists(args.csv)
        try:  # append mode truncates nothing
            open(args.csv, "a").close()
            if new:
                os.remove(args.csv)
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return 1
    try:
        result = run_benchmark(cfg)
    except (SelfCheckError, LogOverflowError, WorkerError,
            CorruptLogError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        emit_report(result, args.csv)
    except OSError as e:
        print(f"error: cannot write report: {e}", file=sys.stderr)
        return 1
    if result.summary.violations:
        print(f"error: {result.summary.violations} deletions exceeded the "
              f"rank bound {result.config.bound}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
