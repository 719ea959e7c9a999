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


def config_from_args(args: argparse.Namespace) -> BenchConfig:
    settings = vars(args).copy()
    del settings["csv"]
    if "k" in settings and args.queue != "klsm":
        print(f"warning: --k only affects the klsm queue; ignored for "
              f"{args.queue}", file=sys.stderr)
    return BenchConfig(**settings)


def _cell(x) -> str:
    return "" if x is None else str(x)


def _used(cfg: BenchConfig):
    """``(k, c)`` as the run used them: None for a queue that ignores one."""
    return (cfg.k if cfg.queue == "klsm" else None,
            cfg.c if cfg.queue == "multiq" else None)


def csv_rows(result: BenchResult) -> List[List[str]]:
    """Header, one row per repetition, then a summary row."""
    if not result.reps:
        raise ValueError("no repetitions to report")
    cfg = result.config
    base = [cfg.queue, *map(_cell, _used(cfg)), str(cfg.threads),
            cfg.workload, cfg.keys, str(cfg.prefill), str(cfg.duration_s)]
    rows = [list(CSV_FIELDS)]
    for r in result.reps:
        rows.append(base + [
            str(r.repetition), str(r.ops_total), str(r.mops_per_sec),
            _cell(r.rank_mean), _cell(r.rank_std), _cell(r.rank_max),
            _cell(cfg.bound), _cell(r.violations), "", "",
        ])
    s = result.summary
    rows.append(base + [
        "mean", str(s.ops_total_mean), str(s.mops_mean),
        _cell(s.rank_mean), _cell(s.rank_std_mean), _cell(s.rank_max),
        _cell(cfg.bound), _cell(s.violations),
        _cell(s.mops_ci95), _cell(s.rank_mean_ci95),
    ])
    return rows


def emit_report(result: BenchResult, path: Optional[str] = None,
                out=None) -> None:
    out = out if out is not None else sys.stdout
    cfg = result.config
    k, c = ("-" if x is None else x for x in _used(cfg))
    print(
        f"queue={cfg.queue} k={k} c={c} threads={cfg.threads} "
        f"workload={cfg.workload} keys={cfg.keys} prefill={cfg.prefill} "
        f"duration={cfg.duration_s}s reps={cfg.reps} mode={cfg.mode} "
        f"bound={'-' if cfg.bound is None else cfg.bound}",
        file=out,
    )
    hdr = (f"{'rep':>5} {'ops_total':>12} {'mops/s':>10} {'rank_mean':>10} "
           f"{'rank_std':>10} {'rank_max':>9} {'viol':>6}")
    print(hdr, file=out)

    def fmt(x, spec="{:.3f}"):
        return "-" if x is None else spec.format(x)

    for r in result.reps:
        print(f"{r.repetition:>5} {r.ops_total:>12} {r.mops_per_sec:>10.4f} "
              f"{fmt(r.rank_mean):>10} {fmt(r.rank_std):>10} "
              f"{fmt(r.rank_max, '{}'):>9} {fmt(r.violations, '{}'):>6}",
              file=out)
    s = result.summary
    ci = "-" if s.mops_ci95 is None else f"{s.mops_ci95:.4f}"
    print(f"{'mean':>5} {s.ops_total_mean:>12.1f} {s.mops_mean:>10.4f} "
          f"{fmt(s.rank_mean):>10} {fmt(s.rank_std_mean):>10} "
          f"{fmt(s.rank_max, '{}'):>9} {fmt(s.violations, '{}'):>6}  "
          f"(mops ±{ci} 95% CI)",
          file=out)

    if path is not None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerows(csv_rows(result))


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
