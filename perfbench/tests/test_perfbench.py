"""Tests of the benchmark itself (not of pqbench).

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
Workloads are shrunk to tiny prefills and one-second runs.
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402

TINY_PREFILL = 2000


@pytest.fixture
def tiny(monkeypatch):
    for name, wl in list(run.WORKLOADS.items()):
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(
            wl, prefill=min(wl.prefill, TINY_PREFILL)))


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def in_process(job, timeout):
    """Launcher that runs a job in this interpreter, so a test can
    substitute parts of the program."""
    recs = []
    t0 = time.perf_counter()
    child.run_job(job, emit=recs.append)
    return run.split_records(recs, time.perf_counter() - t0, None)


def test_workloads_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert declared("end_to_end") == dict(run.END_TO_END)
    assert declared("per_layer") == run.per_layer_units()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_emits_every_declared_metric(tiny, workload, trace):
    out = run.run_workload(workload, seed=3, seconds=1.0, trace=trace)
    res = out["result"]
    assert res["correct"], out["errors"]
    assert res["attempted"] >= 1
    assert res["failed"] == 0
    want = declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())
    else:
        # both queues reach Lsm.peek_min and Lsm.pop_head, klsm through
        # DlsmHandle.peek and consume
        for name in ("core.lsm_peek_ns.klsm.n", "core.lsm_peek_ns.seqlsm.n",
                     "core.lsm_delete_ns.seqlsm.n"):
            assert res["metrics"][name]["value"] > 0, name


def test_traced_run_pairs_plain_and_wrapped_windows():
    jobs = run.plan(run.WORKLOADS["quality-2t"], 1, 10.0, trace=True)
    tput = [u for u in jobs[0]["units"] if u["kind"] == "tput"]
    for q in run.TPUT_QUEUES:
        mine = [u for u in tput if u["cfg"]["queue"] == q]
        assert sum("section" in u for u in mine) == run.ROUNDS
        assert len(mine) == 2 * run.ROUNDS


class LossyHeap:
    """A LockedHeap that silently drops every tenth item it pops."""

    def __init__(self, heap):
        self.heap = heap
        self.pops = 0

    def register(self, rng=None):
        return self

    def insert(self, key, value=None):
        return self.heap.insert(key, value)

    def delete_min(self):
        it = self.heap.delete_min()
        self.pops += 1
        if it is not None and self.pops % 10 == 0:
            return self.heap.delete_min()
        return it


def test_lossy_queue_raises_error_rate(tiny, monkeypatch):
    from pqbench import bench
    make_queue = bench.make_queue

    def lossy(cfg):
        q = make_queue(cfg)
        return LossyHeap(q) if cfg.queue == "globallock" else q

    monkeypatch.setattr(bench, "make_queue", lossy)
    out = run.run_workload("quality-2t", seed=5, seconds=1.0, trace=False,
                           launch=in_process)
    res = out["result"]
    assert not res["correct"]
    assert res["failed"] > 0 and out["error_rate"] > 0
    assert any("globallock" in e and "lost" in e for e in out["errors"])


def test_watchdog_kills_a_hung_child_and_counts_its_operations():
    wl = run.WORKLOADS["quality-2t"]
    job = {"role": "main", "units": [
        {"kind": "tput", "rep": 0, "cfg": run.unit_cfg(wl, "globallock", 1, 30.0, threads=2)}]}
    t0 = time.perf_counter()
    res = run.launch_child(job, timeout=4.0)
    assert time.perf_counter() - t0 < 15
    assert res.error.startswith("watchdog")
    assert res.records == []
    tally = run.Tally()
    run.account([job], [res], tally)
    assert not tally.correct
    assert tally.failed == tally.attempted > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quality-2t",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_time_metrics_are_rescaled_by_the_reference_speed():
    def rec(kind, queue, ref):
        return {"kind": kind, "queue": queue, "round": 0, "ok": True,
                "mops": 0.1, "wall_s": 1.0, "window_s": 0.5, "events": 1000,
                "rank_n": 0, "ref_mops": ref, "ref_s": 0.0}

    job = {"role": "main", "units": [{}, {}]}
    for ref, factor in ((run.REF_MOPS, 1.0), (2 * run.REF_MOPS, 2.0)):
        res = run.JobResult([rec("tput", "klsm", ref), rec("quality", "klsm", ref)],
                            None, None, 2.0, None)
        m = run.end_to_end([job], [res])
        # a host twice as fast as the reference halves the rescaled figures
        assert m["mops.klsm"] == pytest.approx(0.1 / factor)
        assert m["raw.mops.klsm"] == 0.1
        assert m["quality_overhead_us_per_event"] == pytest.approx(500.0 * factor)
        # child wall 2.0 s minus the 0.5 s window and the 1.0 s quality rep
        assert m["setup_s"] == pytest.approx(0.5 * factor)


def test_rank_quantile_interpolates_within_rank_bins():
    assert child.rank_quantile([1] * 90 + [2] * 9 + [3], 0.99) == 2.0
    assert child.rank_quantile([1] * 50 + [2] * 50, 0.75) == 1.5
    assert child.rank_quantile([], 0.99) == 0.0


def test_rank_check_is_exact_when_keys_repeat():
    from pqbench.ranks import DELETE, INSERT, OpRecord
    ins = [OpRecord(INSERT, k, seq, t, 0)
           for t, (k, seq) in enumerate([(5, 1), (5, 2), (5, 3), (7, 4)], 1)]
    # a strict queue pops (5, 1) then (5, 2): rank 1 each under (key, seq),
    # although three live items share key 5 at the first pop
    strict = ins + [OpRecord(DELETE, 5, 1, 5, 0), OpRecord(DELETE, 5, 2, 6, 0)]
    assert child.rank_violations(strict, 1) == 0
    # (5, 3) ahead of (5, 1) and (5, 2) has rank 3, and so has (7, 4) after it
    wrong = ins + [OpRecord(DELETE, 5, 3, 5, 0), OpRecord(DELETE, 7, 4, 6, 0)]
    assert child.rank_violations(wrong, 1) == 2
    assert child.rank_violations(wrong, 2) == 2
    assert child.rank_violations(wrong, 3) == 0
    assert child.rank_violations(wrong, None) == 0


def test_program_reported_violations_raise_error_rate_but_do_not_fail():
    unit = {"kind": "quality", "cfg": {"prefill": 10, "queue": "globallock"}}
    tally = run.Tally()
    tally.add(unit, {"ok": True, "kind": "quality", "queue": "globallock",
                     "ops": 90, "absent": 0, "violations": 5,
                     "rank_violations": 0}, 90)
    assert tally.correct and tally.failed == 0
    assert tally.error_rate == pytest.approx(0.05)
    tally.add(unit, {"ok": True, "kind": "quality", "queue": "globallock",
                     "ops": 90, "absent": 0, "violations": 2,
                     "rank_violations": 2}, 90)
    assert tally.failed == 2
