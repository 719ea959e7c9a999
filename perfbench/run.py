"""pqbench benchmark: throughput, rank error and quality-mode cost.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload uniform-1t --seed 1 --seconds 10 --trace 0

It drives the program only through its public harness functions
(``run_throughput_rep``, ``run_quality_rep``, ``run_conservation``), each
repetition in a child interpreter (``child.py``) under a watchdog.  Load is
closed-loop: every worker thread is one client that issues its next
operation only after the previous one returned.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the layers under
:mod:`tracer` and prints the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

K = 256
TPUT_QUEUES = ("klsm", "multiq", "globallock", "seqlsm")
RANK_QUEUES = ("klsm", "multiq")
# fresh interpreters running throughput rounds; setup_s is their median
MAIN_CHILDREN = 3
# rounds per run, spread over the main children; each round has one
# quality repetition per rank queue
ROUNDS = 6
# throughput windows per queue in each round: single windows scatter by
# about 15% even after rescaling, so the median needs many of them
WINDOWS_PER_ROUND = 2
# child.reference_mops on the machine the benchmark was tuned on, in a
# steady spell; time-based end-to-end metrics are rescaled to this speed
REF_MOPS = 0.30
# the untimed conservation check runs this long per queue
CHECK_WINDOW_S = 0.2
# the tracemalloc repetition runs this long
MEM_WINDOW_S = 0.3
# the whole run must end within 180 s, watchdog kills included
DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    threads: int
    keys: str
    prefill: int
    quality_queues: Tuple[str, ...]
    tput_share: float  # share of --seconds spent in throughput windows


WORKLOADS: Dict[str, Workload] = {
    # single-thread per-op cost, the honest headline under the GIL; the
    # prefill is far above k, so klsm spills into slsm and uniform keys
    # force window rebuilds; dlsm spy has nothing to copy (control)
    "uniform-1t": Workload(1, "uniform32", 30_000, RANK_QUEUES, 0.6),
    # the ranks layer: duplicate-heavy keys, two threads make the
    # relaxation real (bound k*P+1 = 513)
    "quality-2t": Workload(2, "uniform16", 10_000,
                           RANK_QUEUES + ("globallock",), 0.4),
}

END_TO_END = (
    ("setup_s", "s"),
    ("mops.klsm", "Mops/s"),
    ("mops.multiq", "Mops/s"),
    ("mops.globallock", "Mops/s"),
    ("mops.seqlsm", "Mops/s"),
    ("rank_mean.klsm", "rank"),
    ("rank_p99.klsm", "rank"),
    ("rank_mean.multiq", "rank"),
    ("rank_p99.multiq", "rank"),
    ("quality_overhead_us_per_event", "us/event"),
)

# per-call spans: (metric name, tracer section or None for pooled, span)
SPAN_METRICS = (
    ("workload.next_ns", None, "workload.next"),
    ("core.lsm_insert_ns.klsm", "klsm", "core.lsm_insert"),
    ("core.lsm_insert_ns.seqlsm", "seqlsm", "core.lsm_insert"),
    ("core.lsm_delete_ns.klsm", "klsm", "core.lsm_delete"),
    ("core.lsm_delete_ns.seqlsm", "seqlsm", "core.lsm_delete"),
    ("core.lsm_peek_ns.klsm", "klsm", "core.lsm_peek"),
    ("core.lsm_peek_ns.seqlsm", "seqlsm", "core.lsm_peek"),
    ("dlsm.insert_ns", "klsm", "dlsm.insert"),
    ("slsm.insert_batch_ns", "klsm", "slsm.insert_batch"),
    ("slsm.peek_ns", "klsm", "slsm.peek"),
    ("klsm.insert_ns", "klsm", "klsm.insert"),
    ("klsm.delete_ns", "klsm", "klsm.delete"),
    ("multiq.insert_ns", "multiq", "multiq.insert"),
    ("multiq.delete_ns", "multiq", "multiq.delete"),
    ("baseline.insert_ns.globallock", "globallock", "baseline.insert"),
    ("baseline.delete_ns.globallock", "globallock", "baseline.delete"),
    ("baseline.insert_ns.seqlsm", "seqlsm", "baseline.insert"),
    ("baseline.delete_ns.seqlsm", "seqlsm", "baseline.delete"),
)
# each span metric expands to wall p50, wall p99, busy p50, self p50 (wall
# minus the wrapped calls it made) and sample count
SPAN_FIELDS = (("", "p50", "ns"), (".p99", "p99", "ns"),
               (".busy", "busy_p50", "ns"), (".self", "self_p50", "ns"),
               (".n", "n", "count"))

PER_QUEUE_LAYER = (
    ("bench.prefill_s", "s"),
    ("bench.harness_ns_per_op", "ns/op"),
    ("trace.overhead_mops", "Mops/s"),
)
OTHER_LAYER = (
    ("bench.import_s", "s"),
    ("core.merge_items_per_insert.klsm", "items/insert"),
    ("core.merge_items_per_insert.seqlsm", "items/insert"),
    ("core.claim_fail_ratio", "share"),
    ("slsm.batches_per_insert", "1/insert"),
    ("slsm.rebuilds_per_op", "1/op"),
    ("klsm.local_delete_share", "share"),
    ("klsm.claims_per_delete", "1/delete"),
    ("ranks.merge_ns_per_event", "ns/event"),
    ("ranks.replay_ns_per_event", "ns/event"),
    ("ranks.log_bytes_per_event", "B/event"),
)


def per_layer_units() -> Dict[str, str]:
    units = {}
    for name, _, _ in SPAN_METRICS:
        for suffix, _, unit in SPAN_FIELDS:
            units[name + suffix] = unit
    for name, unit in PER_QUEUE_LAYER:
        for q in TPUT_QUEUES:
            units[f"{name}.{q}"] = unit
    units.update(OTHER_LAYER)
    return units


# ----------------------------------------------------------------------
# jobs

def unit_cfg(wl: Workload, queue: str, seed: int, window: float,
             mode: str = "throughput", threads: int = 1) -> dict:
    return {"queue": queue, "k": K, "threads": threads, "workload": "uniform",
            "keys": wl.keys, "prefill": wl.prefill, "duration_s": window,
            "seed": seed, "mode": mode}


def _rotate(queues: Tuple[str, ...], r: int) -> Tuple[str, ...]:
    # each round starts with another queue, so no queue always runs first
    # in a fresh interpreter
    r %= len(queues)
    return queues[r:] + queues[:r]


def plan(wl: Workload, seed: int, seconds: float, trace: bool) -> List[dict]:
    """The jobs of one run, each a child interpreter, in execution order."""
    nq, nqq = len(TPUT_QUEUES), len(wl.quality_queues)
    # seqlsm is single-threaded; the others run the workload's threads
    threads = {q: 1 if q == "seqlsm" else wl.threads for q in TPUT_QUEUES}
    checks = [{"kind": "conservation", "rep": ROUNDS * WINDOWS_PER_ROUND,
               "cfg": unit_cfg(wl, q, seed, CHECK_WINDOW_S, threads=threads[q])}
              for q in TPUT_QUEUES]
    if not trace:
        # Throughput windows run one thread: two-thread throughput depends
        # on GIL hand-over and on which virtual CPU the host stalls, and
        # spread by up to 37% between seeds.  Rounds are spread over the
        # main children and each round times every queue, so machine-speed
        # drift hits all queues alike.
        win = seconds * wl.tput_share / (ROUNDS * WINDOWS_PER_ROUND * nq)
        qwin = seconds * (1.0 - wl.tput_share) / (ROUNDS * nqq)
        jobs = [{"role": "main", "units": []} for _ in range(MAIN_CHILDREN)]
        for r in range(ROUNDS):
            jobs[r % MAIN_CHILDREN]["units"] += [
                {"kind": "tput", "rep": r * WINDOWS_PER_ROUND + i, "round": r,
                 "cfg": unit_cfg(wl, q, seed, win)}
                for i in range(WINDOWS_PER_ROUND)
                for q in _rotate(TPUT_QUEUES, r + i)] + [
                {"kind": "quality", "rep": r, "round": r,
                 "cfg": unit_cfg(wl, q, seed, qwin, "quality", wl.threads)}
                for q in _rotate(wl.quality_queues, r)]
        jobs.append({"role": "check", "units": checks})
        return jobs
    # One traced child alternates untraced and traced windows of each queue,
    # round by round, so trace.overhead_mops compares medians taken over
    # the same spells of the machine.  Traced throughput keeps the
    # workload's threads, so that wall minus busy shows the time spent
    # waiting for the GIL.
    win = seconds * wl.tput_share / (2 * ROUNDS * nq)
    qwin = seconds * (1.0 - wl.tput_share) / nqq
    units = []
    for r in range(ROUNDS):
        for q in _rotate(TPUT_QUEUES, r):
            plain = {"kind": "tput", "rep": r, "round": r,
                     "cfg": unit_cfg(wl, q, seed, win, threads=threads[q])}
            pair = [plain, dict(plain, section=q)]
            units += pair if r % 2 == 0 else pair[::-1]
    quality = [{"kind": "quality", "rep": 0, "section": "quality." + q,
                "cfg": unit_cfg(wl, q, seed, qwin, "quality", wl.threads)}
               for q in wl.quality_queues]
    mem = {"kind": "quality_mem", "rep": 0, "cfg": unit_cfg(
        wl, "globallock", seed, min(MEM_WINDOW_S, qwin), "quality", wl.threads)}
    return [{"role": "traced", "traced": True, "units": units + quality + [mem]},
            {"role": "check", "units": checks}]


def job_timeout(job: dict) -> float:
    """Generous watchdog limit: the windows three times over, plus set-up."""
    cfgs = [u["cfg"] for u in job["units"]]
    return (30.0 + 3.0 * sum(c["duration_s"] for c in cfgs)
            + 1e-4 * sum(c["prefill"] for c in cfgs))


@dataclass
class JobResult:
    records: List[dict]   # one per finished unit, in unit order
    env: Optional[dict]
    trace: Optional[dict]
    wall_s: float
    error: Optional[str]  # the child died, hung or failed to start


def launch_child(job: dict, timeout: float) -> JobResult:
    """Run ``job`` in a fresh interpreter; kill it after ``timeout`` s."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    error = None
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              timeout=timeout)
        out, err = proc.stdout, proc.stderr
        if proc.returncode != 0:
            error = f"child exited with code {proc.returncode}"
    except subprocess.TimeoutExpired as e:
        out, err = e.stdout or b"", e.stderr or b""
        error = f"watchdog: child killed after {timeout:.1f} s"
    wall = time.perf_counter() - t0
    if err:
        sys.stderr.write(err.decode(errors="replace"))
    recs = [json.loads(line[3:]) for line in out.decode().splitlines()
            if line.startswith("PB ")]
    return split_records(recs, wall, error)


def split_records(recs: List[dict], wall: float, error: Optional[str]) -> JobResult:
    env = next((r for r in recs if r["kind"] == "env"), None)
    trace = next((r for r in recs if r["kind"] == "trace"), None)
    units = [r for r in recs if r["kind"] not in ("env", "trace")]
    return JobResult(units, env, trace, wall, error)


Launcher = Callable[[dict, float], JobResult]


# ----------------------------------------------------------------------
# accounting

class Tally:
    """Operations attempted and failed, and the errors behind failures.

    ``failed`` counts the operations of broken units, items lost or
    fabricated, and deletions over the rank bound under the queues' own
    order ``(key, seq)``.  ``error_rate`` counts the program's own bound
    violations instead of the last, duplicate-key artefact included.
    """

    def __init__(self):
        self.attempted = 0
        self.broken = 0               # ops of failed units, items lost
        self.rank_violations = 0      # exact, checked by the benchmark
        self.reported_violations = 0  # as the program's replay counts them
        self.correct = True
        self.errors: List[str] = []

    def add(self, unit: dict, rec: Optional[dict], typical: int) -> None:
        prefill = unit["cfg"]["prefill"]
        if rec is not None and rec["ok"]:
            self.attempted += prefill + rec["ops"] + rec["absent"]
            self.rank_violations += rec.get("rank_violations", 0)
            self.reported_violations += rec.get("violations", 0)
            if rec["ops"] == 0:
                self.correct = False
                self.errors.append(f"{unit['kind']} {rec['queue']}: no operation completed")
            return
        # the unit's own count is lost with it; charge what its siblings did
        self.correct = False
        guess = prefill + max(1, typical)
        lost = rec.get("lost") if rec is not None else None
        self.attempted += max(guess, lost or 0)
        self.broken += lost if lost is not None else guess
        why = rec["error"] if rec is not None else "no result (child died or was killed)"
        self.errors.append(f"{unit['kind']} {unit['cfg']['queue']}: {why}")

    @property
    def failed(self) -> int:
        return self.broken + self.rank_violations

    @property
    def error_rate(self) -> float:
        bad = self.broken + self.reported_violations
        return bad / self.attempted if self.attempted else 0.0


def account(jobs: List[dict], results: List[JobResult], tally: Tally) -> None:
    done: Dict[Tuple[str, str], List[int]] = {}
    for res in results:
        for rec in res.records:
            if rec["ok"]:
                done.setdefault((rec["kind"], rec["queue"]), []).append(
                    rec["ops"] + rec["absent"])
    for job, res in zip(jobs, results):
        if res.error:
            tally.errors.append(f"{job['role']} job: {res.error}")
            tally.correct = False
        for i, unit in enumerate(job["units"]):
            rec = res.records[i] if i < len(res.records) else None
            seen = done.get((unit["kind"], unit["cfg"]["queue"]), [0])
            tally.add(unit, rec, int(statistics.median(seen)))


# ----------------------------------------------------------------------
# metrics

def _ok(res: JobResult, kind: str) -> List[dict]:
    return [r for r in res.records if r["ok"] and r["kind"] == kind]


def end_to_end(jobs, results) -> Dict[str, float]:
    """The end-to-end metrics, plus ``raw.*`` figures for the report.

    Throughput and quality overhead are rescaled per unit by the speed of
    the reference workload timed around it (``REF_MOPS / ref_mops``), and
    a child's set-up time by the median reference speed of its units, so
    that the host's speed drift cancels; ``raw.*`` are the figures as
    timed.
    """
    m: Dict[str, float] = {}
    setups = []
    mops: Dict[str, List[float]] = {}
    raw: Dict[str, List[float]] = {}
    overhead: Dict[int, List[float]] = {}
    quality = []
    refs = []
    for job, res in zip(jobs, results):
        if job["role"] != "main":
            continue
        tput, qual = _ok(res, "tput"), _ok(res, "quality")
        for rec in tput:
            mops.setdefault(rec["queue"], []).append(
                rec["mops"] * REF_MOPS / rec["ref_mops"])
            raw.setdefault(rec["queue"], []).append(rec["mops"])
        for rec in qual:
            pair = overhead.setdefault(rec["round"], [0.0, 0])
            pair[0] += (rec["wall_s"] - rec["window_s"]) * rec["ref_mops"] / REF_MOPS
            pair[1] += rec["events"]
        quality += qual
        child_refs = [r["ref_mops"] for r in tput + qual]
        refs += child_refs
        if not res.error and len(tput) + len(qual) == len(job["units"]):
            # wall time outside the throughput windows, quality reps and
            # reference measurements
            setup = (res.wall_s - sum(r["window_s"] for r in tput)
                     - sum(r["wall_s"] for r in qual)
                     - sum(r["ref_s"] for r in tput + qual))
            setups.append(setup * statistics.median(child_refs) / REF_MOPS)
    if setups:
        m["setup_s"] = statistics.median(setups)
    for q, xs in mops.items():
        m[f"mops.{q}"] = statistics.median(xs)
        m[f"raw.mops.{q}"] = statistics.median(raw[q])
    if refs:
        m["raw.ref_mops"] = statistics.median(refs)
    for q in RANK_QUEUES:
        recs = [r for r in quality if r["queue"] == q and r["rank_n"]]
        if recs:
            m[f"rank_mean.{q}"] = (sum(r["rank_mean"] * r["rank_n"] for r in recs)
                                   / sum(r["rank_n"] for r in recs))
            m[f"rank_p99.{q}"] = statistics.median(r["rank_p99"] for r in recs)
    per_event = [t / n for t, n in overhead.values() if n]
    if per_event:
        m["quality_overhead_us_per_event"] = statistics.median(per_event) * 1e6
    return m


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _total(recs: List[dict], key: str) -> float:
    return sum(r[key] for r in recs)


def per_layer(jobs, results) -> Dict[str, float]:
    m: Dict[str, float] = {}
    job, traced = jobs[0], results[0]
    if traced.env is not None:
        m["bench.import_s"] = traced.env["import_s"]
    # throughput records, split into untraced and traced windows per queue
    plain: Dict[str, List[dict]] = {}
    wrapped: Dict[str, List[dict]] = {}
    threads = {}
    for unit, rec in zip(job["units"], traced.records):
        if rec["ok"] and rec["kind"] == "tput":
            side = wrapped if "section" in unit else plain
            side.setdefault(rec["queue"], []).append(rec)
            threads[rec["queue"]] = unit["cfg"]["threads"]
    for q, recs in plain.items():
        m[f"bench.prefill_s.{q}"] = statistics.median(
            r["wall_s"] - r["window_s"] for r in recs)
    for q, recs in wrapped.items():
        if q in plain:
            m[f"trace.overhead_mops.{q}"] = (
                statistics.median(r["mops"] for r in recs)
                - statistics.median(r["mops"] for r in plain[q]))
        inside = sum(threads[q] * r["window_s"] * 1e9 - r["outer_ns"] for r in recs)
        m[f"bench.harness_ns_per_op.{q}"] = _ratio(inside, _total(recs, "ops"))
    if traced.trace is None:
        return m
    sections = traced.trace["sections"]
    for name, section, span in SPAN_METRICS:
        spans = (traced.trace["pooled"] if section is None
                 else sections.get(section, {}).get("spans", {}))
        summary = spans.get(span)
        if summary is None and (section is None or section in sections):
            summary = {"n": 0, "p50": 0.0, "p99": 0.0, "busy_p50": 0.0,
                       "self_p50": 0.0}
        if summary is not None:
            for suffix, field, _ in SPAN_FIELDS:
                m[name + suffix] = summary[field]
    for q in ("klsm", "seqlsm"):
        if q in wrapped and q in sections:
            m[f"core.merge_items_per_insert.{q}"] = _ratio(
                sections[q]["counts"].get("core.merge_items", 0),
                _total(wrapped[q], "inserts"))
    if "klsm" in wrapped and "klsm" in sections:
        recs, sec = wrapped["klsm"], sections["klsm"]
        c, spans = sec["counts"], sec["spans"]
        ops, deletes = _total(recs, "ops"), _total(recs, "deletes")
        m["core.claim_fail_ratio"] = _ratio(c.get("core.claim_fail", 0), c.get("core.claim", 0))
        m["slsm.batches_per_insert"] = _ratio(
            spans.get("slsm.insert_batch", {}).get("n", 0), _total(recs, "inserts"))
        m["slsm.rebuilds_per_op"] = _ratio(_total(recs, "slsm_rebuilds"), ops)
        m["klsm.local_delete_share"] = _ratio(c.get("dlsm.consume", 0), deletes)
        m["klsm.claims_per_delete"] = _ratio(c.get("core.claim", 0), deletes)
    quality = _ok(traced, "quality")
    events = sum(r["events"] for r in quality)
    if events:
        for key, name in (("ranks.merge", "ranks.merge_ns_per_event"),
                          ("ranks.replay", "ranks.replay_ns_per_event")):
            total = sum(sections.get("quality." + r["queue"], {})
                        .get("offline_ns", {}).get(key, 0) for r in quality)
            m[name] = total / events
    for r in _ok(traced, "quality_mem"):
        m["ranks.log_bytes_per_event"] = r["peak_bytes"] / r["events"]
    return m


# ----------------------------------------------------------------------
# running a workload

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 launch: Launcher = launch_child) -> dict:
    """Run one workload; returns the result object printed last."""
    wl = WORKLOADS[name]
    start = time.perf_counter()
    env = {"loadavg_1m": os.getloadavg()[0],
           "usable_cores": len(os.sched_getaffinity(0))}
    jobs = plan(wl, seed, seconds, trace)
    results: List[JobResult] = []
    for job in jobs:
        left = DEADLINE_S - (time.perf_counter() - start)
        if left < 5.0:
            results.append(JobResult([], None, None, 0.0, "skipped: run deadline reached"))
            continue
        results.append(launch(job, min(job_timeout(job), left)))
    tally = Tally()
    account(jobs, results, tally)
    child_env = next((r.env for r in results if r.env is not None), {}) or {}
    env.update({k: v for k, v in child_env.items() if k not in ("kind", "import_s")})
    metrics = per_layer(jobs, results) if trace else end_to_end(jobs, results)
    units = per_layer_units() if trace else dict(END_TO_END)
    missing = sorted(set(units) - set(metrics))
    if missing:
        tally.correct = False
        tally.errors.append("metrics not measured: " + ", ".join(missing))
    return {
        "env": env,
        "errors": tally.errors,
        "error_rate": tally.error_rate,
        "violations": {"exact": tally.rank_violations,
                       "reported": tally.reported_violations},
        "raw": {k: v for k, v in metrics.items() if k.startswith("raw.")},
        "result": {
            "correct": tally.correct,
            "attempted": max(1, tally.attempted),
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items() if k in units},
        },
    }


def print_report(name: str, seed: int, trace: bool, out: dict) -> None:
    env = out["env"]
    print(f"pqbench benchmark: workload={name} seed={seed} trace={int(trace)}")
    print("env: " + json.dumps(env, sort_keys=True))
    if not env.get("pinning", False):
        print("WARNING: worker threads ran unpinned; figures are from an unpinned run")
    if env["loadavg_1m"] >= env["usable_cores"]:
        print(f"WARNING: load average {env['loadavg_1m']:.2f} at start on "
              f"{env['usable_cores']} usable cores; figures are from a loaded machine")
    for err in out["errors"]:
        print("ERROR: " + err)
    res = out["result"]
    for k, v in sorted(res["metrics"].items()):
        print(f"{k:40s} {v['value']:>16.6g} {v['unit']}")
    for k, v in sorted(out["raw"].items()):
        print(f"{k:40s} {v:>16.6g} Mops/s (as timed, not rescaled)")
    v = out["violations"]
    print(f"{'rank_bound_violations':40s} {v['exact']:>16d} deletions "
          f"(under (key, seq); the program's replay reports {v['reported']})")
    print(f"{'error_rate':40s} {out['error_rate']:>16.6g} share "
          f"(the program's violations and broken units over "
          f"{res['attempted']} attempted; {res['failed']} failed)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "pqbench", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, args.seed, bool(args.trace), out)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
