"""Smoke test for ``tools/direct_ops.py`` at tiny counts."""
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "direct_ops.py")


def test_every_kind_reports_ns_per_op():
    out = subprocess.run(
        [sys.executable, TOOL, "--prefill", "200", "--ops", "400",
         "--rounds", "2"],
        check=True, capture_output=True, text=True, timeout=60).stdout
    got = dict(re.findall(r"^(\w+) +([\d.]+) ns/op", out, re.M))
    assert sorted(got) == sorted(["globallock", "multiq", "seqlsm", "klsm"])
    assert all(float(ns) > 0 for ns in got.values())


def test_gc_collections_count_tracked_allocations_only():
    """Collections per 1 000 timed ops: a plain-int heap allocates nothing
    the cyclic collector tracks, klsm's items are tracked."""
    out = subprocess.run(
        [sys.executable, TOOL, "--queue", "globallock", "--queue", "klsm",
         "--prefill", "3000", "--ops", "6000", "--rounds", "2"],
        check=True, capture_output=True, text=True, timeout=60).stdout
    got = dict(re.findall(r"^(\w+) .* ([\d.]+) gc/1k ops ", out, re.M))
    assert float(got["globallock"]) == 0
    assert float(got["klsm"]) > 0


def test_two_sources_report_a_ratio_and_wins():
    src = os.path.join(ROOT, "src")
    out = subprocess.run(
        [sys.executable, TOOL, "--src", src, "--src", src, "--queue",
         "globallock", "--prefill", "100", "--ops", "200", "--rounds", "1",
         "--pairs", "2"],
        check=True, capture_output=True, text=True, timeout=60).stdout
    assert re.search(r"^globallock second/first [\d.]+, second faster in "
                     r"[012] of 2 pairs$", out, re.M), out
    assert re.search(r"^globallock raw second/first [\d.]+, second faster "
                     r"in [012] of 2 pairs$", out, re.M), out


def test_every_kind_reports_rescaled_ns_per_op():
    """Next to the raw figure, each kind's ns/op rescaled by the reference
    workload timed around each pass."""
    out = subprocess.run(
        [sys.executable, TOOL, "--prefill", "200", "--ops", "400",
         "--rounds", "2"],
        check=True, capture_output=True, text=True, timeout=60).stdout
    got = dict(re.findall(r"^(\w+) +[\d.]+ ns/op .* ([\d.]+) rescaled ns/op ",
                          out, re.M))
    assert sorted(got) == sorted(["globallock", "multiq", "seqlsm", "klsm"])
    assert all(float(ns) > 0 for ns in got.values())


def test_calls_per_op_repeat_and_rank_the_kinds():
    """Python calls per op come from one untimed pass at a fixed seed, so
    a second run prints the same column; a klsm op makes more calls than
    a one-frame globallock op."""
    def calls():
        out = subprocess.run(
            [sys.executable, TOOL, "--queue", "globallock", "--queue", "klsm",
             "--prefill", "300", "--ops", "600", "--rounds", "1"],
            check=True, capture_output=True, text=True, timeout=60).stdout
        return dict(re.findall(r"^(\w+) .* ([\d.]+) calls/op ", out, re.M))

    first = calls()
    assert sorted(first) == ["globallock", "klsm"]
    assert calls() == first
    assert float(first["klsm"]) > float(first["globallock"]) == 1
