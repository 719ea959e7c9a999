"""Smoke test for ``tools/levers.py`` at tiny counts."""
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "levers.py")


def test_reports_every_gc_mode_and_the_swap_bound():
    out = subprocess.run(
        [sys.executable, TOOL, "--prefill", "600", "--ops", "1200",
         "--rounds", "1", "--pairs", "1"],
        check=True, capture_output=True, text=True, timeout=60).stdout
    got = dict(re.findall(r"^klsm gc (\w+) +([\d.]+) ns/op ", out, re.M))
    assert sorted(got) == ["frozen", "off", "on"]
    assert all(float(ns) > 0 for ns in got.values())
    assert re.search(r"^klsm Slsm\._swap [\d.]+ calls/op .* = +[\d.]+ ns/op$",
                     out, re.M), out
