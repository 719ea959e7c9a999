"""Import cost: ``import pqbench`` loads the queues, not the harness."""
import json
import os
import subprocess
import sys

import pqbench

SRC = os.path.dirname(os.path.dirname(pqbench.__file__))


def loaded_after(statement, names):
    """Which of ``names`` are in ``sys.modules`` after ``statement`` runs in
    a fresh interpreter."""
    probe = (f"import json, sys; {statement}; "
             f"print(json.dumps([n for n in {names!r} if n in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_pqbench_leaves_the_harness_out():
    assert loaded_after("import pqbench",
                        ["pqbench.bench", "pqbench.cli", "statistics"]) == []


def test_import_bench_leaves_statistics_out():
    assert loaded_after("import pqbench.bench", ["statistics"]) == []


def test_top_level_names():
    assert sorted(pqbench.__all__) == ["Klsm", "LockedHeap", "MultiQueue",
                                       "SeqLsmQueue", "rank_bound"]
    assert all(hasattr(pqbench, name) for name in pqbench.__all__)
