"""Command-line interface: parsing, exit codes, CSV report round trip."""
import csv
from dataclasses import fields

import pytest

import pqbench.bench as bench
import pqbench.cli as cli
from pqbench.bench import BenchConfig, BenchResult, RepResult, aggregate
from pqbench.cli import (CSV_FIELDS, build_parser, config_from_args, csv_rows,
                         main)
from pqbench.baseline import LockedHeap
from pqbench.bench import make_queue


def parse(argv):
    return build_parser().parse_args(argv)


# ----------------------------------------------------------------------
# parsing

def test_defaults():
    cfg = config_from_args(parse([]))
    assert cfg.queue == "klsm"
    assert cfg.k == 256
    assert cfg.threads == 1
    assert cfg.prefill == 1_000_000
    assert cfg.duration_s == 10.0
    assert cfg.reps == 30
    assert cfg.mode == "throughput"


def test_klsm_quality_example():
    cfg = config_from_args(parse(
        ["--queue", "klsm", "--k", "128", "--threads", "4",
         "--mode", "quality"]))
    assert cfg.bound == 513


def test_multiq_thread_count_example():
    cfg = config_from_args(parse(["--queue", "multiq", "--threads", "8"]))
    assert make_queue(cfg).n == 32


def test_unknown_workload_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["--workload", "nope"])
    assert e.value.code == 2


def test_latency_mode_is_rejected_as_unimplemented():
    with pytest.raises(SystemExit) as e:
        main(["--mode", "latency", "--duration-s", "0.05", "--reps", "1"])
    assert e.value.code == 2


def test_invalid_config_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["--queue", "seqlsm", "--threads", "4"])
    assert e.value.code == 2


def test_split_with_one_thread_exits_2(monkeypatch, capsys):
    """One split thread only inserts, so no delete and no rank exists."""
    def must_not_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_benchmark", must_not_run)
    with pytest.raises(SystemExit) as e:
        main(["--workload", "split", "--threads", "1", "--mode", "quality",
              "--prefill", "100", "--duration-s", "0.05", "--reps", "2"])
    assert e.value.code == 2
    assert "split needs --threads >= 2" in capsys.readouterr().err


def test_split_with_depend_on_deleted_exits_2(monkeypatch, capsys):
    """Split's inserting threads never delete, so their keys cannot drift."""
    def must_not_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_benchmark", must_not_run)
    with pytest.raises(SystemExit) as e:
        main(["--workload", "split", "--threads", "2", "--depend-on-deleted",
              "--prefill", "100", "--duration-s", "0.05", "--reps", "1"])
    assert e.value.code == 2
    assert "no effect under split" in capsys.readouterr().err


def test_quality_prefill_past_the_log_cap_exits_2(monkeypatch, capsys):
    """The prefill alone would overflow the log: fail before building it."""
    def must_not_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_benchmark", must_not_run)
    with pytest.raises(SystemExit) as e:
        main(["--mode", "quality", "--prefill", str(bench.MAX_LOG_EVENTS + 1),
              "--duration-s", "0.05", "--reps", "1"])
    assert e.value.code == 2
    assert "fit the log" in capsys.readouterr().err


def test_threads_past_the_seq_thread_bits_exit_2(monkeypatch, capsys):
    """A seq holds its thread id in 16 bits: more threads fail typed,
    before any queue, workload or thread is built."""
    def must_not_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_benchmark", must_not_run)
    with pytest.raises(SystemExit) as e:
        main(["--threads", str(bench.MAX_THREADS + 1), "--reps", "1"])
    assert e.value.code == 2
    assert f"between 1 and {1 << 16}" in capsys.readouterr().err


def test_every_config_field_is_a_cli_setting():
    """A flag sets every field, so no setting exists that only code can
    reach: with every flag away from its default, no field keeps its own."""
    cfg = config_from_args(parse(
        ["--queue", "multiq", "--k", "7", "--c", "3", "--threads", "5",
         "--workload", "alternating", "--keys", "uniform16",
         "--prefill", "11", "--duration-s", "0.5", "--reps", "2",
         "--seed", "9", "--mode", "quality", "--depend-on-deleted"]))
    kept = [f.name for f in fields(BenchConfig)
            if getattr(cfg, f.name) == f.default]
    assert kept == []


@pytest.mark.parametrize("duration", ["nan", "inf", "1e300"])
def test_non_finite_or_huge_duration_exits_2(monkeypatch, duration):
    def must_not_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_benchmark", must_not_run)
    with pytest.raises(SystemExit) as e:
        main(["--duration-s", duration, "--reps", "1"])
    assert e.value.code == 2


def test_k_with_other_queue_warns_and_is_ignored(capsys):
    cfg = config_from_args(parse(["--queue", "multiq", "--k", "7"]))
    err = capsys.readouterr().err
    assert "only affects the klsm queue" in err
    assert cfg.bound is None


# ----------------------------------------------------------------------
# end-to-end runs

def run_args(tmp_path, extra=()):
    return ["--queue", "globallock", "--prefill", "100",
            "--duration-s", "0.05", "--reps", "3", "--mode", "quality",
            "--csv", str(tmp_path / "report.csv"), *extra]


def test_main_writes_csv_and_exits_0(tmp_path, capsys):
    assert main(run_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "queue=globallock" in out
    assert "mean" in out

    with open(tmp_path / "report.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(CSV_FIELDS)
    assert len(rows) == 1 + 3 + 1       # header, three reps, summary
    reps = [r[rows[0].index("repetition")] for r in rows[1:]]
    assert reps == ["0", "1", "2", "mean"]


def test_csv_round_trip_reproduces_summary(tmp_path):
    assert main(run_args(tmp_path)) == 0
    with open(tmp_path / "report.csv", newline="") as f:
        recs = list(csv.DictReader(f))
    per_rep = [float(r["mops_per_sec"]) for r in recs if r["repetition"] != "mean"]
    summary = [r for r in recs if r["repetition"] == "mean"][0]
    assert float(summary["mops_per_sec"]) == pytest.approx(
        sum(per_rep) / len(per_rep))
    # interval columns are blank on repetition rows, filled on the summary
    for r in recs:
        if r["repetition"] == "mean":
            assert r["ci95_mops_per_sec"] != ""
            assert r["ci95_rank_mean"] != ""
        else:
            assert r["ci95_mops_per_sec"] == ""
            assert r["ci95_rank_mean"] == ""
    assert all(r["rank_mean"] == "1.0" for r in recs)
    assert all(r["violations"] == "0" for r in recs)


def test_unwritable_csv_path_exits_1(tmp_path, monkeypatch, capsys):
    """The destination is checked before any repetition runs."""
    def must_not_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_benchmark", must_not_run)
    bad = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["--queue", "globallock", "--prefill", "100",
                 "--duration-s", "0.5", "--reps", "2", "--csv", str(bad)])
    assert code == 1
    assert "error: cannot write report" in capsys.readouterr().err


@pytest.mark.parametrize("existing", [True, False])
def test_csv_check_leaves_the_destination_as_it_was(tmp_path, monkeypatch,
                                                    existing):
    """The early check truncates no report and leaves no empty file behind
    when the run then fails."""
    path = tmp_path / "report.csv"
    if existing:
        path.write_text("kept\n")

    def failing_run(cfg):
        raise bench.SelfCheckError("conservation violated")

    monkeypatch.setattr(cli, "run_benchmark", failing_run)
    assert main(["--queue", "globallock", "--csv", str(path)]) == 1
    if existing:
        assert path.read_text() == "kept\n"
    else:
        assert not path.exists()


def test_failed_worker_exits_1(monkeypatch, capsys):
    class Broken:
        def register(self, rng=None):
            return self

        def insert(self, *args):
            raise ValueError("broken queue")

        delete_min = insert

    monkeypatch.setattr(bench, "make_queue", lambda c: Broken())
    code = main(["--queue", "globallock", "--prefill", "0",
                 "--duration-s", "5", "--reps", "1"])
    assert code == 1
    assert "worker 0 failed: ValueError: broken queue" in capsys.readouterr().err


def test_corrupt_quality_log_exits_1(monkeypatch, capsys):
    class Stutter(LockedHeap):
        """Hands every deleted item out twice.  It is its own handle: a
        ``LockedHeapHandle`` runs its ops itself, not through the queue's
        methods."""
        again = None

        def register(self, rng=None):
            return self

        def delete_min(self):
            it, self.again = self.again, None
            if it is None:
                it = self.again = super().delete_min()
            return it

    monkeypatch.setattr(bench, "make_queue", lambda c: Stutter())
    code = main(["--queue", "globallock", "--prefill", "100",
                 "--duration-s", "0.05", "--reps", "1", "--mode", "quality"])
    assert code == 1
    assert "error: delete of non-live seq" in capsys.readouterr().err


def test_bound_violations_exit_3(monkeypatch, capsys):
    cfg = BenchConfig(queue="klsm", k=1, threads=1, prefill=0,
                      duration_s=0.05, reps=1, mode="quality")
    bad_rep = RepResult(0, 100, 50, 50, 0, 0.05, 1.0, rank_mean=5.0,
                        rank_std=1.0, rank_max=9, violations=4)
    fake = BenchResult(cfg, [bad_rep], aggregate([bad_rep]))
    monkeypatch.setattr(cli, "run_benchmark", lambda c: fake)
    code = main(["--queue", "klsm", "--k", "1", "--duration-s", "0.05",
                 "--reps", "1", "--mode", "quality"])
    assert code == 3
    assert "exceeded the rank bound 2" in capsys.readouterr().err


def test_csv_rows_requires_results():
    cfg = BenchConfig()
    rep0 = RepResult(0, 10, 5, 5, 0, 1.0, 1.0)
    res = BenchResult(cfg, [rep0], aggregate([rep0]))
    assert len(csv_rows(res)) == 3
    with pytest.raises(ValueError):
        csv_rows(BenchResult(cfg, [], aggregate([rep0])))


@pytest.mark.parametrize("queue,k,c", [
    ("klsm", "7", ""), ("multiq", "", "3"), ("globallock", "", "")])
def test_report_shows_only_the_settings_the_queue_used(tmp_path, capsys,
                                                       queue, k, c):
    path = tmp_path / "report.csv"
    assert main(["--queue", queue, "--k", "7", "--c", "3", "--prefill", "10",
                 "--duration-s", "0.05", "--reps", "1",
                 "--csv", str(path)]) == 0
    assert f"k={k or '-'} c={c or '-'} " in capsys.readouterr().out
    with open(path, newline="") as f:
        recs = list(csv.DictReader(f))
    assert [(r["k"], r["c"]) for r in recs] == [(k, c)] * 2
