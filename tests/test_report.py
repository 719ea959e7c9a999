"""The report's exact output: the text table and the CSV of fixed results.

Every line below is pinned byte for byte, so a change to how rows are built
cannot move a column, a rounding or a blank cell unnoticed."""
import pytest

from pqbench.bench import BenchConfig, BenchResult, RepResult, aggregate
from pqbench.cli import csv_rows, emit_report


def result(cfg, reps):
    return BenchResult(cfg, reps, aggregate(reps))


def quality(i, ops, mops, mean, std, mx, viol):
    return RepResult(i, ops, ops // 2, ops - ops // 2, 3, 0.25, mops,
                     rank_mean=mean, rank_std=std, rank_max=mx,
                     violations=viol)


def throughput(i, ops, mops):
    return RepResult(i, ops, ops // 2, ops - ops // 2, 0, 0.25, mops)


RESULTS = {
    "klsm": result(
        BenchConfig(queue="klsm", k=4, threads=2, workload="split",
                    keys="uniform16", prefill=1000, duration_s=0.25, reps=3,
                    seed=7, mode="quality"),
        [quality(0, 41000, 0.164, 3.25, 2.5, 9, 0),
         quality(1, 39877, 0.159508, 3.8125, 2.0625, 9, 0),
         quality(2, 40123, 0.160492, 2.875, 1.75, 10, 1)]),
    "multiq": result(
        BenchConfig(queue="multiq", c=3, threads=2, keys="uniform8",
                    prefill=500, duration_s=0.5, reps=1),
        [throughput(0, 183611, 0.367222)]),
    "globallock": result(
        BenchConfig(queue="globallock", prefill=100, duration_s=0.05, reps=2,
                    mode="quality"),
        [quality(0, 27311, 0.54622, 1.0, 0.0, 1, 0),
         quality(1, 27502, 0.55004, 1.0, 0.0, 1, 0)]),
    "seqlsm": result(
        BenchConfig(queue="seqlsm", workload="alternating",
                    keys="descending", prefill=30000, duration_s=1.5,
                    reps=2),
        [throughput(0, 302000, 0.201333), throughput(1, 299000, 0.199333)]),
}

HEADER = ("  rep    ops_total     mops/s  rank_mean   rank_std  rank_max"
          "   viol\n")
CSV_HEADER = ("queue,k,c,threads,workload,keydist,prefill,duration,repetition,"
              "ops_total,mops_per_sec,rank_mean,rank_std,rank_max,bound,"
              "violations,ci95_mops_per_sec,ci95_rank_mean\n")

TEXT = {
    "klsm": (
        "queue=klsm k=4 c=- threads=2 workload=split keys=uniform16 "
        "prefill=1000 duration=0.25s reps=3 mode=quality bound=9\n"
        + HEADER +
        "    0        41000     0.1640      3.250      2.500         9      0\n"
        "    1        39877     0.1595      3.812      2.062         9      0\n"
        "    2        40123     0.1605      2.875      1.750        10      1\n"
        " mean      40333.3     0.1613      3.312      2.104        10      1"
        "  (mops ±0.0059 95% CI)\n"),
    "multiq": (
        "queue=multiq k=- c=3 threads=2 workload=uniform keys=uniform8 "
        "prefill=500 duration=0.5s reps=1 mode=throughput bound=-\n"
        + HEADER +
        "    0       183611     0.3672          -          -         -      -\n"
        " mean     183611.0     0.3672          -          -         -      -"
        "  (mops ±- 95% CI)\n"),
    "globallock": (
        "queue=globallock k=- c=- threads=1 workload=uniform keys=uniform32 "
        "prefill=100 duration=0.05s reps=2 mode=quality bound=1\n"
        + HEADER +
        "    0        27311     0.5462      1.000      0.000         1      0\n"
        "    1        27502     0.5500      1.000      0.000         1      0\n"
        " mean      27406.5     0.5481      1.000      0.000         1      0"
        "  (mops ±0.0243 95% CI)\n"),
    "seqlsm": (
        "queue=seqlsm k=- c=- threads=1 workload=alternating keys=descending "
        "prefill=30000 duration=1.5s reps=2 mode=throughput bound=1\n"
        + HEADER +
        "    0       302000     0.2013          -          -         -      -\n"
        "    1       299000     0.1993          -          -         -      -\n"
        " mean     300500.0     0.2003          -          -         -      -"
        "  (mops ±0.0127 95% CI)\n"),
}

CSV = {
    "klsm": CSV_HEADER + (
        "klsm,4,,2,split,uniform16,1000,0.25,0,41000,0.164,3.25,2.5,9,9,0,,\n"
        "klsm,4,,2,split,uniform16,1000,0.25,1,39877,0.159508,3.8125,2.0625,"
        "9,9,0,,\n"
        "klsm,4,,2,split,uniform16,1000,0.25,2,40123,0.160492,2.875,1.75,10,"
        "9,1,,\n"
        "klsm,4,,2,split,uniform16,1000,0.25,mean,40333.333333333336,"
        "0.16133333333333333,3.3125,2.1041666666666665,10,9,1,"
        "0.0058656153448056365,1.172176777382958\n"),
    "multiq": CSV_HEADER + (
        "multiq,,3,2,uniform,uniform8,500,0.5,0,183611,0.367222,,,,,,,\n"
        "multiq,,3,2,uniform,uniform8,500,0.5,mean,183611.0,0.367222,,,,,,,\n"),
    "globallock": CSV_HEADER + (
        "globallock,,,1,uniform,uniform32,100,0.05,0,27311,0.54622,1.0,0.0,"
        "1,1,0,,\n"
        "globallock,,,1,uniform,uniform32,100,0.05,1,27502,0.55004,1.0,0.0,"
        "1,1,0,,\n"
        "globallock,,,1,uniform,uniform32,100,0.05,mean,27406.5,0.54813,1.0,"
        "0.0,1,1,0,0.024268851046093252,0.0\n"),
    "seqlsm": CSV_HEADER + (
        "seqlsm,,,1,alternating,descending,30000,1.5,0,302000,0.201333,,,,1,"
        ",,\n"
        "seqlsm,,,1,alternating,descending,30000,1.5,1,299000,0.199333,,,,1,"
        ",,\n"
        "seqlsm,,,1,alternating,descending,30000,1.5,mean,300500.0,0.200333,"
        ",,,1,,0.012706204736174705,\n"),
}


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_text_table_is_pinned(name, capsys):
    emit_report(RESULTS[name])
    assert capsys.readouterr().out == TEXT[name]


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_csv_rows_are_pinned(name):
    want = [line.split(",") for line in CSV[name].splitlines()]
    assert csv_rows(RESULTS[name]) == want


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_csv_file_is_pinned(name, tmp_path):
    path = tmp_path / "report.csv"
    emit_report(RESULTS[name], str(path))
    assert path.read_bytes() == CSV[name].encode("utf-8")
