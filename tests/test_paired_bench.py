"""tools/paired_bench.py reads the tail rung of each run and warns when it moves."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"
spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

# run.py's report lines, as it prints them
REPORT = """workload generate-desk seed 7919: 480 requests in 10 rounds
op_p50_ms      19.52 ms
op_tail_ms     140.2 ms  (p90 of 480 samples, 47 beyond)
ok_share       1 ratio
"""


def run(percentile, samples):
    return {"tail": {"percentile": percentile, "samples": samples}}


def test_reads_the_tail_rung():
    assert paired_bench.tail_rung(REPORT) == {"percentile": 90.0, "samples": 480}
    line = "op_tail_ms     14.2 ms  (p99.9 of 10080 samples, 10 beyond)"
    assert paired_bench.tail_rung(line) == {"percentile": 99.9, "samples": 10080}
    assert paired_bench.tail_rung("op_p50_ms 19.5 ms\n") is None
    assert paired_bench.rung_text(paired_bench.tail_rung(REPORT)) == "tail p90 of 480 samples"


def test_warns_when_the_rung_moves():
    same = {"base": [run(99, 9560), run(99, 8800)], "head": [run(99, 9100)]}
    assert paired_bench.rung_warning(same) is None
    moved = {"base": [run(99, 9560)], "head": [run(99.9, 10040)]}
    warning = paired_bench.rung_warning(moved)
    assert "base p99; head p99.9" in warning
    assert paired_bench.rung_warning({"base": [run(90, 480)], "head": [{"tail": None}]})


def test_workload_may_be_given_more_than_once():
    args = paired_bench.parse_args(["BASE", "HEAD", "--workload", "verify-mix",
                                    "--workload", "simulate-rates", "--seed", "7919"])
    assert args.workload == ["verify-mix", "simulate-rates"]
    one = paired_bench.parse_args(["BASE", "HEAD", "--workload", "generate-desk", "--seed", "1"])
    assert one.workload == ["generate-desk"]


SPECS = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
         {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
         {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def side(**metrics):
    """Three runs around the given medians."""
    return [{"metrics": {k: v * f for k, v in metrics.items()}, "tail": None}
            for f in (0.99, 1.0, 1.01)]


def test_flags_each_metric_past_its_bound(capsys):
    # simulate-rates setup_s 0.382 -> 0.487 s (+27.5%, past 25%); ops_per_s
    # 20% lower (within 25%); peak_rss_mb lower (better)
    runs = {"base": side(setup_s=0.382, ops_per_s=10.0, peak_rss_mb=73.0),
            "head": side(setup_s=0.487, ops_per_s=8.0, peak_rss_mb=60.4)}
    summary = paired_bench.summarize(runs, SPECS)
    assert summary["setup_s"]["worse_by"] == (0.487 - 0.382) / 0.382
    assert abs(summary["ops_per_s"]["worse_by"] - 0.2) < 1e-12
    assert summary["peak_rss_mb"]["worse_by"] < 0
    assert [n for n, s in summary.items() if s["past_bound"]] == ["setup_s"]
    (flag,) = paired_bench.report("simulate-rates", summary, runs)
    assert flag.startswith("past its bound: simulate-rates setup_s median moved 27.5%")
    assert "+27.5% (25%)" in capsys.readouterr().out
    # a higher-is-better metric flags when it falls past its bound
    runs["head"] = side(setup_s=0.382, ops_per_s=7.4, peak_rss_mb=73.0)
    summary = paired_bench.summarize(runs, SPECS)
    assert [n for n, s in summary.items() if s["past_bound"]] == ["ops_per_s"]
    assert paired_bench.worse_by(0.0, 1.0, higher=False) == float("inf")
    assert paired_bench.worse_by(0.0, 0.0, higher=False) == 0.0
