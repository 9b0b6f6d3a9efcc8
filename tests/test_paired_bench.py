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
