"""Self-test of the benchmark (runs every workload briefly; about 3 minutes).

    python3 -m pytest perfbench/bench_selftest.py

The file name keeps it out of the repository's default test collection.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

# counts that must be identical across two traced runs of one seed
REPEATING = ("conelp.iterations", "conelp.schur_dim", "exact_linalg.psd_check.calls",
             "exact_linalg.psd_check.order_sum", "exact_linalg.entry_bits_max",
             "conelp.flops_per_iter", "gd_lab.flops_per_step", "rates.s_bar_sum",
             "certificate.reject_share", "pep_builder.M_mat.calls",
             "certificate.pointwise_levels", "two_step.membership_checks",
             "sdp_search.round_attempts", "trace.requests", "trace.spans", "repeat_share")


def bench(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc, result = bench(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "failed_share",
                 "peak_rss_mb"):
        assert re.search(rf"^{name}\s+\S+ \S+", proc.stdout, re.M), name
    assert re.search(r"^failed_share\s+0 ratio", proc.stdout, re.M)
    assert re.search(r"op_tail_ms .*\(p\d+ of \d+ samples, \d+ beyond\)", proc.stdout)
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (bench(w, 1)[1], bench(w, 1)[1]) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(traced_twice, workload):
    a, b = traced_twice[workload]
    assert_metrics(a, SPEC["per_layer"])
    for key in REPEATING:
        assert a["metrics"][key]["value"] == b["metrics"][key]["value"], key


def test_each_workload_drives_its_layers(traced_twice):
    v = {w: {k: e["value"] for k, e in traced_twice[w][0]["metrics"].items()} for w in WORKLOADS}
    assert v["verify-mix"]["exact_linalg.psd_check.calls"] > 0
    assert v["verify-mix"]["two_step.membership_checks"] > 0
    assert v["verify-mix"]["conelp.iterations"] == 0
    assert v["generate-desk"]["conelp.iterations"] > 0
    assert v["generate-desk"]["sdp_search.round_attempts"] > 0
    assert v["simulate-rates"]["gd_lab.run_gd.ms"] > 0
    assert v["simulate-rates"]["rates.s_bar_sum"] > 0
    assert v["simulate-rates"]["exact_linalg.psd_check.calls"] == 0
    assert v["simulate-rates"]["conelp.iterations"] == 0
    # the altered documents are exactly the rejected ones
    assert 0 < v["verify-mix"]["certificate.reject_share"] < 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
