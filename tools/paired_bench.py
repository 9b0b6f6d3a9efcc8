#!/usr/bin/env python3
"""Paired, interleaved benchmark runs of two commits.

    python3 tools/paired_bench.py BASE HEAD --workload verify-mix --seed 7919 --pairs 10
    python3 tools/paired_bench.py BASE HEAD --workload verify-mix --workload simulate-rates \
        --seed 7919 --pairs 6

Each commit is copied with ``git archive`` into its own temporary directory,
and ``perfbench/run.py --trace 0`` runs from each copy in turn: pair i runs
BASE first when i is even and HEAD first when i is odd, so a slow spell of a
shared host falls on both sides. ``--workload`` may be given more than once;
the workloads run one after another, each with its own pairs. For every
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the number of pairs in which HEAD was better (ties count for
neither), the ratio of the medians, whether the medians differ by more than
BASE's interquartile range, and how far HEAD's median moved the worse way as
a share of BASE's. A metric that moved the worse way by more than its bound
in BENCHMARK.json is flagged. Each run's line also shows the percentile that
``op_tail_ms`` read and the number of samples; when that percentile differs
between runs, a warning says so, since ``op_tail_ms`` then moves with the
sample count and not with any request's speed. ``--json FILE`` also writes
every run. The exit status is 1 when a run failed its check or a metric was
flagged. Nothing in the repository is edited.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# run.py's report of the tail, e.g. "op_tail_ms  140.2 ms  (p90 of 480 samples, 47 beyond)"
TAIL_LINE = re.compile(r"^op_tail_ms\s.*\(p([\d.]+) of (\d+) samples", re.MULTILINE)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, dest: Path) -> Path:
    """The files of ``commit`` under ``dest``, as ``git archive`` writes them."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as t:
        t.extractall(dest)
    return dest


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one untraced run: name -> value, plus the run's verdict."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no output from {copy}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    return {"exit_code": proc.returncode, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics, "tail": tail_rung(proc.stdout)}


def tail_rung(stdout: str) -> dict | None:
    """The percentile op_tail_ms read and the number of samples it read it
    from, as run.py prints them; None when the line is missing."""
    m = TAIL_LINE.search(stdout)
    return {"percentile": float(m.group(1)), "samples": int(m.group(2))} if m else None


def rung_text(tail: dict | None) -> str:
    return "tail rung unknown" if tail is None else \
        f"tail p{tail['percentile']:g} of {tail['samples']} samples"


def rung_warning(runs: dict[str, list[dict]]) -> str | None:
    """A warning when op_tail_ms read different percentiles across runs."""
    rungs = {side: [f"p{r['tail']['percentile']:g}" if r["tail"] else "?" for r in side_runs]
             for side, side_runs in runs.items()}
    if len({p for ps in rungs.values() for p in ps}) <= 1:
        return None
    return ("warning: op_tail_ms read different percentiles across runs (" +
            "; ".join(f"{side} {' '.join(ps)}" for side, ps in rungs.items()) +
            "): the rung moves with the sample count, and op_tail_ms with it")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def worse_by(base: float, head: float, higher: bool) -> float:
    """How far head moved from base the worse way, as a share of base
    (negative when head is better)."""
    change = base - head if higher else head - base
    if base:
        return change / abs(base)
    return math.inf if change > 0 else 0.0


def summarize(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [r["metrics"][name] for r in runs["base"]]
        head = [r["metrics"][name] for r in runs["head"]]
        wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
        bq, hq = quartiles(base), quartiles(head)
        worse = worse_by(bq[1], hq[1], higher)
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     "base": {"q1": bq[0], "median": bq[1], "q3": bq[2]},
                     "head": {"q1": hq[0], "median": hq[1], "q3": hq[2]},
                     "head_wins": wins, "pairs": len(base),
                     "ratio": hq[1] / bq[1] if bq[1] else None,
                     "gap_exceeds_base_iqr": abs(hq[1] - bq[1]) > bq[2] - bq[0],
                     "worse_by": worse, "bound": spec["bound"],
                     "past_bound": worse > spec["bound"]}
    return out


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="the commit measured against (for example HEAD~1)")
    ap.add_argument("head", help="the commit measured (for example HEAD)")
    ap.add_argument("--workload", required=True, action="append",
                    choices=("verify-mix", "generate-desk", "simulate-rates"),
                    help="a workload to run; give it once per workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--json", type=Path, help="also write every run and the summary here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    args.workload = list(dict.fromkeys(args.workload))
    return args


def run_pairs(copies: dict[str, Path], workload: str, args) -> dict[str, list[dict]]:
    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            r = run_once(copies[side], workload, args.seed, args.seconds)
            r["pair"], r["ran_first"] = i, side == order[0]
            runs[side].append(r)
            m = r["metrics"]
            print(f"{workload} pair {i} {side}: " + ", ".join(f"{k} {m[k]:.4g}" for k in m) +
                  f"; {rung_text(r['tail'])}", flush=True)
    return runs


def report(workload: str, summary: dict, runs: dict[str, list[dict]]) -> list[str]:
    """Print one workload's table; return the lines that flag a metric."""
    print(f"{'metric':<12} {'base median [q1, q3]':<32} {'head median [q1, q3]':<32} "
          f"{'wins':<6} {'ratio':<7} {'gap > base IQR':<15} worse by (bound)")
    flags = []
    for name, s in summary.items():
        b, h = s["base"], s["head"]
        cells = [f"{x['median']:.4g} [{x['q1']:.4g}, {x['q3']:.4g}]" for x in (b, h)]
        ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}"
        worse = f"{s['worse_by']:+.1%} ({s['bound']:.0%})"
        print(f"{name:<12} {cells[0]:<32} {cells[1]:<32} {s['head_wins']}/{s['pairs']:<4} "
              f"{ratio:<7} {str(s['gap_exceeds_base_iqr']):<15} {worse}")
        if s["past_bound"]:
            flags.append(f"past its bound: {workload} {name} median moved {s['worse_by']:.1%} "
                         f"the worse way ({b['median']:.4g} -> {h['median']:.4g} {s['unit']}; "
                         f"bound {s['bound']:.0%})")
    warning = rung_warning(runs)
    if warning:
        print(warning)
    return flags


def main(argv=None) -> int:
    args = parse_args(argv)
    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    results = {}
    with tempfile.TemporaryDirectory(prefix="paired_bench_") as tmp:
        copies = {side: export(c, Path(tmp) / side) for side, c in commits.items()}
        for workload in args.workload:
            runs = run_pairs(copies, workload, args)
            results[workload] = {"runs": runs, "summary": summarize(runs, end_to_end)}
    flags, failed = [], 0
    for workload, res in results.items():
        print(f"\n{workload} seed {args.seed}, {args.pairs} pairs; "
              f"base {commits['base'][:10]}, head {commits['head'][:10]}")
        flags += report(workload, res["summary"], res["runs"])
        failed += sum(r["exit_code"] != 0 for side in res["runs"].values() for r in side)
    for line in flags:
        print(line)
    if failed:
        print(f"{failed} run(s) exited nonzero: a request failed its check")
    if args.json:
        args.json.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                         "pairs": args.pairs, "commits": commits,
                                         "workloads": results}, indent=1) + "\n")
    return 1 if failed or flags else 0


if __name__ == "__main__":
    sys.exit(main())
