#!/usr/bin/env python3
"""lscert benchmark driver.

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop of requests from one client in one process,
calling the public lscert functions directly on inputs generated from --seed,
timing each request from outside and checking every result. The package is
imported from ./src of the checkout this file sits in.

--trace 0 reports the end-to-end metrics. The loop runs whole rounds (see
workloads.py) until the requests have taken --seconds and at least
MIN_SAMPLES have completed. Set-up is timed in this process and in
SETUP_PROBES fresh interpreters; setup_s is the median.

--trace 1 reports the per-layer metrics: a fixed number of rounds with every
traced function wrapped (tracing.py), then as many further rounds untraced,
whose throughput gives the tracing overhead. Fixed rounds make the counts
repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only if every request
passed its checks.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# one client on 2 shared cores: a single BLAS thread keeps runs steady; an
# explicit setting in the environment wins and is reported as blas_threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MODULES = ("exact_linalg", "pep_builder", "certificate", "two_step", "conelp",
           "sdp_search", "rates", "gd_lab", "bundled")

MIN_SAMPLES = 100          # the tail percentile below needs ten samples beyond it
MAX_WALL_S = 120.0         # stop early rather than overrun the 180 s per-run limit
SETUP_PROBES = 4
TAIL_LADDER = (500, 900, 990, 999)   # percentiles in tenths, so ranks are exact

END_TO_END = [  # name, unit, better
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("ok_share", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# span names whose self time (total minus traced children) is reported too
SELF_TIMED = ("pep_builder.assemble_Z", "exact_linalg.solve_exact",
              "certificate.check_membership", "certificate.minimal_epsilon",
              "certificate.check_pointwise", "two_step.bisect_dyadic_delta",
              "sdp_search.solve_approx", "sdp_search.round_to_exact",
              "sdp_search.evaluate_primal")
TIMED = ("pep_builder.M_mat", "pep_builder.assemble_Z", "exact_linalg.psd_check",
         "exact_linalg.solve_exact", "exact_linalg.rref", "certificate.load",
         "certificate.check_membership", "certificate.minimal_epsilon",
         "certificate.check_pointwise", "two_step.bisect_dyadic_delta",
         "sdp_search.solve_approx", "sdp_search.round_to_exact",
         "sdp_search.evaluate_primal", "conelp.solve_conic", "gd_lab.gen_least_squares",
         "gd_lab.run_gd", "gd_lab.one_d_worstcase", "gd_lab.kink_descent_gap",
         "rates.rate_guarantee", "rates.bound_at")
KIND_NAMES = ("verify.bundled", "verify.altered", "verify.two_step", "search.two_step_delta",
              "generate.t1", "generate.t2", "generate.t3", "generate.t7", "generate.t15",
              "primal", "simulate", "rate", "oracle")


def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []
    for name in TIMED:
        spec.append((f"{name}.ms", "ms", "lower"))
        if name in SELF_TIMED:
            spec.append((f"{name}.self_ms", "ms", "lower"))
    spec += [
        ("pep_builder.M_mat.calls", "count", "lower"),
        ("exact_linalg.psd_check.calls", "count", "lower"),
        ("exact_linalg.psd_check.order_sum", "count", "lower"),
        ("exact_linalg.entry_bits_max", "bits", "lower"),
        ("certificate.pointwise_levels", "count", "lower"),
        ("certificate.reject_share", "ratio", "lower"),
        ("two_step.membership_checks", "count", "lower"),
        ("sdp_search.round_attempts", "count", "lower"),
        ("sdp_search.round_success_ratio", "ratio", "higher"),
        ("conelp.iterations", "count", "lower"),
        ("conelp.ms_per_iter", "ms", "lower"),
        ("conelp.schur_dim", "count", "lower"),
        ("conelp.rows", "count", "lower"),
        ("conelp.flops_per_iter", "flop_computed", "lower"),
        ("conelp.optimal_share", "ratio", "higher"),
        ("gd_lab.steps_per_s", "1/s", "higher"),
        ("gd_lab.flops_per_step", "flop_computed", "lower"),
        ("rates.s_bar_sum", "count", "lower"),
        ("request.self_ms", "ms", "lower"),
    ]
    spec += [(f"op.{k}.p50_ms", "ms", "lower") for k in KIND_NAMES]
    spec += [
        ("repeat_share", "ratio", "higher"),
        ("trace.requests", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
        ("blas_threads", "count", "higher"),
    ]
    return spec


class SetupError(RuntimeError):
    pass


def import_lscert():
    """Import the lscert modules from ./src of this checkout."""
    src = ROOT / "src"
    if not (src / "lscert" / "__init__.py").is_file():
        raise SetupError(f"no lscert sources under {src}")
    sys.path.insert(0, str(src))
    lib = argparse.Namespace()
    for name in MODULES:
        mod = importlib.import_module(f"lscert.{name}")
        if not Path(mod.__file__).resolve().is_relative_to(src.resolve()):
            raise SetupError(f"lscert.{name} was imported from {mod.__file__}, not {src}")
        setattr(lib, name, mod)
    return lib


def set_up(workload: str, seed: int):
    """Everything from import to the first timed request."""
    t0 = perf_counter()
    lib = import_lscert()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](lib, seed, OUT / "work")
    wl.warm_up()
    first = wl.next_round()
    return lib, wl, first, perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter, so first-call costs count."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def blas_threads() -> int:
    """Thread count of numpy's OpenBLAS, or 0 if it cannot be queried."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for so in sorted(libdir.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(so))
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return 0


@dataclass
class Phase:
    latencies: list = field(default_factory=list)   # ms, every attempted request
    kinds: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    busy_s: float = 0.0
    repeats: int = 0
    rounds: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - len(self.errors)) / self.busy_s if self.busy_s else 0.0


def run_phase(wl, first_round, *, seconds: float = 0.0, rounds: int | None = None,
              tracer=None) -> Phase:
    """Closed loop over whole rounds: a fixed count, or until --seconds of
    request time and MIN_SAMPLES requests."""
    from workloads import no_span
    ph = Phase()
    seen: set[bytes] = set()
    span = tracer.span if tracer else no_span
    wall0 = perf_counter()
    batch = first_round
    while True:
        for req in batch:
            rid = len(ph.latencies)
            ph.repeats += req.key in seen
            seen.add(req.key)
            if tracer:
                tracer.request, tracer.active = rid, True
                root = tracer.open_span(f"request:{req.kind}")
            err = None
            gc.collect()  # garbage of earlier checks is not charged to this request
            t0 = perf_counter()
            try:
                result = req.run(span)
            except Exception as e:  # a failing request is counted, the loop goes on
                err = f"{type(e).__name__}: {e}"
            dt = perf_counter() - t0
            if tracer:
                tracer.close_span(root)
                tracer.active = False
            if err is None:
                try:
                    err = req.check(result)
                except Exception as e:
                    err = f"check raised {type(e).__name__}: {e}"
            ph.latencies.append(1e3 * dt)
            ph.kinds.append(req.kind)
            ph.busy_s += dt
            if err:
                ph.errors.append(f"{req.kind}: {err}")
        ph.rounds += 1
        if rounds is not None:
            if ph.rounds >= rounds:
                break
        elif (ph.busy_s >= seconds and ph.attempted >= MIN_SAMPLES) or \
                perf_counter() - wall0 > MAX_WALL_S:
            break
        batch = wl.next_round()
    return ph


def tail(latencies: list) -> tuple[float, float, int]:
    """Latency at the highest ladder percentile with >= 10 samples beyond it
    (nearest rank): (value, percentile, samples beyond)."""
    n = len(latencies)
    rank = lambda p: max(1, -(-p * n // 1000))  # noqa: E731  ceil(p/1000 * n)
    p = max([p for p in TAIL_LADDER if n - rank(p) >= 10] or [TAIL_LADDER[0]])
    return sorted(latencies)[rank(p) - 1], p / 10, n - rank(p)


def report(correct: bool, ph: Phase, metrics: dict, units: dict) -> int:
    out = {"correct": correct, "attempted": ph.attempted, "failed": len(ph.errors),
           "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(out))
    return 0 if correct else 1


def print_errors(errors: list) -> None:
    for e in errors[:10]:
        print(f"FAILED {e}", file=sys.stderr)


def main_untraced(args) -> int:
    lib, wl, first, own_setup = set_up(args.workload, args.seed)
    samples = [own_setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    ph = run_phase(wl, first, seconds=args.seconds)
    value, p, beyond = tail(ph.latencies)
    m = {
        "setup_s": statistics.median(samples),
        "ops_per_s": ph.ops_per_s,
        "op_p50_ms": statistics.median(ph.latencies),
        "op_tail_ms": value,
        "ok_share": 1 - len(ph.errors) / ph.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {args.workload} seed {args.seed}: {ph.attempted} requests in "
          f"{ph.rounds} rounds, {ph.busy_s:.2f} s of request time; one client, one "
          f"process, BLAS threads {blas_threads()}")
    print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in samples)}")
    for name, unit, _ in END_TO_END:
        note = f"  (p{p:g} of {ph.attempted} samples, {beyond} beyond)" if name == "op_tail_ms" else ""
        print(f"{name:<14} {m[name]:.6g} {unit}{note}")
    print(f"{'failed_share':<14} {len(ph.errors) / ph.attempted:.6g} ratio "
          f"({len(ph.errors)} of {ph.attempted})")
    print(f"{'repeat_share':<14} {ph.repeats / ph.attempted:.6g} ratio")
    print_errors(ph.errors)
    return report(not ph.errors, ph, m, {n: u for n, u, _ in END_TO_END})


def layer_metrics(tracer, traced: Phase, untraced: Phase) -> dict:
    total, own, calls = tracer.times()
    c = tracer.counts
    m = {}
    for name in TIMED:
        m[f"{name}.ms"] = total.get(name, 0.0)
        if name in SELF_TIMED:
            m[f"{name}.self_ms"] = own.get(name, 0.0)
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    iters = c.get("conelp.iterations", 0)
    m.update({
        "pep_builder.M_mat.calls": calls.get("pep_builder.M_mat", 0),
        "exact_linalg.psd_check.calls": calls.get("exact_linalg.psd_check", 0),
        "exact_linalg.psd_check.order_sum": c.get("exact_linalg.psd_check.order_sum", 0),
        "exact_linalg.entry_bits_max": c.get("exact_linalg.entry_bits_max", 0),
        "certificate.pointwise_levels": calls.get("certificate.check_pointwise", 0),
        "certificate.reject_share": ratio(c.get("certificate.rejects", 0),
                                          c.get("certificate.verdicts", 0)),
        "two_step.membership_checks": c.get("two_step.membership_checks", 0),
        "sdp_search.round_attempts": calls.get("sdp_search.round_to_exact", 0),
        "sdp_search.round_success_ratio": ratio(c.get("sdp_search.generated", 0),
                                                calls.get("sdp_search.round_to_exact", 0)),
        "conelp.iterations": iters,
        "conelp.ms_per_iter": ratio(total.get("conelp.solve_conic", 0.0), iters),
        "conelp.schur_dim": c.get("conelp.schur_dim", 0),
        "conelp.rows": c.get("conelp.rows", 0),
        "conelp.flops_per_iter": ratio(c.get("conelp.flops", 0), iters),
        "conelp.optimal_share": ratio(c.get("conelp.optimal", 0), c.get("conelp.solves", 0)),
        "gd_lab.steps_per_s": ratio(c.get("gd_lab.steps", 0), total.get("gd_lab.run_gd", 0.0) / 1e3),
        "gd_lab.flops_per_step": ratio(c.get("gd_lab.flops", 0), c.get("gd_lab.steps", 0)),
        "rates.s_bar_sum": c.get("rates.s_bar_sum", 0),
        "request.self_ms": sum(v for k, v in own.items() if k.startswith("request:")),
    })
    for kind in KIND_NAMES:
        lat = [x for x, k in zip(untraced.latencies, untraced.kinds) if k == kind]
        m[f"op.{kind}.p50_ms"] = statistics.median(lat) if lat else 0.0
    m.update({
        "repeat_share": traced.repeats / traced.attempted,
        "trace.requests": traced.attempted,
        "trace.spans": len(tracer.spans),
        "trace.ops_per_s": traced.ops_per_s,
        "trace.untraced_ops_per_s": untraced.ops_per_s,
        "trace.overhead": ratio(untraced.ops_per_s, traced.ops_per_s),
        "blas_threads": blas_threads(),
    })
    return m


def main_traced(args) -> int:
    from tracing import Tracer
    lib, wl, first, _ = set_up(args.workload, args.seed)
    rounds = max(1, round(args.seconds / (2 * wl.nominal_round_s)))
    tracer = Tracer()
    tracer.install(lib)
    try:
        traced = run_phase(wl, first, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced = run_phase(wl, wl.next_round(), rounds=rounds)
    m = layer_metrics(tracer, traced, untraced)
    spec = per_layer_spec()
    errors = traced.errors + untraced.errors
    verify = [k for k in traced.kinds if k.startswith("verify.")]
    if verify:
        altered = verify.count("verify.altered") / len(verify)
        if m["certificate.reject_share"] != altered:
            errors.append(f"reject_share {m['certificate.reject_share']} != altered share {altered}")
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"workload {args.workload} seed {args.seed}: traced {traced.attempted} requests "
          f"({rounds} rounds), then {untraced.attempted} untraced; spans in {spans_path}")
    for name, unit, _ in spec:
        print(f"{name:<40} {m[name]:.6g} {unit}")
    both = Phase(traced.latencies + untraced.latencies, traced.kinds + untraced.kinds, errors)
    print_errors(errors)
    return report(not errors, both, m, {n: u for n, u, _ in spec})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-mix", "generate-desk", "simulate-rates"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": set_up(args.workload, args.seed)[3]}))
            return 0
        return main_traced(args) if args.trace else main_untraced(args)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
