#!/usr/bin/env python3
"""Produce the long bundled certificates (t15, t31) with the pipeline.

Run from the repository root:

    python3 tools/generate_long_certificates.py t15 t31

Each certificate is exactly verified before being written to
src/lscert/data/certs/<id>.json, and the pattern registry entry is synced to
the values the certificate actually achieves; the tool exits 1 if one does
not verify. Each pattern's line gives its time and the process's peak
resident memory so far (ru_maxrss). Generation beyond t = 31 is outside the
supported desk scale.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lscert.bundled import bundled_pattern  # noqa: E402
from lscert.certificate import save_certificate  # noqa: E402
from lscert.exact_linalg import rat_to_str  # noqa: E402
from lscert.sdp_search import SolveOptions, generate  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "src" / "lscert" / "data"

PLAN = {
    "t15": {"delta": Fraction(1, 10 ** 6), "tol": 1e-10, "bits": 80, "iters": 400},
    # the t31 solve plateaus around 2e-9 violations: accept that and let the
    # exact stage (which is the arbiter anyway) decide
    "t31": {"delta": Fraction(1, 10 ** 8), "tol": 1e-8, "bits": None, "iters": 400},
}


def sync_registry(pattern_id: str, delta: Fraction, epsilon: Fraction) -> None:
    reg_path = DATA / "patterns.json"
    reg = json.loads(reg_path.read_text())
    reg[pattern_id]["delta"] = rat_to_str(delta)
    reg[pattern_id]["epsilon"] = rat_to_str(epsilon)
    reg_path.write_text(json.dumps(reg, indent=1) + "\n")


def peak_rss_mb() -> float:
    """The peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(ids: list[str]) -> int:
    for pid in ids:
        plan = PLAN[pid]
        pattern = bundled_pattern(pid)
        print(f"{pid}: t={pattern.t}, Delta={plan['delta']}, generating...", flush=True)
        t0 = time.time()
        cert, report, eps_min = generate(
            pattern, plan["delta"],
            SolveOptions(max_iters=plan["iters"], tol=plan["tol"]),
            denom_bits=plan["bits"])
        if not report.overall:
            print(f"{pid}: exact verification failed: {report.failed_conditions()}",
                  file=sys.stderr)
            return 1
        out = DATA / "certs" / f"{pid}.json"
        save_certificate(cert, out)
        sync_registry(pid, cert.Delta, cert.epsilon)
        print(f"{pid}: verified exactly; eps = {float(cert.epsilon):.3e}, rate "
              f"coefficient {float(cert.pattern.avg_h - cert.epsilon):.9f} "
              f"[{time.time() - t0:.0f}s, peak RSS {peak_rss_mb():.0f} MB] -> {out}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(PLAN)))
