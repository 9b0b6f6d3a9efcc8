#!/usr/bin/env python3
"""Produce the long bundled certificates (t15, t31) with the pipeline.

Run from the repository root:

    python3 tools/generate_long_certificates.py t15 t31

Each certificate is exactly verified before being written to
src/lscert/data/certs/<id>.json. The tool writes certificates only: the Delta
and eps that `lscert rate --pattern-id` quotes are read from the certificate
itself (`bundled.bundled_pattern_meta`), so the pattern registry needs no
update. Each pattern's line gives its time and the process's peak resident
memory so far (ru_maxrss). A search that ends in NotFound or RoundingFailure,
or a certificate that does not verify, prints its message (and, for
NotFound, the best residuals and the solver summary) with the time and peak
memory to stderr; the tool then goes on to the next id and exits 1 at the
end. Generation beyond t = 31 is outside the supported desk scale.
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
from lscert.sdp_search import NotFound, RoundingFailure, SolveOptions, generate  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "src" / "lscert" / "data"

PLAN = {
    "t15": {"delta": Fraction(1, 10 ** 6), "tol": 1e-10, "bits": 80, "iters": 400},
    # the t31 solve plateaus around 2e-9 violations: accept that and let the
    # exact stage (which is the arbiter anyway) decide
    "t31": {"delta": Fraction(1, 10 ** 8), "tol": 1e-8, "bits": None, "iters": 400},
}


def peak_rss_mb() -> float:
    """The peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cost(t0: float) -> str:
    """The time since t0 and the peak resident memory so far."""
    return f"[{time.time() - t0:.0f}s, peak RSS {peak_rss_mb():.0f} MB]"


def main(ids: list[str]) -> int:
    status = 0
    for pid in ids:
        plan = PLAN[pid]
        pattern = bundled_pattern(pid)
        print(f"{pid}: t={pattern.t}, Delta={plan['delta']}, generating...", flush=True)
        t0 = time.time()
        try:
            cert, report, eps_min = generate(
                pattern, plan["delta"],
                SolveOptions(max_iters=plan["iters"], tol=plan["tol"]),
                denom_bits=plan["bits"])
        except (NotFound, RoundingFailure) as e:
            print(f"{pid}: {type(e).__name__}: {e}", file=sys.stderr)
            if getattr(e, "residuals", None):
                print(f"{pid}: best residuals: " + json.dumps(
                    {k: float(f"{v:.3e}") for k, v in e.residuals.items()}), file=sys.stderr)
            if getattr(e, "solver", None):
                print(f"{pid}: solver: {json.dumps(e.solver)}", file=sys.stderr)
            print(f"{pid}: no certificate written {cost(t0)}", file=sys.stderr, flush=True)
            status = 1
            continue
        if not report.overall:
            print(f"{pid}: exact verification failed: {report.failed_conditions()} {cost(t0)}",
                  file=sys.stderr, flush=True)
            status = 1
            continue
        out = DATA / "certs" / f"{pid}.json"
        save_certificate(cert, out)
        print(f"{pid}: verified exactly; eps = {float(cert.epsilon):.3e}, rate "
              f"coefficient {float(cert.pattern.avg_h - cert.epsilon):.9f} "
              f"{cost(t0)} -> {out}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(PLAN)))
