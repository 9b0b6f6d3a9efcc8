"""Command-line interface: verification, generation, rates, simulation, PEP dumps.

Exit codes: 0 = the requested property was affirmatively established,
1 = it was not (failed verification, search came up empty), 2 = usage or
input-file problems, 3 = internal error. With --json, a machine-readable
object with a stable schema_version field is printed instead of prose.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import bundled
from .certificate import (
    Certificate,
    CertificateError,
    check_membership,
    check_pointwise,
    guarantee_of,
    load_certificate,
    save_certificate,
    Infeasible,
)
from .exact_linalg import RationalParseError, rat_from_decimal, rat_to_str
from .gd_lab import emit_csv, gen_least_squares, run_gd
from .pep_builder import StepsizePattern, index_pairs, pair_table
from .rates import ProblemScale, UnsupportedRegimeError, bound_at, rate_guarantee
from .sdp_search import NotFound, RoundingFailure, SolveOptions, generate

SCHEMA_VERSION = 3
EXIT_OK, EXIT_FALSE, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3


@dataclass
class CommandOutcome:
    exit_code: int
    summary: str
    payload: dict = field(default_factory=dict)
    payload_path: str | None = None

    def emit(self, as_json: bool) -> None:
        if as_json:
            obj = {"schema_version": SCHEMA_VERSION, "exit_code": self.exit_code,
                   "summary": self.summary, **self.payload}
            if self.payload_path:
                obj["payload_path"] = self.payload_path
            print(json.dumps(obj, indent=1))
        else:
            print(self.summary)
            if self.payload_path:
                print(f"wrote {self.payload_path}")


def _parse_pattern(text: str) -> StepsizePattern:
    try:
        return StepsizePattern.from_text(text)
    except (RationalParseError, ValueError) as e:
        raise UsageError(f"bad --pattern {text!r}: {e}") from None


def _resolve_pattern(args) -> tuple[str, StepsizePattern]:
    if getattr(args, "pattern", None):
        return "custom", _parse_pattern(args.pattern)
    if getattr(args, "pattern_id", None):
        try:
            return args.pattern_id, bundled.bundled_pattern(args.pattern_id)
        except KeyError as e:
            raise UsageError(str(e)) from None
    raise UsageError("provide --pattern or --pattern-id")


class UsageError(ValueError):
    pass


# --- verify -----------------------------------------------------------------

def _float_or_none(q: Fraction) -> float | None:
    """float(q), or None past the float range (written null in JSON)."""
    try:
        return float(q)
    except OverflowError:
        return None


def _approx(exact: str, value: float | None, spec: str) -> str:
    """value in the format spec, or the exact rational where it has no float."""
    return exact if value is None else format(value, spec)


def _verify_one(path: str, recompute_eps: bool, pointwise: int,
                allow_large_delta: bool) -> dict:
    cert = load_certificate(path)
    report = check_membership(cert, allow_large_delta=allow_large_delta)
    entry = {
        "path": str(path),
        "t": cert.t,
        "h": cert.pattern.as_text(),
        "delta": rat_to_str(cert.Delta),
        "epsilon": rat_to_str(cert.epsilon),
        "conditions": report.condition_flags(),
        "overall": report.overall,
    }
    if not report.lambda_nonneg.ok:
        entry["lambda_violations"] = [
            [i, j, rat_to_str(v)] for i, j, v in report.lambda_nonneg.violations[:5]]
    if report.overall:
        g = guarantee_of(cert, report)
        entry["rate_coefficient"] = rat_to_str(g.avg_minus_eps)
        entry["rate_coefficient_float"] = _float_or_none(g.avg_minus_eps)
        entry["provenance"] = g.provenance
    if recompute_eps:
        em = report.eps_min
        if isinstance(em, Infeasible):
            entry["eps_min"] = None
            entry["eps_min_note"] = em.reason
        else:
            entry["eps_min"] = rat_to_str(em)
            entry["eps_min_float"] = _float_or_none(em)
            entry["eps_min_covered_by_stored"] = bool(em <= cert.epsilon)
    if pointwise:
        ok = all(check_pointwise(cert, cert.Delta * k / pointwise)
                 for k in range(pointwise + 1))
        entry["pointwise_checks"] = pointwise + 1
        entry["pointwise_ok"] = ok
        entry["overall"] = entry["overall"] and ok
    return entry


def cmd_verify(args) -> CommandOutcome:
    paths = args.certificate
    if args.pointwise is not None and args.pointwise < 0:
        raise UsageError(f"--pointwise {args.pointwise}: N must be nonnegative")
    worker_args = [(p, args.recompute_eps, args.pointwise or 0, args.allow_large_delta)
                   for p in paths]
    if args.jobs > 1 and len(paths) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            entries = list(pool.map(_verify_one_star, worker_args))
    else:
        entries = [_verify_one(*wa) for wa in worker_args]
    lines = []
    for e in entries:
        if e["overall"]:
            lines.append(
                f"PASS {e['path']}: h=({e['h']}) is epsilon-straightforward with "
                f"eps={e['epsilon']} (Delta={e['delta']}, rate coefficient "
                f"{e['rate_coefficient']} ~= "
                f"{_approx(e['rate_coefficient'], e['rate_coefficient_float'], '.7f')})")
        else:
            failing = [k for k, v in e["conditions"].items() if not v]
            if e.get("pointwise_ok") is False:
                failing.append("pointwise")
            lines.append(f"FAIL {e['path']}: failing conditions: {', '.join(failing)}")
        if "eps_min" in e and e["eps_min"] is not None:
            lines.append(f"     eps_min = {e['eps_min']} "
                         f"(~{_approx(e['eps_min'], e['eps_min_float'], '.3e')})")
    all_ok = all(e["overall"] for e in entries)
    return CommandOutcome(EXIT_OK if all_ok else EXIT_FALSE, "\n".join(lines),
                          {"certificates": entries})


def _verify_one_star(wa):
    return _verify_one(*wa)


# --- generate -----------------------------------------------------------------

def cmd_generate(args) -> CommandOutcome:
    _, pattern = _resolve_pattern(args)
    delta = rat_from_decimal(args.delta)
    opts = SolveOptions(max_iters=args.max_iters, tol=args.tol)
    cert, report, eps_min = generate(pattern, delta, opts,
                                     denom_bits=args.denom_bits, verbose=args.verbose)
    g = guarantee_of(cert, report)
    payload = {
        "h": pattern.as_text(),
        "delta": rat_to_str(cert.Delta),
        "epsilon": rat_to_str(cert.epsilon),
        "eps_min": rat_to_str(eps_min),
        "rate_coefficient": rat_to_str(g.avg_minus_eps),
        "rate_coefficient_float": float(g.avg_minus_eps),
        "provenance": g.provenance,
    }
    out_path = None
    if args.out:
        save_certificate(cert, args.out)
        out_path = str(args.out)
    summary = (f"verified certificate for h=({pattern.as_text()}): rate coefficient "
               f"{float(g.avg_minus_eps):.9f} (eps={rat_to_str(cert.epsilon)}, "
               f"Delta={rat_to_str(cert.Delta)})")
    return CommandOutcome(EXIT_OK, summary, payload, out_path)


# --- rate ---------------------------------------------------------------------

def _float_up(q: Fraction) -> float:
    """The least float >= q, so that a printed bound never undercuts the
    certified one; OverflowError past the float range."""
    f = float(q)
    if Fraction(f) < q:
        f = math.nextafter(f, math.inf)
    if math.isinf(f):
        raise OverflowError
    return f


def _sci_up(f: float) -> str:
    """f >= 0 written as f"{f:.6e}" would write it, rounded up instead of to
    nearest."""
    text = f"{f:.6e}"
    if Fraction(text) >= Fraction(f):
        return text
    mantissa, exponent = text.split("e")
    digits, exponent = int(mantissa.replace(".", "")) + 1, int(exponent)
    if digits == 10 ** 7:
        digits, exponent = 10 ** 6, exponent + 1
    return f"{digits // 10 ** 6}.{digits % 10 ** 6:06d}e{exponent:+03d}"


def _fixed_up(q: Fraction, places: int) -> str:
    """q written with ``places`` decimals, rounded up instead of to nearest."""
    n = -(-q.numerator * 10 ** places // q.denominator)
    whole, frac = divmod(abs(n), 10 ** places)
    return f"{'-' if n < 0 else ''}{whole}.{frac:0{places}d}"


def cmd_rate(args) -> CommandOutcome:
    if args.cert:
        cert = load_certificate(args.cert)
        pattern, eps, delta = cert.pattern, cert.epsilon, cert.Delta
    elif args.pattern_id:
        try:
            pattern = bundled.bundled_pattern(args.pattern_id)
            meta = bundled.bundled_pattern_meta(args.pattern_id)
        except KeyError as e:
            raise UsageError(str(e)) from None
        eps, delta = meta["epsilon"], meta["delta"]
    else:
        raise UsageError("rate needs --cert or --pattern-id")
    scale = ProblemScale(rat_from_decimal(args.L), rat_from_decimal(args.D),
                         rat_from_decimal(args.f0gap))
    g = rate_guarantee(scale, pattern.sum_h, pattern.t, eps, delta)
    T = args.T
    if T % pattern.t:
        raise UsageError(f"--T {T} is not a multiple of the pattern length {pattern.t}")
    value = bound_at(T, scale, g)
    s = T // pattern.t
    phase = "contraction" if s <= g.s_bar else "sublinear"
    try:
        bound, coefficient = _float_up(value), _float_up(scale.ld2 / g.avg_minus_eps)
        factor = _float_up(g.contraction_factor)
    except OverflowError:
        raise UsageError("the bound exceeds the float range; it scales with f0gap and "
                         "L D^2, so scale both down by one factor") from None
    payload = {
        "t": pattern.t,
        "s_bar": g.s_bar,
        "crossover_T": g.s_bar * pattern.t,
        "contraction_factor_per_application": factor,
        "sublinear_coefficient": coefficient,
        "T": T,
        "phase": phase,
        "bound": bound,
    }
    summary = (
        f"s_bar = {g.s_bar} pattern applications (crossover at T = {g.s_bar * pattern.t});\n"
        f"contraction phase: gap <= {_fixed_up(g.contraction_factor, 9)}^s * f0gap;\n"
        f"sublinear phase:   gap <= LD^2 / ((avg(h)-eps)(T - s_bar t) + 1/Delta);\n"
        f"bound at T={T} ({phase} phase): {_sci_up(bound)}")
    return CommandOutcome(EXIT_OK, summary, payload)


# --- simulate -------------------------------------------------------------------

def cmd_simulate(args) -> CommandOutcome:
    pid, pattern = _resolve_pattern(args)
    if args.problem != "lsq":
        raise UsageError(f"unknown problem kind {args.problem!r} (available: lsq)")
    problem = gen_least_squares(args.n, args.seed, args.ridge)
    record = run_gd(problem, pattern, args.iters, pattern_id=pid)
    out = Path(args.out)
    emit_csv(record, out)
    desc_path = out.with_suffix(".descriptor.json")
    desc_path.write_text(json.dumps(
        {"schema_version": SCHEMA_VERSION, "problem": problem.descriptor,
         "pattern_id": pid, "h": pattern.as_text(), "iters": args.iters,
         "L": problem.L, "final_gap": float(record.gaps[-1])}, indent=1) + "\n")
    summary = (f"simulated {args.iters} steps of h=({pattern.as_text()}) on "
               f"{problem.descriptor['kind']} n={args.n} seed={args.seed}: "
               f"final gap {record.gaps[-1]:.6e}")
    return CommandOutcome(EXIT_OK, summary,
                          {"final_gap": float(record.gaps[-1]),
                           "descriptor_path": str(desc_path)}, str(out))


# --- dump-pep -------------------------------------------------------------------

def cmd_dump_pep(args) -> CommandOutcome:
    """Each pair's multiplier position, its a and the nonzero entries of
    A + C/2, as [row, col, value] in the (*, 0..t) order, from the pair table."""
    _, pattern = _resolve_pattern(args)
    t = pattern.t
    obj = {"schema_version": SCHEMA_VERSION, "t": t, "h": pattern.as_text().split(","),
           "pairs": {}}
    for (i, j), p in zip(index_pairs(t), pair_table(pattern).pairs):
        a = [0] * (t + 1)
        for k, s in p.balance:
            a[k] += s
        obj["pairs"][f"{i},{j}"] = {
            "pos": list(p.pos),
            "a": [str(v) for v in a],
            "A_plus_half_C": [[r, c, rat_to_str(v)]
                              for (r, c), v in sorted(p.entries().items()) if v],
        }
    summary = f"PEP data for h=({pattern.as_text()})"
    if args.out:
        Path(args.out).write_text(json.dumps(obj, indent=1) + "\n")
        return CommandOutcome(EXIT_OK, summary, {"t": t}, str(args.out))
    if args.json:  # the document as an object in the envelope, not a string
        return CommandOutcome(EXIT_OK, summary, {"t": t, "pep": obj})
    return CommandOutcome(EXIT_OK, json.dumps(obj, indent=1))


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lscert",
        description="Exact certificates and rate guarantees for gradient descent "
                    "with cyclic long-step patterns.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify certificate files in exact arithmetic")
    v.add_argument("certificate", nargs="+", help="certificate JSON file(s)")
    v.add_argument("--recompute-eps", action="store_true",
                   help="also compute the minimal certifiable epsilon")
    v.add_argument("--pointwise", type=int, metavar="N",
                   help="cross-check N+1 evenly spaced gap levels in [0, Delta]")
    v.add_argument("--allow-large-delta", action="store_true",
                   help="skip the Delta <= 1/(2 sum h) precondition")
    v.add_argument("--jobs", type=int, default=1, help="parallel verification workers")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("generate", help="search, round, and exactly verify a certificate")
    g.add_argument("--pattern", help='comma-separated stepsizes, e.g. "2.9,1.5"')
    g.add_argument("--pattern-id", help="bundled pattern id (e.g. t7)")
    g.add_argument("--delta", required=True, help="gap cap, e.g. 0.001")
    g.add_argument("--out", help="write the verified certificate here")
    g.add_argument("--denom-bits", type=int, default=None,
                   help="fix the rounding denominator bits (default: try 53, then 80)")
    g.add_argument("--max-iters", type=int, default=200)
    g.add_argument("--tol", type=float, default=1e-8)
    g.add_argument("--verbose", action="store_true")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("rate", help="evaluate the certified convergence bound")
    r.add_argument("--cert", help="certificate file (alternative: --pattern-id)")
    r.add_argument("--pattern-id", help="bundled pattern id with registry Delta/eps")
    r.add_argument("--L", default="1", help="smoothness constant")
    r.add_argument("--D", default="1", help="level-set radius bound")
    r.add_argument("--f0gap", default="1", help="initial objective gap")
    r.add_argument("--T", type=int, required=True, help="total gradient steps (multiple of t)")
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=cmd_rate)

    s = sub.add_parser("simulate", help="run cyclic-pattern gradient descent on a test problem")
    s.add_argument("--problem", default="lsq", help="problem kind (lsq)")
    s.add_argument("--n", type=int, default=200)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--ridge", action="store_true", help="add a unit ridge term")
    s.add_argument("--pattern-id", help="bundled pattern id")
    s.add_argument("--pattern", help="explicit comma-separated stepsizes")
    s.add_argument("--iters", type=int, default=2000)
    s.add_argument("--out", required=True, help="trajectory CSV path")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_simulate)

    d = sub.add_parser("dump-pep", help="dump the exact PEP pair table as JSON")
    d.add_argument("--pattern", help='comma-separated stepsizes')
    d.add_argument("--pattern-id", help="bundled pattern id")
    d.add_argument("--out", help="output path (default: stdout)")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_dump_pep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outcome = args.func(args)
    except (UsageError, CertificateError, RationalParseError, UnsupportedRegimeError,
            FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NotFound as e:
        print(f"not found: {e}", file=sys.stderr)
        if e.residuals:
            print("best residuals: " + json.dumps(
                {k: float(f"{v:.3e}") for k, v in e.residuals.items()}), file=sys.stderr)
        if e.solver:
            print("solver: " + json.dumps(e.solver), file=sys.stderr)
        return EXIT_FALSE
    except RoundingFailure as e:
        print(f"rounding failed: {e}", file=sys.stderr)
        return EXIT_FALSE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    outcome.emit(getattr(args, "json", False))
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
