"""The three workloads: seeded request streams over the public lscert API.

Each workload is a stream of rounds. A round is a fixed multiset of request
kinds; the seed picks the inputs of each request and the order within the
round, so every round costs about the same and runs of any seed are
comparable. The library only ever sees the generated inputs.

A request is timed around ``run``; ``check`` validates the result afterwards,
outside the timed region.
"""
from __future__ import annotations

import contextlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Request:
    kind: str
    key: bytes                                   # input bytes, for repeat_share
    run: Callable                                # run(span) -> result
    check: Callable                              # check(result) -> error text or None


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _cycle(rng: random.Random, menu: list):
    """Draw from the menu without replacement, reshuffling when exhausted."""
    while True:
        yield from _shuffled(rng, menu)


def _cert_doc(lib, cert) -> bytes:
    """JSON document in the certificate file schema (see lscert.certificate)."""
    s = lib.exact_linalg.rat_to_str
    mat = lambda M: [[s(v) for v in M.row(i)] for i in range(M.rows)]  # noqa: E731
    return json.dumps({"t": cert.t, "h": [s(v) for v in cert.pattern.h],
                       "delta": s(cert.Delta), "epsilon": s(cert.epsilon),
                       "lambda": mat(cert.lam), "gamma": mat(cert.gam)}, indent=1).encode()


class Workload:
    """Seeded stream of rounds. Construction plus ``warm_up`` is the set-up."""
    name = ""
    nominal_round_s = 1.0       # seconds per round where the benchmark was built (2 cores)

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.rng = random.Random(seed)
        self.workdir = workdir

    def warm_up(self) -> None:
        for req in self.warm_up_requests():
            err = req.check(req.run(no_span))
            if err:
                raise RuntimeError(f"warm-up {req.kind} failed: {err}")

    def warm_up_requests(self) -> list[Request]:
        raise NotImplementedError

    def next_round(self) -> list[Request]:
        raise NotImplementedError


def no_span(name):
    """Span factory of an untraced run."""
    return contextlib.nullcontext()


# --- verify-mix -----------------------------------------------------------------

BASES = ("t2", "t3", "t7", "t15")
# eta = j/64 on (0, 3): each was confirmed to bisect, pass membership, have
# eps_min <= 0 and pass all 17 pointwise checks
ETA_MENU = [Fraction(j, 64) for j in range(1, 192)]
POINTWISE_LEVELS = 17
SEARCH_BITS = 16


class VerifyMix(Workload):
    """Exact verification of certificate documents.

    Per round: the bundled t2, t3 and t15 documents once and t7 three times
    (byte-identical every round), one altered document per bundled base
    (each unique, must fail), six two-step family certificates at fresh eta
    and four dyadic Delta searches. The weights put the median inside the
    two-step verifications and p90 inside the t7 verifications rather than
    on a boundary between request kinds, where it would jump with the seed.
    """
    name = "verify-mix"
    nominal_round_s = 2.1
    round_spec = {"verify.bundled": {"t2": 1, "t3": 1, "t7": 3, "t15": 1},
                  "verify.two_step": 6, "search.two_step_delta": 4}

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        cm = lib.certificate
        self.docs = {pid: lib.bundled.certificate_path(pid).read_bytes() for pid in BASES}
        # exact minimal slack of each base, for alterations that undercut it
        self.eps_min = {}
        for pid, doc in self.docs.items():
            c = cm.certificate_from_obj(json.loads(doc))
            em = cm.minimal_epsilon(c.pattern, c.Delta, c.lam, c.gam, check_preconditions=False)
            if isinstance(em, cm.Infeasible) or em > c.epsilon:
                raise RuntimeError(f"bundled {pid} does not carry a valid slack")
            self.eps_min[pid] = em
        self.seen: set[bytes] = set()
        self.rounds = 0
        self.doc_etas = _cycle(self.rng, ETA_MENU)
        self.search_etas = _cycle(self.rng, ETA_MENU)

    def warm_up_requests(self):
        return [self._verify("verify.bundled", self.docs["t3"], True),
                self._search(Fraction(1))]

    def next_round(self):
        self.rounds += 1
        reqs = [self._verify("verify.bundled", self.docs[pid], True)
                for pid, count in self.round_spec["verify.bundled"].items() for _ in range(count)]
        reqs += [self._verify("verify.altered", self._altered(pid), False) for pid in BASES]
        for _ in range(self.round_spec["verify.two_step"]):
            eta = next(self.doc_etas)
            ts = self.lib.two_step
            cert = ts.two_step_certificate(eta, ts.bisect_dyadic_delta(eta, SEARCH_BITS))
            reqs.append(self._verify("verify.two_step", _cert_doc(self.lib, cert), True))
        reqs += [self._search(next(self.search_etas))
                 for _ in range(self.round_spec["search.two_step_delta"])]
        return _shuffled(self.rng, reqs)

    def _altered(self, pid: str) -> bytes:
        """A unique document that must fail: the stored slack is set below its
        exact minimum (every other round, where that minimum is positive), or
        one off-diagonal multiplier entry is moved."""
        le = self.lib.exact_linalg
        rng = self.rng
        while True:
            obj = json.loads(self.docs[pid])
            if self.eps_min[pid] > 0 and self.rounds % 2:
                obj["epsilon"] = le.rat_to_str(
                    self.eps_min[pid] * Fraction(rng.randrange(2 ** 24), 2 ** 24))
            else:
                which = rng.choice(("lambda", "gamma"))
                i, j = rng.sample(range(len(obj[which])), 2)
                move = Fraction(rng.randrange(1, 2 ** 20), 2 ** 30) * rng.choice((1, -1))
                obj[which][i][j] = le.rat_to_str(le.rat_from_decimal(obj[which][i][j]) + move)
            doc = json.dumps(obj, indent=1).encode()
            if doc not in self.seen:
                self.seen.add(doc)
                return doc

    def _verify(self, kind: str, doc: bytes, must_pass: bool) -> Request:
        cm = self.lib.certificate

        def run(span):
            with span("certificate.load"):
                cert = cm.certificate_from_obj(json.loads(doc))
            report = cm.check_membership(cert)
            if not report.overall:
                return cert, report, None, None, None
            em = cm.minimal_epsilon(cert.pattern, cert.Delta, cert.lam, cert.gam,
                                    check_preconditions=False)
            levels = [cert.Delta * k / (POINTWISE_LEVELS - 1) for k in range(POINTWISE_LEVELS)]
            pointwise = [cm.check_pointwise(cert, d) for d in levels]
            return cert, report, em, pointwise, cm.guarantee_of(cert, report)

        def check(result):
            cert, report, em, pointwise, g = result
            if not must_pass:
                return "altered certificate passed" if report.overall else None
            if not report.overall:
                return f"failed conditions {report.failed_conditions()}"
            if isinstance(em, cm.Infeasible) or em > cert.epsilon:
                return f"eps_min {em} above stored epsilon {cert.epsilon}"
            if len(pointwise) != POINTWISE_LEVELS or not all(pointwise):
                return "a pointwise check failed"
            if g.rate_coefficient != cert.pattern.avg_h - cert.epsilon:
                return "guarantee coefficient mismatch"
            return None

        return Request(kind, doc, run, check)

    def _search(self, eta: Fraction) -> Request:
        ts = self.lib.two_step
        cm = self.lib.certificate

        def run(span):
            return ts.bisect_dyadic_delta(eta, SEARCH_BITS)

        def check(delta):
            pattern = ts.two_step_pattern(eta)
            lam, gam = ts.two_step_multipliers(eta)
            unit = Fraction(1, 2 ** SEARCH_BITS)
            cap = cm.delta_cap(pattern)
            passes = lambda d: cm.check_membership(  # noqa: E731
                cm.Certificate(pattern, d, Fraction(0), lam, gam)).overall
            if not (0 < delta <= cap) or (delta / unit).denominator != 1:
                return f"Delta {delta} is not a dyadic in (0, cap]"
            if not passes(delta):
                return f"Delta {delta} fails membership"
            if delta + unit <= cap and passes(delta + unit):
                return f"Delta {delta} is not the largest passing dyadic"
            return None

        return Request("search.two_step_delta", f"search {eta}".encode(), run, check)


# --- generate-desk ----------------------------------------------------------------

# kind -> (pattern, Delta, SolveOptions kwargs, denom_bits); t15 uses the
# settings of tools/generate_long_certificates.py. Each was confirmed to
# generate an exactly verified certificate.
GEN_MENU = {
    "generate.t1": ("1", Fraction(1, 100), None, None),
    "generate.t2": ("2.9,1.5", Fraction(1, 1000), None, None),
    "generate.t3": ("1.5,4.9,1.5", Fraction(1, 10 ** 4), None, None),
    "generate.t7": ("t7", Fraction(1, 10 ** 5), None, None),
    "generate.t15": ("t15", Fraction(1, 10 ** 6), {"max_iters": 400, "tol": 1e-10}, 80),
}
PRIMAL_PATTERNS = ("t2", "t7")


class GenerateDesk(Workload):
    """Search -> round -> verify through sdp_search.generate, plus worst-case
    primal solves. Per round: 4 t1, 2 t2, 30 t3, 6 t7 and 1 t15 generations,
    4 t2 and 3 t7 primal solves at seeded gap levels (50 requests, so two
    rounds give the 100 samples a p90 needs). Only the primal gap levels
    depend on the seed. The weights put as many requests below the t3
    generations as above them, so the median sits in the middle of the t3
    generations, and p90 among the t7 generations; both have the same input
    every round.
    """
    name = "generate-desk"
    nominal_round_s = 17.0
    round_spec = {"generate.t1": 4, "generate.t2": 2, "generate.t3": 30, "generate.t7": 6,
                  "generate.t15": 1, "primal.t2": 4, "primal.t7": 3}

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        b = lib.bundled
        self.patterns = {}
        for kind, (text, _, _, _) in GEN_MENU.items():
            self.patterns[kind] = (b.bundled_pattern(text) if text.startswith("t")
                                   else lib.pep_builder.StepsizePattern.from_text(text))
        self.primal_meta = {pid: (b.bundled_pattern(pid), b.bundled_pattern_meta(pid)["delta"])
                            for pid in PRIMAL_PATTERNS}
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.serial = 0

    def warm_up_requests(self):
        # the first solve at t7 scale pays a one-off cost (about 0.8 s at seed)
        return [self._generate("generate.t1"), self._generate("generate.t7"),
                self._primal("t2", 0.5)]

    def next_round(self):
        reqs = []
        for kind, count in self.round_spec.items():
            for _ in range(count):
                if kind.startswith("primal."):
                    u = self.rng.randrange(1, 2 ** 10 + 1) / 2 ** 10
                    reqs.append(self._primal(kind.split(".")[1], u))
                else:
                    reqs.append(self._generate(kind))
        return _shuffled(self.rng, reqs)

    def _generate(self, kind: str) -> Request:
        ss = self.lib.sdp_search
        cm = self.lib.certificate
        _, delta, opts, bits = GEN_MENU[kind]
        pattern = self.patterns[kind]

        def run(span):
            return ss.generate(pattern, delta, ss.SolveOptions(**opts) if opts else None,
                               denom_bits=bits)

        def check(result):
            cert, report, em = result
            if not report.overall or em > cert.epsilon or cert.Delta != delta:
                return "generated certificate does not verify at the requested Delta"
            self.serial += 1
            path = self.workdir / f"roundtrip-{self.serial}.json"
            try:
                cm.save_certificate(cert, path)
                back = cm.load_certificate(path)
            finally:
                path.unlink(missing_ok=True)
            if back != cert:
                return "certificate changed in a save/load round trip"
            if not cm.check_membership(back).overall:
                return "reloaded certificate fails membership"
            return None

        return Request(kind, f"{kind} {pattern.as_text()} {delta}".encode(), run, check)

    def _primal(self, pid: str, u: float) -> Request:
        ss = self.lib.sdp_search
        pattern, Delta = self.primal_meta[pid]
        delta = float(Delta) * u
        bound = delta - float(pattern.sum_h) * delta * delta + 1e-6

        def run(span):
            return ss.evaluate_primal(pattern, delta)

        def check(pv):
            if not math.isfinite(pv.value) or pv.value > bound:
                return f"primal value {pv.value} above {bound} at delta={delta}"
            return None

        return Request("primal", f"primal {pid} {delta!r}".encode(), run, check)


# --- simulate-rates ---------------------------------------------------------------

GD_STEPS = 2000
# denominators roughly double per period, so the cost grows fast with periods
ORACLE_PERIODS = 10


class SimulateRates(Workload):
    """Gradient descent on seeded least squares, rate bounds and the exact
    one-dimensional worst case, each request covering the whole pattern
    registry (const1 to t127).

    Per round: two simulations (n = 200 and n = 500), 140 rate queries and
    40 oracle runs. The weights put the median inside the rate queries and
    p90 inside the oracle runs rather than on a boundary between request
    kinds, where it would jump with the seed. They also keep the n = 500
    simulation, whose speed swings with the host's cache pressure (up to
    twofold within a minute), to about two fifths of a round. An oracle
    run's cost follows the denominator of its gap, so every gap is an odd
    multiple of 2^-16.
    """
    name = "simulate-rates"
    nominal_round_s = 9.7
    round_spec = {"rate": 140, "oracle": 40}

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        b = lib.bundled
        ids = sorted(b.pattern_ids(), key=lambda pid: (b.bundled_pattern(pid).t, pid))
        self.registry = {pid: (b.bundled_pattern(pid), b.bundled_pattern_meta(pid)) for pid in ids}

    def warm_up_requests(self):
        return [self._simulate(50, 0), self._rate(1, 1, 1, [1, 10]),
                self._oracle(Fraction(1, 100))]

    def next_round(self):
        rng = self.rng
        reqs = [self._simulate(n, rng.randrange(2 ** 31)) for n in (200, 500)]
        for _ in range(self.round_spec["rate"]):
            L = Fraction(rng.randrange(1, 10 ** 4), 100)
            D = Fraction(rng.randrange(1, 10 ** 3), 100)
            f0 = Fraction(rng.randrange(1, 10 ** 8), 100)
            ks = sorted({max(1, int(10 ** rng.uniform(0, 8))) for _ in range(8)})
            reqs.append(self._rate(L, D, f0, ks))
        for _ in range(self.round_spec["oracle"]):
            reqs.append(self._oracle(Fraction(2 * rng.randrange(2 ** 15) + 1, 2 ** 16)))
        return _shuffled(rng, reqs)

    def _simulate(self, n: int, seed: int) -> Request:
        gd = self.lib.gd_lab
        rates = self.lib.rates

        def run(span):
            prob = gd.gen_least_squares(n, seed, ridge=False)
            return prob, [gd.run_gd(prob, pattern, GD_STEPS, pattern_id=pid)
                          for pid, (pattern, _) in self.registry.items()]

        def check(result):
            # once a pattern-boundary gap is under L D^2 Delta, every later one
            # stays under the certified bound (x0 = 0, D = |x*|)
            prob, records = result
            D = float(np.linalg.norm(prob.x_star))
            for rec in records:
                if not np.all(np.isfinite(rec.gaps)):
                    return f"non-finite gap for {rec.pattern_id}"
                pattern, meta = self.registry[rec.pattern_id]
                t = pattern.t
                boundary = rec.gaps[::t]
                threshold = prob.L * D * D * float(meta["delta"])
                anchor = next((i for i, v in enumerate(boundary) if v <= threshold), None)
                if anchor is None:
                    continue
                scale = rates.ProblemScale(Fraction(prob.L), Fraction(D),
                                           Fraction(max(float(boundary[anchor]), 0.0)))
                g = rates.rate_guarantee(scale, pattern.sum_h, t, meta["epsilon"], meta["delta"])
                for k in range(1, len(boundary) - anchor):
                    if boundary[anchor + k] <= 0:
                        break
                    if boundary[anchor + k] > float(rates.bound_at(k * t, scale, g)) * (1 + 1e-10):
                        return f"{rec.pattern_id}: gap above the certified bound at period {k}"
            return None

        return Request("simulate", f"simulate {n} {seed}".encode(), run, check)

    def _rate(self, L, D, f0, ks: list[int]) -> Request:
        """Bounds at len(ks) horizons (k pattern applications) for every pattern."""
        rates = self.lib.rates
        scale = rates.ProblemScale(Fraction(L), Fraction(D), Fraction(f0))

        def run(span):
            out = {}
            for pid, (pattern, meta) in self.registry.items():
                g = rates.rate_guarantee(scale, pattern.sum_h, pattern.t, meta["epsilon"],
                                         meta["delta"])
                out[pid] = [rates.bound_at(k * pattern.t, scale, g) for k in ks]
            return out

        def check(bounds):
            for pid, bs in bounds.items():
                if not all(b > 0 for b in bs):
                    return f"non-positive bound for {pid}"
                if not all(a > b for a, b in zip(bs, bs[1:])):
                    return f"bound_at does not decrease in T for {pid}"
            return None

        return Request("rate", f"rate {L} {D} {f0} {ks}".encode(), run, check)

    def _oracle(self, u: Fraction) -> Request:
        """Worst-case gaps from delta0 = u / sum(h) for every pattern."""
        gd = self.lib.gd_lab

        def run(span):
            out = {}
            for pid, (pattern, _) in self.registry.items():
                seq = gd.one_d_worstcase(u / pattern.sum_h, pattern, ORACLE_PERIODS)
                out[pid] = seq, [gd.kink_descent_gap(d, pattern) for d in seq[:-1]]
            return out

        def check(result):
            for pid, (seq, kinks) in result.items():
                if len(seq) != ORACLE_PERIODS + 1 or list(seq[1:]) != kinks:
                    return f"kink descent disagrees with the recurrence for {pid}"
            return None

        return Request("oracle", f"oracle {u}".encode(), run, check)


WORKLOADS = {w.name: w for w in (VerifyMix, GenerateDesk, SimulateRates)}
